"""Exact scalars and sparse multivariate Laurent polynomials.

Coefficients are Gaussian rationals a + b*i with arbitrary-precision
rational parts.  A polynomial is a dict mapping exponent tuples to nonzero
coefficients; the tuple order is fixed by a VarTable, which also carries an
optional rational weight per variable and marks at most one variable as the
Laurent variable (the only slot where negative exponents are allowed).

Canonical order is graded lexicographic: terms sort by total degree, then
by exponent tuple.  The text form and the JSON form both list terms in this
order, so serialization is deterministic and round-trips exactly.

gmpy2 is used for the rational backend when available; plain Fraction
otherwise.  Both normalize to lowest terms with positive denominator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    _Q = Fraction

__all__ = [
    "rat",
    "GaussianRational",
    "VarTable",
    "MPoly",
    "parse",
    "PolyError",
    "TableMismatchError",
    "ExponentError",
    "ParseError",
]

RatLike = Union[int, str, Fraction]


class PolyError(ValueError):
    """Base error for polynomial construction and arithmetic."""


class TableMismatchError(PolyError):
    """Binary operation on polynomials over different variable tables."""


class ExponentError(PolyError):
    """Exponent out of range for its slot (negative in a non-Laurent slot,
    or below -1 where a stored value is required to have at most a simple
    pole)."""


class ParseError(PolyError):
    """Malformed polynomial text or JSON."""


def rat(p: RatLike, q: int | None = None):
    """Exact rational from an int, a Fraction, or a string like '7/3360'."""
    if q is None:
        if isinstance(p, str):
            return _Q(Fraction(p))
        return _Q(p)
    return _Q(p) / _Q(q)


_R0 = rat(0)
_R1 = rat(1)


def _as_fraction(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


class GaussianRational:
    """Immutable exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        object.__setattr__(self, "re", rat(re))
        object.__setattr__(self, "im", rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # Trusted fast constructor for arithmetic-internal use.
    @staticmethod
    def _make(re, im) -> "GaussianRational":
        g = GaussianRational.__new__(GaussianRational)
        object.__setattr__(g, "re", re)
        object.__setattr__(g, "im", im)
        return g

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)) or type(other) is type(_R0):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if not self.im:
            return hash(_as_fraction(self.re))
        return hash((_as_fraction(self.re), _as_fraction(self.im)))

    def __add__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._make(-self.re, -self.im)

    def __sub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if self.im or other.im:
            return GaussianRational._make(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return GaussianRational._make(self.re * other.re, _R0)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero GaussianRational")
        if not other.im:
            return GaussianRational._make(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return GaussianRational._make(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other) -> "GaussianRational":
        return _coerce(other).__truediv__(self)

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int):
            raise TypeError("exponent must be int")
        if n < 0:
            return _GR1 / self.__pow__(-n)
        acc = _GR1
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __repr__(self) -> str:
        if not self.im:
            return f"GaussianRational({self.re!s})"
        return f"GaussianRational({self.re!s}, {self.im!s})"


_GR0 = GaussianRational(0)
_GR1 = GaussianRational(1)
_GRI = GaussianRational(0, 1)


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


def _sqrt_rat(x):
    """Exact square root of a nonnegative rational; raises if not a perfect square."""
    p, q = int(x.numerator), int(x.denominator)
    if p < 0:
        raise PolyError(f"square root of negative rational {x}")
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp != p or rq * rq != q:
        raise PolyError(f"{x} is not a perfect square")
    return rat(rp, rq)


Exponent = tuple  # tuple[int, ...], one slot per VarTable entry


@dataclass(frozen=True)
class VarTable:
    """Ordered variable names with optional weights and one optional Laurent slot.

    weights, when present, give the quasi-homogeneous weight of each
    variable as a Fraction and enable Euler-operator helpers.
    """

    names: tuple
    weights: tuple | None = None
    laurent: str | None = None

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise PolyError(f"duplicate variable names: {self.names}")
        for nm in self.names:
            if not nm.isidentifier():
                raise PolyError(f"bad variable name: {nm!r}")
        if self.weights is not None and len(self.weights) != len(self.names):
            raise PolyError("weights length does not match names")
        if self.laurent is not None and self.laurent not in self.names:
            raise PolyError(f"Laurent variable {self.laurent!r} not in table")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PolyError(f"unknown variable {name!r}") from None

    @property
    def laurent_index(self) -> int | None:
        return None if self.laurent is None else self.names.index(self.laurent)


class MPoly:
    """Sparse exact polynomial over a VarTable.

    Terms live in a dict keyed by exponent tuples.  The Laurent slot may
    carry any negative exponent during arithmetic; external representations
    (text, JSON) admit at most a simple pole.  Instances are immutable by
    convention: no method mutates self.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Exponent, GaussianRational]):
        clean = {}
        li = table.laurent_index
        for exp, c in terms.items():
            if len(exp) != table.arity:
                raise PolyError(f"exponent arity {len(exp)} != {table.arity}")
            for j, e in enumerate(exp):
                if e < 0 and j != li:
                    raise ExponentError(
                        f"negative exponent for non-Laurent variable {table.names[j]}"
                    )
            c = _coerce(c)
            if c:
                clean[tuple(exp)] = c
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # Trusted constructor: terms already clean, exponents already checked.
    @staticmethod
    def _make(table: VarTable, terms: dict) -> "MPoly":
        p = MPoly.__new__(MPoly)
        object.__setattr__(p, "table", table)
        object.__setattr__(p, "terms", terms)
        return p

    # ---------- constructors ----------

    @staticmethod
    def zero(table: VarTable) -> "MPoly":
        return MPoly._make(table, {})

    @staticmethod
    def constant(table: VarTable, c) -> "MPoly":
        c = _coerce(c)
        if not c:
            return MPoly._make(table, {})
        return MPoly._make(table, {(0,) * table.arity: c})

    @staticmethod
    def variable(table: VarTable, name: str) -> "MPoly":
        exp = [0] * table.arity
        exp[table.index(name)] = 1
        return MPoly._make(table, {tuple(exp): _GR1})

    @staticmethod
    def monomial(table: VarTable, c, exps: Mapping[str, int]) -> "MPoly":
        exp = [0] * table.arity
        for nm, e in exps.items():
            exp[table.index(nm)] = e
        return MPoly(table, {tuple(exp): _coerce(c)})

    # ---------- basic queries ----------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * self.table.arity, _GR0)

    def coefficient(self, exps: Mapping[str, int]) -> GaussianRational:
        exp = [0] * self.table.arity
        for nm, e in exps.items():
            exp[self.table.index(nm)] = e
        return self.terms.get(tuple(exp), _GR0)

    def coefficient_of(self, name: str, power: int) -> "MPoly":
        """Coefficient of name**power, as a polynomial with that slot zeroed."""
        j = self.table.index(name)
        out = {}
        for exp, c in self.terms.items():
            if exp[j] == power:
                e = list(exp)
                e[j] = 0
                out[tuple(e)] = c
        return MPoly._make(self.table, out)

    def max_exponent(self, name: str) -> int:
        j = self.table.index(name)
        if not self.terms:
            return 0
        return max(exp[j] for exp in self.terms)

    def depends_on(self, name: str) -> bool:
        j = self.table.index(name)
        return any(exp[j] for exp in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(exp) for exp in self.terms)

    def sorted_terms(self) -> list:
        """Terms in canonical graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __len__(self) -> int:
        return len(self.terms)

    # ---------- arithmetic ----------

    def _check_table(self, other: "MPoly"):
        if self.table is not other.table and self.table != other.table:
            raise TableMismatchError(
                f"tables differ: {self.table.names} vs {other.table.names}"
            )

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            return self.table.names == other.table.names and self.terms == other.terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _coerce(other)
            if not c:
                return not self.terms
            return self.terms == {(0,) * self.table.arity: c}
        return NotImplemented

    def __hash__(self):
        return hash((self.table.names, frozenset(self.terms.items())))

    def __add__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.table, other)
        self._check_table(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            acc = out.get(exp)
            if acc is None:
                out[exp] = c
            else:
                s = acc + c
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return MPoly._make(self.table, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._make(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.table, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other) -> "MPoly":
        return MPoly.constant(self.table, other).__sub__(self)

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            c = _coerce(other)
            if not c:
                return MPoly._make(self.table, {})
            return MPoly._make(self.table, {e: k * c for e, k in self.terms.items()})
        self._check_table(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(int.__add__, e1, e2))
                c = c1 * c2
                acc = get(e)
                if acc is None:
                    out[e] = c
                else:
                    s = acc + c
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return MPoly._make(self.table, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            return self.__mul__(other.inverse())
        c = _coerce(other)
        return self.__mul__(_GR1 / c)

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int):
            raise TypeError("exponent must be int")
        if n < 0:
            return self.inverse() ** (-n)
        acc = MPoly.constant(self.table, 1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "MPoly":
        """Inverse of a single-term monomial supported on the Laurent slot.

        General division is out of scope; this is exactly what substitution
        into negative powers and scalar division need.
        """
        if len(self.terms) != 1:
            raise PolyError("only single-term monomials are invertible")
        (exp, c), = self.terms.items()
        li = self.table.laurent_index
        for j, e in enumerate(exp):
            if e and j != li:
                raise ExponentError(
                    f"cannot invert power of non-Laurent variable "
                    f"{self.table.names[j]}"
                )
        inv = tuple(-e for e in exp)
        return MPoly._make(self.table, {inv: _GR1 / c})

    # ---------- calculus ----------

    def diff(self, name: str) -> "MPoly":
        """Formal partial derivative.  The Laurent rule d(s^e)/ds = e*s^(e-1)
        applies for negative e as well; poles deepen by one order."""
        j = self.table.index(name)
        out = {}
        for exp, c in self.terms.items():
            e = exp[j]
            if not e:
                continue
            ne = list(exp)
            ne[j] = e - 1
            key = tuple(ne)
            c2 = c * e
            acc = out.get(key)
            out[key] = c2 if acc is None else acc + c2
        return MPoly._make(self.table, {e: c for e, c in out.items() if c})

    def diff_many(self, *names: str) -> "MPoly":
        p = self
        for nm in names:
            p = p.diff(nm)
        return p

    def euler(self) -> "MPoly":
        """Euler derivative sum(q_a * x_a * d/dx_a); requires table weights."""
        if self.table.weights is None:
            raise PolyError("Euler derivative needs table weights")
        out = {}
        ws = self.table.weights
        for exp, c in self.terms.items():
            d = Fraction(0)
            for w, e in zip(ws, exp):
                if e:
                    d += w * e
            if d:
                out[exp] = c * rat(d.numerator, d.denominator)
        return MPoly._make(self.table, out)

    def weighted_degree_decompose(self) -> list:
        """Split into weighted-homogeneous parts.

        Returns [(degree, part), ...] sorted by degree, degrees as Fractions.
        Requires table weights.
        """
        if self.table.weights is None:
            raise PolyError("decomposition needs table weights")
        ws = self.table.weights
        buckets: dict = {}
        for exp, c in self.terms.items():
            d = Fraction(0)
            for w, e in zip(ws, exp):
                if e:
                    d += w * e
            buckets.setdefault(d, {})[exp] = c
        return [
            (d, MPoly._make(self.table, t)) for d, t in sorted(buckets.items())
        ]

    def weighted_degree(self) -> Fraction | None:
        """Degree if weighted-homogeneous (None for zero); raises otherwise."""
        parts = self.weighted_degree_decompose()
        if not parts:
            return None
        if len(parts) > 1:
            raise PolyError(
                f"not weighted-homogeneous: degrees {[str(d) for d, _ in parts]}"
            )
        return parts[0][0]

    # ---------- substitution and evaluation ----------

    def substitute(self, images: Mapping[str, "MPoly"], target: VarTable | None = None) -> "MPoly":
        """Substitute polynomials for variables.

        Unmapped variables must exist in the target table and map to
        themselves.  A variable occurring with negative exponents needs a
        single-term monomial image (inversion of general polynomials is not
        defined here).
        """
        if target is None:
            target = next(iter(images.values())).table if images else self.table
        imgs = {}
        for nm in self.table.names:
            if nm in images:
                img = images[nm]
                if img.table != target:
                    raise TableMismatchError(f"image of {nm} is over a foreign table")
                imgs[nm] = img
            elif self.depends_on(nm):
                imgs[nm] = MPoly.variable(target, nm)
        powers: dict = {nm: {0: MPoly.constant(target, 1)} for nm in imgs}

        def power(nm: str, e: int) -> MPoly:
            cache = powers[nm]
            got = cache.get(e)
            if got is None:
                got = imgs[nm] ** e
                cache[e] = got
            return got

        acc = MPoly.zero(target)
        names = self.table.names
        for exp, c in self.terms.items():
            term = MPoly.constant(target, c)
            for j, e in enumerate(exp):
                if e:
                    term = term * power(names[j], e)
            acc = acc + term
        return acc

    # ---------- serialization ----------

    def text(self) -> str:
        """Canonical text form, e.g. '1/2*t1^2*t3 - 1/24*t3^3*t4^2'."""
        if not self.terms:
            return "0"
        chunks = []
        for exp, c in self.sorted_terms():
            body, neg = _render_term(self.table, exp, c)
            if not chunks:
                chunks.append("-" + body if neg else body)
            else:
                chunks.append((" - " if neg else " + ") + body)
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"MPoly({self.text()})"

    def to_json(self) -> str:
        """Canonical JSON form; terms in graded-lex order, exact num/den pairs."""
        terms = []
        for exp, c in self.sorted_terms():
            terms.append(
                {
                    "exp": list(exp),
                    "re": [int(c.re.numerator), int(c.re.denominator)],
                    "im": [int(c.im.numerator), int(c.im.denominator)],
                }
            )
        return json.dumps(
            {"vars": list(self.table.names), "terms": terms},
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(text: str) -> "MPoly":
        """Parse the JSON form.  The Laurent slot is inferred from negative
        exponents; at most a simple pole is accepted in stored values."""
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # malformed, an over-long integer literal, or nested too deeply
            raise ParseError(f"bad JSON: {exc}") from None
        if not isinstance(obj, dict) or set(obj) != {"vars", "terms"}:
            raise ParseError("JSON object must have exactly 'vars' and 'terms'")
        names = obj["vars"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ParseError("'vars' must be a list of names")
        if not isinstance(obj["terms"], list):
            raise ParseError("'terms' must be a list")
        parsed = []
        for t in obj["terms"]:
            if not isinstance(t, dict) or set(t) != {"exp", "re", "im"}:
                raise ParseError("term must have exactly 'exp', 're', 'im'")
            exp = t["exp"]
            if not isinstance(exp, list) or not all(type(e) is int for e in exp):
                raise ParseError("exponents must be a list of integers")
            if len(exp) != len(names):
                raise ParseError("exponent arity mismatch")
            if any(e < -1 for e in exp):
                raise ParseError("stored values admit at most a simple pole")
            c = GaussianRational(_json_rational(t["re"]), _json_rational(t["im"]))
            parsed.append((tuple(exp), c))
        laurent = None
        for exp, _ in parsed:
            for j, e in enumerate(exp):
                if e < 0:
                    if laurent not in (None, names[j]):
                        raise ParseError("negative exponents in two slots")
                    laurent = names[j]
        try:
            tab = VarTable(tuple(names), None, laurent)
        except PolyError as exc:
            raise ParseError(str(exc)) from None
        terms = {}
        for exp, c in parsed:
            if not c:
                raise ParseError("explicit zero coefficient")
            if exp in terms:
                raise ParseError("duplicate exponent tuple")
            terms[exp] = c
        return MPoly(tab, terms)


def _json_rational(pair):
    """An exact rational from a stored [numerator, denominator] pair."""
    if (
        not isinstance(pair, list)
        or len(pair) != 2
        or not all(type(x) is int for x in pair)
    ):
        raise ParseError("coefficients must be [numerator, denominator] integer pairs")
    if not pair[1]:
        raise ParseError("zero denominator in a coefficient")
    return rat(pair[0], pair[1])


def _render_term(tab: VarTable, exp: Exponent, c: GaussianRational):
    """Return (body, negate) for one canonical term."""
    factors = []
    for j, e in enumerate(exp):
        if e == 1:
            factors.append(tab.names[j])
        elif e:
            factors.append(f"{tab.names[j]}^{e}")
    mono = "*".join(factors)
    if c.im and c.re:
        im = f"{c.im}*i" if abs(c.im) != 1 else ("i" if c.im > 0 else "-i")
        coeff = f"({c.re}{'+' if c.im > 0 else ''}{im})"
        return (f"{coeff}*{mono}" if mono else coeff), False
    if c.im:
        mag, neg = abs(c.im), c.im < 0
        head = "i" if mag == 1 else f"{mag}*i"
    else:
        mag, neg = abs(c.re), c.re < 0
        head = None if mag == 1 else f"{mag}"
    if head and mono:
        return f"{head}*{mono}", neg
    if head:
        return head, neg
    return (mono if mono else "1"), neg


# ---------- text parser ----------

_TOKEN_CHARS = set("+-*/^() \t\n")


def _tokenize(src: str) -> list:
    toks = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\n":
            i += 1
        elif ch in "+-*/^()":
            toks.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(int(src[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(src[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at offset {i}")
    return toks


class _Parser:
    def __init__(self, toks: list, tab: VarTable):
        self.toks = toks
        self.pos = 0
        self.tab = tab

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse_expr(self) -> MPoly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        acc = self.parse_term() * sign
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.next() == "-":
                    sign = -sign
            acc = acc + self.parse_term() * sign
        return acc

    def parse_term(self) -> MPoly:
        acc = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.parse_factor()
            acc = acc * rhs if op == "*" else acc / rhs
        return acc

    def parse_factor(self) -> MPoly:
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            sign = 1
            if self.peek() == "-":
                self.next()
                sign = -1
            e = self.next()
            if not isinstance(e, int):
                raise ParseError(f"bad exponent {e!r}")
            return base ** (sign * e)
        return base

    def parse_atom(self) -> MPoly:
        tok = self.next()
        if tok == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if isinstance(tok, int):
            return MPoly.constant(self.tab, tok)
        if tok == "i":
            return MPoly.constant(self.tab, _GRI)
        if isinstance(tok, str) and tok not in _TOKEN_CHARS:
            return MPoly.variable(self.tab, tok)
        raise ParseError(f"unexpected token {tok!r}")


def parse(src: str, tab: VarTable) -> MPoly:
    """Parse canonical (or free-form) polynomial text over a fixed table.

    Accepts +, -, *, /, ^, parentheses, integers, 'i', and the table's
    variable names.  Division is by constants or invertible monomials only.
    Stored values admit at most a simple pole in the Laurent slot.
    """
    p = _Parser(_tokenize(src), tab)
    out = p.parse_expr()
    if p.peek() is not None:
        raise ParseError(f"trailing input at token {p.peek()!r}")
    li = tab.laurent_index
    if li is not None and out.terms and min(e[li] for e in out.terms) < -1:
        raise ParseError("stored values admit at most a simple pole")
    return out


def sqrt_coefficient(c: GaussianRational) -> GaussianRational:
    """Exact square root of a rational perfect square (nonnegative real part)."""
    if c.im:
        raise PolyError("square root of a non-real coefficient")
    return GaussianRational(_sqrt_rat(c.re))
