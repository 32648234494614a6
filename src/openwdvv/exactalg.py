"""Exact scalars and sparse multivariate Laurent polynomials.

Scalars are Gaussian rationals a + b*i with Fraction parts.  A polynomial
lives over a VarTable, which fixes the variable order, carries an optional
rational weight per variable and marks at most one variable as the Laurent
variable (the only slot where negative exponents are allowed).

Inside, a polynomial is held in an integer layout:

* each exponent vector is packed into one int with a 16-bit field per
  variable (slot j in bits 16j..16j+15).  The Laurent field stores the
  exponent plus a bias of 2^14, the others the plain exponent, so
  multiplying two monomials is one int addition (less the bias).  The top
  bit of every field is a guard: an exponent outside its field's range
  raises ExponentError and never carries into the neighbouring slot;
* the coefficients are integer numerators over one common denominator,
  kept normalised (den > 0 and gcd(den, all numerators) == 1), so equal
  polynomials have equal dicts and hash alike;
* the imaginary numerators sit in a second map that exists only when
  some coefficient is not real.

Products, sums, derivatives, the Euler operator, substitution and the
builders of saito, openext and coxeter (int ratios by packed key, through
MPoly._from_ratios) run on these ints.  dot is the one accumulation
loop: every a + b, a - b, a * b, scalar multiple and substitution runs
through it, and collect is the one grouping of terms by slot.  Fractions
and GaussianRationals are made only at the edges: MPoly(table, terms),
scalar operands, table weights and degrees, the read-only terms view
(exponent tuple -> GaussianRational), the coefficient queries, and the
text and JSON forms.

Canonical order is graded lexicographic: terms sort by total degree, then
by exponent tuple.  The text form and the JSON form both list terms in this
order, so serialization is deterministic and round-trips exactly.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from types import MappingProxyType
from typing import Union

__all__ = [
    "rat",
    "GaussianRational",
    "VarTable",
    "MPoly",
    "parse",
    "dot",
    "substitute_all",
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
    outside the packed field, or below -1 where a stored value is required
    to have at most a simple pole)."""


class ParseError(PolyError):
    """Malformed polynomial text or JSON."""


def rat(p: RatLike, q: int | None = None) -> Fraction:
    """Exact rational from an int, a Fraction, or a string like '7/3360'."""
    if q is None:
        return Fraction(p)
    return Fraction(p) / q


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
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return GaussianRational._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._make(-self.re, -self.im)

    def __sub__(self, other) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return GaussianRational._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        if self.im or other.im:
            return GaussianRational._make(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return GaussianRational._make(self.re * other.re, _R0)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
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


_R0 = Fraction(0)
_GR0 = GaussianRational(0)
_GR1 = GaussianRational(1)
_GRI = GaussianRational(0, 1)


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


def _operand(x) -> GaussianRational | None:
    """x as a GaussianRational, or None when x is not a scalar (an MPoly,
    say), so that an operator returns NotImplemented and the other
    operand's reflected method runs."""
    if isinstance(x, GaussianRational):
        return x
    try:
        return GaussianRational(x)
    except TypeError:
        return None


def _scalar_ints(x) -> tuple:
    """(re, im, den) with x = (re + im*i)/den, den > 0 and gcd(re, im, den) = 1."""
    if type(x) is int:
        return x, 0, 1
    c = _coerce(x)
    re, im = c.re, c.im
    if not im:
        return re.numerator, 0, re.denominator
    d = math.lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def _sqrt_rat(x: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational; raises if not a perfect square."""
    p, q = x.numerator, x.denominator
    if p < 0:
        raise PolyError(f"square root of negative rational {x}")
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp != p or rq * rq != q:
        raise PolyError(f"{x} is not a perfect square")
    return Fraction(rp, rq)


Exponent = tuple  # tuple[int, ...], one slot per VarTable entry

# Packed exponents: one _WIDTH-bit field per slot; the top bit of each field
# is a guard, and the Laurent field stores exponent + _BIAS.
_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1
_TOP = 1 << (_WIDTH - 1)
_BIAS = 1 << (_WIDTH - 2)


@dataclass(frozen=True)
class VarTable:
    """Ordered variable names with optional weights and one optional Laurent slot.

    weights, when present, give the quasi-homogeneous weight of each
    variable as a Fraction and enable Euler-operator helpers.  The table
    also fixes how exponent vectors pack into ints (pack/unpack).
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
        li = None if self.laurent is None else self.names.index(self.laurent)
        n = len(self.names)
        layout = {
            "_li": li,
            "_biases": tuple(_BIAS if j == li else 0 for j in range(n)),
            # key of the constant monomial; every product subtracts it once
            "_one": 0 if li is None else _BIAS << (_WIDTH * li),
            "_guard": sum(_TOP << (_WIDTH * j) for j in range(n)),
        }
        if self.weights is not None:
            ws = [Fraction(w) for w in self.weights]
            den = math.lcm(*(w.denominator for w in ws)) if ws else 1
            layout["_wnum"] = tuple(int(w * den) for w in ws)
            layout["_wden"] = den
        for key, val in layout.items():
            object.__setattr__(self, key, val)

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
        return self._li

    def pack(self, exp) -> int:
        """The packed key of an exponent tuple; ExponentError when a slot is
        out of range."""
        if len(exp) != len(self.names):
            raise PolyError(f"exponent arity {len(exp)} != {len(self.names)}")
        key = 0
        for j, (e, b) in enumerate(zip(exp, self._biases)):
            raw = e + b
            if not 0 <= raw < _TOP:
                if e < 0 and not b:
                    raise ExponentError(
                        f"negative exponent for non-Laurent variable {self.names[j]}"
                    )
                raise ExponentError(
                    f"exponent {e} of {self.names[j]} is outside the packed range"
                )
            key |= raw << (_WIDTH * j)
        return key

    def unpack(self, key: int) -> tuple:
        """The exponent tuple of a packed key."""
        out = []
        for b in self._biases:
            out.append((key & _FIELD) - b)
            key >>= _WIDTH
        return tuple(out)

    def _field(self, key: int, j: int) -> int:
        return ((key >> (_WIDTH * j)) & _FIELD) - self._biases[j]

    def _wdeg(self, key: int) -> int:
        """Weighted degree of a packed monomial, times _wden."""
        d = 0
        for w, b in zip(self._wnum, self._biases):
            d += w * ((key & _FIELD) - b)
            key >>= _WIDTH
        return d

    def _check_keys(self, keys) -> None:
        if keys and reduce(or_, keys) & self._guard:
            raise ExponentError("an exponent left the packed range of its slot")


_new_poly = object.__new__


class MPoly:
    """Sparse exact polynomial over a VarTable.

    The Laurent slot may carry any negative exponent in the packed range
    during arithmetic; external representations (text, JSON) admit at
    most a simple pole.  Instances are immutable by convention: no method
    mutates self, and terms is a read-only view.
    """

    __slots__ = ("table", "_num", "_den", "_im")

    def __init__(self, table: VarTable, terms: Mapping[Exponent, GaussianRational]):
        parts = []
        for exp, c in terms.items():
            key = table.pack(tuple(exp))
            c = _coerce(c)
            if c:
                parts.append((key, c.re, c.im))
        den = math.lcm(1, *(r.denominator for _, r, _ in parts),
                       *(i.denominator for _, _, i in parts))
        num = {k: r.numerator * (den // r.denominator) for k, r, _ in parts if r}
        im = {k: i.numerator * (den // i.denominator) for k, _, i in parts if i}
        self.table = table
        self._num, self._den, self._im = _reduced(num, den, im or None)

    @staticmethod
    def _new(table: VarTable, num: dict, den: int = 1, im: dict | None = None):
        """Trusted constructor: numerators nonzero, already normalised."""
        p = _new_poly(MPoly)
        p.table = table
        p._num = num
        p._den = den
        p._im = im
        return p

    @staticmethod
    def _from_ints(table: VarTable, num: dict, den: int = 1, im: dict | None = None):
        """Constructor from packed keys and integer numerators over den > 0;
        drops zero numerators and divides out the common factor."""
        if 0 in num.values():
            num = {k: v for k, v in num.items() if v}
        if im is not None and 0 in im.values():
            im = {k: v for k, v in im.items() if v}
        return MPoly._new(table, *_reduced(num, den, im or None))

    @staticmethod
    def _from_ratios(table: VarTable, ratios: dict, im: dict | None = None):
        """Constructor from packed keys and coefficients p/q, q > 0, as int
        pairs (real parts in ratios, imaginary ones in im) over the lcm of
        the q's; ExponentError when a key left its slot's range."""
        im = im or {}
        den = math.lcm(1, *(q for _, q in ratios.values()), *(q for _, q in im.values()))
        num = {k: p * (den // q) for k, (p, q) in ratios.items()}
        ims = {k: p * (den // q) for k, (p, q) in im.items()}
        table._check_keys(num.keys() | ims.keys())
        return MPoly._from_ints(table, num, den, ims or None)

    def _coeff(self, key: int) -> GaussianRational:
        d = self._den
        im = self._im.get(key, 0) if self._im else 0
        return GaussianRational._make(Fraction(self._num.get(key, 0), d), Fraction(im, d))

    # ---------- constructors ----------

    @staticmethod
    def zero(table: VarTable) -> "MPoly":
        return MPoly._new(table, {})

    @staticmethod
    def constant(table: VarTable, c) -> "MPoly":
        re, im, den = _scalar_ints(c)
        one = table._one
        if not re and not im:
            return MPoly._new(table, {})
        return MPoly._new(table, {one: re} if re else {}, den, {one: im} if im else None)

    @staticmethod
    def variable(table: VarTable, name: str) -> "MPoly":
        key = table._one + (1 << (_WIDTH * table.index(name)))
        return MPoly._new(table, {key: 1})

    @staticmethod
    def monomial(table: VarTable, c, exps: Mapping[str, int]) -> "MPoly":
        exp = [0] * table.arity
        for nm, e in exps.items():
            exp[table.index(nm)] = e
        return MPoly(table, {tuple(exp): _coerce(c)})

    # ---------- basic queries ----------

    @property
    def terms(self) -> Mapping:
        """Read-only mapping from exponent tuples to GaussianRational, built
        on each access."""
        unpack = self.table.unpack
        return MappingProxyType({unpack(k): self._coeff(k) for k in self._keys()})

    def __bool__(self) -> bool:
        return bool(self._num) or self._im is not None

    def constant_term(self) -> GaussianRational:
        return self._coeff(self.table._one)

    def coefficient(self, exps: Mapping[str, int]) -> GaussianRational:
        exp = [0] * self.table.arity
        for nm, e in exps.items():
            exp[self.table.index(nm)] = e
        try:
            return self._coeff(self.table.pack(exp))
        except ExponentError:
            return _GR0

    def collect(self, names) -> dict:
        """Group the terms by their exponents in the named variables:
        {exponent tuple over names: coefficient polynomial with those slots
        zeroed}."""
        tab = self.table
        slots = [tab.index(nm) for nm in names]
        groups = {}
        for part, maps in ((0, self._num), (1, self._im or {})):
            for k, v in maps.items():
                g = tuple(tab._field(k, j) for j in slots)
                rest = k
                for j, e in zip(slots, g):
                    rest -= e << (_WIDTH * j)
                groups.setdefault(g, ({}, {}))[part][rest] = v
        return {
            g: MPoly._from_ints(tab, num, self._den, im or None)
            for g, (num, im) in groups.items()
        }

    def _keys(self):
        return self._num.keys() if self._im is None else self._num.keys() | self._im.keys()

    def depends_on(self, name: str) -> bool:
        j = self.table.index(name)
        return any(self.table._field(k, j) for k in self._keys())

    def total_degree(self) -> int:
        keys = self._keys()
        if not keys:
            return 0
        unpack = self.table.unpack
        return max(sum(unpack(k)) for k in keys)

    def sorted_terms(self) -> list:
        """Terms in canonical graded-lex order."""
        unpack = self.table.unpack
        terms = [(unpack(k), self._coeff(k)) for k in self._keys()]
        return sorted(terms, key=lambda kv: (sum(kv[0]), kv[0]))

    def __len__(self) -> int:
        return len(self._keys())

    # ---------- arithmetic ----------

    def _check_table(self, other: "MPoly"):
        if self.table is not other.table:
            _same_table(self.table, other.table)

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            a, b = self.table, other.table
            if a is not b and a.names != b.names:
                return False
            if a._li != b._li:  # same names, different packing
                return self.sorted_terms() == other.sorted_terms()
            return (
                self._den == other._den
                and self._num == other._num
                and self._im == other._im
            )
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == MPoly.constant(self.table, other)
        return NotImplemented

    def __hash__(self):
        # independent of the packing, like __eq__
        return hash((
            self.table.names,
            self._den,
            frozenset(self._num.values()),
            frozenset(self._im.values()) if self._im else None,
        ))

    def __add__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.table, other)
        return dot(((self, 1), (other, 1)), self.table)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        im = {k: -v for k, v in self._im.items()} if self._im else None
        return MPoly._new(self.table, {k: -v for k, v in self._num.items()}, self._den, im)

    def __sub__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.table, other)
        return dot(((self, 1), (other, -1)), self.table)

    def __rsub__(self, other) -> "MPoly":
        return MPoly.constant(self.table, other).__sub__(self)

    def __mul__(self, other) -> "MPoly":
        return dot(((self, other),), self.table)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            return self.__mul__(other.inverse())
        return self.__mul__(_GR1 / _coerce(other))

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
            n >>= 1
            if n:  # squaring past the top bit could leave the packed range
                base = base * base
        return acc

    def inverse(self) -> "MPoly":
        """Inverse of a single-term monomial supported on the Laurent slot.

        General division is out of scope; this is exactly what substitution
        into negative powers and scalar division need.
        """
        if len(self) != 1:
            raise PolyError("only single-term monomials are invertible")
        tab = self.table
        (exp, c), = self.sorted_terms()
        for j, e in enumerate(exp):
            if e and j != tab._li:
                raise ExponentError(
                    f"cannot invert power of non-Laurent variable {tab.names[j]}"
                )
        return MPoly(tab, {tuple(-e for e in exp): _GR1 / c})

    # ---------- calculus ----------

    def diff(self, name: str) -> "MPoly":
        """Formal partial derivative.  The Laurent rule d(s^e)/ds = e*s^(e-1)
        applies for negative e as well; poles deepen by one order."""
        tab = self.table
        j = tab.index(name)
        sh = _WIDTH * j
        unit = 1 << sh
        b = tab._biases[j]

        def part(maps):
            out = {}
            for k, v in maps.items():
                raw = (k >> sh) & _FIELD
                if raw != b:
                    if not raw:
                        raise ExponentError(f"pole of {name} leaves the packed range")
                    out[k - unit] = v * (raw - b)
            return out

        im = part(self._im) if self._im else None
        return MPoly._from_ints(tab, part(self._num), self._den, im)

    def euler(self) -> "MPoly":
        """Euler derivative sum(q_a * x_a * d/dx_a); requires table weights."""
        tab = self.table
        if tab.weights is None:
            raise PolyError("Euler derivative needs table weights")
        wdeg = tab._wdeg
        num = {k: v * wdeg(k) for k, v in self._num.items()}
        im = {k: v * wdeg(k) for k, v in self._im.items()} if self._im else None
        return MPoly._from_ints(tab, num, self._den * tab._wden, im)

    def weighted_degree(self) -> Fraction | None:
        """Degree if weighted-homogeneous (None for zero); raises otherwise."""
        tab = self.table
        if tab.weights is None:
            raise PolyError("weighted degree needs table weights")
        degs = sorted({tab._wdeg(k) for k in self._keys()})
        if len(degs) > 1:
            raise PolyError(
                f"not weighted-homogeneous: degrees {[str(Fraction(d, tab._wden)) for d in degs]}"
            )
        return Fraction(degs[0], tab._wden) if degs else None

    # ---------- substitution ----------

    def substitute(self, images: Mapping[str, "MPoly"], target: VarTable | None = None) -> "MPoly":
        """Substitute polynomials for variables.

        Unmapped variables must exist in the target table and map to
        themselves.  A variable occurring with negative exponents needs a
        single-term monomial image (inversion of general polynomials is not
        defined here).  substitute_all does the same for many polynomials
        with one shared table of image powers.
        """
        return substitute_all((self,), images, target)[0]

    # ---------- serialization ----------

    def text(self) -> str:
        """Canonical text form, e.g. '1/2*t1^2*t3 - 1/24*t3^3*t4^2'."""
        if not self:
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
                    "re": [c.re.numerator, c.re.denominator],
                    "im": [c.im.numerator, c.im.denominator],
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
        try:
            return MPoly(tab, terms)
        except ExponentError as exc:
            raise ParseError(str(exc)) from None


def _reduced(num: dict, den: int, im: dict | None) -> tuple:
    """(num, den, im) divided by gcd(den, every numerator); nonzero entries."""
    if den != 1:
        g = math.gcd(den, *num.values(), *(im.values() if im else ()))
        if g != 1:
            den //= g
            num = {k: v // g for k, v in num.items()}
            if im:
                im = {k: v // g for k, v in im.items()}
    return num, den, im


def dot(pairs, table: VarTable, den: int = 1) -> MPoly:
    """sum(a * b for a, b in pairs) / den over table.

    This is the one accumulation loop of the kernel: every +, - and * of
    MPoly (by a polynomial or by a scalar) and substitution run through
    it.  The second factor of a pair may be a scalar (int,
    Fraction or GaussianRational).  Integer numerators accumulate in one
    dict over one running denominator, lifted only when an addend's
    denominator does not divide it; no intermediate product or partial sum
    is built, and the result is normalised once."""
    num = {}
    im = None
    D = 1
    off = table._one
    get = num.get
    for a, b in pairs:
        if a.table is not table:
            _same_table(table, a.table)
        if type(b) is MPoly:
            if b.table is not table:
                _same_table(table, b.table)
            if a._im is not None or b._im is not None:
                D, im = _add_gaussian(num, im, D, off, a, b._num, b._im, b._den)
                continue
            xs, ys = a._num, b._num
            if not xs or not ys:
                continue
            d = a._den * b._den
            if D % d:
                D = _lift(num, im, D, d)
            f = D // d
            if len(xs) > len(ys):
                xs, ys = ys, xs
            ys = ys.items()
            for k1, c1 in xs.items():
                k1 -= off
                c1 *= f
                for k2, c2 in ys:
                    k = k1 + k2
                    num[k] = get(k, 0) + c1 * c2
        else:
            re, bi, d = (b, 0, 1) if type(b) is int else _scalar_ints(b)
            if bi or a._im is not None:
                D, im = _add_gaussian(
                    num, im, D, off, a, {off: re} if re else {}, {off: bi} if bi else None, d
                )
                continue
            xs = a._num
            if not xs or not re:
                continue
            d *= a._den
            if D % d:
                D = _lift(num, im, D, d)
            c = re * (D // d)
            for k, v in xs.items():
                num[k] = get(k, 0) + c * v
    if num:
        table._check_keys(num)
        if 0 in num.values():
            num = {k: v for k, v in num.items() if v}
    if im:
        table._check_keys(im)
        if 0 in im.values():
            im = {k: v for k, v in im.items() if v}
    im = im or None
    D *= den
    if D != 1:
        num, D, im = _reduced(num, D, im)
    return MPoly._new(table, num, D, im)


def _lift(num: dict, im: dict | None, D: int, d: int) -> int:
    """Scale num and im (or None) in place from denominator D to lcm(D, d);
    return it."""
    f = d // math.gcd(D, d)
    for k, v in num.items():
        num[k] = v * f
    if im:
        for k, v in im.items():
            im[k] = v * f
    return D * f


def _add_gaussian(num, im, D, off, a, bre, bim, bden) -> tuple:
    """The pairs of dot with an imaginary part: num + i*im over D gains
    a * (bre + i*bim)/bden, bre and bim numerators by packed key (bim, and
    im until a pair needs it, may be None).  Returns the new D and im."""
    ai = a._im or {}
    bim = bim or {}
    if not (a._num or ai) or not (bre or bim):
        return D, im
    if im is None:
        im = {}
    d = a._den * bden
    if D % d:
        D = _lift(num, im, D, d)
    f = D // d
    for xs, ys, c, acc in (
        (a._num, bre, f, num), (ai, bim, -f, num), (a._num, bim, f, im), (ai, bre, f, im)
    ):
        if len(xs) > len(ys):
            xs, ys = ys, xs
        get = acc.get
        for k1, c1 in xs.items():
            k1 -= off
            c1 *= c
            for k2, c2 in ys.items():
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    return D, im


def _same_table(a: VarTable, b: VarTable) -> None:
    if a != b:
        raise TableMismatchError(f"tables differ: {a.names} vs {b.names}")


def _rekey(p: MPoly, target: VarTable) -> MPoly:
    """p over target, every variable of p mapped to the same name there:
    each term moves slot by slot.  PolyError when a variable of a term is
    not in target, ExponentError when a negative exponent lands outside
    target's Laurent slot."""
    src = p.table
    slots = {}

    def move(k):
        out = target._one
        for j in range(src.arity):
            e = src._field(k, j)
            if e:
                t = slots.get(j)
                if t is None:
                    t = slots[j] = target.index(src.names[j])
                if e < 0 and t != target._li:
                    raise ExponentError(
                        f"negative exponent for non-Laurent variable {target.names[t]}"
                    )
                out += e << (_WIDTH * t)
        return out

    num = {move(k): v for k, v in p._num.items()}
    im = {move(k): v for k, v in p._im.items()} if p._im else None
    target._check_keys(num.keys() | (im.keys() if im else ()))
    return MPoly._new(target, num, p._den, im)


class _ImagePowers:
    """Images of monomials under one substitution map, with every power and
    monomial image computed once and shared by all polynomials it serves."""

    def __init__(self, src: VarTable, target: VarTable, imgs: dict):
        self.src = src
        self.target = target
        self.imgs = imgs  # slot -> image
        self.powers = {}  # (slot, exponent) -> image ** exponent
        self.monos = {src._one: MPoly.constant(target, 1)}  # packed key -> image

    def power(self, j: int, e: int) -> MPoly:
        got = self.powers.get((j, e))
        if got is None:
            img = self.imgs.get(j)
            if img is None:
                img = self.imgs[j] = MPoly.variable(self.target, self.src.names[j])
            if e == 1:
                got = img
            elif e < 0:
                got = img.inverse() ** -e
            elif e % 2:
                got = self.power(j, e - 1) * img
            else:
                half = self.power(j, e // 2)
                got = half * half
            self.powers[(j, e)] = got
        return got

    def mono(self, key: int) -> MPoly:
        """Image of the monomial with packed key: the image of its prefix
        without the top slot, times a power of that slot's image."""
        got = self.monos.get(key)
        if got is None:
            src = self.src
            # the XOR zeroes exactly the fields at exponent 0, the Laurent bias too
            j = ((key ^ src._one).bit_length() - 1) // _WIDTH
            e = src._field(key, j)
            prefix = key - (e << (_WIDTH * j))
            got = self.power(j, e)
            if prefix != src._one:
                got = self.mono(prefix) * got
            self.monos[key] = got
        return got

    def apply(self, p: MPoly) -> MPoly:
        mono = self.mono
        pairs = [(mono(k), v) for k, v in p._num.items()]
        if p._im:
            pairs += [(mono(k), GaussianRational._make(_R0, Fraction(v)))
                      for k, v in p._im.items()]
        return dot(pairs, self.target, p._den)


def substitute_all(polys, images: Mapping[str, MPoly], target: VarTable | None = None):
    """[p.substitute(images, target) for p in polys], all polys over one
    table, with one shared table of powers and monomial images."""
    polys = list(polys)
    if not polys:
        return []
    src = polys[0].table
    for p in polys:
        polys[0]._check_table(p)
    if target is None:
        target = next(iter(images.values())).table if images else src
    imgs = {}
    for j, nm in enumerate(src.names):
        if nm in images:
            img = images[nm]
            if img.table != target:
                raise TableMismatchError(f"image of {nm} is over a foreign table")
            imgs[j] = img
    if not imgs:
        return [_rekey(p, target) for p in polys]
    table = _ImagePowers(src, target, imgs)
    return [table.apply(p) for p in polys]


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


_MAX_POWER = 1000  # largest exponent of a parsed power of a non-monomial
_MAX_POWER_TERMS = 10_000  # most terms such a power may expand to
_MAX_PRODUCT = 1_000_000  # most term products one parsed product may take


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
            if op == "*" and len(acc) * len(rhs) > _MAX_PRODUCT:
                raise ParseError(
                    f"product of {len(acc)} and {len(rhs)} terms is too large "
                    f"(at most {_MAX_PRODUCT} term products)"
                )
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
            k = len(base)
            # a k-term power has up to C(e + k - 1, k - 1) terms
            if k >= 2 and (
                e > _MAX_POWER or math.comb(e + k - 1, k - 1) > _MAX_POWER_TERMS
            ):
                raise ParseError(
                    f"power {e} of a {k}-term base is too large (at most exponent "
                    f"{_MAX_POWER} and {_MAX_POWER_TERMS} terms)"
                )
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
    A power e of a base with k >= 2 terms is refused when e > 1000 or
    when it could expand to C(e + k - 1, k - 1) > 10000 terms, and a
    product a*b when len(a)*len(b) > 10^6 term products.  Stored values
    admit at most a simple pole in the Laurent slot.
    """
    p = _Parser(_tokenize(src), tab)
    out = p.parse_expr()
    if p.peek() is not None:
        raise ParseError(f"trailing input at token {p.peek()!r}")
    li = tab.laurent_index
    if li is not None and out and min(tab._field(k, li) for k in out._keys()) < -1:
        raise ParseError("stored values admit at most a simple pole")
    return out


def sqrt_coefficient(c: GaussianRational) -> GaussianRational:
    """Exact square root of a rational perfect square (nonnegative real part)."""
    if c.im:
        raise PolyError("square root of a non-real coefficient")
    return GaussianRational(_sqrt_rat(c.re))
