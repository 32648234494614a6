"""The builders that form their coefficients as integers over one common
denominator, against the Fraction formulas they replaced: flat
coordinates, the open generator of A_n, the omega sequence, and the
read-off of the potential from its third derivatives, with its
integrability, reality and table checks."""

import math
from fractions import Fraction

import pytest

from openwdvv.exactalg import GaussianRational, MPoly, PolyError, VarTable
from openwdvv.milnor import build_unfolding, parameter_table
from openwdvv.openext import (
    extended_table,
    omega_sequence,
    open_generator_A,
)
from openwdvv.saito import (
    _read_off,
    flat_coords_A,
    flat_coords_D,
    frobenius_structure,
    partials,
)


def weighted_tuples(weights, total):
    """Every nonnegative integer tuple a with sum weights[i]*a[i] == total."""
    if not weights:
        return [()] if total == 0 else []
    w, *rest = weights
    return [
        (a, *t)
        for a in range(total // w + 1)
        for t in weighted_tuples(rest, total - w * a)
    ]


# ---------- reference formulas, one Fraction per coefficient ----------


def reference_flat_coords_A(n):
    vtab = parameter_table(build_unfolding("A", n))
    wts = [n + 2 - i for i in range(1, n + 1)]
    coords = []
    for g in range(1, n + 1):
        terms = {}
        for alpha in weighted_tuples(wts, n + 2 - g):
            c = Fraction(1, n + 1 - g)
            for k in range(sum(alpha)):
                c *= n + 1 - g - k * (n + 1)
            for a in alpha:
                c /= math.factorial(a)
            terms[alpha] = GaussianRational(c)
        coords.append(MPoly(vtab, terms))
    return coords


def reference_flat_coords_D(n):
    vtab = parameter_table(build_unfolding("D", n))
    wts = [n - i for i in range(1, n)]
    coords = []
    for g in range(1, n):
        terms = {}
        for alpha in weighted_tuples(wts, n - g):
            m = sum(alpha)
            c = Fraction(-1, 2) ** (m - 1)
            for k in range(m - 1):
                c *= 2 * g - 1 + 2 * k * (n - 1)
            for a in alpha:
                c /= math.factorial(a)
            terms[alpha + (0,)] = GaussianRational(c)
        coords.append(MPoly(vtab, terms))
    coords.append(MPoly.variable(vtab, f"v{n}"))
    return coords


def reference_open_generator_A(n, tab):
    terms = {}
    for exp in weighted_tuples(list(range(n + 1, 0, -1)), n + 2):
        *mult, k = exp
        c = Fraction(math.factorial(sum(mult) + k - 2), math.factorial(k))
        for m in mult:
            c /= math.factorial(m)
        terms[exp] = GaussianRational(c)
    return MPoly(tab, terms)


def reference_omegas(n, kmax):
    u = build_unfolding("D", n)
    vtab = VarTable(u.table.names[2 : n + 1], u.table.weights[2 : n + 1])
    wts = [n - i for i in range(1, n)]
    closed = []
    for k in range(kmax + 1):
        terms = {}
        for alpha in weighted_tuples(wts, k):
            c = Fraction(math.factorial(sum(alpha)))
            for i, a in enumerate(alpha, start=1):
                c *= Fraction(1 - i) ** a / math.factorial(a)
            terms[alpha] = c
        closed.append(MPoly(vtab, terms))
    return closed


# ---------- the builders against them ----------


class TestAgainstFractionFormulas:
    def test_flat_coords_A(self):
        for n in range(1, 13):
            assert flat_coords_A(n) == reference_flat_coords_A(n), n

    def test_flat_coords_D(self):
        for n in range(3, 11):
            assert flat_coords_D(n) == reference_flat_coords_D(n), n

    def test_open_generator_A(self):
        for n in range(1, 9):
            tab = extended_table(frobenius_structure("A", n))
            assert open_generator_A(n, tab) == reference_open_generator_A(n, tab), n

    def test_open_generator_A_needs_its_table(self):
        tab = extended_table(frobenius_structure("A", 3))
        with pytest.raises(PolyError, match="s has weight 1/5"):
            open_generator_A(4, tab)

    def test_omega_sequence(self):
        for n in range(3, 9):
            got = omega_sequence(n, 2 * n)
            want = reference_omegas(n, 2 * n)
            assert list(got.omegas) == want, n
            assert got.table == want[0].table, n


class TestReadOff:
    @staticmethod
    def third_partials(F):
        return partials(F, F.table.names, 3)

    def test_reads_back_the_potential(self):
        for family, n in (("A", 4), ("D", 5)):
            fs = frobenius_structure(family, n)
            got = _read_off(self.third_partials(fs.potential), fs.table, "x", False)
            assert got.potential == fs.potential
            assert got.eta == fs.eta and got.eta_inv == fs.eta_inv

    def test_non_integrable_tensor_fails(self):
        fs = frobenius_structure("A", 4)
        cflat = self.third_partials(fs.potential)
        cflat[(2, 2, 3)] = cflat[(2, 2, 3)] + MPoly.variable(fs.table, "t4")
        with pytest.raises(PolyError, match="integrability failure .* A4"):
            _read_off(cflat, fs.table, "A4", False)

    def test_imaginary_restriction_fails(self):
        fs = frobenius_structure("A", 3)
        cflat = self.third_partials(fs.potential * GaussianRational(0, 1))
        # a full build may carry imaginary parts; a restriction may not
        assert _read_off(cflat, fs.table, "im", False).potential
        with pytest.raises(PolyError, match="im left imaginary parts"):
            _read_off(cflat, fs.table, "im", True)

    def test_refuses_a_laurent_table(self):
        fs = frobenius_structure("A", 2)
        tab = VarTable(fs.table.names, fs.table.weights, "t2")
        cflat = self.third_partials(fs.potential.substitute({}, tab))
        with pytest.raises(PolyError, match="Laurent"):
            _read_off(cflat, tab, "A2", False)
