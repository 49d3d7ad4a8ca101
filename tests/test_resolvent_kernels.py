"""Differential test of the integer resolvent and root-map kernels.

`polys.sum_poly`, `prod_poly`, `diff_poly`, `power_sums` and
`squarefree_part` run on integers: the roots are scaled to algebraic
integers by one factor per operand, Newton's identities run on integer
power sums with exact divisions, and the roots are scaled back at the end.
`shift_roots` is an integer Taylor shift and `scale_roots` an integer root
scaling.  The oracle is the rational code they replace: Newton's identities
on `Fraction` power sums of the monic operands, written out below, and
sympy polynomials over QQ for the squarefree part (p divided by gcd(p,
p')), the shift (a composition) and the scaling.  Power sums must be the
same Fractions as the oracle's; every polynomial kernel must return the
canonical form of the oracle's monic polynomial (ints with content 1 and a
positive leading coefficient), for degrees 0-8, rational and non-monic
inputs, negative leading coefficients, zero roots, repeated factors and
negative or large-denominator shifts and scalings.
"""

from fractions import Fraction as F
from math import comb, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import from_qq, poly_mul, qq
from gpnf import polys as P


# -- the rational oracle ------------------------------------------------------

def ref_power_sums(p, upto):
    m = len(p) - 1
    a = [c / p[-1] for c in p]
    ps = [F(m)]
    for k in range(1, upto + 1):
        acc = -k * a[m - k] if k <= m else F(0)
        for i in range(1, min(k - 1, m) + 1):
            acc -= a[m - i] * ps[k - i]
        ps.append(acc)
    return ps


def ref_from_power_sums(ps, n):
    a = [F(0)] * n + [F(1)]
    for k in range(1, n + 1):
        acc = ps[k]
        for i in range(1, k):
            acc += a[n - i] * ps[k - i]
        a[n - k] = -acc / k
    return tuple(a)


def ref_sum_poly(A, B):
    n = (len(A) - 1) * (len(B) - 1)
    pa, pb = ref_power_sums(A, n), ref_power_sums(B, n)
    return ref_from_power_sums(
        [sum(comb(k, j) * pa[j] * pb[k - j] for j in range(k + 1))
         for k in range(n + 1)], n)


def ref_prod_poly(A, B):
    n = (len(A) - 1) * (len(B) - 1)
    return ref_from_power_sums(
        [x * y for x, y in zip(ref_power_sums(A, n), ref_power_sums(B, n))], n)


def ref_diff_poly(A, B):
    n = len(B) - 1
    return ref_sum_poly(A, tuple(c * (-1) ** (n - i) for i, c in enumerate(B)))


def ref_squarefree_part(p):
    sp = qq(p)
    quo, rem = sp.div(sp.gcd(sp.diff()))
    assert rem.is_zero
    return from_qq(quo.monic())


def ref_shift_roots(p, q):
    return from_qq(qq(p).compose(qq((-q, 1))).monic())


def ref_scale_roots(p, q):
    n = len(p) - 1
    return from_qq(qq([p[i] * q ** (n - i) for i in range(n + 1)]).monic())


# -- inputs: lead * product of factors, some repeated -------------------------

rationals = st.fractions(-12, 12, max_denominator=9)
roots = st.one_of(st.just(F(0)), rationals)
linear = st.builds(lambda r: (-r, F(1)), roots)
quadratic = st.tuples(rationals, rationals, rationals.filter(bool))
factors = st.tuples(st.one_of(linear, quadratic), st.integers(1, 3))


@st.composite
def polynomials(draw, max_degree=5):
    p = (draw(rationals.filter(bool)),)
    for f, mult in draw(st.lists(factors, max_size=5)):
        for _ in range(mult):
            if len(p) + len(f) - 2 <= max_degree:
                p = poly_mul(p, f)
    return p


def same(got, want):
    assert all(type(c) is F for c in got)
    assert got == want


def same_monic(got, want):
    """got is the canonical form of the monic polynomial want."""
    assert all(type(c) is int for c in got)
    assert gcd(*got) == 1 and got[-1] > 0
    assert P.monic(got) == want


NONMONIC = (F(-3), F(0), F(2))                 # 2x^2 - 3
NEG_LEAD = (F(2, 3), F(-1, 5), F(0), F(-7, 4))  # leading coefficient -7/4
ZERO_ROOTS = (F(0), F(0), F(-1, 2), F(3))       # x^2 (3x - 1/2)
REPEATED = poly_mul((F(1), F(2, 3)), (F(1), F(2, 3)), (F(-5), F(0), F(1)))


@settings(max_examples=200, deadline=None)
@given(polynomials(), polynomials(max_degree=4))
@example((F(3),), NONMONIC)
@example(NONMONIC, NEG_LEAD)
@example(ZERO_ROOTS, REPEATED)
@example(NEG_LEAD, (F(-1, 3), F(1, 2)))
def test_sum_poly_matches_rational_newton(A, B):
    same_monic(P.sum_poly(A, B), ref_sum_poly(A, B))


@settings(max_examples=200, deadline=None)
@given(polynomials(), polynomials(max_degree=4))
@example((F(-2, 7),), ZERO_ROOTS)
@example(NONMONIC, NEG_LEAD)
@example(ZERO_ROOTS, REPEATED)
def test_prod_poly_matches_rational_newton(A, B):
    same_monic(P.prod_poly(A, B), ref_prod_poly(A, B))


@settings(max_examples=200, deadline=None)
@given(polynomials(), polynomials(max_degree=4))
@example(NONMONIC, NONMONIC)
@example(REPEATED, NEG_LEAD)
def test_diff_poly_matches_rational_newton(A, B):
    same_monic(P.diff_poly(A, B), ref_diff_poly(A, B))


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.integers(0, 12))
@example(NEG_LEAD, 8)
@example(ZERO_ROOTS, 5)
def test_power_sums_match_rational_newton(p, upto):
    same(P.power_sums(p, upto), ref_power_sums(p, upto))


@settings(max_examples=200, deadline=None)
@given(polynomials(max_degree=8))
@example((F(-5, 2),))
@example(REPEATED)
@example(poly_mul(ZERO_ROOTS, ZERO_ROOTS))
@example(poly_mul(NEG_LEAD, NEG_LEAD, NONMONIC))
def test_squarefree_part_matches_rational_division(p):
    same_monic(P.squarefree_part(p), ref_squarefree_part(p))


shifts = st.one_of(rationals, st.fractions(-10 ** 6, 10 ** 6,
                                          max_denominator=10 ** 12))


@settings(max_examples=200, deadline=None)
@given(polynomials(max_degree=8), shifts)
@example((F(-5, 2),), F(3))
@example(ZERO_ROOTS, F(-7, 10 ** 9))
@example(NEG_LEAD, F(0))
@example(REPEATED, F(-1, 3))
def test_shift_roots_matches_composition(p, q):
    same_monic(P.shift_roots(p, q), ref_shift_roots(p, q))


@settings(max_examples=200, deadline=None)
@given(polynomials(max_degree=8), shifts.filter(bool))
@example((F(-5, 2),), F(3))
@example(ZERO_ROOTS, F(-7, 10 ** 9))
@example(NEG_LEAD, F(-1))
@example(NONMONIC, F(2, 3))
def test_scale_roots_matches_rational_scaling(p, q):
    same_monic(P.scale_roots(p, q), ref_scale_roots(p, q))


def test_inexact_steps_raise():
    # x^2 - x + 1/2 has power sums 2, 1, 0: not those of algebraic integers
    with pytest.raises(ArithmeticError):
        P._int_from_power_sums([2, 1, 0], 2)
    assert P._int_from_power_sums([2, 1, -1], 2) == [1, -1, 1]
    with pytest.raises(ArithmeticError):
        P._int_divexact([1, 0, 2], [1, 2])     # 2x^2 + 1 by 2x + 1
    with pytest.raises(ArithmeticError):
        P._int_divexact([1, 0, 1], [1, 1])     # x^2 + 1 by x + 1
    assert P._int_divexact([-1, 0, 1], [1, 1]) == [-1, 1]
