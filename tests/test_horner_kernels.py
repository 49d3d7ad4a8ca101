"""Differential test of the integer Horner kernels.

`intervals.horner_interval`, `intervals.horner_box` and `polys.horner_at`
run on integers over common denominators.  The oracle is the plain
rational Horner `acc = acc * x + c` on Fractions, with interval products
written out as the min and max of the four end products.  Every kernel
result must be the same rational as the oracle's, end for end, for int and
Fraction coefficients and ends, empty and constant polynomials, point boxes
(the exact complex values that the Krawczyk test reads) and non-dyadic
denominators.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from gpnf.intervals import (ComplexBox, RatInterval, common_den, horner_box,
                            horner_interval)
from gpnf.polys import horner_at

rationals = st.one_of(st.integers(-40, 40),
                      st.fractions(-40, 40, max_denominator=45))
coefficients = st.lists(rationals, max_size=8)
widths = st.one_of(st.just(0), st.fractions(0, 6, max_denominator=35))


def imul(x: tuple, y: tuple) -> tuple:
    p = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(p), max(p)


def ref_interval(coeffs, x: tuple) -> tuple:
    acc = (F(0), F(0))
    for c in reversed(coeffs):
        lo, hi = imul(acc, x)
        acc = (lo + c, hi + c)
    return acc


def ref_box(coeffs, re: tuple, im: tuple) -> tuple:
    ar, ai = (F(0), F(0)), (F(0), F(0))
    for c in reversed(coeffs):
        p, q = imul(ar, re), imul(ai, im)
        r, s = imul(ar, im), imul(ai, re)
        ar, ai = (p[0] - q[1] + c, p[1] - q[0] + c), (r[0] + s[0], r[1] + s[1])
    return ar, ai


def ref_point(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def ends(iv: RatInterval) -> tuple:
    assert type(iv.lo) is F and type(iv.hi) is F
    return iv.lo, iv.hi


@settings(max_examples=200, deadline=None)
@given(coefficients, rationals, widths)
@example([], F(1, 3), F(2, 7))
@example([F(5, 6)], -3, F(1, 9))
@example([1, F(-2, 3), 3], F(-1, 5), 0)
def test_poly_interval_matches_rational_horner(coeffs, lo, w):
    x = RatInterval(lo, lo + w)
    (num,), den = common_den([coeffs])
    assert ends(horner_interval(num, den, x)) == ref_interval(coeffs, (x.lo, x.hi))


@settings(max_examples=200, deadline=None)
@given(coefficients, rationals, widths, rationals, widths)
@example([], 1, 0, 2, 0)
@example([7], F(1, 3), F(1, 3), -2, 1)
@example([1, F(2, 9), -4, F(1, 7)], F(-2, 3), F(5, 11), F(1, 6), F(2, 15))
@example([F(2, 5)], 0, 0, F(-1, 6), 0)
@example([3, -1, F(1, 4)], F(1, 3), 0, 2, 0)
def test_horner_box_matches_rational_horner(coeffs, rlo, rw, ilo, iw):
    z = ComplexBox(RatInterval(rlo, rlo + rw), RatInterval(ilo, ilo + iw))
    (num,), den = common_den([coeffs])
    out = horner_box(num, den, z)
    assert (ends(out.re), ends(out.im)) == ref_box(
        coeffs, (z.re.lo, z.re.hi), (z.im.lo, z.im.hi))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=8), rationals)
@example([-4], F(5))
@example([0, 3, -1], F(-7, 9))
def test_horner_at_matches_rational_horner(coeffs, x):
    x = F(x)
    acc, dk = horner_at(coeffs, x.numerator, x.denominator)
    assert dk == x.denominator ** (len(coeffs) - 1)
    assert F(acc, dk) == ref_point(coeffs, x)
