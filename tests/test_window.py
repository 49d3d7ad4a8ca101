"""Sturmian windows from one enclosure of the slope and the intercept.

`analysis.sturmian` reads every floor floor(a n + b) of a window off one
enclosure each of sigma(a) and sigma(b), and calls `certified_floor` only
where that pair straddles an integer.  `per_position` below is the word as
it was built before, one certified floor per position, and is the oracle.
The intercepts b = k - a n0 put position n0 at the integer k, and
intercepts b = e + k - q, with q a dyadic rational close to a n0 + e, put
it just off k, so that the shared enclosure straddles k there and only the
fallback decides.  Rational intercepts, intercepts in the field, negative
offsets and fields just built, whose root box is still wide, are all
drawn.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from gpnf.analysis import sturmian
from gpnf.numberfield import FieldElement, NumberField, certified_floor

# x^2 - x - 1, x^2 - 2, x^3 - x - 1
FIELDS = ([-1, -1, 1], [-2, 0, 1], [-1, -1, 0, 1])
_BUILT = {}


def per_position(a, b, lo, hi):
    f = a.field
    if isinstance(b, FieldElement):
        b = f.element(b)
    else:
        b = f.element(F(b))
    bits = []
    prev = certified_floor(a * lo + b)
    for n in range(lo, hi + 1):
        nxt = certified_floor(a * (n + 1) + b)
        bits.append(nxt - prev)
        prev = nxt
    return tuple(bits)


def frac_of(x):
    """A slope in (0, 1): the fractional part of an irrational x."""
    return x - certified_floor(x)


rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 9))


@st.composite
def windows(draw):
    coeffs = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        f = NumberField(coeffs)     # fresh: its root box is still wide
    else:
        f = _BUILT.setdefault(tuple(coeffs), NumberField(coeffs))
    c = draw(st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9)))
    a = frac_of(f.element([0, c] + [0] * (f.degree - 2)))
    lo = draw(st.one_of(st.integers(-300, 300),
                        st.integers(-10 ** 12, 10 ** 12)))
    hi = lo + draw(st.integers(0, 40))
    kind = draw(st.sampled_from(("rational", "field", "integer", "near",
                                 "near")))
    if kind == "rational":
        b = draw(rationals)
    elif kind == "field":
        b = f.element([draw(rationals) for _ in range(f.degree)])
    else:
        n0 = draw(st.integers(lo, hi + 1))
        k = draw(st.integers(-5, 5))
        if kind == "integer":
            b = k - a * n0
        else:
            # b = e + k - q, with e in the field and q a multiple of 2^-t
            # next to a n0 + e: position n0 lies about 2^-t from k.  (The
            # rounding keeps q off a root box that other cases refined
            # deeper, which would put n0 ever closer to k.)
            e = f.element([0] + [draw(rationals) for _ in range(f.degree - 1)])
            t = draw(st.integers(12, 70))
            q = F(round((a * n0 + e).embed(None, t).mid * 2 ** t), 2 ** t)
            b = e + k - q
    return a, b, lo, hi


@settings(max_examples=250, deadline=None)
@given(windows())
def test_window_matches_per_position_floors(case):
    a, b, lo, hi = case
    word = sturmian(a, b, lo, hi)
    assert word.start == lo
    assert word.bits == per_position(a, b, lo, hi)


def test_window_at_and_next_to_an_integer():
    # at n0 the value a n0 + b is exactly 3, or just above or below it by
    # less than 2^-59: the window's shared enclosure straddles 3 there, and
    # the floor comes from certified_floor
    f = NumberField([-1, -1, 1])
    a, e = f.beta - 1, f.beta * F(7, 3)
    for n0 in (-7, 0, 5, 10 ** 9):
        box = (a * n0 + e).embed(None, 60)
        for b in (3 - a * n0, e + 3 - box.lo, e + 3 - box.hi):
            lo, hi = n0 - 4, n0 + 4
            assert sturmian(a, b, lo, hi).bits == per_position(a, b, lo, hi)


def test_window_counts_its_factors():
    f = NumberField([-1, -1, 1])
    word = sturmian(f.beta - 1, F(1, 3), -2000, 2000)
    assert word.bits == per_position(f.beta - 1, F(1, 3), -2000, 2000)
    for n in range(1, 12):
        assert len(word.factors(n)) == n + 1
