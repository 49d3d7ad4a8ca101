"""`constructions._least_power` decides each step first on a fixed-point
enclosure of rho^m (`_power_bounds`), and forms the exact powers only when
that enclosure straddles an end of the target's box: the enclosures are
sound and tight, a rho near 1 reaches the cap at once, and a least power
near 5 * 10^5 is the one that the exact test picks."""

import time
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from gpnf import NumberField
from gpnf.constructions import _least_power, _power_bounds, choose_m
from gpnf.errors import ThresholdAmbiguous
from gpnf.numberfield import certified_dist


@settings(max_examples=200, deadline=None)
@given(st.fractions(F(1, 50), 50).filter(lambda q: q > 0),
       st.integers(0, 3000))
def test_power_bounds_enclose_tightly(q, m):
    lo, hi = _power_bounds(q, m)
    exact = q ** m
    assert lo <= exact <= hi
    assert (hi - lo) <= exact * F(1, 2 ** 60)


def test_rho_near_one_reaches_the_cap_at_once():
    # rho^m - 1 < 0.11 for every m below the cap, so err(m) never drops below
    # dist(beta)/3; each step's exact power would have 24 million bits
    f = NumberField([-1, -1, 0, 1])
    start = time.perf_counter()
    try:
        choose_m(f.beta, F(10 ** 7 + 1, 10 ** 7))
    except ThresholdAmbiguous:
        pass
    else:
        raise AssertionError("expected ThresholdAmbiguous")
    assert time.perf_counter() - start < 1


def test_least_power_near_half_a_million_is_the_exact_one():
    f = NumberField([-1, -1, 0, 1])
    dist = certified_dist(f.beta)
    target = dist * F(1, 3)
    box = target.embed(None, 65)
    rho, m0 = F(3, 2), 500_000

    def fits(C, m):   # the exact test: err(m) = 2 C / (rho^m - 1) < target
        return target.compare_rational(2 * C / (rho ** m - 1)) > 0

    # err(m0) just below, at and above the box's low end
    for X in (box.lo / 2, box.lo, box.hi):
        C = X * (rho ** m0 - 1) / 2
        m = _least_power(C, dist, rho)
        assert abs(m - m0) <= 2
        assert fits(C, m) and not fits(C, m - 1)
