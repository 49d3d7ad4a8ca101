"""Differential tests of the integer field set-up.

`polys.refine_root` runs its bisection and interval-Newton steps on
integers over one denominator, `FieldElement.compare_rational` first tries
the integer first look that `certified_floor` uses, and
`constructions._least_power` finds the least power by doubling and
bisection against one 2^-64 enclosure.  The oracles are the code they
replace, written out below: the `Fraction` steps of `refine_root`, the
comparison read off the enclosure stream alone, and the linear scan with
one exact comparison per power.  Every returned rational, every sign and
every chosen power must be the same as the oracle's.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import poly_mul
from gpnf import polys as P
from gpnf.constructions import _least_power, default_rho, pisot_tail_constant
from gpnf.errors import ThresholdAmbiguous
from gpnf.intervals import RatInterval, horner_interval, sign_vs
from gpnf.numberfield import FieldElement, NumberField, certified_dist


# -- the Fraction oracles -----------------------------------------------------

def ref_eval(P_int, x):
    acc = F(0)
    for c in reversed(P_int):
        acc = acc * x + c
    return acc


def ref_refine_root(p, lo, hi, width):
    if lo == hi:
        return lo, hi
    if width <= 0:
        raise ValueError(f"cannot refine [{lo}, {hi}] to width {width}")
    if hi - lo <= width:
        return lo, hi
    Pi = P.canonical(p)
    slo, shi = P.int_sign_at(Pi, lo), P.int_sign_at(Pi, hi)
    if slo == shi or slo == 0 or shi == 0:
        chain = P.sturm_chain(Pi)
        while hi - lo > width:
            mid = (lo + hi) / 2
            if P.int_sign_at(chain[0], mid) == 0:
                return mid, mid
            if P.count_roots(chain, lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        return lo, hi
    dP = [i * c for i, c in enumerate(Pi)][1:]
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = ref_eval(Pi, mid)
        if fm == 0:
            return mid, mid
        d = horner_interval(dP, 1, RatInterval(lo, hi))
        if d.lo > 0 or d.hi < 0:
            t = 2 * P._width_bits(hi - lo) + 8
            q1, q2 = fm / d.lo, fm / d.hi
            nlo = max(lo, P.dyadic_down(mid - max(q1, q2), t))
            nhi = min(hi, -P.dyadic_down(min(q1, q2) - mid, t))
            if nlo <= nhi and (nhi - nlo) <= (hi - lo) * F(7, 8):
                flo, fhi = P.int_sign_at(Pi, nlo), P.int_sign_at(Pi, nhi)
                if flo == 0:
                    return nlo, nlo
                if fhi == 0:
                    return nhi, nhi
                lo, hi, slo, shi = nlo, nhi, flo, fhi
                continue
        sm = (fm > 0) - (fm < 0)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def ref_compare_rational(x, q, j):
    q = F(q)
    if x.is_rational():
        v = x.as_rational()
        return (v > q) - (v < q)
    return sign_vs(x.enclosures(j), q)


def ref_least_power(C, dist_beta, rho):
    target = dist_beta * F(1, 3)
    m = 1
    while m < 10 ** 6:
        err = 2 * C * rho ** (-m) / (1 - rho ** (-m))
        if (target - err).compare_rational(0) > 0:
            return m
        m += 1
    raise ThresholdAmbiguous("no admissible power found below the cap")


# -- refine_root ------------------------------------------------------------------

def _same(p, lo, hi, width):
    got = P.refine_root(p, RatInterval(lo, hi), width)
    want = ref_refine_root(p, lo, hi, width)
    assert (got.lo, got.hi) == want, (p, lo, hi, width)


@st.composite
def isolated_roots(draw):
    """(p, lo, hi): a squarefree p with integer coefficients and one of its
    isolating intervals, often pulled in to non-dyadic ends."""
    deg = draw(st.integers(1, 7))
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=deg, max_size=deg))
    coeffs.append(draw(st.sampled_from([1, -1, 2, -3, 5, 12])))
    p = P.squarefree_part(coeffs)
    ivs = [iv for iv in P.isolate_real_roots(p) if iv[0] != iv[1]]
    if not ivs:
        p = (-2, 0, 1)
        ivs = P.isolate_real_roots(p)
    lo, hi = draw(st.sampled_from(ivs))
    k = draw(st.sampled_from([1, 3, 5, 7, 9, 11, 13]))
    a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    nlo, nhi = lo + (hi - lo) * F(a, 3 * k), hi - (hi - lo) * F(b, 3 * k)
    Pi = P.canonical(p)
    if (P.int_sign_at(Pi, nlo) * P.int_sign_at(Pi, nhi) < 0
            and P.count_roots(P.sturm_chain(p), nlo, nhi) == 1):
        lo, hi = nlo, nhi
    return p, lo, hi


@settings(max_examples=300, deadline=None)
@given(isolated_roots(), st.integers(1, 300), st.integers(1, 9))
@example(((-3, 0, 1), F(1, 3), F(17, 7)), 300, 1)
@example(((-2, 0, 1), F(4, 3), F(3, 2)), 128, 5)
def test_refine_root_matches_fraction_steps(root, bits, scale):
    p, lo, hi = root
    _same(p, lo, hi, F(scale, 2 ** bits))


@settings(max_examples=150, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 9), st.lists(
    st.integers(-9, 9), min_size=0, max_size=3), st.sampled_from([3, 5, 6, 7]),
    st.integers(1, 200))
def test_refine_root_rational_roots(num, den, cofactor, k, bits):
    # p = (den x - num) g(x): on [r - 1/k, r + 1/k] the first midpoint is r
    # itself; on [r - 1/k, r + 2/k] the linear p has Newton ends exactly at r
    r = F(num, den)
    p = P.squarefree_part(poly_mul((-num, den), cofactor + [1]))
    for lo, hi in ((r - F(1, k), r + F(1, k)), (r - F(1, k), r + F(2, k))):
        if P.count_roots(P.sturm_chain(p), lo, hi) == 1 and all(
                P.int_sign_at(P.canonical(p), e) for e in (lo, hi)):
            _same(p, lo, hi, F(1, 2 ** bits))
    _same((-num, den), r - F(1, k), r + F(2, k), F(1, 2 ** bits))


def test_refine_root_hits_the_root():
    # the midpoint of [1/2 - 1/3, 1/2 + 1/3] and the Newton ends on
    # [1/3, 1] (for the linear 2x - 1) are the root 1/2 itself
    for p, lo, hi in (((-1, 2, -1, 2), F(1, 6), F(5, 6)),
                      ((-1, 2), F(1, 3), F(1))):
        assert P.refine_root(p, RatInterval(lo, hi), F(1, 2 ** 40)) == \
            RatInterval.point(F(1, 2))
        _same(p, lo, hi, F(1, 2 ** 40))
    # x (x - 1) (x - 2) on [0, 2]: the root at the end leaves bisection
    # alone (Sturm bisection in the oracle), whose first midpoint is the root 1
    assert P.refine_root((0, 2, -3, 1), RatInterval(0, 2), F(1, 8)) == \
        RatInterval.point(1)
    _same((0, 2, -3, 1), F(0), F(2), F(1, 8))


@settings(max_examples=100, deadline=None)
@given(st.integers(-6, 6), st.integers(1, 4), st.integers(1, 120))
def test_refine_root_sturm_fallback(num, den, bits):
    # an end at the rational root r leaves no sign change at the ends, so
    # only bisection runs (Sturm bisection in the oracle); the interval also
    # holds sqrt(2) or -sqrt(2)
    r = F(num, den)
    p = poly_mul((-num, den), (-2, 0, 1))
    for lo, hi in ((r, r + 3), (r - 3, r)):
        if P.count_roots(P.sturm_chain(p), lo, hi) == 1:
            _same(p, lo, hi, F(1, 2 ** bits))


# -- compare_rational ----------------------------------------------------------------

FIELDS = {
    "golden": [-1, -1, 1],
    "sqrt2": [-2, 0, 1],
    "plastic": [-1, -1, 0, 1],
    "salem": [1, -1, -1, -1, 1],
    "cubic3": [1, -3, 0, 1],
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.sampled_from([None, 20, 64, 200]),
       st.data(), st.sampled_from(["lo", "hi", "mid", "free", "near"]))
def test_compare_rational_matches_the_stream(name, refine_bits, data, where):
    f = NumberField(FIELDS[name])
    reals = [j for j in range(f.degree) if f.is_real_root(j)]
    j = data.draw(st.sampled_from(reals))
    if refine_bits is not None:
        f.root_box(j, F(1, 2 ** refine_bits))
    coords = data.draw(st.lists(st.fractions(-50, 50, max_denominator=9),
                                min_size=f.degree, max_size=f.degree))
    x = f.element(coords)
    if x.is_rational():
        return
    lo, hi, den = x._first_look(j)
    q = {"lo": F(lo, den), "hi": F(hi, den), "mid": F(lo + hi, 2 * den),
         "free": data.draw(st.fractions(-500, 500, max_denominator=50)),
         "near": F(lo, den) + data.draw(st.sampled_from([-1, 1]))
         * F(1, 2 ** data.draw(st.integers(0, 80)))}[where]
    iv = f._roots[j].box
    got = x.compare_rational(q, j)
    decided = lo * q.denominator > q.numerator * den or \
        hi * q.denominator < q.numerator * den
    if decided:
        # the first look decided: root j's enclosure was not touched
        assert f._roots[j].box is iv
    assert got == ref_compare_rational(x, q, j)


# -- _least_power -------------------------------------------------------------------------

PISOT = {"golden": [-1, -1, 1], "plastic": [-1, -1, 0, 1],
         "tribonacci": [-1, -1, -1, 1]}


@pytest.fixture(scope="module")
def pisot_data():
    out = {}
    for name, mp in PISOT.items():
        f = NumberField(mp)
        rho = default_rho(f.beta)
        out[name] = (f, rho, pisot_tail_constant(f.beta, rho),
                     certified_dist(f.beta))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PISOT)), st.fractions(F(1, 1000), 1000),
       st.sampled_from([None, F(11, 10), F(3, 2), F(101, 100)]))
@example("golden", F(1), None)
@example("plastic", F(1), None)  # m = 41
@example("tribonacci", F(1), None)  # m = 21
def test_least_power_matches_the_linear_scan(pisot_data, name, factor, rho):
    f, rho0, C, dist = pisot_data[name]
    rho = rho0 if rho is None else rho
    C = C * factor
    assert _least_power(C, dist, rho) == ref_least_power(C, dist, rho)


@pytest.mark.parametrize("m0", [1, 5, 17])
def test_least_power_exact_inside_the_enclosure(pisot_data, monkeypatch, m0):
    # C is chosen so that err(m0) is a rational strictly inside the 2^-64
    # enclosure of dist(beta)/3: that step takes the exact comparison
    f, rho, _C, dist = pisot_data["plastic"]
    target = dist * F(1, 3)
    box = target.embed(None, 65)
    X = box.lo + (box.hi - box.lo) / 3
    r = 1 / rho
    C = X * (1 - r ** m0) / (2 * r ** m0)
    calls = []
    real = FieldElement.compare_rational

    def spy(self, q, root_index=None):
        calls.append(q)
        return real(self, q, root_index)

    monkeypatch.setattr(FieldElement, "compare_rational", spy)
    m = _least_power(C, dist, rho)
    assert box.lo < X < box.hi and X in calls
    assert m == ref_least_power(C, dist, rho)


def test_least_power_cap_raises():
    # err(m) = 2^(10^6 + 1) / (2^m - 1) > 1 for every m below 10^6
    f = NumberField([-1, -1, 1])
    with pytest.raises(ThresholdAmbiguous):
        _least_power(F(2 ** 10 ** 6), certified_dist(f.beta), F(2))
