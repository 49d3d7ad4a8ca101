"""Intervals on integer ends against the `Fraction` intervals they replaced
(`legacy_intervals.py`): every operation gives the same rational ends, and
every result is in lowest terms; the record behaviour (repr, ==, hash,
copy, pickle, match) is that of a record (lo, hi); and the Krawczyk test
makes the same decision as the `Fraction` one (`legacy_isolation.py`) on
every call of a `field-build` pass and on seeded boxes near and off roots."""

import copy
import importlib.util
import pathlib
import pickle
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import legacy_intervals as old
import legacy_isolation
from gpnf import intervals as new
from gpnf import numberfield, polys
from gpnf.numberfield import NumberField

# denominators that are not powers of two, and powers of two as in root
# refinement
rationals = st.builds(F, st.integers(-60, 60),
                      st.sampled_from([1, 2, 3, 4, 6, 7, 8, 12, 15, 64, 1024]))
scalars = st.one_of(st.integers(-9, 9), rationals)


@st.composite
def ends(draw):
    """(lo, hi): ordered, equal (a point) or straddling zero, often."""
    kind = draw(st.sampled_from(["any", "point", "straddle"]))
    a = draw(rationals)
    if kind == "point":
        return a, a
    if kind == "straddle":
        return -abs(a), abs(draw(rationals))
    b = draw(rationals)
    return min(a, b), max(a, b)


def pair(lo, hi):
    return new.RatInterval(lo, hi), old.RatInterval(lo, hi)


def box_pair(re, im):
    return (new.ComplexBox(new.RatInterval(*re), new.RatInterval(*im)),
            old.ComplexBox(old.RatInterval(*re), old.RatInterval(*im)))


def lowest_terms(iv):
    a, b, d = iv._t
    return d > 0 and a <= b and gcd(a, b, d) == 1


def same(x, y):
    """New and old results agree: intervals and boxes end for end, with the
    new ones in lowest terms; anything else by ==."""
    if isinstance(x, new.ComplexBox):
        return same(x.re, y.re) and same(x.im, y.im)
    if isinstance(x, new.RatInterval):
        return (lowest_terms(x) and type(x.lo) is type(x.hi) is F
                and (x.lo, x.hi) == (y.lo, y.hi) and repr(x) == repr(y))
    return type(x) is type(y) and x == y


def outcome(f):
    try:
        return f()
    except (ZeroDivisionError, ValueError, TypeError) as e:
        return type(e)


@settings(max_examples=300, deadline=None)
@given(ends(), ends(), scalars, st.integers(-3, 5), rationals)
def test_interval_ops_match_fraction_intervals(e1, e2, q, n, x):
    (A, a), (B, b) = pair(*e1), pair(*e2)
    ops = [
        lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
        lambda u, v: u / v, lambda u, v: u + q, lambda u, v: q + u,
        lambda u, v: u - q, lambda u, v: q - u, lambda u, v: u * q,
        lambda u, v: q * u, lambda u, v: u / q, lambda u, v: -u,
        lambda u, v: u.sq(), lambda u, v: u.pow(n), lambda u, v: u.recip(),
        lambda u, v: u.width, lambda u, v: u.mid, lambda u, v: u.mag,
        lambda u, v: u.mig, lambda u, v: u.contains(x),
        lambda u, v: u.contains(q), lambda u, v: u.overlaps(v),
        lambda u, v: u.sign(), lambda u, v: u.approx_str(9),
        lambda u, v: type(u).point(x), lambda u, v: repr(u),
    ]
    for op in ops:
        got, want = outcome(lambda: op(A, B)), outcome(lambda: op(a, b))
        assert same(got, want) or got is want, (e1, e2, q, n, x)
    assert (A == B) is (a == b) and (A != B) is (a != b)
    assert hash(A) == hash(a) == hash((a.lo, a.hi))


@settings(max_examples=200, deadline=None)
@given(ends(), ends(), ends(), ends(), scalars, st.integers(-2, 4))
def test_complex_box_ops_match_fraction_boxes(r1, i1, r2, i2, q, n):
    (Z, z), (W, w) = box_pair(r1, i1), box_pair(r2, i2)
    ops = [
        lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
        lambda u, v: u / v, lambda u, v: u + q, lambda u, v: u - q,
        lambda u, v: u * q, lambda u, v: q * u, lambda u, v: -u,
        lambda u, v: u.conj(), lambda u, v: u.abs_sq(), lambda u, v: u.recip(),
        lambda u, v: u.pow(n), lambda u, v: u.width, lambda u, v: 1 / u,
        lambda u, v: u.contains(q, q), lambda u, v: u.approx_str(6),
        lambda u, v: repr(u),
    ]
    for op in ops:
        got, want = outcome(lambda: op(Z, W)), outcome(lambda: op(z, w))
        assert same(got, want) or got is want, (r1, i1, r2, i2, q, n)
    assert hash(Z) == hash(z)


@settings(max_examples=200, deadline=None)
@given(ends(), ends(), st.lists(st.integers(-40, 40), min_size=0, max_size=7),
       st.sampled_from([1, 2, 3, 5, 8]))
def test_horner_kernels_match_fraction_horner(re, im, num, den):
    (Z, z), (X, x) = box_pair(re, im), pair(*re)
    assert same(new.horner_interval(num, den, X), old.horner_interval(num, den, x))
    assert same(new.horner_box(num, den, Z), old.horner_box(num, den, z))


@settings(max_examples=200, deadline=None)
@given(st.lists(ends(), min_size=1, max_size=4), rationals)
def test_sign_and_floor_rules_match(boxes, q):
    news = [new.RatInterval(*e) for e in boxes]
    olds = [old.RatInterval(*e) for e in boxes]
    assert new.sign_vs(news, q) == old.sign_vs(olds, q)
    assert new.sign_vs(news, q.numerator) == old.sign_vs(olds, q.numerator)
    asked_new, asked_old = [], []

    def settle(into):
        return lambda n: into.append(n) or (n if len(into) > 1 else None)

    assert (new.floor_of(news, settle(asked_new))
            == old.floor_of(olds, settle(asked_old)))
    assert asked_new == asked_old


def test_records_behave_as_fraction_records():
    for lo, hi in ((F(1, 3), F(1, 2)), (-2, 5), (F(-7, 6), F(-7, 6)), (0, 0),
                   (F(6, 4), F(9, 6)), (F(-1, 1024), F(3, 1024))):
        (A, a) = pair(lo, hi)
        assert same(A, a) and A._t[2] > 0
        assert repr(A) == repr(a) and A.approx_str() == a.approx_str()
        assert hash(A) == hash(a) and A == new.RatInterval(F(lo), F(hi))
        assert A.__reduce__() == (new.RatInterval, (a.lo, a.hi))
        for B in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
            assert B == A and hash(B) == hash(A) and same(B, a)
        match A:
            case new.RatInterval(x, y):
                assert (x, y) == (a.lo, a.hi)
        for name in ("lo", "hi", "_t", "other"):
            with pytest.raises(AttributeError):
                setattr(A, name, 1)
    # built apart, by products, sums and the public constructor: one triple
    third = new.RatInterval(F(1, 3), F(2, 3))
    assert third * 3 == new.RatInterval(1, 2) == third + third + third
    assert (third * 3)._t == (1, 2, 1) and (third + third)._t == (2, 4, 3)
    assert new.RatInterval.over(6, 9, 12) == new.RatInterval(F(1, 2), F(3, 4))
    assert new.RatInterval.over(-4, 12, 64)._t == (-1, 3, 16)
    with pytest.raises(ValueError, match="empty interval"):
        new.RatInterval(F(1, 2), F(1, 3))
    with pytest.raises(TypeError, match="int or Fraction"):
        new.RatInterval(0.5, 1)


@settings(max_examples=100, deadline=None)
@given(scalars, ends(), ends())
def test_scalars_on_either_side_of_a_box(q, re, im):
    Z, z = box_pair(re, im)
    assert q + Z == Z + q and same(q + Z, z + q)
    assert q - Z == -(Z - q) and same(q - Z, -(z - q))
    assert q * Z == Z * q


# -- the Krawczyk test -------------------------------------------------------

def _field_build_calls(seed: int) -> list:
    """Every (p, dp, box, t) that one `field-build` benchmark pass hands to
    `_krawczyk_proves`, the box as its four Fraction ends."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    class NoTrace:
        @staticmethod
        def wrap(fn, name, rename=None):
            return fn

    calls, live = [], numberfield._krawczyk_proves

    def spy(p, dp, Z, t):
        calls.append((p, tuple(dp), (Z.re.lo, Z.re.hi, Z.im.lo, Z.im.hi), t))
        return live(p, dp, Z, t)

    w = workloads.FieldBuild(seed, 1, NoTrace())
    w.build()
    numberfield._krawczyk_proves = spy
    try:
        for op in w.ops(True):
            assert w.check(op, w.run(op))
    finally:
        numberfield._krawczyk_proves = live
    return calls


def _decisions_agree(p, dp, ends, t) -> bool:
    re, im = ends[:2], ends[2:]
    Z, z = box_pair(re, im)
    got = numberfield._krawczyk_proves(p, dp, Z, t)
    assert got == legacy_isolation._krawczyk_proves(p, dp, z, t), (p, ends, t)
    return got


@pytest.mark.parametrize("seed", [1, 2])
def test_krawczyk_decisions_on_a_field_build_pass(seed):
    calls = _field_build_calls(seed)
    assert len(calls) >= 10
    for call in calls:
        _decisions_agree(*call)


def test_krawczyk_decisions_on_boxes_near_and_off_roots():
    """3,200 boxes of half-side 16 grid steps 2^-t, as `_refine_rect` makes
    them, centred 0 to 32 steps off a root in a seeded direction: the near
    ones are proved, the far ones are not, and both tests agree on all."""
    rng = random.Random(32)
    fields = ([-1, -1, 0, 1], [-1, -1, -1, 1], [1, -1, -1, -1, 1],
              [1, 0, -1, -1, -1, 0, 1], [-1, -1, -1, -1, -1, 1], [3, 0, 2, 1],
              [-1, -1, 0, 0, 0, 1], [-2, 404, -20402, 0, 0, 0, 0, 0, 1])
    verdicts = []
    for coeffs in fields:
        K = NumberField(coeffs, check_reducible=False)
        p = K.minpoly_int
        dp = tuple(polys.derivative(polys.canonical(p)))
        roots = [K.root_box(j, F(1, 2 ** 80)) for j in K.upper_root_indices()]
        for _ in range(400):
            root = rng.choice(roots)
            t = rng.randint(10, 60)
            a, b = ((iv.mid.numerator << t) // iv.mid.denominator
                    for iv in (root.re, root.im))
            k = rng.randint(0, 32)
            a += rng.choice((-1, 0, 1)) * k
            b += rng.choice((-1, 0, 1)) * k
            box = tuple(F(c + s, 1 << t) for c in (a, b) for s in (-16, 16))
            verdicts.append(_decisions_agree(p, dp, box, t))
    assert len(verdicts) >= 3000
    assert 0 < sum(verdicts) < len(verdicts)


def test_krawczyk_inclusion_is_strict():
    """For p = z^2 + 1 and Z = i + [-r, r](1 + i), Y = 1/p'(i) = -i/2 is
    exact and K = i + (1 + i)[-2r^2, 2r^2]: inside Z for r < 1/2, and on
    its edges, so not a proof, at r = 1/2."""
    p, dp = (1, 0, 1), (0, 2)
    for r, proved in ((F(1, 4), True), (F(1, 2), False), (F(3, 8), True)):
        box = (-r, r, 1 - r, 1 + r)
        assert _decisions_agree(p, dp, box, 8) is proved
