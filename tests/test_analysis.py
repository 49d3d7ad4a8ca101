import math
from fractions import Fraction as F

import pytest

from gpnf.analysis import (BinaryWord, density_profile, non_hereditary_construct,
                           sturmian, subword_complexity, surrogate_slow_decay_set)
from gpnf.errors import (DensityHypothesisFailed, RationalSlope, WindowTooShort)


# -- words ------------------------------------------------------------------------

def test_sturmian_example(K_sqrt2):
    w = sturmian(K_sqrt2.beta - 1, 0, 0, 2)
    assert w.bits == (0, 0, 1)


def test_sturmian_values_binary(K_phi, K_sqrt2):
    for a in (K_phi.beta - 1, K_sqrt2.beta - 1):
        w = sturmian(a, F(1, 3), -50, 50)
        assert set(w.bits) <= {0, 1}


def test_sturmian_ones_count(K_phi):
    # telescoping: ones in [0, n) = floor(a n + b) - floor(b)
    a = K_phi.beta - 1
    w = sturmian(a, 0, 0, 500)
    alpha = (math.sqrt(5) - 1) / 2
    for n in (10, 100, 400):
        ones = sum(w.bits[:n])
        assert abs(ones - alpha * n) <= 1


def test_sturmian_rejects_rational(K_phi):
    with pytest.raises(RationalSlope):
        sturmian(K_phi.element(F(1, 3)), 0, 0, 5)
    with pytest.raises(RationalSlope):
        sturmian(F(1, 3), 0, 0, 5)


def test_sturmian_slope_range(K_phi):
    with pytest.raises(ValueError):
        sturmian(K_phi.beta, 0, 0, 5)   # 1.618 not in (0,1)


def test_word_indexing():
    w = BinaryWord(-2, (1, 0, 1, 1))
    assert w[-2] == 1 and w[0] == 1
    assert len(w) == 4


# -- complexity ----------------------------------------------------------------------

def test_complexity_constant_word():
    w = BinaryWord(0, (1,) * 50)
    for N in (1, 5, 20):
        assert subword_complexity(w, N) == 1


def test_complexity_alternating():
    w = BinaryWord(0, tuple(i % 2 for i in range(40)))
    assert subword_complexity(w, 3) == 2    # only 010 and 101


def test_complexity_sturmian(K_sqrt2, K_phi):
    for a in (K_sqrt2.beta - 1, K_phi.beta - 1):
        w = sturmian(a, 0, 0, 1999)
        for N in range(1, 41):
            assert subword_complexity(w, N) == N + 1


def test_complexity_window_too_short():
    w = BinaryWord(0, (1, 0))
    with pytest.raises(WindowTooShort):
        subword_complexity(w, 3)


# -- density ---------------------------------------------------------------------------

def test_density_profile_examples():
    assert density_profile(lambda n: True, [3, 10]) == [1, 1]
    # |evens in [-N, N]| = N + 1 for even N, approaching 1/2
    evens = density_profile(lambda n: n % 2 == 0, [4, 50])
    assert evens == [F(5, 9), F(51, 101)]
    fibs = {0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
    prof = density_profile(lambda n: n in fibs, [10, 100])
    assert prof[0] > prof[1]


# -- surrogate sets ---------------------------------------------------------------------

def test_surrogate_counts():
    f = lambda N: F(1, 1) / (len(bin(N + 2)) - 2)    # ~ 1/log2(N+2)
    E = surrogate_slow_decay_set(f)
    for N in (100, 1000, 10000):
        assert E.prefix_count(N) >= f(N) * N


def test_surrogate_zero_rate_is_empty():
    E = surrogate_slow_decay_set(lambda N: F(0))
    assert E.prefix_count(500) == 0


def test_surrogate_full_rate_is_everything():
    E = surrogate_slow_decay_set(lambda N: F(1))
    assert E.prefix_count(200) == 200


def test_surrogate_density_drops():
    f = lambda N: F(9, 10) if N < 500 else F(9, 10) * F(500, N)
    E = surrogate_slow_decay_set(f)
    d1 = E.prefix_count(500) / 500
    d2 = E.prefix_count(20000) / 20000
    assert d1 > 0.85 and d2 < 0.15


# -- the construction ----------------------------------------------------------------------

def _dense_surrogate():
    return surrogate_slow_decay_set(
        lambda N: F(9, 10) if N < 10 ** 4 else F(9, 10) * F(10 ** 4, N))


def test_construct_level_one_degenerate():
    E = _dense_surrogate()
    plan = non_hereditary_construct(E, lambda L: F(1, 2), 1)
    assert plan.certified()
    assert plan.complexity_at(1) == 2   # both letters appear


def test_construct_empty_set_fails():
    with pytest.raises(DensityHypothesisFailed):
        non_hereditary_construct(lambda n: False, lambda L: F(1, 2), 1)


def test_construct_four_levels():
    E = _dense_surrogate()
    plan = non_hereditary_construct(E, lambda L: min(F(1, 2), 1 / math.sqrt(L)), 4)
    assert len(plan.levels) == 4
  # schedule follows N_L = N_{L-1} + L M_L exactly
    for rec in plan.levels:
        assert rec.N == rec.N_prev + rec.level * rec.M
        assert rec.plus_count >= 2 ** rec.a or rec.level == 1
        assert plan.complexity_at(rec.level) >= 2 ** rec.a
    # F is carved out of E
    for i in range(plan.N_max):
        if plan.window[i]:
            assert E(i)
    # removed points were in E
    for p in plan.removed:
        assert E(p)


def test_construct_distinct_factors_per_level():
    E = _dense_surrogate()
    plan = non_hereditary_construct(E, lambda L: F(1, 2), 4)
    for rec in plan.levels:
        factors = set()
        for mblk in rec.positions:
            base = rec.N_prev + mblk * rec.level
            factors.add(tuple(plan.window[base + off] for off in range(rec.level)))
        assert len(factors) == 2 ** rec.a
