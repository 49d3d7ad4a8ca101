import functools
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from gpnf.constructions import (IndexSet, PisotSetSpec, _is_pisot, choose_m,
                                default_rho,
                                hereditary_predicate, lattice_indicator,
                                pisot_unit_test, power_set_predicate,
                                salem_test, trace_collision_search,
                                unit_indicator)
from gpnf.errors import (DependentBasis, InvalidRho, NotPisot, OutOfRange,
                         RankNotOne)
from gpnf.numberfield import FieldElement, NumberField, certified_dist


# -- index sets ---------------------------------------------------------------

def test_index_sets():
    fin = IndexSet.finite([0, 2, 5])
    assert 2 in fin and 3 not in fin and -1 not in fin
    per = IndexSet.periodic(3, [1])
    assert per.contains(4) and not per.contains(3)
    assert fin.members_between(1, 5) == [2, 5]
    ev = IndexSet.evens()
    sec = ev.dilated_section(0, 8)   # j with 8j even: all j
    assert all(sec.contains(j) for j in range(6))
    sec2 = ev.dilated_section(1, 8)  # 1 + 8j is odd: none
    assert not any(sec2.contains(j) for j in range(6))
    per15 = IndexSet.periodic(15, [3])
    sec3 = per15.dilated_section(3, 6)   # 3 + 6j = 3 mod 15 iff j = 0 mod 5
    assert [j for j in range(12) if sec3.contains(j)] == [0, 5, 10]
    bounded = IndexSet.from_bounded_predicate(lambda i: i * i < 30, 100)
    assert bounded.members == frozenset([0, 1, 2, 3, 4, 5])


def test_dilated_section_of_a_far_start():
    far = IndexSet.periodic(2, [0], start=10 ** 15)
    sec = far.dilated_section(1, 3)     # j with 1 + 3j even and >= 10^15
    assert sec.start == (10 ** 15 + 1) // 3
    for j in range(sec.start - 40, sec.start + 40):
        assert sec.contains(j) == far.contains(1 + 3 * j), j


def test_dilated_section_matches_brute_force():
    for start in range(0, 12):
        for period, residues in ((1, [0]), (4, [1, 2]), (6, [0, 3, 5])):
            I = IndexSet.periodic(period, residues, start=start)
            for modulus in range(1, 6):
                for residue in range(0, 9):
                    sec = I.dilated_section(residue, modulus)
                    assert [j for j in range(30) if sec.contains(j)] == [
                        j for j in range(30)
                        if I.contains(residue + j * modulus)], (
                            start, period, residues, modulus, residue)


def test_index_set_ranges():
    with pytest.raises(OutOfRange):
        IndexSet.finite([0, -1])
    with pytest.raises(OutOfRange):
        IndexSet.periodic(0, [0])


# -- lattice and unit indicators ------------------------------------------------

def test_lattice_indicator_examples(K_phi):
    phi = K_phi.beta
    lat = lattice_indicator(K_phi, [K_phi.one, phi])
    assert lat(phi) == 1
    assert lat(phi * F(1, 2)) == 0
    assert lat(3 - 2 * phi) == 1


def test_lattice_rank_deficient(K_phi):
    phi = K_phi.beta
    with pytest.raises(DependentBasis):
        lattice_indicator(K_phi, [phi, phi * 2])
    with pytest.raises(DependentBasis):   # more than m vectors
        lattice_indicator(K_phi, [K_phi.one, phi, phi / 2])


def test_sublattice(K_phi):
    phi = K_phi.beta
    lat = lattice_indicator(K_phi, [K_phi.element(2)])   # 2Z inside K
    assert lat(K_phi.element(4)) == 1
    assert lat(K_phi.element(3)) == 0
    assert lat(phi) == 0


def test_unit_indicator(K_phi):
    un = unit_indicator(K_phi)
    assert un(K_phi.beta) == 1          # norm -1
    assert un(K_phi.element(2)) == 0    # norm 4
    assert un(K_phi.beta ** 3) == 1     # units closed under powers


# -- detectors -------------------------------------------------------------------

def test_pisot_examples(K_phi, K_sqrt2):
    phi = K_phi.beta
    assert pisot_unit_test(phi)
    assert not pisot_unit_test(phi - 1)          # 0.618 < 1
    assert pisot_unit_test(1 + K_sqrt2.beta)     # 1 + sqrt2
    assert not pisot_unit_test(K_phi.element(2))   # not a unit
    assert not pisot_unit_test(K_phi.zero)
    assert not pisot_unit_test(-phi)


def test_pisot_unit_test_builds_one_char_poly(K_phi, K_sqrt2, K_plastic,
                                              K_salem, monkeypatch):
    """One characteristic polynomial per call, and the answer of the unit
    test followed by the Pisot gate."""
    phi, beta = K_phi.beta, K_plastic.beta
    xs = [phi, phi - 1, -phi, phi / 2, K_phi.element(2), K_phi.zero,
          1 + K_sqrt2.beta, beta, beta ** 2, beta * 3, K_salem.beta]
    want = [x.is_unit() and _is_pisot(x) for x in xs]
    calls = []
    char_poly = FieldElement.char_poly
    monkeypatch.setattr(FieldElement, "char_poly",
                        lambda x: calls.append(x) or char_poly(x))
    for x, expected in zip(xs, want):
        calls.clear()
        assert pisot_unit_test(x) == expected
        assert calls == [x]
    assert want == [True, False, False, False, False, False, True, True, True,
                    False, False]


def test_pisot_plastic(K_plastic):
    assert K_plastic.signature == (1, 1)
    assert K_plastic.has_rank_one_units
    assert pisot_unit_test(K_plastic.beta)


def test_salem_examples(K_salem, K_phi):
    assert salem_test(K_salem.beta)
    assert not salem_test(K_phi.beta)
    assert not salem_test(K_salem.one)
    assert not salem_test(K_salem.beta.inverse())   # 0.58 < 1
    assert not pisot_unit_test(K_salem.beta)        # circle conjugates


def test_salem_test_builds_one_int_char_poly(K_phi, K_sqrt2, K_salem,
                                             monkeypatch):
    """One integer characteristic polynomial per cold element, read both
    for the unit test and for the minimal polynomial."""
    b = K_salem.beta
    K_salem8 = NumberField([1, 0, 0, -1, -1, -1, 0, 0, 1])
    xs = [b, b.inverse(), b * b, b + 1, b * 2, b / 2, -b, K_salem.one,
          K_salem.zero, K_salem8.beta, K_phi.beta, 1 + K_sqrt2.beta]
    units = [x.is_unit() for x in xs]
    calls = []
    int_char_poly = FieldElement._int_char_poly
    monkeypatch.setattr(FieldElement, "_int_char_poly",
                        lambda x: calls.append(x) or int_char_poly(x))
    answers = []
    for x in xs:
        FieldElement._minimal_poly_int.cache_clear()
        calls.clear()
        answers.append(salem_test(x))
        assert calls == [x]
    FieldElement._minimal_poly_int.cache_clear()
    assert answers == [True, False, True, False, False, False, False, False,
                       False, True, False, False]
    assert units == [True, True, True, False, False, False, True, True,
                     False, True, True, True]


def test_detectors_vs_float_oracle(K_phi, K_sqrt2, K_plastic, K_salem, rng):
    # definition-level oracle on conjugate boxes (independent float roots),
    # anchored on the distinguished embedding per the documented convention
    from conftest import detector_oracle, detector_suite
    suite = detector_suite((K_phi, K_sqrt2, K_plastic, K_salem), rng)
    assert len(suite) == 200
    mismatches = 0
    for x in suite:
        if x.is_zero():
            continue
        op, osal = detector_oracle(x)
        if pisot_unit_test(x) != op or salem_test(x) != osal:
            mismatches += 1
    assert mismatches == 0


# -- powers of a Pisot unit -------------------------------------------------------

def test_power_set_examples(K_phi):
    phi = K_phi.beta
    pred = power_set_predicate(phi)
    assert pred(phi ** 7) == 1
    assert pred(phi - 1) == 0        # phi^-1: negative exponent excluded
    assert pred(2 * phi) == 0        # not a unit
    assert pred(K_phi.one) == 1
    assert pred.exponent_of(phi ** 23) == 23


PISOT_UNITS = {"golden": [-1, -1, 1], "plastic": [-1, -1, 0, 1],
               "tribonacci": [-1, -1, -1, 1]}
TOP = 5000


@lru_cache(maxsize=None)
def _powers(name):
    """(predicate, [beta^0, ..., beta^(TOP+3)], {beta^j: j})."""
    beta = NumberField(PISOT_UNITS[name]).beta
    pows = [beta ** 0]
    for _ in range(TOP + 3):
        pows.append(pows[-1] * beta)
    return power_set_predicate(beta), pows, {p: j for j, p in enumerate(pows)}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(PISOT_UNITS)), st.integers(0, TOP),
       st.sampled_from([0, 1, -1, 2]))
def test_exponent_of_matches_exact_power_oracle(name, k, d):
    pred, pows, index = _powers(name)
    x = pows[k] + d
    j = index.get(x)
    expected = j if j is not None and j <= k + 3 else None
    assert pred.exponent_of(x) == expected
    if d == 0:
        assert expected == k


def test_exponent_of_near_powers_all_small_k():
    for name in PISOT_UNITS:
        pred, pows, index = _powers(name)
        for k in range(60):
            for d in (0, 1, -1, 2, -2):
                x = pows[k] + d
                for y in (x, -x, 2 * x, x / 2):
                    assert pred.exponent_of(y) == index.get(y), (name, k, d)


def test_power_cache_is_bounded(monkeypatch, K_phi):
    # beta's powers are cached in 256 entries; a predicate asked about
    # 601 exponents evicts the oldest and stays exact
    made = []
    real = functools.lru_cache

    def recording(*args, **kwargs):
        def wrap(fn):
            made.append(real(*args, **kwargs)(fn))
            return made[-1]
        return wrap

    phi = K_phi.beta
    monkeypatch.setattr(functools, "lru_cache", recording)
    pred = power_set_predicate(phi)
    monkeypatch.undo()
    (power,) = [c for c in made if c.__wrapped__ == phi.__pow__]
    x = K_phi.one
    for k in range(601):
        assert pred.exponent_of(x) == k
        x = x * phi
    info = power.cache_info()
    assert info.maxsize == 256 and info.currsize == 256
    assert pred.exponent_of(K_phi.one) == 0        # beta^0 was evicted
    assert power.cache_info().misses == info.misses + 1


def test_power_set_rank_check(K_salem):
    with pytest.raises(RankNotOne):
        power_set_predicate(K_salem.beta)   # signature (2,1): rank 2


def test_power_set_needs_pisot(K_phi):
    with pytest.raises(ValueError):
        power_set_predicate(K_phi.element(2))


# -- the m selection ---------------------------------------------------------------

def test_choose_m_golden(K_phi):
    m = choose_m(K_phi.beta, F(3, 2))
    assert 5 <= m <= 8
    # re-verify the defining inequality at the returned m and its failure at m-1
    spec = PisotSetSpec(K_phi, K_phi.beta, F(3, 2), m, IndexSet.evens())
    with pytest.raises(ValueError):
        PisotSetSpec(K_phi, K_phi.beta, F(3, 2), m - 1, IndexSet.evens())


def test_choose_m_silver(K_sqrt2, K_phi):
    m_silver = choose_m(1 + K_sqrt2.beta, F(2))
    m_golden = choose_m(K_phi.beta, F(3, 2))
    assert m_silver < m_golden   # conjugate modulus 0.414 < 1/2 contracts faster


def test_invalid_rho(K_phi):
    with pytest.raises(InvalidRho):
        choose_m(K_phi.beta, F(2))        # rho >= beta
    with pytest.raises(InvalidRho):
        choose_m(K_phi.beta, F(7, 4))     # 1/rho = 0.571 < |conj| = 0.618
    with pytest.raises(InvalidRho):
        choose_m(K_phi.beta, F(1, 2))     # rho <= 1


def test_default_rho_is_valid(K_phi, K_plastic):
    for K in (K_phi, K_plastic):
        rho = default_rho(K.beta)
        assert choose_m(K.beta, rho) >= 1


# -- hereditary predicate -----------------------------------------------------------

def test_hereditary_even_exponents(K_phi):
    phi = K_phi.beta
    spec = PisotSetSpec.create(phi, IndexSet.evens(), rho=F(3, 2))
    pred = hereditary_predicate(spec)
    for i in range(0, 16):
        assert pred(phi ** i) == (1 if i % 2 == 0 else 0)
    assert pred(2 * phi) == 0
    assert pred(K_phi.element(3)) == 0
    assert pred(phi - 1) == 0


def test_hereditary_single_residue_scale(K_phi):
    # the one-residue construction: {gamma^j : j in I} with gamma = beta^m
    phi = K_phi.beta
    m = choose_m(phi, F(3, 2))
    gamma_indices = IndexSet.periodic(2 * m, [0])  # {beta^(2mi)} = even gamma-powers
    spec = PisotSetSpec.create(phi, gamma_indices, rho=F(3, 2), m=m)
    pred = hereditary_predicate(spec)
    assert pred(phi ** (2 * m)) == 1
    assert pred(phi ** (3 * m)) == 0
    assert pred((phi ** m) * 2) == 0


def test_hereditary_finite_index_set(K_phi):
    phi = K_phi.beta
    spec = PisotSetSpec.create(phi, IndexSet.finite([0, 2, 5]), rho=F(3, 2))
    pred = hereditary_predicate(spec)
    got = [pred(phi ** i) for i in range(8)]
    assert got == [1, 0, 1, 0, 0, 1, 0, 0]


def test_hereditary_silver(K_sqrt2):
    beta = 1 + K_sqrt2.beta
    spec = PisotSetSpec.create(beta, IndexSet.periodic(3, [0]))
    pred = hereditary_predicate(spec)
    for i in range(10):
        assert pred(beta ** i) == (1 if i % 3 == 0 else 0)


def test_spec_checks_hypotheses_before_constants(K_phi, K_salem):
    # before the least-power search or default_rho: x - 2 has unit rank 0
    # (the search ran to its 10^6 cap), the Salem quartic rank 2
    for beta in (NumberField([-2, 1]).beta, K_salem.beta):
        with pytest.raises(RankNotOne):
            PisotSetSpec.create(beta, IndexSet.evens())
    phi = K_phi.beta
    for beta in (-phi, phi - 1, 2 * phi):       # below 1, below 1, no unit
        with pytest.raises(NotPisot):
            PisotSetSpec.create(beta, IndexSet.evens())
        with pytest.raises(ValueError):
            PisotSetSpec.create(beta, IndexSet.evens(), rho=F(3, 2), m=7)


@pytest.mark.parametrize("m", [-3, 0, 1])
def test_spec_power_below_range(K_phi, m):
    with pytest.raises(OutOfRange):
        PisotSetSpec(K_phi, K_phi.beta, F(3, 2), m, IndexSet.evens())


def test_threshold_is_two_thirds_dist(K_phi):
    spec = PisotSetSpec.create(K_phi.beta, IndexSet.evens(), rho=F(3, 2))
    assert spec.threshold == certified_dist(K_phi.beta) * F(2, 3)


# -- trace collisions ------------------------------------------------------------

def test_trace_collision_diagonal():
    K = NumberField([1, -4, 1])      # 2 + sqrt3
    cols = trace_collision_search(K, K.one, K.one, 30)
    assert [(i, i) for i in range(31)] == [c for c in cols if c[0] == c[1]]


def test_trace_collision_inverse_symmetry():
    # Tr(beta^i) = Tr(beta^-i) for beta = 2+sqrt3: shift by beta^-20
    K = NumberField([1, -4, 1])
    y = K.beta.inverse() ** 20
    cols = set(trace_collision_search(K, K.one, y, 40))
    for i in range(21):
        assert (i, 20 - i) in cols


def test_trace_collision_generic_is_empty():
    K = NumberField([1, -4, 1])
    cols = trace_collision_search(K, K.beta, K.beta + 1, 50)
    assert cols == []


def test_trace_collision_bound_cap():
    K = NumberField([1, -4, 1])
    with pytest.raises(ValueError):
        trace_collision_search(K, K.one, K.one, 10 ** 5)
