import functools
import random
import sys
import threading
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gpnf import linrec, polys
from gpnf.errors import (DegreeMismatch, GpnfError, NotPisot, NotSquarefree,
                         OutOfRange, SearchBoundExceeded, SingularSystem,
                         VandermondeSingular, ZeroSourceSequence, ZeroTraceRep)
from gpnf.linrec import (LinRecSeq, TransferMap, _vsm_setup, pisot_step,
                         salem_recover_exact,
                         salem_recovery_family, sml_zeros, trace_representation,
                         transfer_map, transfer_to_powers, true_onset,
                         value_set_membership, verified_i0)
from gpnf.linalg import gauss_jordan
from gpnf.numberfield import NumberField, certified_floor, certified_nint


LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


@pytest.fixture()
def fib():
    return LinRecSeq([-1, -1, 1], [0, 1])


@pytest.fixture()
def lucas():
    return LinRecSeq([-1, -1, 1], [2, 1])


@pytest.fixture()
def salem_seq():
    return LinRecSeq([1, -1, -1, -1, 1], [4, 1, 3, 7])


# -- terms -------------------------------------------------------------------

def test_term_examples(fib, lucas, salem_seq):
    assert fib.term(10) == 55
    assert lucas.term(5) == 11
    assert salem_seq.term(5) == 16


def test_negative_index_is_typed(fib):
    # a domain error, and still the IndexError that list-like callers catch
    with pytest.raises(GpnfError):
        fib.term(-1)
    with pytest.raises(IndexError):
        fib.term(-1)


def test_salem_terms_are_power_sums(salem_seq, K_salem):
    # oracle: Newton's identities computed right here
    e = [1, -1, 1, 1]  # e1..e4 for x^4 - x^3 - x^2 - x + 1
    ps = [4]
    for k in range(1, 9):
        acc = 0
        for i in range(1, min(k - 1, 4) + 1):
            acc += (-1) ** (i - 1) * e[i - 1] * ps[k - i]
        if k <= 4:
            ps.append(acc + (-1) ** (k - 1) * k * e[k - 1])
        else:
            ps.append(acc)
    for k in range(9):
        assert salem_seq.term(k) == ps[k]


def test_rational_terms():
    seq = LinRecSeq([-1, -1, 1], [F(1, 2), F(1, 3)])
    assert seq.term(2) == F(1, 2) + F(1, 3)
    assert seq.integer_scale() == 6


def test_integer_scale_clears_every_denominator():
    # integer coefficients: the initial denominators are the only ones
    seq = LinRecSeq([1, -1, -1, -1, 1], [F(1, 2), 1, 3, 7])
    s = seq.integer_scale()
    assert s == 2 == linrec._window_map(seq)[3]
    assert all((s * v).denominator == 1 for v in seq.terms(200))
    # rational coefficients: the denominators grow past the initial ones
    seq = LinRecSeq([-1, -3, 2], [0, 1])
    assert seq.integer_scale() == 1 and seq.terms(4)[2:] == [F(3, 2), F(11, 4),
                                                             F(39, 8)]


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        LinRecSeq([-1, -1, 1], [1])


def test_squarefree_required():
    with pytest.raises(NotSquarefree):
        LinRecSeq([1, -2, 1], [0, 1])


# -- trace representation -------------------------------------------------------

def test_trace_rep_examples(fib, lucas, K_phi):
    assert trace_representation(lucas) == K_phi.one
    x = trace_representation(fib)
    phi = K_phi.beta
    assert x == (2 * phi - 1) * F(1, 5)
    # 1/sqrt5 in K: (2 phi - 1)^2 = 5
    assert (2 * phi - 1) * (2 * phi - 1) == 5


def test_trace_rep_zero_sequence():
    z = LinRecSeq([-1, -1, 1], [0, 0])
    assert trace_representation(z).is_zero()


def test_trace_rep_reproduces_terms(fib, lucas, salem_seq, K_phi, K_salem):
    for seq in (fib, lucas, salem_seq):
        x = trace_representation(seq)
        beta = seq.field.beta
        cur = x
        for i in range(60):
            assert cur.trace() == seq.term(i)
            cur = cur * beta


def test_trace_rep_random_sequences(K_phi, K_plastic, rng):
    for K in (K_phi, K_plastic):
        ps = K.power_sums(220 + K.degree)
        for _ in range(15):
            init = [F(rng.randint(-20, 20)) for _ in range(K.degree)]
            seq = LinRecSeq(K.monic_minpoly, init)
            x = trace_representation(seq)
            cur = x
            beta = K.beta
            for i in range(0, 200, 17):
                assert (beta ** i * x).trace() == seq.term(i)


# -- stepping ---------------------------------------------------------------------

def test_verified_i0_examples(fib, lucas):
    assert verified_i0(fib, 1) == 2
    assert verified_i0(lucas, 1) == 4


def test_verified_i0_negative_j_is_out_of_range(fib):
    # the upper bounds on |a| bound |a|^j only for j >= 0
    for j in (-1, -5):
        with pytest.raises(OutOfRange):
            verified_i0(fib, j)


def test_pre_onset_counterexamples(fib, lucas, K_phi):
    phi = K_phi.beta
    assert pisot_step(phi, 1, fib.term(1)) == 2 != fib.term(2)
    assert pisot_step(phi, 1, fib.term(2)) == fib.term(3)
    assert pisot_step(phi, 1, lucas.term(3)) == 6 != lucas.term(4)
    assert pisot_step(phi, 1, lucas.term(4)) == lucas.term(5)


def test_stepping_window(fib, lucas, K_phi):
    phi = K_phi.beta
    for seq in (fib, lucas):
        i0 = verified_i0(seq, 1)
        for i in range(i0, i0 + 100):
            assert pisot_step(phi, 1, seq.term(i)) == seq.term(i + 1)


def test_stepping_j2(fib, K_phi):
    i0 = verified_i0(fib, 2)
    phi2 = K_phi.beta ** 2
    for i in range(i0, i0 + 60):
        assert certified_nint(phi2 * fib.term(i)) == fib.term(i + 2)


def test_stepping_perrin_and_pell():
    perrin = LinRecSeq([-1, -1, 0, 1], [3, 0, 2])
    pell = LinRecSeq([-1, -2, 1], [0, 1])
    for seq in (perrin, pell):
        i0 = verified_i0(seq, 1)
        beta = seq.field.beta
        for i in range(i0, i0 + 100):
            assert certified_nint(beta * seq.term(i)) == seq.term(i + 1)


def test_true_onset_not_above_verified(fib, lucas):
    for seq in (fib, lucas):
        t = true_onset(seq, 1)
        v = verified_i0(seq, 1)
        assert t <= v
        if t > 0:
            beta = seq.field.beta
            assert certified_nint(beta * seq.term(t - 1)) != seq.term(t)


def test_not_pisot_rejected(salem_seq):
    with pytest.raises(NotPisot):
        verified_i0(salem_seq, 1)   # Salem, not Pisot


def test_pisot_gate_requires_an_algebraic_integer():
    """2x^2 - 3x - 1: beta = (3 + sqrt17)/4 ~ 1.78 and its conjugate
    ~ -0.28 lie where a Pisot number's would, but beta is no algebraic
    integer, and n_{i+1} = nint(beta n_i) fails for every i >= 1."""
    seq = LinRecSeq([-1, -3, 2], [0, 1])
    beta = seq.field.beta
    for i in range(1, 8):
        assert certified_nint(beta * seq.term(i)) != seq.term(i + 1)
    same_recurrence = LinRecSeq([-1, -3, 2], [1, 1])
    for call in (lambda: verified_i0(seq, 1), lambda: true_onset(seq, 1),
                 lambda: transfer_map(seq, same_recurrence),
                 lambda: value_set_membership(seq, F(3, 2))):
        with pytest.raises(NotPisot):
            call()


# -- transfer maps ------------------------------------------------------------------

def test_transfer_fib_to_lucas(fib, lucas):
    tm = transfer_map(fib, lucas)
    assert tm.coeffs == [F(-1), F(2)]     # L_i = -F_i + 2 F_{i+1}
    assert tm.apply(5) == 11              # g(F_5) = L_5
    for i in range(tm.onset, tm.onset + 30):
        assert tm.apply(fib.term(i)) == lucas.term(i)


def test_transfer_identity(fib):
    tm = transfer_map(fib, fib)
    assert tm.coeffs == [F(1), F(0)]


def test_transfer_to_powers(fib, K_phi):
    tm = transfer_to_powers(fib)
    phi = K_phi.beta
    for i in range(tm.onset, tm.onset + 30):
        assert tm.apply(fib.term(i)) == phi ** i


def test_transfer_zero_source():
    z = LinRecSeq([-1, -1, 1], [0, 0])
    other = LinRecSeq([-1, -1, 1], [1, 1])
    with pytest.raises(ZeroSourceSequence):
        transfer_map(z, other)


def test_transfer_different_recurrences(fib):
    pell = LinRecSeq([-1, -2, 1], [0, 1])
    with pytest.raises(DegreeMismatch):
        transfer_map(fib, pell)


def test_transfer_rational_source(K_phi):
    src = LinRecSeq([-1, -1, 1], [F(1, 3), F(2, 3)])   # F_i-ish / 3
    dst = LinRecSeq([-1, -1, 1], [2, 1])
    tm = transfer_map(src, dst)
    assert tm.scale == 3
    for i in range(tm.onset, tm.onset + 20):
        assert tm.apply(src.term(i)) == dst.term(i)


def transfer_by_gauss_jordan(src, target):
    """The transfer coefficients as they were solved before the window map:
    Gauss-Jordan on the Hankel system of the integer-scaled source, with
    right-hand side target(0), ..., target(m-1)."""
    m, s = src.order, src.integer_scale()
    A = [[s * src.term(i + j) for j in range(m)] + [target(i)] for i in range(m)]
    assert gauss_jordan(A, m)[0] == m
    return [row[m] for row in A]


TRANSFER_CHARPOLYS = {"fibonacci": [-1, -1, 1], "pell": [-1, -2, 1],
                      "perrin": [-1, -1, 0, 1], "tribonacci": [-1, -1, -1, 1]}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(TRANSFER_CHARPOLYS)), st.data())
def test_transfer_coeffs_match_the_hankel_solve(name, data):
    # rational initial terms make integer_scale() exceed 1, so the window
    # map's division by den * s is exercised as well as its rows
    charpoly = TRANSFER_CHARPOLYS[name]
    m = len(charpoly) - 1
    term = (st.integers(-30, 30)
            | st.fractions(min_value=-30, max_value=30, max_denominator=6))
    inits = st.lists(term, min_size=m, max_size=m).filter(any)
    src, dst = (LinRecSeq(charpoly, data.draw(inits)) for _ in range(2))
    beta = src.field.beta
    assert (transfer_to_powers(src).coeffs
            == transfer_by_gauss_jordan(src, lambda i: beta ** i))
    assert (transfer_map(src, dst).coeffs
            == transfer_by_gauss_jordan(src, dst.term))


def verified_i0_as_before(seq, j):
    """`verified_i0` as it was before `_onset`: its own Pisot gate, bound
    ladder and trace solve for each sequence and step."""
    f = seq.field
    assert linrec._is_pisot(f.beta)
    if j == 0 or seq.is_zero_sequence():
        return 0
    bits = 48
    ua = linrec._conjugate_bounds(f.beta, bits)
    while not all(u < 1 for u in ua.values()):
        bits *= 2
        ua = linrec._conjugate_bounds(f.beta, bits)
    uw = linrec._conjugate_bounds(trace_representation(seq), bits)
    bhi = f.beta.embed(None, bits).hi
    terms = [uw[a] * (ua[a] ** j + bhi ** j) for a in ua]
    uas = list(ua.values())
    i = 0
    while sum(terms) >= F(1, 2):
        terms = [t * u for t, u in zip(terms, uas)]
        i += 1
    return i


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(TRANSFER_CHARPOLYS) + ["2+sqrt2"]), st.data())
def test_transfer_onset_matches_the_scaled_source(name, data):
    # the onset of the source scaled to integers, once from s times its
    # trace representation, against a second sequence built from s * init
    charpoly = TRANSFER_CHARPOLYS.get(name, [2, -4, 1])
    m = len(charpoly) - 1
    term = (st.integers(-30, 30)
            | st.fractions(min_value=-30, max_value=30, max_denominator=6))
    src = LinRecSeq(charpoly, data.draw(
        st.lists(term, min_size=m, max_size=m).filter(any)))
    s = src.integer_scale()
    zsrc = LinRecSeq(charpoly, [s * src.term(i) for i in range(m)])
    assert transfer_to_powers(src).onset == max(
        verified_i0_as_before(zsrc, j) for j in range(m))


# -- Salem recovery -------------------------------------------------------------------

def test_recover_examples(salem_seq, K_salem):
    beta = K_salem.beta
    assert salem_recover_exact(salem_seq, 0) == K_salem.one
    assert salem_recover_exact(salem_seq, 1) == beta
    assert salem_recover_exact(salem_seq, 10) == beta ** 10
    got = salem_recover_exact(salem_seq, 1, window=[1, 3, 7, 7])
    assert got == beta


def test_recover_all_powers(salem_seq, K_salem):
    beta = K_salem.beta
    for i in range(40):
        assert salem_recover_exact(salem_seq, i) == beta ** i
        window = [salem_seq.term(i + j) for j in range(4)]
        assert salem_recover_exact(salem_seq, i, window=window) == beta ** i


def test_recover_zero_sequence():
    z = LinRecSeq([1, -1, -1, -1, 1], [0, 0, 0, 0])
    with pytest.raises(ZeroTraceRep):
        salem_recover_exact(z, 3)


def recover_by_field(seq, i, window=None):
    """The window solve in field arithmetic, as it was before the integer
    window map: from_traces(window) * x^-1 for the trace representation x."""
    if window is None:
        window = [seq.term(i + j) for j in range(seq.order)]
    y = seq.field.from_traces([F(v) for v in window])
    return y * trace_representation(seq).inverse()


RECOVERY_SEQS = {"salem4": ([1, -1, -1, -1, 1], [4, 1, 3, 7]),
                 # integer_scale() is 2: the terms are integers over 2
                 "salem4-half": ([1, -1, -1, -1, 1], [F(1, 2), 1, 3, 7]),
                 "salem6": ([1, 0, -1, -1, -1, 0, 1], [6, 0, 2, 3, 6, 5]),
                 "lehmer": (LEHMER, polys.power_sums(LEHMER, 9)),
                 # x^2 - 3x/2 - 1/2: the term denominators grow (3/2, 11/4)
                 "rational": ([-1, -3, 2], [0, 1])}


@functools.lru_cache(maxsize=None)
def recovery_seq(name):
    """One sequence per name across examples: the field build is the slow
    part."""
    return LinRecSeq(*RECOVERY_SEQS[name])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(RECOVERY_SEQS)), st.integers(0, 60), st.data())
def test_recover_matches_the_field_route(name, i, data):
    seq = recovery_seq(name)
    beta_i = seq.field.beta ** i
    assert salem_recover_exact(seq, i) == recover_by_field(seq, i) == beta_i
    # a window of the sequence with Fraction entries, and any other window:
    # the window map is linear, so it must agree off the sequence too
    terms = [F(seq.term(i + j)) for j in range(seq.order)]
    assert salem_recover_exact(seq, i, window=terms) == beta_i
    window = data.draw(st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=9)
        | st.integers(-10 ** 6, 10 ** 6),
        min_size=seq.order, max_size=seq.order))
    assert (salem_recover_exact(seq, i, window=window)
            == recover_by_field(seq, i, window))


def _member_23(seq):
    return value_set_membership(seq, seq.term(23))


# each consumer of the window map, the exact check that must catch a wrong
# entry, and whether it also reads the map's initial terms (the trace loop)
MAP_CONSUMERS = {
    "salem4": (RECOVERY_SEQS["salem4"], _member_23, SingularSystem, True),
    "salem4-half": (RECOVERY_SEQS["salem4-half"], _member_23,
                    SingularSystem, True),
    "salem4-family": (RECOVERY_SEQS["salem4"],
                      lambda seq: salem_recovery_family(seq, range(0, 3)),
                      VandermondeSingular, False),
    "fibonacci-transfer": (([-1, -1, 1], [0, 1]), transfer_to_powers,
                           SingularSystem, False),
    "perrin-transfer": (([-1, -1, 0, 1], [3, 0, 2]), transfer_to_powers,
                        SingularSystem, False)}


@pytest.mark.parametrize("name", sorted(MAP_CONSUMERS))
def test_window_map_mutation_is_an_alarm(name):
    # one wrong entry of the window map, put on a cold sequence before its
    # first use, breaks the consumer's exact check (y == beta^k, g_c(n_i) ==
    # beta^i, the transfer map's 2m-term verification), and one wrong
    # initial term breaks membership's trace loop: each raises, never answers
    args, consume, alarm, reads_init = MAP_CONSUMERS[name]
    rows, den, init, s = linrec._window_map(LinRecSeq(*args))

    def bump(t, j):
        return t[:j] + (t[j] + 1,) + t[j + 1:]

    m = len(rows)
    bumped = [(rows[:a] + (bump(rows[a], b),) + rows[a + 1:], den, init, s)
              for a in range(m) for b in range(m)]
    if reads_init:
        bumped += [(rows, den, bump(init, b), s) for b in range(m)]
    for wrong in bumped:
        seq = LinRecSeq(*args)
        seq._window_map = wrong
        with pytest.raises(alarm):
            consume(seq)
    assert consume(LinRecSeq(*args))


def test_recovery_family(salem_seq, K_salem):
    fam = salem_recovery_family(salem_seq, range(0, 25))
    # correction tuple at i = 0: floor(beta^j * 4) - n_j
    beta = K_salem.beta
    expected = tuple(F(certified_floor(beta ** j * 4)) - salem_seq.term(j)
                     for j in range(4))
    assert fam.correction_tuple(0) == expected
    assert fam.contains(expected)
    assert fam.candidate_count == __import__("math").prod(2 * c + 1 for c in fam.bounds)
    # audited bound: every verified correction stays within C_j
    for i in range(25):
        assert fam.contains(fam.correction_tuple(i))


def gamma_by_synthetic_division(seq):
    """The gamma_j as they were computed before the window map: q_j(beta) /
    (p'(beta) x), where p(X) / (X - beta) = sum_j q_j(beta) X^j for the
    monic minimal polynomial p and the trace representation x."""
    f = seq.field
    p, beta, m = f.monic_minpoly, f.beta, f.degree
    q = [f.one]
    for j in range(m - 1, 0, -1):
        q.append(q[-1] * beta + p[j])
    q.reverse()
    dp = f.zero
    for qj in reversed(q):
        dp = dp * beta + qj
    scale = (dp * trace_representation(seq)).inverse()
    return [qj * scale for qj in q]


def test_recovery_family_gamma_identity():
    # sum_j gamma_j n_{i+j} == beta^i holds exactly in Q(beta), and the
    # gamma_j read from the window map are the synthetic-division ones
    for name in ("salem4", "salem6", "lehmer"):
        seq = LinRecSeq(*RECOVERY_SEQS[name])
        fam = salem_recovery_family(seq, range(0, 3))
        assert fam._gamma == gamma_by_synthetic_division(seq)
        f = seq.field
        for i in range(51):
            g = sum((gj * seq.term(i + j) for j, gj in enumerate(fam._gamma)),
                    f.zero)
            assert g == f.beta ** i


def test_recovery_family_gamma_against_sympy(salem_seq):
    # independent oracle: the beta-row of the inverse of the conjugate matrix
    # (w_a a^j), from sympy's 50-digit roots a and the w solving
    # sum_a w_a a^j = n_j
    import sympy
    fam = salem_recovery_family(salem_seq, range(0, 3))
    t = sympy.Symbol("t")
    roots = sympy.Poly(t ** 4 - t ** 3 - t ** 2 - t + 1, t).nroots(n=50)
    b = max(range(4), key=lambda a: sympy.re(roots[a]))
    V = sympy.Matrix(4, 4, lambda j, a: roots[a] ** j)
    w = V.LUsolve(sympy.Matrix([int(salem_seq.term(j)) for j in range(4)]))
    M = sympy.Matrix(4, 4, lambda j, a: w[a] * roots[a] ** j)
    oracle = M.inv()[b, :]
    tol = F(1, 10 ** 40)    # the oracle's own rounding error
    for box, v in zip((g.embed(None, 96) for g in fam._gamma), oracle):
        v = sympy.expand(v)
        assert abs(sympy.im(v)) < 1e-40
        re = F(str(sympy.re(v)))
        assert box.width <= F(2, 2 ** 96)
        assert box.lo - tol <= re <= box.hi + tol


def test_recovery_family_rejects_wrong_length(salem_seq):
    fam = salem_recovery_family(salem_seq, range(0, 3))
    for c in [(), (0,), (0, 0, 0, 0, 99)]:
        with pytest.raises(DegreeMismatch):
            fam.contains(c)
        with pytest.raises(DegreeMismatch):
            fam.g_value(4, c)


def test_recovery_family_enclosure_is_small(salem_seq):
    # the enclosure repr works and its endpoints stay small at 96 bits
    fam = salem_recovery_family(salem_seq, range(0, 3))
    for i in range(6):
        enc = fam.g_value(salem_seq.term(i), fam.correction_tuple(i))
        assert repr(enc)
        for end in (enc.lo, enc.hi):
            assert end.numerator.bit_length() < 1000
            assert end.denominator.bit_length() < 1000


def test_recovery_family_degree_six():
    # power sums of the degree-6 Salem polynomial x^6 - x^4 - x^3 - x^2 + 1
    p = [1, 0, -1, -1, -1, 0, 1]
    seq = LinRecSeq(p, polys.power_sums(p, 5))
    fam = salem_recovery_family(seq, range(0, 21))   # verifies every index
    assert len(fam.bounds) == 6
    for i in range(21):
        assert fam.contains(fam.correction_tuple(i))


def test_recovery_family_rejects_non_salem(fib):
    with pytest.raises(NotPisot):
        salem_recovery_family(fib, range(3))


# -- value-set membership ----------------------------------------------------------

def test_membership_fib_examples(fib):
    assert value_set_membership(fib, 21) is True
    assert value_set_membership(fib, 22) is False
    assert value_set_membership(fib, 0) is True
    assert value_set_membership(fib, 1) is True
    assert value_set_membership(fib, -1) is False
    assert value_set_membership(fib, F(1, 2)) is False


def test_membership_salem_examples(salem_seq):
    assert value_set_membership(salem_seq, 16) is True
    assert value_set_membership(salem_seq, 15) is False
    assert value_set_membership(salem_seq, 4) is True


def test_membership_salem_powers_are_cached(salem_seq):
    assert value_set_membership(salem_seq, 268687) is True      # n_23
    assert value_set_membership(salem_seq, 268687) is True
    info = _vsm_setup(salem_seq)["power"].cache_info()
    assert info.maxsize is not None and info.hits >= 1


def test_membership_rank_check(K_sqrt2):
    # x^2 - 2: the conjugate -sqrt2 of the dominant root sqrt2 has modulus
    # above 1, so sqrt2 is neither Pisot nor Salem and the index bracket
    # does not hold: membership must refuse rather than answer
    seq = LinRecSeq([-2, 0, 1], [0, 1])
    with pytest.raises(NotPisot):
        value_set_membership(seq, 2)


def test_membership_witness_disagreement_is_an_alarm(monkeypatch, fib,
                                                     salem_seq):
    # a found index that the paper's route re-derives wrongly raises the
    # alarm instead of answering False
    q_fib, q_salem = fib.term(40), salem_seq.term(23)
    assert value_set_membership(fib, q_fib) is True     # set-up unpatched
    assert value_set_membership(salem_seq, q_salem) is True
    monkeypatch.setattr(linrec, "salem_recover_exact",
                        lambda seq, i, window=None: seq.field.beta ** (i + 1))
    monkeypatch.setattr(TransferMap, "apply", lambda self, q: self.field.one)
    with pytest.raises(SingularSystem):
        value_set_membership(salem_seq, q_salem)
    with pytest.raises(SingularSystem):
        value_set_membership(fib, q_fib)


def test_cold_salem_witness_reads_a_filled_window_map(monkeypatch):
    # the witness builds the window map itself: with the window solve
    # stubbed on a cold sequence, a wrong answer still raises the alarm
    seq = LinRecSeq(*RECOVERY_SEQS["salem4"])
    monkeypatch.setattr(linrec, "salem_recover_exact",
                        lambda seq, i, window=None: seq.field.beta ** (i + 1))
    with pytest.raises(SingularSystem):
        value_set_membership(seq, seq.term(23))
    assert seq._window_map is not None


@pytest.mark.parametrize("charpoly,init", [([-1, -1, 1], [0, 1]),        # Fibonacci
                                           ([-1, -1, 0, 1], [3, 0, 2])])  # Perrin
def test_membership_setup_builds_one_field(monkeypatch, charpoly, init):
    # the transfer map's integer-scaled copy of the source shares its field
    built = []
    field_init = NumberField.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        field_init(self, *args, **kwargs)

    monkeypatch.setattr(NumberField, "__init__", counting_init)
    seq = LinRecSeq(charpoly, init)
    assert value_set_membership(seq, seq.term(40))
    assert len(built) == 1


def test_membership_search_bound(fib):
    with pytest.raises(SearchBoundExceeded):
        value_set_membership(fib, 10 ** 40, search_bound=20)


# k-nacci for k >= 4 has unit rank above 1 and 2 + sqrt2 (x^2 - 4x + 2) is
# a Pisot number but no unit: no route of the paper applies to them
MEMBERSHIP_SEQS = {"fibonacci": ([-1, -1, 1], [0, 1]),
                   "perrin": ([-1, -1, 0, 1], [3, 0, 2]),
                   "salem": ([1, -1, -1, -1, 1], [4, 1, 3, 7]),
                   **{f"{k}-nacci": ([-1] * k + [1], [0] * (k - 1) + [1])
                      for k in (4, 6, 8, 12)},
                   "pisot-non-unit": ([2, -4, 1], [0, 1]),
                   "lehmer": (LEHMER, polys.power_sums(LEHMER, 9))}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_SEQS))
def test_membership_differential_near_terms(name):
    seq = LinRecSeq(*MEMBERSHIP_SEQS[name])
    near = [int(seq.term(k)) for k in range(400)]
    queries = {t + d for t in near for d in range(-3, 4)}
    queries |= {-q for q in queries} | set(range(-40, 40))
    # the terms from index 440 on exceed every query, so the first 440
    # terms hold every value a query can hit
    assert min(seq.term(k) for k in range(440, 480)) > max(queries)
    values = {int(seq.term(k)) for k in range(440)}
    wrong = [q for q in sorted(queries)
             if value_set_membership(seq, q) != (q in values)]
    assert wrong == []
    for q in near[::37]:
        assert value_set_membership(seq, F(2 * q + 1, 2)) is False


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_SEQS))
def test_membership_differential_integer_block(name):
    """Every integer in [-10^3, 10^4] and seeded draws up to 10^7, as an
    int and as a Fraction, against the term set."""
    seq = LinRecSeq(*MEMBERSHIP_SEQS[name])
    rng = random.Random(7)
    queries = list(range(-10 ** 3, 10 ** 4 + 1))
    queries += [rng.randint(-10 ** 7, 10 ** 7) for _ in range(2000)]
    queries += [int(seq.term(k)) for k in range(120)
                if abs(seq.term(k)) <= 10 ** 7]
    # the terms from index 120 on exceed 10^7
    assert min(seq.term(k) for k in range(120, 160)) > 10 ** 7
    values = {int(seq.term(k)) for k in range(120)}
    wrong = [q for q in queries
             if {value_set_membership(seq, q), value_set_membership(seq, F(q))}
             != {q in values}]
    assert wrong == []


def _bracket_path(seq, bracket, q, bound):
    """"bound", or (answer, the least k with n_k = q or None), from the
    bracket's range and exact terms."""
    try:
        ks = bracket.span(q, bound)
    except SearchBoundExceeded:
        return "bound"
    return next(((True, k) for k in ks if seq.term(k) == q), (False, None))


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_SEQS))
def test_value_index_matches_the_bracket_path(name):
    """Every integer in [-10^3, 10^4] and every search bound in 0..60: the
    answer, the SearchBoundExceeded outcome and the k handed to the
    witness are those of the bracket's range plus exact terms."""
    seq = LinRecSeq(*MEMBERSHIP_SEQS[name])
    value_set_membership(seq, 10 ** 4 + 1)
    cache = _vsm_setup(seq)
    assert cache["index"][1][-1] > 10 ** 4        # the block is indexed
    seen = []
    cache["witness"] = lambda q, k: seen.append(k)
    bracket, calls = cache["bracket"], []
    cache["bracket"] = lambda *args: calls.append(args)
    wrong = []
    for q in range(-10 ** 3, 10 ** 4 + 1):
        # the bracket raises iff bound < top, the top of its range:
        # checked at the top, and monotone in the bound
        top = bracket.span(q).stop - 1
        want = _bracket_path(seq, bracket, q, None)
        if top >= 1 and _bracket_path(seq, bracket, q, top - 1) != "bound":
            wrong.append((q, top - 1))
        if _bracket_path(seq, bracket, q, max(top, 0)) != want:
            wrong.append((q, top))
        for bound in range(61):
            seen.clear()
            try:
                got = value_set_membership(seq, q, bound), seen[:]
            except SearchBoundExceeded:
                got = "bound", seen[:]
            if got != (("bound", []) if bound < top else
                       (want[0], [want[1]] if want[0] else [])):
                wrong.append((q, bound))
    assert wrong == [] and calls == []


def test_value_index_keeps_the_least_index():
    # Perrin repeats values: n_0 = n_3 = 3, n_2 = n_4 = 2, n_5 = n_6 = 5
    seq = LinRecSeq(*MEMBERSHIP_SEQS["perrin"])
    assert [seq.term(k) for k in range(7)] == [3, 0, 2, 3, 2, 5, 5]
    value_set_membership(seq, 100)
    seen = []
    _vsm_setup(seq)["witness"] = lambda q, k: seen.append(k)
    for q in (3, 2, 5, 0):
        assert value_set_membership(seq, q) is True
        assert value_set_membership(seq, F(q)) is True
    assert seen == [0, 0, 2, 2, 5, 5, 1, 1]
    values = _vsm_setup(seq)["index"][0]
    assert all(type(v) is int for v in values)
    assert value_set_membership(seq, 4) is False


def test_value_index_is_extended_not_rebuilt():
    # ascending Fibonacci members grow the bracket's index: each new k
    # asks for its exact value once, in order, and the index stays one
    # object
    seq = LinRecSeq(*MEMBERSHIP_SEQS["fibonacci"])
    cache = _vsm_setup(seq)
    bracket, index = cache["bracket"], cache["index"]
    asked, value = [], bracket._value
    bracket._value = lambda k: asked.append(k) or value(k)
    first = len(index[1])
    for k in range(2001):
        assert value_set_membership(seq, int(seq.term(k))) is True
        assert bracket.index is index and cache["index"] is index
    assert asked == list(range(first, len(index[1]))) and len(asked) > 1990


def test_membership_shared_across_threads():
    """Four threads classify interleaved blocks on one warm sequence while
    ascending members force table growth and half-integers grow the term
    cache; each answer is the serial one."""
    name = "perrin"
    seq = LinRecSeq(*MEMBERSHIP_SEQS[name])
    value_set_membership(seq, 10)
    ref = LinRecSeq(*MEMBERSHIP_SEQS[name])
    queries = list(range(-200, 2000))
    queries += [int(ref.term(k)) + d for k in range(10, 400) for d in (-1, 0, 1)]
    # half-integers take the bracket path, and their exact terms grow the
    # shared term cache past the table
    queries += [F(2 * int(ref.term(k)) + 1, 2) for k in range(400, 800)]
    serial = [value_set_membership(ref, q) for q in queries]
    got, errors = [None] * len(queries), []

    def work(i):
        try:
            for j in range(i, len(queries), 4):
                got[j] = value_set_membership(seq, queries[j])
        except Exception as e:          # reported by the main thread
            errors.append(e)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and got == serial
    assert seq.terms(800) == ref.terms(800)


LAZY_CACHES = ("_field", "_trace_rep", "_window_map", "_to_powers", "_vsm")


@pytest.mark.parametrize("rerun", range(5))
def test_cold_sequence_caches_are_built_once_across_threads(rerun):
    """Four threads set up one cold Fibonacci sequence at once, through
    membership, the transfer map to the powers, the trace representation
    and window recovery; each lazy cache is built once, and every answer is
    the serial one.  A race need not show on every run, hence the reruns."""
    fills = {}

    class Counting(LinRecSeq):
        def __setattr__(self, name, value):
            if name in LAZY_CACHES and value is not None:
                fills[name] = fills.get(name, 0) + 1
            super().__setattr__(name, value)

    ops = ([("member", q) for q in (0, 1, 4, 55, 56, 987, 988)]
           + [("recover", i) for i in range(2, 9)]
           + [("transfer", q) for q in (34, 55, 89)] + [("trace", None)])

    def answer(seq, op):
        kind, arg = op
        if kind == "member":
            return value_set_membership(seq, arg)
        v = (salem_recover_exact(seq, arg) if kind == "recover"
             else transfer_to_powers(seq).apply(arg) if kind == "transfer"
             else trace_representation(seq))
        return v.coords

    ref = LinRecSeq(*MEMBERSHIP_SEQS["fibonacci"])
    serial = {op: answer(ref, op) for op in ops}
    seq = Counting(*MEMBERSHIP_SEQS["fibonacci"])
    start = threading.Barrier(4)
    got, errors = [None] * 4, []

    def work(t):
        order = random.Random(4 * rerun + t).sample(ops, len(ops))
        try:
            start.wait(timeout=60)
            got[t] = {op: answer(seq, op) for op in order}
        except Exception as e:          # reported by the main thread
            errors.append(e)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and got == [serial] * 4
    assert fills == dict.fromkeys(LAZY_CACHES, 1)


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_SEQS) + ["zero"])
def test_negative_search_bound_is_out_of_range(name):
    seq = LinRecSeq(*MEMBERSHIP_SEQS.get(name, ([-1, -1, 1], [0, 0])))
    for q in (0, 1, 55, -55, F(1, 2), 10 ** 5000):
        for bound in (-1, -5):
            with pytest.raises(OutOfRange):
                value_set_membership(seq, q, search_bound=bound)
    assert seq._vsm is None         # refused before any bracket work


def _top_index(seq, q):
    return _vsm_setup(seq)["bracket"].span(q).stop - 1


@pytest.mark.parametrize("name", ["fibonacci", "salem"])
@pytest.mark.parametrize("bound", [5, 9, 60])
def test_search_bound_exact_at_the_bracket_top(name, bound):
    seq = LinRecSeq(*MEMBERSHIP_SEQS[name])
    value_set_membership(seq, 1)
    lo, hi = 0, 1
    while _top_index(seq, hi) <= bound:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:      # the least q >= 0 whose bracket reaches past bound
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _top_index(seq, mid) <= bound else (lo, mid)
    assert _top_index(seq, hi - 1) <= bound < _top_index(seq, hi)
    for q in (hi, -hi, hi - 1, 1 - hi, hi + 1, 3 * hi,
              F(2 * hi - 1, 2), F(4 * hi - 1, 4), F(-4 * hi + 1, 4)):
        if _top_index(seq, q) > bound:
            with pytest.raises(SearchBoundExceeded):
                value_set_membership(seq, q, search_bound=bound)
        else:
            assert abs(q) < hi
            value_set_membership(seq, q, search_bound=bound)
    k = bound // 2
    assert value_set_membership(seq, seq.term(k), search_bound=bound) is True


@pytest.mark.parametrize("name", ["fibonacci", "salem"])
def test_search_bound_large_queries_are_quick(name):
    seq = LinRecSeq(*MEMBERSHIP_SEQS[name])
    value_set_membership(seq, 1, search_bound=100)
    t0 = time.perf_counter()
    with pytest.raises(SearchBoundExceeded):
        value_set_membership(seq, 10 ** 5000, search_bound=10 ** 4)
    assert time.perf_counter() - t0 < 0.1
    q = int(seq.term(3000))
    t0 = time.perf_counter()
    assert value_set_membership(seq, q) is True
    assert time.perf_counter() - t0 < 0.5


def test_membership_zero_sequence():
    z = LinRecSeq([-1, -1, 1], [0, 0])
    assert value_set_membership(z, 0) is True
    assert value_set_membership(z, 1) is False


# -- zero scanning -------------------------------------------------------------------

def test_zeros_parity():
    seq = LinRecSeq([-1, 0, 1], [2, 0])    # 1 + (-1)^i
    rep = sml_zeros(seq, 500)
    assert rep.zeros == list(range(1, 501, 2))
    assert rep.progressions == [(2, 1)]
    assert rep.heuristic


def test_zeros_perrin():
    perrin = LinRecSeq([-1, -1, 0, 1], [3, 0, 2])
    rep = sml_zeros(perrin, 10 ** 4)
    assert rep.zeros == [1]
    assert rep.progressions == []


def test_zeros_fib(fib):
    rep = sml_zeros(fib, 2000)
    assert rep.zeros == [0]


def test_zeros_cap(fib):
    with pytest.raises(ValueError):
        sml_zeros(fib, 10 ** 6)
