import random
import time
from fractions import Fraction as F

import pytest

from gpnf import polys
from gpnf.errors import (DegreeMismatch, NotPisot, NotSquarefree, OutOfRange,
                         RankNotOne, SearchBoundExceeded, ZeroSourceSequence,
                         ZeroTraceRep)
from gpnf.linrec import (LinRecSeq, _vsm_setup, pisot_step,
                         salem_recover_exact,
                         salem_recovery_family, sml_zeros, trace_representation,
                         transfer_map, transfer_to_powers, true_onset,
                         value_set_membership, verified_i0)
from gpnf.numberfield import NumberField, certified_floor, certified_nint


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


def test_recovery_family_gamma_identity(salem_seq, K_salem):
    # sum_j gamma_j n_{i+j} == beta^i holds exactly in Q(beta)
    fam = salem_recovery_family(salem_seq, range(0, 3))
    beta = K_salem.beta
    for i in range(51):
        g = sum((gj * salem_seq.term(i + j) for j, gj in enumerate(fam._gamma)),
                K_salem.zero)
        assert g == beta ** i


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
    for box, v in zip(fam._gamma_at(96), oracle):
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
    # x^2 - 2: sqrt2 is not a Pisot unit (norm -2), so the Pisot route must
    # refuse rather than answer
    seq = LinRecSeq([-2, 0, 1], [0, 1])
    with pytest.raises((RankNotOne, NotPisot)):
        value_set_membership(seq, 2)


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


MEMBERSHIP_SEQS = {"fibonacci": ([-1, -1, 1], [0, 1]),
                   "perrin": ([-1, -1, 0, 1], [3, 0, 2]),
                   "salem": ([1, -1, -1, -1, 1], [4, 1, 3, 7])}


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


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_SEQS) + ["zero"])
def test_negative_search_bound_is_out_of_range(name):
    seq = LinRecSeq(*MEMBERSHIP_SEQS.get(name, ([-1, -1, 1], [0, 0])))
    for q in (0, 1, 55, -55, F(1, 2), 10 ** 5000):
        for bound in (-1, -5):
            with pytest.raises(OutOfRange):
                value_set_membership(seq, q, search_bound=bound)
    assert seq._vsm is None         # refused before any bracket work


def _top_index(seq, q):
    return _vsm_setup(seq)["bracket"](q).stop - 1


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
