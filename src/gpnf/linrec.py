"""Linear recurrent sequences with Pisot or Salem characteristic polynomial.

Exact term generation, the trace representation n_i = Tr(beta^i x),
certified nearest-integer stepping with a sound onset index, transfer maps
between sequences sharing a recurrence, exact Salem power recovery with
the floor-correction family, value-set membership, and a desk-scale zero
scanner.  Membership asks the exact index bracket of |q - w beta^k| <= B,
kept over the terms, for the k with n_k = q; there is no floating point
on any path.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from typing import Optional, Sequence, Union

from . import polys
from .constructions import (_IndexBracket, _conjugate_bounds, _is_pisot,
                            power_set_predicate, salem_test)
from .errors import (DegreeMismatch, NegativeIndex, NotPisot, NotSquarefree,
                     OutOfRange, SearchBoundExceeded, SingularSystem,
                     VandermondeSingular, ZeroSourceSequence, ZeroTraceRep)
from .intervals import RatInterval, common_den
from .numberfield import (FieldElement, NumberField, _elem, certified_floor,
                          certified_nint)
from .records import Record


class LinRecSeq:
    """n_{i+m} = sum_j a_j n_{i+j}, encoded by the monic characteristic
    polynomial X^m - sum_j a_j X^j (ascending coefficients) and m initial
    terms.  Terms are exact rationals; the associated number field is
    built lazily (deep operations assume the polynomial is the minimal
    polynomial of its dominant root).

    The term cache only grows, under a lock; a cached term is read
    without it.  The lazily filled caches (field, trace representation,
    window map, transfer map to the powers, membership set-up) are
    each built once, under the sequence's fill lock; a filled one is read
    without it.
    """

    def __init__(self, charpoly: Sequence, initial: Sequence):
        P = polys.canonical([Fraction(c) for c in charpoly])
        if len(P) < 2:
            raise DegreeMismatch("characteristic polynomial must have degree >= 1")
        if not polys.is_squarefree(P):
            raise NotSquarefree("characteristic polynomial has a repeated root")
        self.charpoly = polys.monic(P)
        self.order = len(P) - 1
        init = [Fraction(v) for v in initial]
        if len(init) != self.order:
            raise DegreeMismatch(
                f"need {self.order} initial terms, got {len(init)}")
        self._terms = init
        self._terms_lock = threading.Lock()
        self._fill_lock = threading.RLock()     # fills nest: _vsm needs _field
        # n_{i+m} = sum rec[j] * n_{i+j}
        self._rec = [-c for c in self.charpoly[:-1]]
        self._field: Optional[NumberField] = None
        self._trace_rep: Optional[FieldElement] = None
        self._window_map: Optional[tuple] = None
        self._to_powers = None
        self._vsm: Optional[dict] = None

    def _fill(self, name: str, build):
        """The cache attribute `name`, built by build() unless another
        thread has filled it meanwhile."""
        with self._fill_lock:
            if getattr(self, name) is None:
                setattr(self, name, build())
            return getattr(self, name)

    @property
    def field(self) -> NumberField:
        if self._field is None:
            self._fill("_field", lambda: NumberField(self.charpoly))
        return self._field

    def term(self, i: int) -> Fraction:
        if i < 0:
            raise NegativeIndex("sequence indices start at 0")
        t = self._terms
        if len(t) <= i:
            rec, m = self._rec, self.order
            with self._terms_lock:
                while len(t) <= i:
                    t.append(sum(rec[j] * t[len(t) - m + j] for j in range(m)))
        return t[i]

    def terms(self, upto: int) -> list:
        self.term(upto)
        return self._terms[:upto + 1]

    def is_zero_sequence(self) -> bool:
        return all(v == 0 for v in self._terms[:self.order])

    def integer_scale(self) -> Fraction:
        """s with s * n_i integral for i < m, hence for every i when the
        recurrence coefficients are integers.  Rational ones can make the
        denominators grow without bound (x^2 - 3x/2 - 1/2 from 0, 1: 3/2,
        11/4, 39/8, ...), and then no s serves every term."""
        s = lcm(*[v.denominator for v in self._terms[:self.order]])
        return Fraction(s)

    def __repr__(self):
        return (f"LinRecSeq(charpoly={[str(c) for c in self.charpoly]}, "
                f"init={[str(v) for v in self._terms[:self.order]]})")


# ---------------------------------------------------------------------------
# trace representation
# ---------------------------------------------------------------------------

def trace_representation(seq: LinRecSeq) -> FieldElement:
    """The unique x in K with Tr(beta^i x) = n_i for all i."""
    if seq._trace_rep is None:
        seq._fill("_trace_rep", lambda: seq.field.from_traces(
            [seq.term(i) for i in range(seq.order)]))
    return seq._trace_rep


# ---------------------------------------------------------------------------
# Pisot stepping
# ---------------------------------------------------------------------------

def _require_pisot_charpoly(f: NumberField) -> None:
    """The distinguished root is a real algebraic integer above 1 whose
    other conjugates have modulus certified below 1 (NotPisot otherwise)."""
    if not _is_pisot(f.beta):
        raise NotPisot("the dominant root is not a Pisot number")


def verified_i0(seq: LinRecSeq, j: int) -> int:
    """A sound onset: for every i >= i0, n_{i+j} = nint(beta^j n_i).

    n_i = w beta^i + sum_a w_a a^i over the other conjugates a of beta,
    where w_a = sigma_a(x) for the trace representation x; `_onset` bounds
    the error terms.  The upper bounds on |a| bound |a|^j only for j >= 0
    (OutOfRange otherwise).
    """
    if j < 0:
        raise OutOfRange("j must be >= 0")
    f = seq.field
    _require_pisot_charpoly(f)
    if j == 0 or seq.is_zero_sequence():
        return 0
    return _onset(f, trace_representation(seq), [j])


def _onset(f: NumberField, x: FieldElement, js) -> int:
    """The least i0 from which sum_a |w_a| |a|^i (|a|^j + beta^j) < 1/2
    for every step j >= 1 in js, with w_a = sigma_a(x) over the conjugates
    a of the Pisot number beta other than beta itself: the sequence
    Tr(beta^i x) then steps by each j from i0 on.  The sum is evaluated
    with the certified rational upper bounds of `_conjugate_bounds` on |a|
    (of beta) and |w_a| (of x), at one precision for all of js where every
    |a| bound is below 1; it may overshoot the true minimal onset but never
    undershoots."""
    bits = 48
    ua = _conjugate_bounds(f.beta, bits)
    while not all(u < 1 for u in ua.values()):
        bits *= 2
        ua = _conjugate_bounds(f.beta, bits)
    uw = _conjugate_bounds(x, bits)
    bhi = f.beta.embed(None, bits).hi
    uas = list(ua.values())
    onset = 0
    for j in js:
        terms = [uw[a] * (ua[a] ** j + bhi ** j) for a in ua]
        i = 0
        while sum(terms) >= Fraction(1, 2):
            terms = [t * u for t, u in zip(terms, uas)]
            i += 1
        onset = max(onset, i)
    return onset


def pisot_step(beta: FieldElement, j: int, n) -> Fraction:
    """nint(beta^j * n), decided exactly."""
    return Fraction(certified_nint(beta ** j * Fraction(n)))


def true_onset(seq: LinRecSeq, j: int) -> int:
    """The least onset: every i >= verified_i0 steps correctly, and an
    exact scan down from there finds the last index below it that fails."""
    i0 = verified_i0(seq, j)
    bj = seq.field.beta ** j
    first_bad = -1
    for i in range(i0 - 1, -1, -1):
        if certified_nint(bj * seq.term(i)) != seq.term(i + j):
            first_bad = i
            break
    return first_bad + 1


# ---------------------------------------------------------------------------
# transfer maps
# ---------------------------------------------------------------------------

class _NintCache:
    """Fast certified nint(beta^j * q) using a fixed high-precision
    enclosure (pure integer arithmetic for integer q), falling back to
    full refinement near half-integers."""

    def __init__(self, f: NumberField, j: int, bits: int = 160):
        self.elem = f.beta ** j
        self.box = self.elem.embed(None, bits)
        self.T = bits
        a, b, d = self.box._t
        self.lo_num, self.hi_num = (a << bits) // d, -((-b << bits) // d)

    def __call__(self, q) -> int:
        if isinstance(q, int):
            a, b = self.lo_num * q, self.hi_num * q
            if q < 0:
                a, b = b, a
            T1 = self.T + 1
            half = 1 << self.T
            na = (2 * a + half) >> T1
            nb = (2 * b + half) >> T1
            if na == nb:
                return na
        else:
            a, b, d = (self.box * q + Fraction(1, 2))._t
            if a // d == b // d:
                return a // d
        return certified_nint(self.elem * q)


class TransferMap(Record):
    """g(n) = sum_j w_j nint(beta^j n), valid from the onset index on the
    source sequence; the source is rescaled to integers internally, by
    scale.  The w_j (coeffs) are rationals or field elements."""
    __slots__ = __match_args__ = ("field", "coeffs", "onset", "scale", "_nints")

    def __init__(self, field: NumberField, coeffs: list, onset: int,
                 scale: Fraction, _nints: list):
        self.field, self.coeffs, self.onset = field, coeffs, onset
        self.scale, self._nints = scale, _nints

    def apply(self, q) -> Union[Fraction, FieldElement]:
        z = (q * self.scale.numerator if isinstance(q, int)
             else Fraction(q) * self.scale)
        if z.denominator == 1:
            z = z.numerator
        acc = None
        for w, nint_j in zip(self.coeffs, self._nints):
            term = w * nint_j(z)
            acc = term if acc is None else acc + term
        return acc


def _build_transfer(src: LinRecSeq, target) -> TransferMap:
    """The transfer map g with g(src_i) = target(i) for all i >= onset:
    on the source scaled to integers by s, w_j = sum_k rows[j][k]
    target(k) / (den s) from the source's window map; the verified onset
    of the scaled source for every step 0 < j < m (`_onset`, after one
    Pisot gate) and a check of the 2m terms from the onset on confirm it."""
    if src.is_zero_sequence():
        raise ZeroSourceSequence("transfer source is identically zero")
    f = src.field
    _require_pisot_charpoly(f)
    s = src.integer_scale()
    m = src.order
    rows, den, _, _ = _window_map(src)
    t = [target(k) for k in range(m)]
    w = [sum(map(mul, row, t)) * (Fraction(1, den) / s) for row in rows]
    # the source scaled by s is the sequence of trace representation s x
    onset = _onset(f, trace_representation(src) * s, range(1, m))
    tm = TransferMap(f, w, onset, s, [_NintCache(f, j) for j in range(m)])
    for i in range(onset, onset + 2 * m):
        if tm.apply(src.term(i)) != target(i):
            raise SingularSystem("transfer verification failed")  # alarm
    return tm


def transfer_map(src: LinRecSeq, dst: LinRecSeq) -> TransferMap:
    """g with g(src_i) = dst_i for all i >= onset (both sequences satisfy
    the same Pisot recurrence)."""
    if src.charpoly != dst.charpoly:
        raise DegreeMismatch("sequences satisfy different recurrences")
    return _build_transfer(src, dst.term)


def transfer_to_powers(seq: LinRecSeq) -> TransferMap:
    """g with g(n_i) = beta^i (field-valued) for all i >= onset."""
    if seq._to_powers is None:
        seq._fill("_to_powers", lambda: _build_transfer(
            seq, lambda i: seq.field.beta ** i))
    return seq._to_powers


# ---------------------------------------------------------------------------
# Salem recovery
# ---------------------------------------------------------------------------

def _window_map(seq: LinRecSeq) -> tuple:
    """(rows, den, init, s), built once per sequence: the integer matrix
    rows / den sending a window (n_i, ..., n_{i+m-1}) to the power-basis
    coordinates of beta^i, that is of from_traces(window) * x^-1 for the
    trace representation x (column j is from_traces(e_j) * x^-1); and the
    initial terms as integers init over s, so that
    Tr(y x) = sum_j y_j n_j = sum_j y_j init_j / s for every y in K.
    rows / den inverts the Hankel matrix (n_{j+k}), so it is symmetric:
    row j is the w_j with sum_j w_j n_{i+j} = beta^i, which the transfer
    maps and the Salem recovery family read as their coefficients."""
    return seq._window_map or seq._fill(
        "_window_map", lambda: _build_window_map(seq))


def _build_window_map(seq: LinRecSeq) -> tuple:
    x = trace_representation(seq)
    if x.is_zero():
        raise ZeroTraceRep("sequence is identically zero")
    f, m = seq.field, seq.order
    x_inv = x.inverse()
    cols = [f.from_traces([int(j == k) for k in range(m)]) * x_inv
            for j in range(m)]
    den = lcm(*[c.den for c in cols])
    rows = tuple(zip(*[[a * (den // c.den) for a in c.num] for c in cols]))
    (init,), s = common_den([seq._terms[:m]])
    return rows, den, init, s


def salem_recover_exact(seq: LinRecSeq, i: int,
                        window: Optional[Sequence] = None) -> FieldElement:
    """beta^i from a window (n_i, ..., n_{i+m-1}), by solving the trace
    system exactly: the window determines beta^i x, and the window map
    divides by x, m integer dot products over one denominator."""
    rows, den, _, _ = _window_map(seq)
    m = seq.order
    if window is None:
        seq.term(i)             # NegativeIndex for i < 0
        seq.term(i + m - 1)
        window = seq._terms[i:i + m]
    else:
        window = [Fraction(v) for v in window]
        if len(window) != m:
            raise DegreeMismatch(f"window must have {m} terms")
    (z,), d = common_den([window])
    return _elem(seq.field, tuple(sum(map(mul, row, z)) for row in rows),
                 den * d)


class SalemRecoveryFamily:
    """The finite family g_c(n) = sum_j gamma_j (floor(beta^j n) - c_j)
    indexed by integer correction tuples |c_j| <= C_j.

    gamma_j are the beta-row entries of the inverse of the conjugate
    matrix (w_alpha alpha^j), kept as exact elements of Q(beta): they
    solve sum_j gamma_j n_{i+j} = beta^i, so gamma_j is row j of the
    sequence's window map.  Every value g_c(n) is computed exactly; only
    the returned enclosure is approximate.
    """

    def __init__(self, seq: LinRecSeq, verify_range: range = range(0, 51)):
        f = seq.field
        if not salem_test(f.beta):
            raise NotPisot("characteristic polynomial is not a Salem minimal polynomial")
        if seq.is_zero_sequence():
            raise ZeroTraceRep("sequence is identically zero")
        self.seq = seq
        self.field = f
        self.verify_range = verify_range
        x = trace_representation(seq)
        m = f.degree

        # analytic correction bounds: |floor(beta^j n_i) - n_{i+j}|
        #   <= 1 + (sum_{a != beta} |w_a|) (beta^j + 1)
        wsum = sum(_conjugate_bounds(x, 64).values())
        bhi = f.beta.embed(None, 64).hi
        self.bounds = []
        for j in range(m):
            a_j = 1 + wsum * (bhi ** j + 1)
            self.bounds.append(int(a_j.numerator // a_j.denominator) + 1)
        self.candidate_count = math.prod(2 * c + 1 for c in self.bounds)

        rows, den, _, _ = _window_map(seq)
        self._gamma = [_elem(f, row, den) for row in rows]

    def candidates(self):
        """Iterate the correction tuples (c_j) with |c_j| <= C_j; the count
        is the product of (2 C_j + 1) and is not materialized."""
        return product(*(range(-C, C + 1) for C in self.bounds))

    def correction_tuple(self, i: int) -> tuple:
        """The exact floor corrections c_j = floor(beta^j n_i) - n_{i+j}."""
        f, seq = self.field, self.seq
        n_i = seq.term(i)
        out = []
        for j in range(f.degree):
            fl = certified_floor(f.beta ** j * n_i)
            out.append(Fraction(fl) - seq.term(i + j))
        return tuple(out)

    def _check_length(self, c: Sequence) -> None:
        if len(c) != self.field.degree:
            raise DegreeMismatch(
                f"correction tuple needs {self.field.degree} entries, got {len(c)}")

    def contains(self, c: Sequence) -> bool:
        self._check_length(c)
        return all(abs(Fraction(cj)) <= Cj for cj, Cj in zip(c, self.bounds))

    def _g(self, n, c: Sequence) -> FieldElement:
        """g_c(n) as an exact element of Q(beta)."""
        self._check_length(c)
        n = Fraction(n)
        acc = self.field.zero
        for j, (gj, cj) in enumerate(zip(self._gamma, c)):
            fl = certified_floor(self.field.beta ** j * n)
            acc = acc + gj * (Fraction(fl) - Fraction(cj))
        return acc

    def g_value(self, n, c: Sequence, bits: int = 96) -> RatInterval:
        """Certified enclosure of g_c(n), of width at most 2**(1-bits)."""
        return self._g(n, c).embed(None, bits)

    def recover(self, i: int) -> tuple:
        """(c, enclosure) with g_c(n_i) == beta^i exactly, confirmed again
        by the window solve."""
        c = self.correction_tuple(i)
        if not self.contains(c):
            raise VandermondeSingular(
                f"audit failure: correction tuple at i={i} exceeds its bound")
        beta_i = self.field.beta ** i
        if salem_recover_exact(self.seq, i) != beta_i:
            raise VandermondeSingular(f"window solve failed at i={i}")  # alarm
        g = self._g(self.seq.term(i), c)
        if g != beta_i:
            raise VandermondeSingular(f"g_c(n_i) != beta^i at i={i}")  # alarm
        return c, g.embed(None, 96)

    def verify(self) -> None:
        for i in self.verify_range:
            self.recover(i)


def salem_recovery_family(seq: LinRecSeq,
                          verify_range: range = range(0, 51)) -> SalemRecoveryFamily:
    fam = SalemRecoveryFamily(seq, verify_range)
    fam.verify()
    return fam


# ---------------------------------------------------------------------------
# value-set membership
# ---------------------------------------------------------------------------

def _archimedean_constants(seq: LinRecSeq) -> _IndexBracket:
    """The index bracket of the sequence's terms: n_k = w beta^k +
    sum_a w_a a^k with every other root |a| <= 1 (Pisot and Salem), so
    every k with n_k = q has |q - w beta^k| <= B = sum |w_a|."""
    x = trace_representation(seq)
    B = sum(_conjugate_bounds(x, 48).values())
    wbox = next(b for b in x.enclosures(None, 48) if not b.contains(0))
    bbox = seq.field.beta.embed(None, _IndexBracket.P)
    return _IndexBracket(bbox.lo, bbox.hi, wbox.mig, wbox.mag, B, seq.term)


def _vsm_setup(seq: LinRecSeq) -> dict:
    """One-time constants for value-set membership queries, built once per
    sequence: the Pisot or Salem gate, the index bracket of the terms, its
    index and the witness of a found index."""
    return seq._vsm or seq._fill("_vsm", lambda: _vsm_build(seq))


def _vsm_build(seq: LinRecSeq) -> dict:
    f = seq.field
    beta = f.beta
    cache = {"zero": seq.is_zero_sequence(), "witness": lambda q, k: None}
    if not cache["zero"]:
        if salem_test(beta):
            # beta^k for the witness; lru_cache is thread-safe, and bounded
            # because a search bound lets k reach 10^4 and more
            power = cache["power"] = functools.lru_cache(256)(beta.__pow__)

            def witness(q, k):
                # the window solve must return exactly beta^k, and the trace
                # close the loop: Tr(y x) = sum_j y_j n_j must be q, with
                # the initial terms n_j = init_j / s
                y = salem_recover_exact(seq, k)
                _, _, init, s = _window_map(seq)
                tr = sum(map(mul, y.num, init))     # Tr(y x) * y.den * s
                return (y == power(k)
                        and tr * q.denominator == q.numerator * y.den * s)

            cache["witness"] = witness
        else:
            _require_pisot_charpoly(f)
            if f.has_rank_one_units and beta.is_unit():
                tm = transfer_to_powers(seq)
                exponent_of = power_set_predicate(beta).exponent_of
                # from the onset on, the transfer map sends n_k to beta^k
                # and the power predicate reads off k
                cache["witness"] = lambda q, k: (
                    exponent_of(tm.apply(q)) == k if k >= tm.onset else None)
        cache["bracket"] = bracket = _archimedean_constants(seq)
        cache["index"] = bracket.index      # one object, grown in place
    return cache


def value_set_membership(seq: LinRecSeq, q, search_bound: int = 10 ** 4) -> bool:
    """Is q a value of the sequence?  Exact when the dominant root is a
    Pisot or Salem number (NotPisot otherwise).

    Every k with n_k = q lies in the index bracket of q, so q is a value
    iff the bracket over the terms finds some k with n_k = q.  A bracket
    reaching past `search_bound` raises SearchBoundExceeded, and a
    negative `search_bound` raises OutOfRange.  An integer q below the
    end of the bracket's index is settled here, by the bracket's own test:
    one upper threshold (the bound) and one lookup; any other q is one
    bracket call.  The least k found is re-derived by the paper's route
    where its hypotheses hold (Salem: the exact window solve returns
    beta^k; Pisot unit of a rank-one field, from the transfer onset on:
    the transfer map and the power predicate give k), and a disagreement
    raises SingularSystem.
    """
    if search_bound < 0:
        raise OutOfRange("search_bound must be >= 0")
    if not isinstance(q, int):
        q = Fraction(q)
        if q.denominator == 1:
            q = q.numerator
    cache = seq._vsm or _vsm_setup(seq)
    if cache["zero"]:
        return q == 0
    values, ups = cache["index"]
    if isinstance(q, int) and (u := abs(q)) < ups[-1]:
        # the bracket's covered-integer path, without its call frame
        if search_bound + 1 < len(ups) and ups[search_bound + 1] <= u:
            raise SearchBoundExceeded(
                f"the query's index bracket reaches past {search_bound}")
        ks = values.get(q)
        if ks is None:
            return False
    else:
        ks = cache["bracket"](q, search_bound)
        if not ks:
            return False
    if cache["witness"](q, ks[0]) is False:
        raise SingularSystem(
            f"the witness route disagrees with n_{ks[0]} = {q}")  # alarm
    return True


# ---------------------------------------------------------------------------
# zero scanning (desk scale)
# ---------------------------------------------------------------------------

class ZeroReport(Record):
    """The zero terms up to bound, and the (modulus, residue) classes
    entirely zero on that window."""
    __slots__ = __match_args__ = ("bound", "zeros", "progressions", "heuristic")

    def __init__(self, bound: int, zeros: list, progressions: list,
                 heuristic: bool = True):
        self.bound, self.zeros = bound, zeros
        self.progressions, self.heuristic = progressions, heuristic


def sml_zeros(seq: LinRecSeq, bound: int) -> ZeroReport:
    """Scan [0, bound] for zero terms and flag residue classes (modulus up
    to 64) that vanish identically on the window.  A structure heuristic,
    not a decision procedure."""
    if bound > 10 ** 5:
        raise OutOfRange("bound is capped at 10^5 (desk scale)")
    zeros = [i for i in range(bound + 1) if seq.term(i) == 0]
    zset = set(zeros)
    progressions = []
    for d in range(1, 65):
        for r in range(d):
            idxs = range(r, bound + 1, d)
            if len(idxs) >= 3 and all(i in zset for i in idxs):
                if not any(d % d0 == 0 and r % d0 == r0
                           for d0, r0 in progressions):
                    progressions.append((d, r))
    return ZeroReport(bound=bound, zeros=zeros, progressions=progressions)
