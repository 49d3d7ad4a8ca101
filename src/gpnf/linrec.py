"""Linear recurrent sequences with Pisot or Salem characteristic polynomial.

Exact term generation, the trace representation n_i = Tr(beta^i x),
certified nearest-integer stepping with a sound onset index, transfer maps
between sequences sharing a recurrence, exact Salem power recovery with
the floor-correction family, value-set membership, and a desk-scale zero
scanner.  Membership confines the index of a value q to the exact index
bracket of |q - w beta^k| <= B and confirms candidates exactly; there is
no floating point on any path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Optional, Sequence, Union

from . import polys
from .constructions import (_IndexBracket, _conjugate_bounds, _is_pisot,
                            power_set_predicate, salem_test)
from .errors import (DegreeMismatch, NotPisot, NotSquarefree, OutOfRange,
                     RankNotOne, SingularSystem, VandermondeSingular,
                     ZeroSourceSequence, ZeroTraceRep)
from .intervals import RatInterval
from .linalg import gauss_jordan
from .numberfield import (FieldElement, NumberField, certified_floor,
                          certified_nint)


class LinRecSeq:
    """n_{i+m} = sum_j a_j n_{i+j}, encoded by the monic characteristic
    polynomial X^m - sum_j a_j X^j (ascending coefficients) and m initial
    terms.  Terms are exact rationals; the associated number field is
    built lazily (deep operations assume the polynomial is the minimal
    polynomial of its dominant root).

    The term cache grows monotonically and is not synchronized: share
    instances across threads only after warming the cache, or give each
    thread its own instance.
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
        # n_{i+m} = sum rec[j] * n_{i+j}
        self._rec = [-c for c in self.charpoly[:-1]]
        self._field: Optional[NumberField] = None
        self._trace_rep: Optional[FieldElement] = None
        self._trace_rep_inv: Optional[FieldElement] = None
        self._to_powers = None
        self._vsm: Optional[dict] = None

    @property
    def field(self) -> NumberField:
        if self._field is None:
            self._field = NumberField(self.charpoly)
        return self._field

    def term(self, i: int) -> Fraction:
        if i < 0:
            raise IndexError("sequence indices start at 0")
        t, rec, m = self._terms, self._rec, self.order
        while len(t) <= i:
            nxt = sum(rec[j] * t[len(t) - m + j] for j in range(m))
            t.append(nxt)
        return t[i]

    def terms(self, upto: int) -> list:
        self.term(upto)
        return self._terms[:upto + 1]

    def is_zero_sequence(self) -> bool:
        return all(v == 0 for v in self._terms[:self.order])

    def integer_scale(self) -> Fraction:
        """s with s * n_i integral for all i (the characteristic polynomial
        is monic; denominators never grow past the initial ones)."""
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
        rhs = [seq.term(i) for i in range(seq.order)]
        seq._trace_rep = seq.field.from_traces(rhs)
    return seq._trace_rep


# ---------------------------------------------------------------------------
# Pisot stepping
# ---------------------------------------------------------------------------

def _require_pisot_charpoly(f: NumberField) -> None:
    """The distinguished root is real and above 1, and every other
    conjugate has modulus certified below 1 (NotPisot otherwise)."""
    if not _is_pisot(f.beta):
        raise NotPisot("the dominant root is not a Pisot number")


def verified_i0(seq: LinRecSeq, j: int) -> int:
    """A sound onset: for every i >= i0, n_{i+j} = nint(beta^j n_i).

    n_i = w beta^i + sum_a w_a a^i over the other conjugates a of beta,
    where w_a = sigma_a(x) for the trace representation x.  The bound
    sum |w_a| |a|^i (|a|^j + beta^j) < 1/2 is evaluated with the certified
    rational upper bounds of `_conjugate_bounds` on |a| (of beta) and
    |w_a| (of x), at a precision where every |a| bound is below 1; it may
    overshoot the true minimal onset but never undershoots.  The upper
    bounds on |a| bound |a|^j only for j >= 0 (OutOfRange otherwise).
    """
    if j < 0:
        raise OutOfRange("j must be >= 0")
    f = seq.field
    _require_pisot_charpoly(f)
    if j == 0:
        return 0
    if seq.is_zero_sequence():
        return 0
    bits = 48
    ua = _conjugate_bounds(f.beta, bits)
    while not all(u < 1 for u in ua.values()):
        bits *= 2
        ua = _conjugate_bounds(f.beta, bits)
    uw = _conjugate_bounds(trace_representation(seq), bits)
    bhi = f.beta.embed(None, bits).hi
    terms = [uw[a] * (ua[a] ** j + bhi ** j) for a in ua]
    uas = list(ua.values())
    i = 0
    while True:
        if sum(terms) < Fraction(1, 2):
            return i
        terms = [t * ua for t, ua in zip(terms, uas)]
        i += 1


def pisot_step(beta: FieldElement, j: int, n) -> Fraction:
    """nint(beta^j * n), decided exactly."""
    return Fraction(certified_nint(beta ** j * Fraction(n)))


def true_onset(seq: LinRecSeq, j: int, window: int = 200) -> int:
    """The least onset observed on a finite window (scan; the verified
    bound from verified_i0 is sound, this reports the empirical minimum)."""
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
        self.lo_num = (self.box.lo.numerator << bits) // self.box.lo.denominator
        self.hi_num = -((-self.box.hi.numerator << bits) // self.box.hi.denominator)

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
            iv = self.box * q + Fraction(1, 2)
            flo = iv.lo.numerator // iv.lo.denominator
            fhi = iv.hi.numerator // iv.hi.denominator
            if flo == fhi:
                return flo
        return certified_nint(self.elem * q)


@dataclass
class TransferMap:
    """g(n) = sum_j w_j nint(beta^j n), valid from the onset index on the
    source sequence; the source is rescaled to integers internally."""
    field: NumberField
    coeffs: list                       # rationals or field elements
    onset: int
    scale: Fraction                    # integer-clearing scalar of the source
    _nints: list

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


def _solve_hankel(seq: LinRecSeq, rhs: list) -> list:
    """The w with sum_j seq_{i+j} w_j = rhs[i] for 0 <= i < m; rhs entries
    may be rationals or field elements."""
    m = seq.order
    A = [[seq.term(i + j) for j in range(m)] + [rhs[i]] for i in range(m)]
    if gauss_jordan(A, m)[0] < m:
        raise SingularSystem("transfer system is singular")
    return [row[m] for row in A]


def _build_transfer(src: LinRecSeq, target) -> TransferMap:
    """The transfer map g with g(src_i) = target(i) for all i >= onset: the
    Hankel solve on the integer-scaled source, the verified onset, and a
    check of the 2m terms from the onset on."""
    if src.is_zero_sequence():
        raise ZeroSourceSequence("transfer source is identically zero")
    f = src.field
    _require_pisot_charpoly(f)
    s = src.integer_scale()
    zsrc = LinRecSeq(src.charpoly, [s * src.term(i) for i in range(src.order)])
    zsrc._field = f     # the same recurrence: one field, not a second build
    m = src.order
    w = _solve_hankel(zsrc, [target(i) for i in range(m)])
    onset = max(verified_i0(zsrc, j) for j in range(m))
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
        seq._to_powers = _build_transfer(seq, lambda i: seq.field.beta ** i)
    return seq._to_powers


# ---------------------------------------------------------------------------
# Salem recovery
# ---------------------------------------------------------------------------

def salem_recover_exact(seq: LinRecSeq, i: int,
                        window: Optional[Sequence] = None) -> FieldElement:
    """beta^i from a window (n_i, ..., n_{i+m-1}), by solving the trace
    system exactly: the window determines beta^i x, divide by x."""
    x = trace_representation(seq)
    if x.is_zero():
        raise ZeroTraceRep("sequence is identically zero")
    m = seq.order
    if window is None:
        window = [seq.term(i + j) for j in range(m)]
    window = [Fraction(v) for v in window]
    if len(window) != m:
        raise DegreeMismatch(f"window must have {m} terms")
    y = seq.field.from_traces(window)
    if seq._trace_rep_inv is None:
        seq._trace_rep_inv = x.inverse()
    return y * seq._trace_rep_inv


class SalemRecoveryFamily:
    """The finite family g_c(n) = sum_j gamma_j (floor(beta^j n) - c_j)
    indexed by integer correction tuples |c_j| <= C_j.

    gamma_j are the beta-row entries of the inverse of the conjugate
    matrix (w_alpha alpha^j), kept as exact elements of Q(beta): by the
    Lagrange form of the inverse Vandermonde matrix, gamma_j =
    q_j(beta) / (p'(beta) x) where p(X) / (X - beta) = sum_j q_j(beta) X^j
    and x is the trace representation.  Every value g_c(n) is computed
    exactly; only the returned enclosure is approximate.
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

        # synthetic division of the monic minimal polynomial by X - beta:
        # q_{m-1} = 1, q_{j-1} = p_j + beta q_j; then p'(beta) = q(beta)
        p, beta = f.monic_minpoly, f.beta
        q = [f.one]
        for j in range(m - 1, 0, -1):
            q.append(q[-1] * beta + p[j])
        q.reverse()
        dp = f.zero
        for qj in reversed(q):
            dp = dp * beta + qj
        scale = (dp * x).inverse()
        self._gamma = [qj * scale for qj in q]

    def _gamma_at(self, bits: int) -> list:
        return [g.embed(None, bits) for g in self._gamma]

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
    """The index bracket of the sequence: n_k = w beta^k + sum_a w_a a^k
    with every other root |a| <= 1 (Pisot and Salem), so every k with
    n_k = q has |q - w beta^k| <= B = sum |w_a|."""
    x = trace_representation(seq)
    B = sum(_conjugate_bounds(x, 48).values())
    wbox = next(b for b in x.enclosures(None, 48) if not b.contains(0))
    bbox = seq.field.beta.embed(None, _IndexBracket.P)
    return _IndexBracket(bbox.lo, bbox.hi, wbox.mig, wbox.mag, B)


def _vsm_setup(seq: LinRecSeq) -> dict:
    """One-time constants for value-set membership queries."""
    if seq._vsm is not None:
        return seq._vsm
    f = seq.field
    beta = f.beta
    cache = {"zero": seq.is_zero_sequence()}
    if not cache["zero"]:
        cache["bracket"] = _archimedean_constants(seq)
        if salem_test(beta):
            cache["kind"] = "salem"
            cache["x"] = trace_representation(seq)
            # beta^k for the confirmations; lru_cache is thread-safe, and
            # bounded because a search bound lets k reach 10^4 and more
            cache["power"] = functools.lru_cache(maxsize=256)(beta.__pow__)
        else:
            _require_pisot_charpoly(f)
            if not (f.has_rank_one_units and beta.is_unit()):
                raise RankNotOne("value-set predicate needs a rank-one "
                                 "Pisot unit or a Salem number")
            cache["kind"] = "pisot"
            tm = transfer_to_powers(seq)
            cache["tm"] = tm
            cache["pre"] = {seq.term(i): i
                            for i in range(tm.onset + 2 * seq.order)}
            cache["pred"] = power_set_predicate(beta)
    seq._vsm = cache
    return cache


def value_set_membership(seq: LinRecSeq, q, search_bound: int = 10 ** 4) -> bool:
    """Is q a value of the sequence?  Exact.

    Every k with n_k = q lies in the index bracket of q: a bracket reaching
    past `search_bound` raises SearchBoundExceeded, an empty one answers
    False, and a negative `search_bound` raises OutOfRange.  An integer q
    below the end of the bracket's lazily grown threshold table is
    settled by two bisections, the bound test included; an int is never
    turned into a Fraction.
    Pisot route: pre-onset terms are looked up, else the transfer map
    sends q to a candidate beta^k, the power-set predicate reads off k
    and n_k = q is confirmed.  Salem route: each index k of the bracket
    with n_k = q is confirmed by the exact window solve, which must return
    beta^k; the powers come from a bounded cache kept with the sequence.
    """
    if search_bound < 0:
        raise OutOfRange("search_bound must be >= 0")
    q = q if isinstance(q, int) else Fraction(q)
    cache = seq._vsm or _vsm_setup(seq)
    if cache["zero"]:
        return q == 0
    ks = cache["bracket"](q, search_bound)
    if not ks:
        return False
    if cache["kind"] == "salem":
        power, x = cache["power"], cache["x"]
        for k in ks:
            if seq.term(k) == q:
                # confirm through the recovery route: the window solve must
                # return exactly beta^k and the trace close the loop
                y = salem_recover_exact(seq, k)
                if y == power(k) and (y * x).trace() == q:
                    return True
        return False
    if q in cache["pre"]:
        return True
    y = cache["tm"].apply(q)
    k = cache["pred"].exponent_of(y)
    return k is not None and seq.term(k) == q


# ---------------------------------------------------------------------------
# zero scanning (desk scale)
# ---------------------------------------------------------------------------

@dataclass
class ZeroReport:
    bound: int
    zeros: list
    progressions: list     # (modulus, residue) classes entirely zero on the window
    heuristic: bool = True


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
