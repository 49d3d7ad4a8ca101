"""Binary words, Sturmian generators, subword complexity, and the
construction of a slowly-decaying set with a high-complexity subset.

The construction machinery is exact combinatorics on integer windows: the
level schedule, the pigeonhole extraction of repeated blocks, and the
carving of chosen subsets are all recorded in a plan object whose claims
are re-checked against the produced window.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, Sequence

from .errors import (DensityHypothesisFailed, OutOfRange, PigeonholeFailed,
                     RationalSlope, SlopeOutOfRange, WindowTooShort)
from .numberfield import FieldElement, certified_floor
from .records import Frozen, Record, set_field


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

class BinaryWord(Frozen):
    """A finite 0/1 word with an absolute start offset."""
    __slots__ = __match_args__ = ("start", "bits")

    def __init__(self, start: int, bits: tuple):
        set_field(self, "start", start)
        set_field(self, "bits", bits)

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits[i - self.start]

    @staticmethod
    def from_membership(fn: Callable, lo: int, hi: int) -> "BinaryWord":
        return BinaryWord(lo, tuple(1 if fn(i) else 0 for i in range(lo, hi + 1)))

    def factors(self, length: int) -> set:
        if length > len(self.bits):
            raise WindowTooShort(
                f"window of length {len(self.bits)} has no factors of length {length}")
        return {self.bits[i:i + length]
                for i in range(len(self.bits) - length + 1)}


def sturmian(a, b, lo: int, hi: int) -> BinaryWord:
    """The word g(n) = floor(a(n+1)+b) - floor(an+b) on [lo, hi].

    The slope must be an irrational real algebraic number (a field element
    at a real distinguished embedding); the intercept may be rational or an
    element of the same field.  All floors are certified.
    """
    if not isinstance(a, FieldElement):
        raise RationalSlope("slope must be a field element (irrational)")
    if a.is_rational():
        raise RationalSlope("slope is rational")
    if a.compare_rational(0) <= 0 or a.compare_rational(1) >= 0:
        raise SlopeOutOfRange("slope must lie in (0, 1)")
    f = a.field
    if isinstance(b, FieldElement):
        b = f.element(b)
    else:
        b = f.element(Fraction(b))
    bits = []
    prev = certified_floor(a * lo + b)
    for n in range(lo, hi + 1):
        nxt = certified_floor(a * (n + 1) + b)
        bits.append(nxt - prev)
        prev = nxt
    return BinaryWord(lo, tuple(bits))


def subword_complexity(word: BinaryWord, length: int) -> int:
    """Number of distinct length-N factors in the window (a lower bound for
    the complexity of the full two-sided word)."""
    return len(word.factors(length))


def density_profile(membership: Callable, radii: Sequence) -> list:
    """|E cap [-N, N]| / (2N+1) for each N, exact rationals."""
    out = []
    for N in radii:
        count = sum(1 for i in range(-N, N + 1) if membership(i))
        out.append(Fraction(count, 2 * N + 1))
    return out


# ---------------------------------------------------------------------------
# surrogate slowly-decaying sets
# ---------------------------------------------------------------------------

class SurrogateSlowDecaySet:
    """A concrete density-zero set whose prefix counts dominate f(N) * N.

    Greedy: n joins the set whenever the count so far would otherwise drop
    below the requirement at N = n+1.  Not claimed to carry any structure
    beyond the counts.
    """

    def __init__(self, f: Callable):
        self.f = f
        self._flags: List[bool] = []
        self._count = 0

    def _extend(self, n: int) -> None:
        while len(self._flags) <= n:
            k = len(self._flags)
            need = self.f(k + 1) * (k + 1)
            take = self._count < need
            self._flags.append(take)
            if take:
                self._count += 1

    def __call__(self, n: int) -> bool:
        if n < 0:
            return False
        self._extend(n)
        return self._flags[n]

    def prefix_count(self, N: int) -> int:
        """|E cap [0, N)|."""
        if N <= 0:
            return 0
        self._extend(N - 1)
        return sum(1 for i in range(N) if self._flags[i])


def surrogate_slow_decay_set(f: Callable) -> SurrogateSlowDecaySet:
    """Membership oracle for a set with |E cap [0,N)| >= f(N) N, built
    greedily; density tends to 0 whenever f does."""
    return SurrogateSlowDecaySet(f)


# ---------------------------------------------------------------------------
# the non-hereditary construction
# ---------------------------------------------------------------------------

class LevelRecord(Record):
    """One level L: a is the target block occupancy (an integer), h = a / L
    the effective rate, M the number of blocks, block_set the repeated
    trace A (ascending offsets), positions m_0 < ... < m_{H-1},
    chosen_subsets the A_j carved from block j, and plus_count the blocks
    meeting the occupancy target, of required_plus = 2^(L + a)."""
    __slots__ = __match_args__ = (
        "level", "a", "h", "M", "N_prev", "N", "block_set", "positions",
        "chosen_subsets", "plus_count", "required_plus")

    def __init__(self, level: int, a: int, h: Fraction, M: int, N_prev: int,
                 N: int, block_set: tuple, positions: tuple,
                 chosen_subsets: tuple, plus_count: int, required_plus: int):
        self.level, self.a, self.h, self.M = level, a, h, M
        self.N_prev, self.N, self.block_set = N_prev, N, block_set
        self.positions, self.chosen_subsets = positions, chosen_subsets
        self.plus_count, self.required_plus = plus_count, required_plus


class NonHereditaryPlan(Record):
    """The levels of the construction and its window, the indicator of F
    on [0, N_max)."""
    __slots__ = __match_args__ = ("levels", "window", "removed")

    def __init__(self, levels: List[LevelRecord], window: BinaryWord,
                 removed: set):
        self.levels, self.window, self.removed = levels, window, removed

    @property
    def N_max(self) -> int:
        return self.levels[-1].N if self.levels else 0

    def complexity_at(self, L: int) -> int:
        return subword_complexity(self.window, L)

    def certified(self) -> bool:
        return all(self.complexity_at(rec.level) >= 2 ** rec.a
                   for rec in self.levels)


def _clamped_rate(h: Callable, L: int) -> tuple:
    """(a, h*) with a = ceil(h(L) L) for the clamped rate and h* = a/L."""
    hL = min(Fraction(h(L)).limit_denominator(10 ** 9), Fraction(1, 2))
    if hL <= 0:
        raise ValueError("rate must be positive")
    a = max(math.ceil(hL * L), 1)
    return a, Fraction(a, L)


def non_hereditary_construct(E: Callable, h: Callable, L_max: int,
                             density_check: bool = True) -> NonHereditaryPlan:
    """Carve a subset F of E whose window complexity reaches 2^ceil(h(L)L)
    at every level L <= L_max.

    Levels proceed left to right: level L works inside [N_{L-1}, N_L) with
    N_L = N_{L-1} + L M_L; blocks of length L holding at least a = ceil(hL)
    points of E are traced, a trace repeated H = 2^a times is found by
    pigeonhole, and the H lexicographically first subsets of it are removed
    from the H chosen blocks, leaving H distinct length-L factors.
    """
    if L_max < 1:
        raise OutOfRange("need at least one level")
    levels: List[LevelRecord] = []
    removed: set = set()
    N_prev = 0
    for L in range(1, L_max + 1):
        a, hstar = _clamped_rate(h, L)
        H = 2 ** a
        required_plus = 2 ** (L + a)
        if hstar < 1:
            denom = (hstar - hstar * hstar) * L
            M = int(math.ceil((N_prev + required_plus * L) / denom))
        else:
            # degenerate L = 1 level: enough blocks to hold the plus count
            M = required_plus
            while _prefix_count(E, N_prev + M) - _prefix_count(E, N_prev) < required_plus:
                M *= 2
                if M > 2 ** 20:
                    raise DensityHypothesisFailed(L, "set too thin at level 1")
        N = N_prev + L * M
        if density_check and hstar < 1:
            f_req = 2 * hstar - hstar * hstar
            have = _prefix_count(E, N)
            if Fraction(have) < f_req * N:
                raise DensityHypothesisFailed(
                    L, f"|E cap [0,{N})| = {have} < {f_req} * {N}")
        # trace the blocks
        buckets: dict = {}
        witness = None
        plus = 0
        for mblk in range(M):
            base = N_prev + mblk * L
            trace = tuple(off for off in range(L) if E(base + off))
            if len(trace) >= a:
                plus += 1
                lst = buckets.setdefault(trace, [])
                lst.append(mblk)
                if witness is None and len(lst) == H:
                    witness = trace
        if witness is None:
            raise PigeonholeFailed(
                L, f"no block trace repeated {H} times among {plus} dense blocks")
        positions = tuple(buckets[witness][:H])
        # the H lexicographically first subsets of the witness trace,
        # by binary counter over its first a elements
        subsets = []
        for k in range(H):
            subsets.append(tuple(witness[t] for t in range(len(witness))
                                 if (k >> t) & 1))
        for mblk, Aj in zip(positions, subsets):
            base = N_prev + mblk * L
            removed.update(base + off for off in Aj)
        levels.append(LevelRecord(
            level=L, a=a, h=hstar, M=M, N_prev=N_prev, N=N,
            block_set=witness, positions=positions,
            chosen_subsets=tuple(subsets), plus_count=plus,
            required_plus=required_plus))
        N_prev = N

    window = BinaryWord.from_membership(
        lambda n: E(n) and n not in removed, 0, N_prev - 1)
    plan = NonHereditaryPlan(levels=levels, window=window, removed=removed)
    if not plan.certified():
        raise PigeonholeFailed(L_max, "constructed window misses its complexity bound")
    return plan


def _prefix_count(E: Callable, N: int) -> int:
    if hasattr(E, "prefix_count"):
        return E.prefix_count(N)
    return sum(1 for i in range(N) if E(i))
