"""Differential tests of the index bracket's threshold table.

`constructions._IndexBracket` answers an integer query below the end of
its lazily grown lists of integer thresholds by two bisections, the
search bound included, and keeps the bit-length estimate and exact power
comparisons of `_last` for non-integer rationals and for queries far past
the table's end.  The oracle is the bracket before the table, written out
below: every query, in any order and under any bound, must give the same
range (start and stop) and the same `SearchBoundExceeded` outcome.
"""

import functools
import math
import random
import sys
import threading
from bisect import bisect_right
from fractions import Fraction as F
from typing import NamedTuple, Optional
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from gpnf import linrec
from gpnf.constructions import _IndexBracket
from gpnf.errors import SearchBoundExceeded
from gpnf.linrec import LinRecSeq
from gpnf.numberfield import NumberField


# -- the oracle: the bracket without the table --------------------------------

class OracleBracket:
    P = 64

    def __init__(self, blo, bhi, wlo, whi, B):
        P = self.P
        self._a = (blo.numerator << P) // blo.denominator
        self._b = -((-bhi.numerator << P) // bhi.denominator)
        wlo, whi, B = F(wlo), F(whi), F(B)
        if self._a <= 1 << P or not 0 < wlo <= whi or B < 0:
            raise ValueError("need 1 < blo, 0 < wlo <= whi and B >= 0")
        self._d = math.lcm(wlo.denominator, whi.denominator, B.denominator)
        self._wlo, self._whi, self._B = (int(t * self._d) for t in (wlo, whi, B))
        self._lg = (self._a ** 256).bit_length() - 1 - 256 * P
        self._caps: dict = {}

    def _last(self, L: int, R: int, base: int, strict: int) -> int:
        if R <= 0:
            return -1
        P = self.P
        k = max(0, (R.bit_length() - L.bit_length()) * 256 // max(1, self._lg))
        X, Y = L * base ** k, R << (P * k)
        while X + strict > Y:
            if k == 0:
                return -1
            k, X, Y = k - 1, X // base, Y >> P
        while (X := X * base) + strict <= (Y := Y << P):
            k += 1
        return k

    def _reaches(self, L: int, R: int, k: int) -> bool:
        if 256 * (L.bit_length() - 1 - R.bit_length()) + k * self._lg >= 0:
            return False
        if k not in self._caps:
            self._caps[k] = self._a ** k
        return L * self._caps[k] <= R << (self.P * k)

    def __call__(self, v, bound: Optional[int] = None) -> range:
        vd = v.denominator
        n, e = abs(v.numerator) * self._d, self._B * vd
        L, R = self._wlo * vd, n + e
        if bound is not None and self._reaches(L, R, bound + 1):
            raise SearchBoundExceeded(
                f"the query's index bracket reaches past {bound}")
        top = self._last(L, R, self._a, 0)
        if top < 0:
            return range(0)
        return range(self._last(self._whi * vd, n - e, self._b, 1) + 1, top + 1)


# -- the brackets under test --------------------------------------------------

SEQUENCES = {"fibonacci": ([-1, -1, 1], [0, 1]),
             "perrin": ([-1, -1, 0, 1], [3, 0, 2]),
             "salem": ([1, -1, -1, -1, 1], [4, 1, 3, 7]),
             "tribonacci": ([-1, -1, -1, 1], [0, 0, 1]),
             "pell": ([-1, -2, 1], [0, 1])}
NAMES = sorted(SEQUENCES) + ["plastic powers", "plastic^41 powers"]


@functools.lru_cache(maxsize=None)
def bracket_args(name: str) -> tuple:
    """(blo, bhi, wlo, whi, B) of the bracket that value-set membership
    builds for the sequence, or that `power_set_predicate` builds for
    the plastic number and for its 41st power (the gamma = beta^m of the
    plastic hereditary predicate)."""
    if name in SEQUENCES:
        spy = mock.Mock(side_effect=lambda *args: args, P=_IndexBracket.P)
        with mock.patch.object(linrec, "_IndexBracket", spy):
            return linrec._archimedean_constants(LinRecSeq(*SEQUENCES[name]))
    f = NumberField([-1, -1, 0, 1])
    beta = f.beta ** (41 if name.startswith("plastic^41") else 1)
    box = beta.embed(None, _IndexBracket.P)
    return box.lo, box.hi, 1, 1, f.degree - 1


@functools.lru_cache(maxsize=None)
def thresholds(name: str) -> tuple:
    """Integers next to which an integer query changes its range: for
    k < 120, ceil(wlo blo^k - B) and floor(whi bhi^k + B) + 1, in
    Fractions."""
    blo, bhi, wlo, whi, B = bracket_args(name)
    P = _IndexBracket.P
    blo = F((blo.numerator << P) // blo.denominator, 1 << P)
    bhi = F(-((-bhi.numerator << P) // bhi.denominator), 1 << P)
    return tuple(t for k in range(120)
                 for t in (math.ceil(wlo * blo ** k - B),
                           math.floor(whi * bhi ** k + B) + 1))


@functools.lru_cache(maxsize=None)
def bound_edge(name: str, bound: int) -> int:
    """The least q >= 0 whose bracket reaches past the bound, found as
    `test_search_bound_exact_at_the_bracket_top` finds it."""
    oracle = OracleBracket(*bracket_args(name))
    top = lambda q: oracle(q).stop - 1
    lo, hi = 0, 1
    while top(hi) <= bound:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if top(mid) <= bound else (lo, mid)
    return hi


class TableEnd(NamedTuple):
    """The query sign * (ups[-1] + offset), as an int or a Fraction, with
    ups[-1] the table's last upper threshold when the query is made."""
    offset: int
    sign: int
    fraction: bool


class TopEdge(NamedTuple):
    """The bound with bound + 1 = hi + delta, hi = bisect_right(ups, |q|)
    in the table when the query is made (at least 0)."""
    delta: int


def resolve(bracket, q, bound):
    """The query and bound that TableEnd and TopEdge stand for, read off
    the bracket's table as it is now."""
    ups = bracket._table[0]
    if isinstance(q, TableEnd):
        n = q.sign * (ups[-1] + q.offset)
        q = F(n) if q.fraction else n
    if isinstance(bound, TopEdge):
        bound = max(0, bisect_right(ups, abs(q)) - 1 + bound.delta)
    return q, bound


def outcome(bracket, q, bound):
    try:
        r = bracket(q, bound)
    except SearchBoundExceeded:
        return "SearchBoundExceeded"
    return r.start, r.stop


# -- queries ------------------------------------------------------------------

@st.composite
def queries(draw, name):
    """A query near a threshold, near a bound's edge, at the table's end,
    random up to 10^120, or a non-integer rational; as an int or a
    Fraction of denominator 1, and of either sign."""
    kind = draw(st.sampled_from(["threshold", "edge", "end", "random",
                                 "rational"]))
    if kind == "end":
        return TableEnd(draw(st.integers(-1, 1)), draw(st.sampled_from([1, -1])),
                        draw(st.booleans()))
    if kind == "threshold":
        n = thresholds(name)[draw(st.integers(0, 239))] + draw(st.integers(-1, 1))
    elif kind == "edge":
        n = bound_edge(name, draw(st.sampled_from([0, 5, 9, 60]))) \
            + draw(st.integers(-1, 1))
    elif kind == "random":
        n = draw(st.integers(0, 10 ** draw(st.integers(1, 120))))
    else:
        n = draw(st.integers(0, 10 ** draw(st.integers(1, 40))))
        return draw(st.sampled_from([1, -1])) * F(2 * n + 1, draw(
            st.sampled_from([2, 3, 4, 7])))
    n *= draw(st.sampled_from([1, -1]))
    return draw(st.sampled_from([n, F(n)]))


def far_query(name: str, k: int) -> int:
    """A value at about index k: beyond one doubling of a fresh table."""
    blo, _bhi, wlo, _whi, _B = bracket_args(name)
    return math.ceil(wlo * blo ** k)


@st.composite
def cases(draw):
    """A bracket and (query, bound) pairs in a random order, sometimes led
    by a far query; a TopEdge bound puts bound + 1 next to the top of the
    query's range in the table."""
    name = draw(st.sampled_from(NAMES))
    bounds = st.sampled_from([None, 0, 5, 9, 60, 10 ** 4,
                              TopEdge(-1), TopEdge(0), TopEdge(1)])
    pairs = draw(st.lists(st.tuples(queries(name), bounds),
                          min_size=1, max_size=25))
    if draw(st.booleans()):
        pairs.insert(0, (far_query(name, draw(st.integers(200, 3000))), None))
    return name, pairs


@settings(max_examples=150, deadline=None)
@given(cases())
@example(("fibonacci", [(far_query("fibonacci", 2000), None), (10 ** 6, 9),
                        (F(-832040), None), (F(1664079, 2), 60), (0, 0)]))
@example(("plastic^41 powers", [(10 ** 30, None),
                                (far_query("plastic^41 powers", 400), 60)]))
@example(("perrin", [(TableEnd(-1, 1, False), TopEdge(0)),
                     (TableEnd(0, -1, True), TopEdge(-1)),
                     (TableEnd(1, 1, True), TopEdge(1))]))
def test_bracket_matches_the_oracle(case):
    name, pairs = case
    bracket, oracle = (cls(*bracket_args(name))
                       for cls in (_IndexBracket, OracleBracket))
    for q, bound in pairs:
        q, bound = resolve(bracket, q, bound)
        for b in (bound, None):
            assert outcome(bracket, q, b) == outcome(oracle, q, b), (name, q, b)


def test_table_end_under_bounds_next_to_the_top():
    """Queries at ups[-1] - 1, ups[-1] and ups[-1] + 1, as ints and
    Fractions of both signs, under each bound with bound + 1 in
    {hi - 1, hi, hi + 1}: the table answers the first, the bound test of
    `_reaches` and growth the other two."""
    for name in NAMES:
        oracle = OracleBracket(*bracket_args(name))
        for end in (TableEnd(o, s, f) for o in (-1, 0, 1) for s in (1, -1)
                    for f in (False, True)):
            for edge in (TopEdge(-1), TopEdge(0), TopEdge(1)):
                bracket = _IndexBracket(*bracket_args(name))
                bracket._grow(far_query(name, 30))
                q, bound = resolve(bracket, end, edge)
                assert (outcome(bracket, q, bound)
                        == outcome(oracle, q, bound)), (name, q, bound)


def test_bracket_shared_between_threads():
    """Four threads query one fresh bracket in shuffled orders, growing its
    table as they go; every answer must be the single-threaded one."""
    args = bracket_args("fibonacci")
    seq = LinRecSeq(*SEQUENCES["fibonacci"])
    rng = random.Random(5)
    qs = [int(seq.term(k)) + d for k in range(0, 400, 3) for d in (-1, 0, 1)]
    qs += [rng.randrange(10 ** rng.randrange(1, 90)) for _ in range(300)]
    reference = _IndexBracket(*args)
    expected = {q: outcome(reference, q, None) for q in qs}
    shared = _IndexBracket(*args)
    start = threading.Barrier(4)
    answers = [None] * 4

    def work(t: int) -> None:
        order = list(qs)
        random.Random(t).shuffle(order)
        start.wait(timeout=30)
        answers[t] = {q: outcome(shared, q, None) for q in order}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert all(a == expected for a in answers)
