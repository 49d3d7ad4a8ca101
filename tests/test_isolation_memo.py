"""Complex root isolation with one memo of line chains per task, against
the counting it replaced (`legacy_isolation.py`): the same isolating
rectangles in the same order, the same refined boxes, and one winding
count per rectangle."""

from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import legacy_isolation as legacy
from gpnf import numberfield, polys
from gpnf.numberfield import NumberField

_CATALOGUE = ([-1, -1, 1], [-1, -2, 1], [-1, -1, 0, 1], [-1, -1, -1, 1],
              [-1, -1, -1, -1, 1], [-1, -1, -1, -1, -1, 1],
              [-1, -1, -1, -1, -1, -1, 1], [1, -1, -1, -1, 1],
              [1, 0, -1, -1, -1, 0, 1])
# x^n - x - 1; n = 2 and 3 are the catalogue's golden and plastic fields
_TRINOMIALS = tuple([-1, -1] + [0] * (n - 2) + [1] for n in range(4, 17))
_X16 = [1] + [0] * 15 + [1]
_X8 = [1] + [0] * 7 + [1]
_LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
_CLOSE = [-2, 404, -20402, 0, 0, 0, 0, 0, 1]        # x^8 - 2(101x - 1)^2
_FAR = [1, 0, 10 ** 30, 0, 0, 1]                    # x^5 + 10^30 x^2 + 1
_WIDTHS = (F(1, 2 ** 128), F(1, 2 ** 512))


def _upper_count(p: tuple) -> int:
    return (polys.degree(p) - len(polys.isolate_real_roots(p))) // 2


def _assert_matches_legacy(coeffs):
    """Isolation, ordering and the boxes of `root_box` at 2^-128 and then
    2^-512 agree with the legacy oracle, rectangle for rectangle."""
    K = NumberField(coeffs, check_reducible=False)
    p = K.minpoly_int
    rects = numberfield._isolate_complex_upper(p, _upper_count(p))
    old = legacy.isolate_complex_upper(p, _upper_count(p))
    assert rects == old
    order = legacy.sort_uppers(p, K._sum_resolvent()[1], old)
    assert K._sort_uppers(rects) == order
    uppers = K.upper_root_indices()
    assert [K._roots[j].rect for j in uppers] == order
    for width in _WIDTHS:
        order = [legacy.refine_rect(p, r, width) for r in order]
        for j, r in zip(uppers, order):
            box = K.root_box(j, width)
            assert (box.re.lo, box.re.hi, box.im.lo, box.im.hi) == r, (
                coeffs, width, j)


@pytest.mark.parametrize(
    "coeffs", _CATALOGUE + _TRINOMIALS + (_X16, _X8, _LEHMER, _CLOSE, _FAR),
    ids=lambda c: ",".join(map(str, c)))
def test_isolation_matches_the_legacy_counts(coeffs):
    _assert_matches_legacy(coeffs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=8),
       st.integers(1, 9))
def test_isolation_of_drawn_polynomials_matches_the_legacy_counts(coeffs,
                                                                   lead):
    # degree 2-8; the squarefree part keeps every distinct root
    p = polys.squarefree_part(coeffs + [lead])
    if polys.degree(p) >= 2:
        _assert_matches_legacy(p)


def _counted(monkeypatch):
    """The (rectangle, memo) of every winding count, by the module name."""
    counted = numberfield.count_roots_in_rect
    calls = []

    def count(*args):
        calls.append((args[1:5], args[5]))
        return counted(*args)

    monkeypatch.setattr(numberfield, "count_roots_in_rect", count)
    return calls


@pytest.mark.parametrize("coeffs", _CATALOGUE[2:] + (_X16, _LEHMER, _TRINOMIALS[-1]),
                         ids=lambda c: ",".join(map(str, c)))
def test_isolation_counts_each_rectangle_once(monkeypatch, coeffs):
    p = polys.canonical(coeffs)
    calls = _counted(monkeypatch)
    rects = numberfield._isolate_complex_upper(p, _upper_count(p))
    counts = Counter(r for r, _ in calls)
    assert set(counts.values()) == {1}
    assert set(rects) <= set(counts)
    # one memo for the whole isolation, a new one for the next
    assert len({id(m) for _, m in calls}) == 1
    first = calls[0][1]
    calls.clear()
    numberfield._isolate_complex_upper(p, _upper_count(p))
    assert calls[0][1] is not first


def test_ordering_shares_one_memo_across_refinements(monkeypatch):
    # x^5 + 10^30 x^2 + 1: Newton from the centres of its rectangles stops
    # short, so ordering its two upper roots bisects by winding counts
    p = polys.canonical(_FAR)
    rects = numberfield._isolate_complex_upper(p, 2)
    K = NumberField(_FAR, check_reducible=False)
    calls = _counted(monkeypatch)
    assert K._sort_uppers(rects) == legacy.sort_uppers(
        p, K._sum_resolvent()[1], rects)
    assert len(calls) > 2 and len({id(m) for _, m in calls}) == 1
