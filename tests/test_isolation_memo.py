"""Complex root isolation with one memo of line chains per task, against
the counting it replaced (`legacy_isolation.py`): the same isolating
rectangles in the same order, the same refined boxes, and one winding
count per cut."""

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
_SALEM6 = _CATALOGUE[-1]                            # x^6 - x^4 - x^3 - x^2 + 1
# x^4 + 5x^2 + 5 and x^6 + 6x^4 + 9x^2 + 1: every upper root has real part 0
_TIES = ([5, 0, 5, 0, 1], [1, 0, 9, 0, 6, 0, 1])
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
    order = legacy.sort_uppers(p, K._sum_chain(), old)
    assert K._sort_uppers(rects) == order
    uppers = K.upper_root_indices()
    assert [K._roots[j].box for j in uppers] == [numberfield._box(r)
                                                 for r in order]
    for width in _WIDTHS:
        order = [legacy.refine_rect(p, r, width) for r in order]
        for j, r in zip(uppers, order):
            box = K.root_box(j, width)
            assert (box.re.lo, box.re.hi, box.im.lo, box.im.hi) == r, (
                coeffs, width, j)


@pytest.mark.parametrize(
    "coeffs",
    _CATALOGUE + _TRINOMIALS + _TIES + (_X16, _X8, _LEHMER, _CLOSE, _FAR),
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


def _counted(monkeypatch, budget=None):
    """The (rectangle, memo) of every winding count, by the module name;
    a count past the budget fails the test instead of letting it hang."""
    counted = numberfield.count_roots_in_rect
    calls = []

    def count(*args):
        calls.append((args[1:5], args[5]))
        if budget is not None and len(calls) > budget:
            pytest.fail(f"more than {budget} winding counts")
        return counted(*args)

    monkeypatch.setattr(numberfield, "count_roots_in_rect", count)
    return calls


def _upper_half(rect: tuple, below: tuple):
    """The upper half of the cut of rect whose lower half is below, a cut
    across axis k (0: real, 2: imaginary) strictly inside rect; else None."""
    for k in (0, 2):
        c = below[k + 1]
        if (rect[k] < c < rect[k + 1]
                and rect[:k + 1] + (c,) + rect[k + 2:] == below):
            return rect[:k] + (c,) + rect[k + 1:]
    return None


@pytest.mark.parametrize("coeffs", _CATALOGUE[2:] + (_X16, _LEHMER, _TRINOMIALS[-1]),
                         ids=lambda c: ",".join(map(str, c)))
def test_isolation_counts_each_rectangle_once(monkeypatch, coeffs):
    p = polys.canonical(coeffs)
    counted = numberfield.count_roots_in_rect
    calls = []      # [rectangle, memo, count]; no count: a root on its edge

    def count(*args):
        calls.append([args[1:5], args[5], None])
        calls[-1][2] = n = counted(*args)
        return n

    monkeypatch.setattr(numberfield, "count_roots_in_rect", count)
    rects = numberfield._isolate_complex_upper(p, _upper_count(p))
    # no rectangle is counted twice
    assert len({r for r, _, _ in calls}) == len(calls)
    # after the start rectangle, every count is of the lower half of a cut
    # of a rectangle reached before; a rectangle is cut once, so the last
    # one reached of those is the one cut, and a count reaches its halves
    reached, uppers = [calls[0][0]], set()
    for below, _, n in calls[1:]:
        above = next(filter(None, (_upper_half(r, below)
                                   for r in reversed(reached))), None)
        assert above is not None, below
        if n is not None:
            reached += [below, above]
            uppers.add(above)
    assert set(rects) <= {r for r, _, _ in calls} | uppers
    # one memo for the whole isolation, a new one for the next
    assert len({id(m) for _, m, _ in calls}) == 1
    first = calls[0][1]
    calls.clear()
    numberfield._isolate_complex_upper(p, _upper_count(p))
    assert calls[0][1] is not first


@pytest.mark.parametrize("coeffs", (_TRINOMIALS[-3], _TRINOMIALS[-1]),
                         ids=("x14-x-1", "x16-x-1"))
def test_ordering_counts_on_the_isolation_memo(monkeypatch, coeffs):
    # the real projections of some upper rectangles overlap, so ordering
    # cuts them; every other edge is a line the isolation already read
    K = NumberField(coeffs, check_reducible=False)
    p = K.minpoly_int
    memo: dict = {}
    rects = numberfield._isolate_complex_upper(p, _upper_count(p), memo)
    lines = {key for key in memo if len(key) == 2}
    calls = _counted(monkeypatch)
    order = K._sort_uppers(rects, memo)
    assert [numberfield._box(r) for r in order] == [
        K._roots[j].box for j in K.upper_root_indices()]
    assert len(calls) >= 2 and all(m is memo for _, m in calls)
    # each count is of a lower half, whose right edge is the cut
    cuts = {(r[1], True) for r, _ in calls}
    assert {key for key in memo if len(key) == 2} - lines == cuts
    for (xlo, xhi, ylo, yhi), _ in calls:
        assert {(xlo, True), (ylo, False), (yhi, False)} <= lines | cuts


@pytest.mark.parametrize("coeffs", _TIES, ids=lambda c: ",".join(map(str, c)))
def test_tie_fields_order_by_imaginary_part(monkeypatch, coeffs):
    # 32 and 56 counts in all, 20 and 36 of them in the builds; an
    # undecided tie would cut forever
    _counted(monkeypatch, budget=100)
    K = NumberField(coeffs)
    assert K._chain2 is not None
    p = K.minpoly_int
    uppers = K.upper_root_indices()
    order = legacy.sort_uppers(
        p, K._sum_chain(),
        numberfield._isolate_complex_upper(p, _upper_count(p)))
    assert [K._roots[j].box for j in uppers] == [numberfield._box(r)
                                                 for r in order]
    boxes = [K.root_box(j, F(1, 2 ** 40)) for j in uppers]
    assert all(b.re.lo < 0 < b.re.hi for b in boxes)
    assert all(a.im.hi < b.im.lo for a, b in zip(boxes, boxes[1:]))


@pytest.mark.parametrize("coeffs", (_SALEM6, _CATALOGUE[5], _TRINOMIALS[-1]),
                         ids=("salem6", "pentanacci", "x16-x-1"))
def test_generic_fields_build_no_tie_chain(coeffs):
    assert NumberField(coeffs)._chain2 is None
