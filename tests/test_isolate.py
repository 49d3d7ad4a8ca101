"""`algebraic._isolate` against the Sturm-only isolation it shortcuts.

`_isolate` first tries the stream's first box X without a remainder
chain: when the integer Horner enclosure of P' over X leaves out 0, P is
monotone on X, so the root that X holds is its only one there.  Only when
that test fails is the Sturm chain built.  The reference below is the
Sturm-only isolation, which counts roots on the chain from the first box
on.  Both must return the same value: the same (poly, lo, hi), or the same
rational.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import poly_mul
from gpnf import polys as P
from gpnf.algebraic import RealAlg, _isolate
from gpnf.errors import CertificateFailed
from gpnf.intervals import RatInterval


def ref_isolate(sq, boxes):
    """The root of squarefree sq that the boxes enclose, from the first box
    holding exactly one root, counted on the Sturm chain of sq."""
    sturm = P.sturm_chain(sq)
    for box in boxes:
        lo, hi = box.lo, box.hi
        if lo == hi:
            return RealAlg.from_rational(lo)
        ends = [x for x in (lo, hi) if P.int_sign_at(sturm[0], x) == 0]
        n = P.count_roots(sturm, lo, hi) + len(ends)
        if n == 1:
            return (RealAlg.from_rational(ends[0]) if ends
                    else RealAlg(tuple(sturm[0]), box))
        if n == 0:
            raise ArithmeticError("certified enclosure contains no root")
    return None


def as_tuple(a):
    if a is None:
        return None
    return ("rat", a.rat) if a.rat is not None else (a.poly, a.lo, a.hi)


def count_chains(monkeypatch):
    calls = []
    real = P.sturm_chain

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(P, "sturm_chain", counted)
    return calls


# -- squarefree integer polynomials with rational and irrational roots ------

small = st.integers(-6, 6)
rational_roots = st.lists(st.fractions(-4, 4, max_denominator=3), max_size=3,
                          unique=True)
factors = st.lists(st.lists(small, min_size=2, max_size=4).filter(lambda f: f[-1]),
                   max_size=2)


@st.composite
def rooted(draw):
    """(P, lo, hi): a squarefree canonical P with at least one real root,
    and one of its roots, as a point (r, r) or an isolating interval."""
    p = (F(1),)
    for r in draw(rational_roots):
        p = poly_mul(p, (-r, F(1)))
    for f in draw(factors):
        p = poly_mul(p, f)
    if P.degree(p) < 1:
        p = (F(-2), F(0), F(1))
    sq = P.squarefree_part(p)
    ivs = P.isolate_real_roots(sq)
    if not ivs:
        sq = P.squarefree_part(poly_mul(p, (F(-2), F(0), F(1))))
        ivs = P.isolate_real_roots(sq)
    lo, hi = draw(st.sampled_from(ivs))
    return sq, lo, hi


widths = st.lists(st.tuples(st.fractions(0, 3, max_denominator=16),
                            st.fractions(0, 3, max_denominator=16)),
                  min_size=1, max_size=5)


def nested(sq, lo, hi, pads):
    """Boxes around the root that (lo, hi) isolates: the tight isolating
    interval widened by pads that shrink, ending with the interval
    itself."""
    if lo < hi:
        iv = P.refine_root(sq, RatInterval(lo, hi), F(1, 2 ** 20))
        lo, hi = iv.lo, iv.hi
    a = b = F(0)
    out = []
    for x, y in reversed(pads):
        a, b = a + x, b + y
        out.append(RatInterval(lo - a, hi + b))
    return out[::-1] + [RatInterval(lo, hi)]


@settings(max_examples=300, deadline=None)
@given(rooted(), widths)
@example(((0, -3, 0, 1), F(1), F(2)), [(F(3), F(0))])       # three roots in X
@example(((-1, 1), F(1), F(1)), [(F(0), F(1)), (F(0), F(1, 2))])  # root on an end
def test_isolate_matches_sturm_only(case, pads):
    sq, lo, hi = case
    boxes = nested(sq, lo, hi, pads)
    assert as_tuple(_isolate(sq, iter(boxes))) == as_tuple(ref_isolate(sq, boxes))


@settings(max_examples=100, deadline=None)
@given(rooted(), widths)
def test_isolate_single_box_matches_sturm_only(case, pads):
    """With one box only, a box the certificate refuses yields None on both
    sides, and one it accepts yields the same value."""
    sq, lo, hi = case
    box = nested(sq, lo, hi, pads)[0]
    assert as_tuple(_isolate(sq, [box])) == as_tuple(ref_isolate(sq, [box]))


def test_three_roots_with_end_sign_change_take_the_chain(monkeypatch):
    """x^3 - 3x has roots -sqrt3, 0, sqrt3.  On X = [-2, 2] its end values
    -2 and 2 change sign, but P'(X) contains 0, so X must not be taken as
    isolating: the chain is built and the next box decides."""
    sq = (0, -3, 0, 1)
    assert P.int_sign_at(list(sq), F(-2)) == -1 and P.int_sign_at(list(sq), F(2)) == 1
    calls = count_chains(monkeypatch)
    a = _isolate(sq, [RatInterval(F(-2), F(2)), RatInterval(F(1), F(2))])
    assert as_tuple(a) == (sq, F(1), F(2))
    assert len(calls) == 1


def test_monotone_first_box_builds_no_chain(monkeypatch):
    calls = count_chains(monkeypatch)
    a = _isolate((0, -3, 0, 1), [RatInterval(F(3, 2), F(2))])
    assert as_tuple(a) == ((0, -3, 0, 1), F(3, 2), F(2))
    # a root on an end of a monotone box is that rational
    assert _isolate((-1, 1), [RatInterval(F(1), F(3))]).rat == 1
    assert _isolate((-1, 1), [RatInterval(F(0), F(1))]).rat == 1
    assert calls == []


def test_monotone_box_without_root_raises(monkeypatch):
    calls = count_chains(monkeypatch)
    with pytest.raises(ArithmeticError):
        _isolate((-2, 0, 1), [RatInterval(F(2), F(3))])
    assert calls == []


@pytest.mark.parametrize("lo, hi, chains", [(2, 3, 0), (-1, 1, 1)])
def test_box_without_root_raises_the_typed_error(monkeypatch, lo, hi, chains):
    # x^2 - 2 has no root in [2, 3] (monotone there) nor in [-1, 1] (not
    # monotone: counted on the Sturm chain)
    calls = count_chains(monkeypatch)
    box = RatInterval(F(lo), F(hi))
    with pytest.raises(CertificateFailed) as ei:
        _isolate((-2, 0, 1), [box])
    assert ei.value.box is box and "no root" in ei.value.what
    assert isinstance(ei.value, ArithmeticError) and len(calls) == chains


def test_empty_stream_gives_none():
    assert _isolate((-2, 0, 1), []) is None


def test_from_embedding_builds_almost_no_chains(K_phi, monkeypatch):
    """200 seeded elements of Q(phi) at both embeddings: the first box
    settles nearly every isolation, and every value matches the
    Sturm-only reference."""
    rng = random.Random(20261019)
    elems = []
    while len(elems) < 200:
        x = K_phi.element([F(rng.randint(-20, 20), rng.randint(1, 9)),
                           F(rng.randint(-20, 20), rng.randint(1, 9))])
        if not x.is_rational():
            elems.append(x)
    want = [as_tuple(ref_isolate(x._minimal_poly_int(), x.enclosures(j)))
            for x in elems for j in (0, 1)]
    calls = count_chains(monkeypatch)
    got = [as_tuple(RealAlg.from_embedding(x, j)) for x in elems for j in (0, 1)]
    assert got == want
    assert len(calls) <= 4
