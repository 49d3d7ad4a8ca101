"""Differential tests of the exact decisions against sympy at 60 digits,
and properties of the enclosure streams those decisions read.

Every decision below refines a certified enclosure until it decides and
settles ties exactly: floors and rational comparisons of real embeddings
(`certified_floor`, `FieldElement.compare_rational`), of real algebraic
numbers (`RealAlg.floor`, `RealAlg.compare_rational`), of the real and
imaginary parts of complex embeddings, the reality test
`embedding_is_real` and the modulus test `_abs_lt_one`.  The oracle is
sympy's `nroots` at 60 digits; each library root is matched to the sympy
root its certified box contains, so no root order is assumed.  Exact
integers and modulus-one values are built so the true answer is known
without numerics.
"""

import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import gpnf.constructions
from gpnf.algebraic import (RealAlg, abs_sq_of_embedding, embedding_is_real,
                            im_of_embedding, re_of_embedding)
from gpnf.constructions import _abs_lt_one
from gpnf.intervals import RatInterval as I, floor_of, sign_vs
from gpnf.numberfield import NumberField, certified_floor

DPS = 60
FIELDS = {
    "golden": [-1, -1, 1],
    "plastic": [-1, -1, 0, 1],
    "salem4": [1, -1, -1, -1, 1],
    "salem6": [1, 0, -1, -1, -1, 0, 1],
    "x4+1": [1, 0, 0, 0, 1],
}
_CACHE = {}


def field(name):
    """(field, conjugates as sympy numbers in the field's root order)."""
    if name not in _CACHE:
        K = NumberField(FIELDS[name])
        t = sympy.Symbol("t")
        roots = sympy.Poly(list(reversed(FIELDS[name])), t).nroots(n=DPS)
        ordered = []
        for j in range(K.degree):
            box = K.root_box(j, F(1, 2 ** 30))
            re_iv, im_iv = (box, None) if K.is_real_root(j) else (box.re, box.im)
            hits = [r for r in roots
                    if _inside(sympy.re(r), re_iv)
                    and (_inside(sympy.im(r), im_iv) if im_iv else
                         abs(sympy.im(r)) < sympy.Float(10) ** -40)]
            assert len(hits) == 1, (name, j)
            ordered.append(hits[0])
        _CACHE[name] = K, ordered
    return _CACHE[name]


def _inside(v, iv) -> bool:
    return sympy.Rational(iv.lo.numerator, iv.lo.denominator) <= v <= \
        sympy.Rational(iv.hi.numerator, iv.hi.denominator)


def value(x, roots, j):
    """sigma_j(x) at 60 digits."""
    r = roots[j]
    return sympy.N(sum(sympy.Rational(c.numerator, c.denominator) * r ** i
                       for i, c in enumerate(x.coords)), DPS)


def sfloor(v) -> int:
    """Floor of a 60-digit real far from an integer."""
    n = int(sympy.floor(v))
    assert min(abs(v - n), abs(v - n - 1)) > sympy.Float(10) ** -40
    return n


def elements(K, seed):
    """Seeded elements: beta, a few powers and random small elements."""
    rng = random.Random(seed)
    b = K.beta
    out = [b, b ** 2 - 3 * b, b ** -1 * 5, b ** 3 * F(1, 3) + 1]
    for _ in range(3):
        out.append(K.element([F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                              for _ in range(K.degree)]))
    return [x for x in out if not x.is_rational()]


def near_rationals(v):
    """Rationals on both sides of v, close to it and far from it."""
    n = int(sympy.floor(v))
    close = sympy.Rational(int(sympy.floor(v * 2 ** 40)), 2 ** 40)
    return [F(n), F(n + 1), F(close.p, close.q), F(close.p + 1, close.q),
            F(n * 7 - 3, 7)]


def sign_of(v, q) -> int:
    d = v - sympy.Rational(q.numerator, q.denominator)
    assert abs(d) > sympy.Float(10) ** -50
    return 1 if d > 0 else -1


def test_stream_rules_on_hand_made_boxes():
    # a point box is the value itself; an end at q decides (v != q)
    assert sign_vs([I(F(2), F(2))], 2) == 0
    assert sign_vs([I(F(2), F(2))], 1) == 1
    assert sign_vs([I(F(1), F(3)), I(F(2), F(5, 2))], 2) == 1
    assert sign_vs([I(F(1), F(3)), I(F(3, 2), F(2))], 2) == -1
    # a box straddling one integer asks settle; None asks for the next box
    asked = []

    def settle(n):
        asked.append(n)
        return None if len(asked) == 1 else n - 1

    boxes = [I(F(0), F(5, 2)), I(F(3, 2), F(5, 2)), I(F(7, 4), F(9, 4)),
             I(F(15, 8), F(17, 8))]
    assert floor_of(boxes, settle) == 1 and asked == [2, 2]
    assert floor_of([I(F(1), F(7, 4))], settle) == 1
    assert floor_of([I(F(-1, 2), F(-1, 4))], None) == -1


@pytest.mark.parametrize("name", list(FIELDS))
def test_real_embeddings_against_sympy(name):
    K, roots = field(name)
    for seed, x in enumerate(elements(K, 7)):
        for j in K.real_root_indices():
            v = value(x, roots, j)
            assert certified_floor(x, j) == sfloor(v), (name, seed, j)
            a = RealAlg.from_embedding(x, j)
            assert a.floor() == sfloor(v), (name, seed, j)
            for q in near_rationals(v):
                assert x.compare_rational(q, j) == sign_of(v, q), (x, j, q)
                assert a.compare_rational(q) == sign_of(v, q), (x, j, q)


@pytest.mark.parametrize("name", list(FIELDS))
def test_complex_embeddings_against_sympy(name):
    K, roots = field(name)
    for seed, x in enumerate(elements(K, 11)[:5]):
        for j in K.upper_root_indices():
            v = value(x, roots, j)
            assert not embedding_is_real(x, j)
            re, im = re_of_embedding(x, j), im_of_embedding(x, j)
            assert re.floor() == sfloor(sympy.re(v)), (name, seed, j)
            assert im.floor() == sfloor(sympy.im(v)), (name, seed, j)
            assert re.compare_rational(0) == sign_of(sympy.re(v), F(0))
            assert im.mul_rational(-1).floor() == sfloor(-sympy.im(v))


@pytest.mark.parametrize("name", list(FIELDS))
def test_abs_lt_one_against_sympy(name):
    K, roots = field(name)
    for x in elements(K, 13) + [K.beta ** -1, K.beta * F(1, 4)]:
        for j in range(K.degree):
            m = abs(value(x, roots, j))
            if abs(m - 1) > sympy.Float(10) ** -40:
                assert _abs_lt_one(x, j) == (m < 1), (name, x, j)


def test_modulus_one_conjugates_are_not_below_one():
    # a Salem number's conjugates on the unit circle, and every root of
    # x^4 + 1, have modulus exactly one
    for name in ("salem4", "salem6"):
        K, _roots = field(name)
        for j in K.upper_root_indices():
            assert not _abs_lt_one(K.beta, j)
            assert not _abs_lt_one(K.beta ** 3, j)
            assert not _abs_lt_one(-K.beta ** -2, j + 1)
    K, _roots = field("x4+1")
    for j in range(4):
        assert not _abs_lt_one(K.beta, j)
        assert _abs_lt_one(K.beta * F(99, 100), j)


@pytest.mark.parametrize("scale, below", [(1 + F(1, 2 ** 400), False),
                                          (1 - F(1, 2 ** 400), True)])
def test_abs_lt_one_settles_a_straddle_with_one_exact_comparison(
        monkeypatch, scale, below):
    # |sigma_j(x)|^2 = scale^2 is within 2^-399 of 1, so many boxes
    # straddle 1; the first straddle builds |sigma_j(x)|^2 exactly once.
    # A fresh field, so no earlier test has narrowed its root boxes.
    K = NumberField(FIELDS["salem4"])
    j = K.upper_root_indices()[0]
    builds = []

    def counted(x, k):
        builds.append(k)
        return abs_sq_of_embedding(x, k)

    monkeypatch.setattr(gpnf.constructions, "abs_sq_of_embedding", counted)
    assert _abs_lt_one(K.beta * scale, j) is below
    assert builds == [j]


def test_exact_integers_and_real_values_at_complex_embeddings():
    K, roots = field("x4+1")
    v = K.beta
    i = v ** 2                      # +-i at every embedding
    w = v - v ** 3                  # +-sqrt2, real at every embedding
    for j in K.upper_root_indices():
        assert re_of_embedding(i, j).floor() == 0
        assert re_of_embedding(i + 3, j).floor() == 3
        assert re_of_embedding(i - 3, j).compare_rational(-3) == 0
        s = int(sympy.sign(sympy.im(value(i, roots, j))))
        assert im_of_embedding(i, j).floor() == s
        assert im_of_embedding(i * 5 + 2, j).floor() == 5 * s
        assert embedding_is_real(w, j)
        r = re_of_embedding(w, j)
        assert r.floor() == sfloor(sympy.re(value(w, roots, j)))
        assert r.mul(r).floor() == 2 and r.mul(r).compare_rational(2) == 0
    K, roots = field("salem4")
    t = K.beta + K.beta ** -1       # 2 Re beta_j: real at every embedding
    for j in K.upper_root_indices():
        assert embedding_is_real(t, j)
        assert re_of_embedding(t, j).floor() == sfloor(
            sympy.re(value(t, roots, j)))
        assert im_of_embedding(t, j).compare_rational(0) == 0
    a = RealAlg.from_embedding(K.beta, K.distinguished)
    b = RealAlg.from_embedding(K.beta ** -1, K.distinguished)
    assert a.mul(b).floor() == 1 and a.mul(b).compare_rational(1) == 0


@pytest.mark.parametrize("name", list(FIELDS))
def test_floor_of_integer_shifts(name):
    # x + n and x - n floor to floor(x) +- n at every real embedding
    K, roots = field(name)
    for x in elements(K, 17)[:3]:
        for j in K.real_root_indices():
            fl = sfloor(value(x, roots, j))
            for n in (-5, 3, 10 ** 6):
                assert certified_floor(x + n, j) == fl + n
                assert RealAlg.from_embedding(x, j).add_rational(n).floor() == fl + n


def _encloses(box, v) -> bool:
    """box holds v, up to the 60-digit error of v."""
    eps = sympy.Rational(1, 10 ** 50)
    lo, hi = (sympy.Rational(e.numerator, e.denominator) for e in (box.lo, box.hi))
    return lo - eps <= v <= hi + eps


def _nested(inner, outer) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


_elements = st.tuples(
    st.sampled_from(list(FIELDS)), st.integers(0, 5),
    st.lists(st.tuples(st.integers(-9, 9), st.sampled_from((1, 2, 3, 7))),
             min_size=6, max_size=6))


@settings(max_examples=25, deadline=None)
@given(_elements)
def test_field_element_stream_narrows_around_the_value(case):
    # box k of x.enclosures(j) is embed(j, 8 * 2^k): width <= 2^(1 - 8 * 2^k)
    name, jj, coords = case
    K, roots = field(name)
    x = K.element([F(n, d) for n, d in coords[:K.degree]])
    j = jj % K.degree
    v = value(x, roots, j)
    prev = None
    for k, box in zip(range(4), x.enclosures(j)):
        parts = ((box, v),) if K.is_real_root(j) else \
            ((box.re, sympy.re(v)), (box.im, sympy.im(v)))
        for k_box, (iv, part) in enumerate(parts):
            assert iv.width <= F(2) ** (1 - 8 * 2 ** k)
            assert _encloses(iv, part), (name, x, j, k)
            if prev is not None:
                assert _nested(iv, prev[k_box])
        prev = [iv for iv, _part in parts]


@settings(max_examples=25, deadline=None)
@given(_elements)
def test_real_alg_stream_narrows_around_the_value(case):
    # box k of a.enclosures(w) is refined_interval(w / 16^k)
    name, jj, coords = case
    K, roots = field(name)
    x = K.element([F(n, d) for n, d in coords[:K.degree]])
    j = K.real_root_indices()[jj % len(K.real_root_indices())] \
        if K.real_root_indices() else None
    if j is None or x.is_rational():
        return
    v = value(x, roots, j)
    a = RealAlg.from_embedding(x, j)
    prev = a.interval()
    for k, box in zip(range(4), a.enclosures(F(1, 4))):
        assert box.width <= F(1, 4) / 16 ** k
        assert _encloses(box, v) and _nested(box, prev)
        prev = box

