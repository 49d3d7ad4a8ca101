"""Field leaves that read what the field already holds.

`RealAlg.from_embedding(beta, j)` is the field's own defining polynomial
and root box; `FieldElement._minimal_poly_int` takes no gcd in a proven
field of prime degree; `FieldElement.embed` and `NumberField.root_box`
measure boxes on their integer ends, and a box already narrow enough
comes back without the field's lock.  Each is checked against the route
it replaces, written out here: `_isolate` on the first enclosures, the
squarefree part of the char poly, and the `Fraction` loop of `embed`.
"""

import random
import threading
from fractions import Fraction as F
from itertools import product

import pytest

from gpnf import polys
from gpnf.algebraic import RealAlg, _isolate
from gpnf.intervals import ComplexBox, RatInterval, horner_box, horner_interval
from gpnf.numberfield import NumberField, _wider

# the Pisot and Salem fields of the field-build benchmark, and x^2 - 2
CATALOGUE = ([-1, -1, 1], [-1, -2, 1], [-1, -1, 0, 1], [-1, -1, -1, 1],
             [-1, -1, -1, -1, 1], [-1, -1, -1, -1, -1, 1],
             [-1, -1, -1, -1, -1, -1, 1], [1, -1, -1, -1, 1],
             [1, 0, -1, -1, -1, 0, 1], [-2, 0, 1])


def squarefree_route(x):
    """The minimal polynomial as `_minimal_poly_int` took it in every
    field: the squarefree part of the char poly of D x, roots over D."""
    _, D, g = x._int_char_poly()
    return polys.scale_roots(polys.squarefree_part(g), F(1, D))


def fraction_embed(x, j, prec_bits):
    """`embed` as it was: the width tests on Fractions."""
    f = x.field
    target = F(1, 2 ** prec_bits)
    horner = horner_interval if f.is_real_root(j) else horner_box
    width = F(1, 2 ** 8)
    while True:
        out = horner(x.num, x.den, f.root_box(j, width))
        if out.width <= 2 * target:
            return out
        width /= 2 ** 6


def ends(box):
    if isinstance(box, ComplexBox):
        return box.re._t, box.im._t
    return box._t


@pytest.mark.parametrize("coeffs", CATALOGUE)
def test_from_embedding_of_beta_is_the_isolated_root(coeffs):
    for first in ("leaf", "isolate"):
        f = NumberField(coeffs)
        beta = f.beta
        for j in f.real_root_indices():
            if first == "leaf":
                got = RealAlg.from_embedding(beta, j)
                want = _isolate(squarefree_route(beta), beta.enclosures(j))
            else:
                want = _isolate(squarefree_route(beta), beta.enclosures(j))
                got = RealAlg.from_embedding(beta, j)
            assert got.rat is None and got.poly == want.poly == f.minpoly_int
            assert got.iv._t == want.iv._t


def test_from_embedding_of_beta_at_a_rational_root():
    # x^3 - x^2 - 2x + 2 = (x - 1)(x^2 - 2), admitted unchecked: the box of
    # its root 1 holds no other root, and the value there is exactly 1
    f = NumberField([2, -2, -1, 1], check_reducible=False)
    beta = f.beta
    for j, q, sign in zip(f.real_root_indices(), (F(-3, 2), 1, F(3, 2)),
                          (1, 0, -1)):
        want = _isolate(squarefree_route(beta), beta.enclosures(j))
        got = RealAlg.from_embedding(beta, j)
        assert (got.poly, got.iv._t) == (want.poly, want.iv._t)
        assert got.compare_rational(q) == sign
    # x^3 - 2x, admitted unchecked: isolation lands on its root 0 exactly,
    # so that root's box is a point, and beta there is the rational 0
    f = NumberField([0, -2, 0, 1], check_reducible=False)
    got = [RealAlg.from_embedding(f.beta, j) for j in range(3)]
    assert [r.rat for r in got] == [None, 0, None]
    assert got[0].poly == got[2].poly == f.minpoly_int


@pytest.mark.parametrize("coeffs", [[-2, 0, 1], [-1, -1, 0, 1],
                                    [-1, -1, 0, 0, 0, 1], [1, -1, -1, -1, 1]])
def test_minimal_poly_matches_the_squarefree_route(coeffs):
    rng = random.Random(len(coeffs))
    f = NumberField(coeffs)
    assert f._char_is_min == (f.degree in (2, 3, 5))
    for _ in range(40):
        x = f.element([F(rng.randint(-30, 30), rng.randint(1, 12))
                       if rng.random() < 0.8 else 0 for _ in range(f.degree)])
        assert x._minimal_poly_int() == squarefree_route(x)


def test_minimal_poly_drops_a_repeated_factor():
    # beta^2 in Q(x^4 + 1) has char poly (x^2 + 1)^2; in the unchecked
    # (x - 1)(x^2 - 2), of prime degree 3, it has (x - 1)(x - 2)^2
    quartic = NumberField([1, 0, 0, 0, 1])
    assert (quartic.beta ** 2)._minimal_poly_int() == (1, 0, 1)
    cubic = NumberField([2, -2, -1, 1], check_reducible=False)
    assert not cubic._char_is_min
    assert (cubic.beta ** 2)._minimal_poly_int() == (2, -3, 1)
    assert cubic.element([F(5, 2), 0, 0])._minimal_poly_int() == (-5, 2)


@pytest.mark.parametrize("coeffs", [[-1, -1, 0, 1], [1, -1, -1, -1, 1],
                                    [1, 0, 0, 0, 1]])
def test_embed_matches_the_fraction_loop(coeffs):
    rng = random.Random(7)
    fields = NumberField(coeffs), NumberField(coeffs)
    elems = [[F(rng.randint(-99, 99), rng.randint(1, 9)) for _ in coeffs[1:]]
             for _ in range(6)] + [[0, 1] + [0] * (len(coeffs) - 3)]
    for c, j, bits in product(elems, range(len(coeffs) - 1), (0, 8, 30, 57, 140)):
        new, old = (f.element(c) for f in fields)
        box = new.embed(j, bits)
        assert box.width <= F(2, 2 ** bits)
        assert ends(box) == ends(fraction_embed(old, j, bits))
        assert ends(fields[0].root_box(j, 1)) == ends(fields[1].root_box(j, 1))


def test_a_narrow_box_comes_back_without_the_lock():
    f = NumberField([1, -1, -1, -1, 1])
    boxes = [f.root_box(j, F(1, 2 ** 20)) for j in range(4)]
    held, done, got = threading.Event(), threading.Event(), []

    def hold():
        with f._lock:
            held.set()
            done.wait(60)

    def read():
        got.extend(f.root_box(j, F(1, 2 ** 10)) for j in range(4))

    holder = threading.Thread(target=hold)
    holder.start()
    held.wait(10)
    reader = threading.Thread(target=read)
    reader.start()
    reader.join(5)
    finished = not reader.is_alive()
    done.set()
    holder.join(10)
    reader.join(10)
    assert finished and got == boxes


def test_wider_reads_every_side():
    thin, wide = RatInterval(0, F(1, 8)), RatInterval(F(-1, 2), F(1, 2))
    assert _wider(ComplexBox(thin, wide), 1, 2)
    assert _wider(ComplexBox(wide, thin), 1, 2)
    assert not _wider(ComplexBox(thin, thin), 1, 8) and _wider(thin, 1, 9)
    assert not _wider(wide, 1, 1) and _wider(wide, 0, 1)
