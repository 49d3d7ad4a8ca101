import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import durand_kerner, embed_floats, random_element
from gpnf import algebraic, polys
from gpnf.errors import (ComplexEmbedding, DegreeMismatch, DivisionByZero,
                         FieldMismatch, GpnfError, NoRealRoot, NotSquarefree,
                         OutOfRange, ReducibleDetected)
from gpnf.genpoly import Value
from gpnf.numberfield import (NumberField, certified_ceil, certified_dist,
                              certified_floor, certified_frac, certified_nint,
                              compare_elements)


# -- construction -------------------------------------------------------------

def test_create_golden(K_phi):
    assert K_phi.degree == 2
    assert K_phi.signature == (2, 0)
    b0 = K_phi.root_box(0, F(1, 2 ** 30))
    b1 = K_phi.root_box(1, F(1, 2 ** 30))
    assert float(b1.mid) == pytest.approx(1.6180339887, abs=1e-8)
    assert float(b0.mid) == pytest.approx(-0.6180339887, abs=1e-8)
    assert K_phi.distinguished == 1


def test_create_gaussian():
    K = NumberField([1, 0, 1])
    assert K.signature == (0, 1)
    assert not K.is_real_root(0)


@pytest.mark.parametrize("coeffs,j", [([-1, -1, 1], 1), ([1, 0, 1], 0),
                                      ([1, 0, 1], 1)])
def test_root_box_zero_width_raises(coeffs, j):
    # a real root (golden ratio) and both complex roots of x^2 + 1
    K = NumberField(coeffs)
    for width in (F(0), F(-1, 8)):
        with pytest.raises(ValueError):
            K.root_box(j, width)
    assert K.root_box(j, F(1, 2 ** 20)).width <= F(1, 2 ** 20)


@pytest.mark.parametrize("coeffs,j", [([-2, 0, 1], 1), ([1, 0, 0, 0, 1], 0),
                                      ([1, 0, 0, 0, 1], 1)])
def test_root_box_bad_width_is_a_typed_error(coeffs, j):
    # a real root (sqrt 2), and an upper and a lower root of x^4 + 1
    K = NumberField(coeffs)
    for width in (F(0), 0, -1, F(-1, 8)):
        with pytest.raises(OutOfRange):
            K.root_box(j, width)
    for width in (2.0 ** -40, "1/8", None):
        with pytest.raises(TypeError, match=type(width).__name__):
            K.root_box(j, width)
    assert K.root_box(j, 1).width <= 1


def test_root_box_zero_width_rational_root():
    # once refinement has collapsed a rational root's enclosure to a point,
    # width 0 asks for nothing more
    K = NumberField([-2, 1])
    assert K.root_box(0, F(1, 2)).lo == K.root_box(0, F(1, 2)).hi == 2
    assert K.root_box(0, F(0)).lo == K.root_box(0, F(0)).hi == 2


def test_create_x4_plus_1():
    # p(2 + 2i) = -63 is real at a corner of the first counting rectangle
    import sympy
    K = NumberField([1, 0, 0, 0, 1])
    assert K.signature == (0, 2)
    x = sympy.symbols("x")
    p = sympy.Poly(x ** 4 + 1, x)
    boxes = [K.root_box(j, F(1, 2 ** 20)) for j in range(4)]
    for b in boxes:
        lo = sympy.Rational(b.re.lo) + sympy.I * sympy.Rational(b.im.lo)
        hi = sympy.Rational(b.re.hi) + sympy.I * sympy.Rational(b.im.hi)
        assert p.count_roots(lo, hi) == 1
    for i in range(4):
        for j in range(i):
            assert not (boxes[i].re.overlaps(boxes[j].re)
                        and boxes[i].im.overlaps(boxes[j].im))


_SALEM8 = [1, 0, 0, -1, -1, -1, 0, 0, 1]               # x^8-x^5-x^4-x^3+1
_LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
_NONMONIC = [F(1, 3), -2, F(5, 7), 0, 3]                # 3x^4+5/7x^2-2x+1/3


def _sympy_poly(p, x):
    import sympy
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p)], x)


def _count_or_boundary(p, rect):
    """sympy's count of the roots of p in the closed rectangle, or None when
    a root lies on its boundary (checked at 60 digits)."""
    import sympy
    x = sympy.symbols("x")
    sp = _sympy_poly(p, x)
    xlo, xhi, ylo, yhi = [sympy.Rational(c.numerator, c.denominator)
                          for c in map(F, rect)]
    tol = sympy.Rational(1, 10 ** 40)
    for r in sp.nroots(n=60):
        re, im = sympy.re(r), sympy.im(r)
        inside_x = xlo - tol <= re <= xhi + tol
        inside_y = ylo - tol <= im <= yhi + tol
        if ((inside_y and min(abs(re - xlo), abs(re - xhi)) < tol)
                or (inside_x and min(abs(im - ylo), abs(im - yhi)) < tol)):
            return None
    return sp.count_roots(xlo + sympy.I * ylo, xhi + sympy.I * yhi)


def test_count_roots_in_rect_vs_sympy():
    import sympy
    from gpnf.numberfield import _BoundaryRoot, count_roots_in_rect
    x = sympy.symbols("x")
    rng = random.Random(43)
    compared = 0
    for coeffs in ([-1, -1, 1], [-1, -1, 0, 1], [-1, -1, -1, 1],
                   [1, -1, -1, -1, 1], [1, 0, -1, -1, -1, 0, 1],
                   [1, 0, 0, 0, 1], _SALEM8, _LEHMER, _NONMONIC):
        p = tuple(coeffs)
        sp = _sympy_poly(p, x)
        for _ in range(25):
            xlo, xhi = sorted(rng.sample(range(-16, 17), 2))
            ylo, yhi = sorted(rng.sample(range(-16, 17), 2))
            rect = [F(c, 8) for c in (xlo, xhi, ylo, yhi)]
            try:
                got = count_roots_in_rect(p, *rect)
            except _BoundaryRoot:
                continue
            q = [sympy.Rational(c.numerator, c.denominator) for c in rect]
            assert got == sp.count_roots(q[0] + sympy.I * q[2],
                                         q[1] + sympy.I * q[3]), (coeffs, rect)
            compared += 1
    assert compared >= 50
    # Im p vanishes at the corner 2 + 2i of this rectangle's right edge
    assert count_roots_in_rect((1, 0, 0, 0, 1),
                               -2, 2, F(1, 16), 2) == 2


def test_count_roots_in_rect_corners_where_re_or_im_vanish():
    # p is real or purely imaginary at a corner, or along a whole edge, but
    # has no root on the boundary: Eisermann's half counts settle it without
    # a retry
    from gpnf.numberfield import count_roots_in_rect
    cases = [
        ([1, 0, 1], (F(3, 4), 2, F(5, 4), 2)),         # Re p(3/4+5i/4) = 0
        ([1, 0, 1], (-2, F(3, 4), -2, F(5, 4))),
        ([1, 0, 1], (0, 2, F(3, 2), 2)),               # Re z = 0: p real
        ([1, 0, 1], (-1, 1, 0, 2)),                    # Im z = 0: p real
        ([-1, -1, 1], (F(1, 2), 2, -1, 1)),            # Re z = 1/2: p real
        ([-1, -1, 1], (-1, F(1, 2), -1, 1)),
        ([1, 0, 0, 0, 1], (0, 2, 0, 2)),               # Im p = 0 on both axes
        ([1, 0, 0, 0, 1], (-2, 0, -2, 0)),
        ([1, 0, 0, 0, 1], (-1, 1, -1, 1)),
        ([1, -1, -1, -1, 1], (-1, F(1, 2), 0, 2)),     # real on Im z = 0
        (_SALEM8, (-2, 0, 0, 2)),
        (_LEHMER, (-2, 0, 0, 2)),
        (_NONMONIC, (-1, 0, 0, 1)),
    ]
    for coeffs, rect in cases:
        p = tuple(coeffs)
        expected = _count_or_boundary(p, rect)
        assert expected is not None, (coeffs, rect)
        assert count_roots_in_rect(p, *rect) == expected, (coeffs, rect)


def test_count_roots_in_rect_grid_corners_vs_sympy():
    # seeded rectangles with corners on the quarter grid of [-1, 1]^2, at
    # one corner of which Re p or Im p vanishes; boundary roots must raise
    from gpnf.intervals import ComplexBox, horner_box
    from gpnf.numberfield import _BoundaryRoot, count_roots_in_rect
    grid = [F(k, 4) for k in range(-4, 5)]
    rng = random.Random(44)
    counted = 0
    for coeffs in ([1, 0, 1], [-1, -1, 1], [1, 0, 0, 0, 1], _NONMONIC):
        p, P = tuple(coeffs), polys.canonical(coeffs)
        drawn = 0
        while drawn < 12:
            xlo, xhi = sorted(rng.sample(grid, 2))
            ylo, yhi = sorted(rng.sample(grid, 2))
            rect = (xlo, xhi, ylo, yhi)
            if all(v.re.lo * v.im.lo
                   for v in (horner_box(P, 1, ComplexBox.point(x, y))
                             for x in rect[:2] for y in rect[2:])):
                continue
            drawn += 1
            expected = _count_or_boundary(p, rect)
            if expected is None:
                with pytest.raises(_BoundaryRoot):
                    count_roots_in_rect(p, *rect)
            else:
                assert count_roots_in_rect(p, *rect) == expected, (coeffs, rect)
                counted += 1
    assert counted >= 30


def test_count_roots_in_rect_edge_through_root_raises():
    from gpnf.numberfield import _BoundaryRoot, count_roots_in_rect
    # x^2 + 1 with top edge y = 1 through i, and with left edge x = 0
    for rect in ((-1, 1, F(1, 2), 1), (0, 1, -2, 2), (-1, 1, -1, 1),
                 (-1, 0, F(-3, 2), F(-1, 2))):
        with pytest.raises(_BoundaryRoot):
            count_roots_in_rect((1, 0, 1), *rect)
    # x^2 - 1 has a root at the corner 1; x^2 - 2 one on the bottom edge
    with pytest.raises(_BoundaryRoot):
        count_roots_in_rect((-1, 0, 1), 1, 2, 0, 1)
    with pytest.raises(_BoundaryRoot):
        count_roots_in_rect((-2, 0, 1), 1, 2, 0, 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([[1, 0, 1], [-1, -1, 1], [1, -1, -1, -1, 1],
                        [1, 0, 0, 0, 1], _NONMONIC]),
       st.lists(st.integers(-16, 16), min_size=4, max_size=4, unique=True),
       st.integers(1, 15), st.booleans())
def test_count_roots_in_rect_additive(coeffs, ends, cut, vertical):
    # count(R) is the sum of the counts of the two halves of any split
    from gpnf.numberfield import _BoundaryRoot, count_roots_in_rect
    p = tuple(coeffs)
    xlo, xhi = sorted(F(c, 8) for c in ends[:2])
    ylo, yhi = sorted(F(c, 8) for c in ends[2:])
    if vertical:
        c = xlo + (xhi - xlo) * F(cut, 16)
        halves = ((xlo, c, ylo, yhi), (c, xhi, ylo, yhi))
    else:
        c = ylo + (yhi - ylo) * F(cut, 16)
        halves = ((xlo, xhi, ylo, c), (xlo, xhi, c, yhi))
    try:
        whole = count_roots_in_rect(p, xlo, xhi, ylo, yhi)
        parts = [count_roots_in_rect(p, *h) for h in halves]
    except _BoundaryRoot:
        return
    assert whole == sum(parts), (coeffs, (xlo, xhi, ylo, yhi), c)


# -- complex root refinement: fixed-point Newton, one Krawczyk proof -----------

# the field-build catalogue, then x^16+1, x^12-x-1, Lehmer's polynomial and
# x^8 - 2(101x - 1)^2, whose Newton starts often leave their rectangles
_CATALOGUE = ([-1, -1, 1], [-1, -2, 1], [-1, -1, 0, 1], [-1, -1, -1, 1],
              [-1, -1, -1, -1, 1], [-1, -1, -1, -1, -1, 1],
              [-1, -1, -1, -1, -1, -1, 1], [1, -1, -1, -1, 1],
              [1, 0, -1, -1, -1, 0, 1])
_X16 = [1] + [0] * 15 + [1]
_X12 = [-1, -1] + [0] * 10 + [1]
_CLOSE = [-2, 404, -20402, 0, 0, 0, 0, 0, 1]


@pytest.mark.parametrize("coeffs", _CATALOGUE + (_X16, _X12, _LEHMER, _CLOSE),
                         ids=lambda c: ",".join(map(str, c)))
def test_conjugate_boxes_hold_polyroots_roots(coeffs):
    # every conjugate box at 2^-128 and 2^-512 holds exactly one root found
    # by mpmath at 200 digits, and no two boxes hold the same root
    import mpmath
    K = NumberField(coeffs)
    with mpmath.workdps(200):
        roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=400,
                                 extraprec=800)

        def inside(q, lo, hi):
            return (mpmath.mpf(lo.numerator) / lo.denominator <= q
                    <= mpmath.mpf(hi.numerator) / hi.denominator)

        for bits in (128, 512):
            hits = []
            for j in range(K.degree):
                box = K.root_box(j, F(1, 2 ** bits))
                if K.is_real_root(j):
                    assert box.width <= F(1, 2 ** bits)
                    hit = [i for i, r in enumerate(roots)
                           if abs(mpmath.im(r)) < mpmath.mpf(10) ** -150
                           and inside(mpmath.re(r), box.lo, box.hi)]
                else:
                    assert box.re.width <= F(1, 2 ** bits)
                    assert box.im.width <= F(1, 2 ** bits)
                    hit = [i for i, r in enumerate(roots)
                           if inside(mpmath.re(r), box.re.lo, box.re.hi)
                           and inside(mpmath.im(r), box.im.lo, box.im.hi)]
                assert len(hit) == 1, (coeffs, bits, j)
                hits += hit
            assert sorted(hits) == list(range(K.degree))


def _upper_rects(p: tuple) -> list:
    from gpnf.numberfield import _isolate_complex_upper
    upper = (polys.degree(p) - len(polys.isolate_real_roots(p))) // 2
    return _isolate_complex_upper(p, upper)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=8),
       st.integers(1, 9), st.integers(1, 160))
def test_refine_rect_returns_isolating_box_inside_input(coeffs, lead, bits):
    # degree 2-8; the squarefree part keeps every distinct root
    from gpnf.numberfield import _box, _refine_rect, count_roots_in_rect
    p = polys.squarefree_part(coeffs + [lead])
    width = F(1, 2 ** bits)
    for rect in _upper_rects(p):
        box = _refine_rect(p, _box(rect), width)
        assert rect[0] <= box.re.lo < box.re.hi <= rect[1]
        assert rect[2] <= box.im.lo < box.im.hi <= rect[3]
        assert box.width <= width
        assert count_roots_in_rect(p, box.re.lo, box.re.hi, box.im.lo,
                                   box.im.hi) == 1


def _fallbacks(monkeypatch, coeffs, most: int) -> int:
    """Winding counts made while the isolating boxes of coeffs are refined
    to 2^-128 and then 2^-512; fails at once past `most`."""
    from gpnf import numberfield
    p = tuple(coeffs)
    boxes = [numberfield._box(r) for r in _upper_rects(p)]
    counted = numberfield.count_roots_in_rect
    calls = []

    def count(*args):
        calls.append(args)
        assert len(calls) <= most, "Newton keeps failing; bisection took over"
        return counted(*args)

    with monkeypatch.context() as m:
        m.setattr(numberfield, "count_roots_in_rect", count)
        for bits in (128, 512):
            boxes = [numberfield._refine_rect(p, Z, F(1, 2 ** bits))
                     for Z in boxes]
    return len(calls)


@pytest.mark.parametrize("coeffs", [_X16, _CLOSE], ids=["x16+1", "close"])
def test_refine_rect_falls_back_to_bisection(monkeypatch, coeffs):
    # Newton from the centre of some isolating rectangles of these fields
    # stops outside them or unconverged, so winding bisection runs
    assert 0 < _fallbacks(monkeypatch, coeffs, 100)


def test_refine_rect_catalogue_needs_few_bisections(monkeypatch):
    assert sum(_fallbacks(monkeypatch, c, 4) for c in _CATALOGUE) <= 4


def test_fixed_point_newton_lands_on_the_grid_root():
    from gpnf.numberfield import _newton
    t = 200
    # x^2 + 1 from 0.1 + 1.1i, and x^4 - x^3 - x^2 - x + 1 near its root
    # on the unit circle, -0.2367 + 0.9716i
    a, b = _newton([1, 0, 1], F(1, 10), F(11, 10), t)
    assert abs(a) <= 2 and abs(b - 2 ** t) <= 2
    a, b = _newton([1, -1, -1, -1, 1], F(-1, 4), F(97, 100), t)
    z = complex(a / 2 ** t, b / 2 ** t)
    assert abs(z ** 4 - z ** 3 - z ** 2 - z + 1) < 1e-12


def test_krawczyk_proves_only_boxes_holding_one_root():
    from gpnf.intervals import ComplexBox, RatInterval
    from gpnf.numberfield import _krawczyk_proves
    p = (1, 0, 1)
    dp = polys.derivative(p)
    h = F(1, 2 ** 20)

    def box(x, y, r=h):
        return ComplexBox(RatInterval(x - r, x + r), RatInterval(y - r, y + r))

    assert _krawczyk_proves(p, dp, box(F(0), F(1)), 20)
    assert _krawczyk_proves(p, dp, box(F(1, 2 ** 22), F(1)), 20)
    assert not _krawczyk_proves(p, dp, box(F(0), F(1) + 2 * h), 20)
    assert not _krawczyk_proves(p, dp, box(F(0), F(0), F(2)), 20)


def test_constant_minpoly_rejected():
    with pytest.raises(DegreeMismatch):
        NumberField([2])
    with pytest.raises(ValueError):
        NumberField([0, 0])


def test_not_squarefree():
    with pytest.raises(NotSquarefree):
        NumberField([1, -2, 1])   # (x-1)^2


def test_reducible_detected():
    with pytest.raises(ReducibleDetected):
        NumberField([-1, 0, 1])   # (x-1)(x+1)
    with pytest.raises(ReducibleDetected):
        NumberField([2, 3, 1])    # (x+1)(x+2)


@pytest.mark.parametrize("coeffs, factor", [
    ([-1018081, 0, 1], [1009, 1]),          # (x - 1009)(x + 1009)
    ([-1022117, -4, 1], [1009, 1]),         # (x - 1013)(x + 1009)
    ([-1022117, 6082, 7], [1013, 1]),       # (7x - 1009)(x + 1013)
    ([0, -2, 0, 1], [0, 1]),                # x (x^2 - 2)
])
def test_reducible_rational_root_beyond_small_divisors(coeffs, factor):
    with pytest.raises(ReducibleDetected) as exc:
        NumberField(coeffs)
    assert str(factor) in str(exc.value)


def _reported_factor(exc) -> tuple:
    """The integer factor named in a ReducibleDetected message."""
    listed = re.fullmatch(r".*factor with coefficients \[(-?\d+(?:, -?\d+)*)\]",
                          str(exc.value))
    assert listed, str(exc.value)
    return tuple(int(c) for c in listed.group(1).split(", "))


def _divides(g: tuple, p: list) -> bool:
    return 1 <= polys.degree(g) < len(p) - 1 and not polys.divmod_(p, g)[1]


def test_reducible_quadratic_factors_with_large_coefficients():
    p = [1, -4, -1022119, 4, 1]   # (x^2 - 1009x - 1)(x^2 + 1013x - 1)
    with pytest.raises(ReducibleDetected) as exc:
        NumberField(p)
    g = _reported_factor(exc)
    assert _divides(g, p)
    assert g in ((-1, -1009, 1), (-1, 1013, 1))


def test_reducible_product_of_salem_quartics():
    p = [1, -3, 2, -2, 5, -2, 2, -3, 1]  # (x^4-x^3-x^2-x+1)(x^4-2x^3+x^2-2x+1)
    assert polys._factor_degree_candidates(p) == [4]
    with pytest.raises(ReducibleDetected) as exc:
        NumberField(p)
    assert _divides(_reported_factor(exc), p)


@pytest.mark.parametrize("coeffs, signature", [
    ([1, 0, 0, 0, 1], (0, 2)),                  # x^4 + 1
    ([1, 0, 0, 0, 0, 0, 0, 0, 1], (0, 4)),      # x^8 + 1
    ([1, 0, -10, 0, 1], (4, 0)),                # x^4 - 10x^2 + 1
])
def test_irreducible_but_reducible_modulo_every_prime(coeffs, signature):
    # no prime rules out every factor degree, so recombination over the root
    # enclosures decides
    assert polys._factor_degree_candidates(coeffs)
    assert NumberField(coeffs).signature == signature


def test_irreducible_by_factor_degrees_modulo_primes():
    coeffs = [5, 0, 5, 0, 1]                    # x^4 + 5x^2 + 5, cyclic Galois group
    assert polys._factor_degree_candidates(coeffs) == []
    assert NumberField(coeffs).signature == (0, 2)


def _random_int_poly(rng, d: int, big: bool) -> list:
    bound = 10 ** rng.randint(4, 9) if big else rng.choice((1, 3, 9))
    return ([rng.randint(-bound, bound) for _ in range(d)]
            + [rng.choice((1, 1, -1, 2, 3, -5))])


def _differential_case(rng, k: int) -> list:
    """A squarefree integer polynomial of degree 2-12: for odd k a product of
    two random factors, else one random polynomial; every fifth has
    coefficients up to 10^9, at degree at most 6."""
    big = k % 5 == 0
    while True:
        m = rng.randint(2, 6 if big else 12)
        if k % 2:
            d = rng.randint(1, m - 1)
            a, b = _random_int_poly(rng, d, big), _random_int_poly(rng, m - d, False)
            p = [sum(a[i] * b[j - i] for i in range(max(0, j - m + d), min(j, d) + 1))
                 for j in range(m + 1)]
        else:
            p = _random_int_poly(rng, m, big)
        if polys.is_squarefree(p):
            return p


def test_reducible_detected_matches_sympy_factor_list():
    """ReducibleDetected is raised exactly when sympy finds two or more
    nonconstant factors, and the factor it names divides the polynomial."""
    import sympy
    x = sympy.symbols("x")
    rng = random.Random(2024)
    seen = set()
    for k in range(200):
        p = _differential_case(rng, k)
        _c, factors = sympy.factor_list(sum(c * x ** i for i, c in enumerate(p)))
        reducible = sum(e for f, e in factors if sympy.degree(f, x) > 0) >= 2
        if reducible:
            with pytest.raises(ReducibleDetected) as exc:
                NumberField(p)
            assert _divides(_reported_factor(exc), p), p
        else:
            assert NumberField(p).degree == len(p) - 1
        seen.add((reducible, len(p) - 1 > 8, abs(p[-1]) > 1,
                  max(map(abs, p)) > 10 ** 4))
    # both answers, degrees above 8, non-monic and large coefficients occur
    assert {r for r, *_ in seen} == {False, True}
    assert all(any(t[i] for t in seen) for i in range(1, 4))


def test_irreducible_with_large_constant_builds():
    K = NumberField([-2 * 1018081, 0, 1])   # x^2 - 2036162: no rational root
    assert K.signature == (2, 0)


def test_unchecked_reducible_field_with_rational_roots():
    # roots +-1 refine to points, so the tie |-1| = |1| is an exact zero sum
    K = NumberField([-1, 0, 1], check_reducible=False)
    assert K.signature == (2, 0)
    assert K.distinguished == 1
    with pytest.raises(ReducibleDetected,
                       match=r"factor with coefficients \[-1, 1\]$"):
        (K.beta - 1).inverse()       # a zero divisor: beta - 1 divides 0


def test_no_real_root_error():
    with pytest.raises(NoRealRoot):
        NumberField([1, 0, 1], require_real_distinguished=True)


def test_degree_one_field():
    K = NumberField([-3, 2])     # 2x - 3
    assert K.degree == 1
    assert K.beta == F(3, 2)
    assert certified_floor(K.beta) == 1


def test_canonical_root_order(K_salem):
    # real roots ascending first, then the complex pair, upper first
    assert K_salem.is_real_root(0) and K_salem.is_real_root(1)
    r0 = K_salem.root_box(0, F(1, 1000)).mid
    r1 = K_salem.root_box(1, F(1, 1000)).mid
    assert r0 < r1
    up = K_salem.root_box(2, F(1, 1000))
    lo = K_salem.root_box(3, F(1, 1000))
    assert up.im.lo > 0 and lo.im.hi < 0
    assert K_salem.conj_index(2) == 3 and K_salem.conj_index(3) == 2


def test_distinguished_prefers_positive_on_tie(K_sqrt2):
    # |sqrt2| = |-sqrt2|: the positive root wins
    box = K_sqrt2.root_box(K_sqrt2.distinguished, F(1, 1000))
    assert box.lo > 0


@pytest.mark.parametrize("coeffs,index", [
    ([1, -3, 0, 1], 0),          # roots -1.88, 0.35, 1.53: the first end wins
    ([1, 0, -10, 0, 1], 3),      # roots +-3.15, +-0.32: tie, positive root
    ([5, 0, -5, 0, 1], 3),       # roots +-1.90, +-1.18: tie, positive root
])
def test_distinguished_is_an_end_of_the_real_roots(coeffs, index):
    K = NumberField(coeffs)
    assert K.signature[0] == K.degree
    assert K.distinguished == index


def test_root_boxes_disjoint_and_contain_roots(K_plastic, K_salem):
    for K in (K_plastic, K_salem):
        floats = durand_kerner(K.monic_minpoly)
        boxes = [K.root_box(j, F(1, 2 ** 40)) for j in range(K.degree)]
        # every float root lies in exactly one box
        for r in floats:
            hits = 0
            for b in boxes:
                if hasattr(b, "re"):
                    if (b.re.lo - F(1, 10 ** 6) <= F(r.real) <= b.re.hi + F(1, 10 ** 6)
                            and b.im.lo - F(1, 10 ** 6) <= F(r.imag) <= b.im.hi + F(1, 10 ** 6)):
                        hits += 1
                else:
                    if abs(r.imag) < 1e-9 and b.lo - F(1, 10 ** 6) <= F(r.real) <= b.hi + F(1, 10 ** 6):
                        hits += 1
            assert hits == 1


# -- arithmetic ----------------------------------------------------------------

def test_defining_relation(K_phi):
    phi = K_phi.beta
    assert phi * phi == phi + 1


def test_inverse(K_phi):
    phi = K_phi.beta
    inv = 1 / phi
    assert inv == phi - 1
    assert inv * phi == 1


def test_additive_inverse(K_phi):
    phi = K_phi.beta
    assert (phi + (-phi)).is_zero()


def test_division_by_zero(K_phi):
    with pytest.raises(DivisionByZero):
        K_phi.one / K_phi.zero


def test_field_mismatch(K_phi, K_sqrt2):
    with pytest.raises(FieldMismatch):
        K_phi.beta + K_sqrt2.beta


def test_ring_axioms_randomized(K_phi, K_sqrt2, K_plastic, K_salem, rng):
    for K in (K_phi, K_sqrt2, K_plastic, K_salem):
        for _ in range(25):
            a, b, c = (random_element(K, rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            if not b.is_zero():
                assert (a / b) * b == a


def test_negative_powers_of_unit(K_phi):
    phi = K_phi.beta
    assert phi ** -3 == (1 / phi) ** 3
    assert phi ** -2 * phi ** 5 == phi ** 3


# -- trace, norm, characteristic polynomial -----------------------------------

def test_trace_examples(K_sqrt2, K_phi):
    r2 = K_sqrt2.beta
    assert r2.trace() == 0
    assert (r2 + 3).trace() == 6
    assert K_phi.beta.norm() == -1
    assert K_phi.element(F(5, 7)).norm() == F(25, 49)   # q^m for rational q


def test_char_poly_examples(K_phi):
    phi = K_phi.beta
    assert phi.char_poly() == (-1, -1, 1)
    assert phi.is_algebraic_integer()
    half_phi = phi * F(1, 2)
    assert half_phi.char_poly() == (F(-1, 4), F(-1, 2), 1)
    assert not half_phi.is_algebraic_integer()
    assert K_phi.element(5).is_algebraic_integer()


def test_trace_linear(K_plastic, rng):
    for _ in range(30):
        a, b = random_element(K_plastic, rng), random_element(K_plastic, rng)
        q = F(rng.randint(-9, 9), rng.randint(1, 4))
        assert (a * q + b).trace() == q * a.trace() + b.trace()


def test_trace_vs_embeddings(K_salem, rng):
    # the trace lies in the sum of the embedding boxes at every precision
    for _ in range(10):
        x = random_element(K_salem, rng)
        for prec in (16, 50, 90):
            total = None
            for j in range(K_salem.degree):
                b = x.embed(j, prec)
                r = b.re if hasattr(b, "re") else b
                total = r if total is None else total + r
            assert total.contains(x.trace())


def test_norm_vs_embeddings(K_plastic, rng):
    from gpnf.intervals import ComplexBox, RatInterval
    for _ in range(10):
        x = random_element(K_plastic, rng)
        total = ComplexBox.point(1)
        for j in range(K_plastic.degree):
            b = x.embed(j, 60)
            if not hasattr(b, "re"):
                b = ComplexBox(b, RatInterval.point(0))
            total = total * b
        assert total.re.contains(x.norm())
        assert total.im.contains(0)


def test_gram_matrix_nondegenerate(K_sqrt2):
    # trace-form Gram on the power basis of Q(sqrt2): [[2,0],[0,4]]
    b = [K_sqrt2.one, K_sqrt2.beta]
    G = [[(x * y).trace() for y in b] for x in b]
    assert G == [[2, 0], [0, 4]]
    assert G[0][0] * G[1][1] - G[0][1] * G[1][0] == 8


def test_alg_integers_closed(K_salem, rng):
    ints = []
    while len(ints) < 6:
        x = K_salem.element([rng.randint(-3, 3) for _ in range(4)])
        if x.is_algebraic_integer():
            ints.append(x)
    for a in ints[:3]:
        for b in ints[3:]:
            assert (a + b).is_algebraic_integer()
            assert (a * b).is_algebraic_integer()


# -- embeddings and floors ------------------------------------------------------

def test_embed_precision(K_phi):
    box = K_phi.beta.embed(None, 80)
    assert box.width <= F(2, 2 ** 80)
    assert float(box.mid) == pytest.approx(1.618033988749895, abs=1e-12)


def test_embed_rational_is_point(K_phi):
    assert K_phi.element(F(3, 7)).embed(None, 10).width == 0


def test_embed_other_root(K_phi):
    box = K_phi.beta.embed(0, 30)
    assert float(box.mid) == pytest.approx(-0.618033988749895, abs=1e-8)


def test_floor_examples(K_phi):
    phi = K_phi.beta
    assert certified_floor(phi) == 1
    assert certified_floor(K_phi.element(2)) == 2
    assert certified_nint(phi) == 2
    assert certified_dist(phi) == 2 - phi
    assert certified_frac(phi) == phi - 1
    assert certified_ceil(phi) == 2


def test_floor_tie_paths(K_phi):
    # exact integers and half-integers exercise the equality decisions
    assert certified_floor(K_phi.element(-3)) == -3
    assert certified_nint(K_phi.element(F(5, 2))) == 3   # halves round up
    assert certified_nint(K_phi.element(F(-5, 2))) == -2
    assert certified_dist(K_phi.element(F(7, 2))) == F(1, 2)


def test_floor_sandwich_randomized(K_plastic, K_salem, rng):
    for K in (K_plastic, K_salem):
        for _ in range(40):
            x = random_element(K, rng, span=20)
            n = certified_floor(x)
            assert x.compare_rational(n) >= 0
            assert x.compare_rational(n + 1) < 0


def test_floor_of_rational_multiples(K_sqrt2):
    # floor(sqrt2 * q) against the independent float value
    r2 = K_sqrt2.beta
    import math
    for q in range(-50, 50):
        got = certified_floor(r2 * q)
        assert got == math.floor(math.sqrt(2) * q)


def test_floor_complex_embedding_rejected(K_salem):
    with pytest.raises(ComplexEmbedding):
        certified_floor(K_salem.beta, 2)


def test_compare_elements(K_phi):
    phi = K_phi.beta
    assert compare_elements(phi, K_phi.element(1)) == 1
    assert compare_elements(phi, phi) == 0
    assert compare_elements(phi - 1, K_phi.one) == -1


def test_floats_agree_with_embeddings(K_plastic, K_salem, rng):
    for K in (K_plastic, K_salem):
        for _ in range(10):
            x = random_element(K, rng)
            vals = sorted(embed_floats(x), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
            got = []
            for j in range(K.degree):
                b = x.embed(j, 40)
                if hasattr(b, "re"):
                    got.append(complex(float(b.re.mid), float(b.im.mid)))
                else:
                    got.append(complex(float(b.mid), 0.0))
            got = sorted(got, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
            for a, b in zip(vals, got):
                assert abs(a - b) < 1e-6


def test_power_sums_match_lucas(K_phi):
    assert K_phi.power_sums(6) == [2, 1, 3, 4, 7, 11, 18]


# every entry point that takes a root index resolves it in one place: None
# is the distinguished root, and an index outside 0 <= j < degree is a
# typed error, not an IndexError or a wrap to the last conjugate
ROOT_INDEX_ENTRIES = {
    "embed": lambda x, j: x.embed(j),
    "compare_rational": lambda x, j: x.compare_rational(0, j),
    "certified_floor": certified_floor,
    "root_box": lambda x, j: x.field.root_box(j),
    "from_embedding": algebraic.RealAlg.from_embedding,
    "re_of_embedding": algebraic.re_of_embedding,
    "im_of_embedding": algebraic.im_of_embedding,
    "abs_sq_of_embedding": algebraic.abs_sq_of_embedding,
    "embedding_is_real": algebraic.embedding_is_real,
    "complex_floor": algebraic.complex_floor,
    "of_embedding": Value.of_embedding,
}


@pytest.mark.parametrize("j", [3, 7, -1])
@pytest.mark.parametrize("entry", sorted(ROOT_INDEX_ENTRIES))
def test_root_index_out_of_range(K_plastic, entry, j):
    x = K_plastic.element([1, 2, 3])
    with pytest.raises(OutOfRange):
        ROOT_INDEX_ENTRIES[entry](x, j)


def test_root_index_resolves_none_to_distinguished(K_plastic):
    assert K_plastic.root_index() == K_plastic.distinguished
    assert [K_plastic.root_index(j) for j in range(3)] == [0, 1, 2]


@pytest.mark.parametrize("coeffs", [[-1, -1, 1], [1, 0, 1], [-1, -1, 0, 1]],
                         ids=["phi", "i", "plastic"])
@pytest.mark.parametrize("entry", sorted(ROOT_INDEX_ENTRIES))
def test_root_index_none_is_the_distinguished_root(entry, coeffs):
    # the same answer, or the same error (complex_floor at a real root, a
    # real-only entry at i), on a fresh field each time, since a refined
    # root would narrow the enclosures that the answers print
    def outcome(index):
        K = NumberField(coeffs)
        x = K.element(list(range(1, K.degree + 1)))
        try:
            out = ROOT_INDEX_ENTRIES[entry](x, index(K))
        except GpnfError as e:
            return type(e)
        return repr(getattr(out, "payload", out))

    assert outcome(lambda K: None) == outcome(lambda K: K.distinguished)


@pytest.mark.parametrize("coeffs", [[1, -1, -1, -1, 1], [1, 0, 0, 0, 1]],
                         ids=["salem4", "x4+1"])
def test_conjugates_share_one_box(coeffs):
    # a lower root has no box of its own: it reads its upper conjugate's
    K = NumberField(coeffs)
    for upper in K.upper_root_indices():
        lower = K.conj_index(upper)
        for w in (F(1, 2 ** 40), F(1, 2 ** 100)):
            assert K._roots[upper].box.width > w
            low = K.root_box(lower, w)
            assert K._roots[upper].box.width <= w
            assert low == K.root_box(upper, w).conj() and low.im.hi < 0
