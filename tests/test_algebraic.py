import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gpnf.algebraic import (RealAlg, abs_sq_of_embedding, complex_floor,
                            embedding_is_real, im_of_embedding,
                            re_of_embedding)
from gpnf.errors import RealEmbedding
from gpnf.numberfield import NumberField


def test_rational_fast_paths():
    a = RealAlg.from_rational(F(7, 3))
    assert a.floor() == 2
    assert a.nint() == 2
    assert a.compare_rational(F(7, 3)) == 0
    assert a.add_rational(F(1, 3)).compare_rational(F(8, 3)) == 0


def test_embedding_values(K_phi):
    a = RealAlg.from_embedding(K_phi.beta)
    assert a.floor() == 1
    assert a.compare_rational(F(1618, 1000)) == 1
    assert a.compare_rational(F(1619, 1000)) == -1
    b = RealAlg.from_embedding(K_phi.beta, 0)
    assert b.floor() == -1


def test_sum_collapses_to_trace(K_phi):
    a = RealAlg.from_embedding(K_phi.beta, 1)
    b = RealAlg.from_embedding(K_phi.beta, 0)
    s = a.add(b)
    assert s.eq_rational(1)          # trace of phi


def test_product_collapses_to_norm(K_phi):
    a = RealAlg.from_embedding(K_phi.beta, 1)
    b = RealAlg.from_embedding(K_phi.beta, 0)
    assert a.mul(b).eq_rational(-1)  # norm of phi


def test_cross_field_product(K_phi, K_sqrt2):
    a = RealAlg.from_embedding(K_phi.beta)       # 1.618...
    r2 = RealAlg.from_embedding(K_sqrt2.beta)    # 1.414...
    p = a.mul(r2)
    assert p.floor() == 2
    assert p.compare_rational(F(2288, 1000)) == 1
    # (phi * sqrt2)^2 = phi^2 * 2: check against the exact field value
    sq = p.mul(p)
    phi2 = K_phi.beta * K_phi.beta
    twice = RealAlg.from_embedding(phi2 + phi2)
    assert sq.add(twice.mul_rational(-1)).eq_rational(0)


def test_refine_zero_width_raises(K_sqrt2):
    r2 = RealAlg.from_embedding(K_sqrt2.beta)
    with pytest.raises(ValueError):
        r2.refine(F(0))
    r2.refine(F(1, 2 ** 40))
    assert r2.hi - r2.lo <= F(1, 2 ** 40)
    RealAlg.from_rational(F(1, 3)).refine(F(0))


def test_negation_and_scaling(K_sqrt2):
    r2 = RealAlg.from_embedding(K_sqrt2.beta)
    assert (-r2).floor() == -2
    assert r2.mul_rational(F(-3, 2)).floor() == -3   # -2.121...
    assert r2.mul_rational(0).eq_rational(0)


def test_exact_zero_recognition(K_sqrt2):
    r2 = RealAlg.from_embedding(K_sqrt2.beta)
    z = r2.mul(r2)
    assert z.eq_rational(2)
    z2 = r2.add(-r2)
    assert z2.eq_rational(0)


def test_embedding_is_real(K_salem):
    beta = K_salem.beta
    assert embedding_is_real(beta, 0)
    assert not embedding_is_real(beta, 2)
    # beta + 1/beta maps onto the unit circle sum 2 cos(theta): real
    x = beta + beta.inverse()
    assert embedding_is_real(x, 2)


def test_re_im_of_salem_conjugate(K_salem):
    beta = K_salem.beta
    re = re_of_embedding(beta, 2)
    im = im_of_embedding(beta, 2)
    # the circle conjugate of the quartic: real part (1 - beta - 1/beta)/2
    expected_re = (1 - float(K_salem.root_box(1, F(1, 2 ** 40)).mid)
                   - 1 / float(K_salem.root_box(1, F(1, 2 ** 40)).mid)) / 2
    got_re = float(re.refined_interval(F(1, 2 ** 40)).mid)
    assert got_re == pytest.approx(expected_re, abs=1e-9)
    assert got_re == pytest.approx(-0.65138768649, abs=1e-6)
    got_im = float(im.refined_interval(F(1, 2 ** 40)).mid)
    assert got_im == pytest.approx(math.sqrt(1 - expected_re ** 2), abs=1e-9)
    # Re^2 + Im^2 = 1 exactly on the circle, via the product resolvent
    # (generic RealAlg products of these degree-13 values would be far
    # more expensive; abs_sq_of_embedding is the intended route)
    assert abs_sq_of_embedding(K_salem.beta, 2).eq_rational(1)


def test_abs_sq_exact_circle(K_salem):
    assert abs_sq_of_embedding(K_salem.beta, 2).eq_rational(1)
    assert abs_sq_of_embedding(K_salem.beta, 0).compare_rational(1) == -1


def test_abs_sq_real_embedding(K_phi):
    a = abs_sq_of_embedding(K_phi.beta, 0)
    # (-0.618)^2 = 0.381966... = (3 - sqrt5)/2, a root of x^2 - 3x + 1
    assert a.compare_rational(F(38, 100)) == 1
    assert a.compare_rational(F(39, 100)) == -1


def test_complex_floor_examples(K_salem):
    assert complex_floor(K_salem.beta, 2) == (-1, 0)
    Ki = NumberField([1, 0, 1])
    assert complex_floor(Ki.beta, 0) == (0, 1)
    half = (Ki.one + Ki.beta) * F(1, 2)
    assert complex_floor(half, 0) == (0, 0)
    with pytest.raises(RealEmbedding):
        complex_floor(K_salem.beta, 1)


def test_complex_floor_gaussian_tie():
    Ki = NumberField([1, 0, 1])
    # 2 + i hits both components exactly
    x = Ki.element([2, 1])
    assert complex_floor(x, 0) == (2, 1)


def test_floor_near_integer(K_phi):
    # phi^18 = 5777.999826...: floors must not round up
    x = K_phi.beta ** 18
    a = RealAlg.from_embedding(x)
    assert a.floor() == 5777
    # and the exact integer 5778 = phi^18 + phi^-18 is recognized
    y = x + x.inverse()
    b = RealAlg.from_embedding(y)
    assert b.floor() == 5778
    assert b.eq_rational(5778)


_PHI, _SQRT2 = NumberField([-1, -1, 1]), NumberField([-2, 0, 1])
_small = st.fractions(-9, 9, max_denominator=7)
_steps = st.lists(st.tuples(
    st.sampled_from(["add", "mul", "neg", "add_rational", "mul_rational"]),
    _small, st.sampled_from([_PHI, _SQRT2])), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(_small, _small.filter(bool), _steps)
def test_poly_stays_canonical(c0, c1, steps):
    """After every operation an irrational value's defining polynomial is a
    tuple of ints with content 1 and a positive leading coefficient."""
    a = RealAlg.from_embedding(_PHI.element([c0, c1]))
    for op, q, field in steps:
        if op in ("add", "mul"):
            b = RealAlg.from_embedding(field.element([q, 1]))
            a = a.add(b) if op == "add" else a.mul(b)
        elif op == "neg":
            a = -a
        else:
            a = getattr(a, op)(q)
        if a.rat is None:
            assert all(type(c) is int for c in a.poly)
            assert math.gcd(*a.poly) == 1 and a.poly[-1] > 0
            assert a.lo < a.hi
