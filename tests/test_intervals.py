import random
from fractions import Fraction as F

import pytest

from gpnf.intervals import (ComplexBox, RatInterval, common_den, horner_box,
                            horner_interval)


def _rand_interval(rng, span=8):
    a = F(rng.randint(-span, span), rng.randint(1, 5))
    w = F(rng.randint(0, 4), rng.randint(1, 7))
    return RatInterval(a, a + w)


def _sample(iv, rng):
    t = F(rng.randint(0, 16), 16)
    return iv.lo + t * (iv.hi - iv.lo)


def test_soundness_under_ops():
    rng = random.Random(11)
    for _ in range(200):
        A, B = _rand_interval(rng), _rand_interval(rng)
        a, b = _sample(A, rng), _sample(B, rng)
        assert (A + B).contains(a + b)
        assert (A - B).contains(a - b)
        assert (A * B).contains(a * b)
        assert A.sq().contains(a * a)
        assert A.pow(3).contains(a ** 3)
        if not B.contains(0):
            assert (A / B).contains(a / b)


def test_recip_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        RatInterval(F(-1), F(1)).recip()


def test_sign_and_mig():
    assert RatInterval(F(1), F(2)).sign() == 1
    assert RatInterval(F(-2), F(-1)).sign() == -1
    assert RatInterval(F(-1), F(1)).sign() is None
    assert RatInterval(F(-1), F(1)).mig == 0
    assert RatInterval(F(2), F(3)).mig == 2


def test_poly_interval_sound():
    rng = random.Random(12)
    coeffs = [F(1), F(-2), F(3)]
    (num,), den = common_den([coeffs])
    for _ in range(50):
        iv = _rand_interval(rng)
        x = _sample(iv, rng)
        val = coeffs[0] + coeffs[1] * x + coeffs[2] * x * x
        assert horner_interval(num, den, iv).contains(val)


def test_complex_box_ops_sound():
    rng = random.Random(13)
    for _ in range(100):
        A = ComplexBox(_rand_interval(rng), _rand_interval(rng))
        B = ComplexBox(_rand_interval(rng), _rand_interval(rng))
        ar, ai = _sample(A.re, rng), _sample(A.im, rng)
        br, bi = _sample(B.re, rng), _sample(B.im, rng)
        S = A + B
        assert S.re.contains(ar + br) and S.im.contains(ai + bi)
        Pr = A * B
        assert Pr.re.contains(ar * br - ai * bi)
        assert Pr.im.contains(ar * bi + ai * br)
        assert A.abs_sq().contains(ar * ar + ai * ai)
        assert A.conj().im.contains(-ai)
        if not A.abs_sq().contains(0):
            nrm = ar * ar + ai * ai
            R = A.recip()
            assert R.re.contains(ar / nrm) and R.im.contains(-ai / nrm)


def test_complex_pow():
    box = ComplexBox.point(0, 1)
    p4 = box.pow(4)
    assert p4.re.contains(1) and p4.im.contains(0)


def test_complex_pow_negative():
    def cpow(re, im, n):  # exact (re + i im)^n for n >= 0
        out = (F(1), F(0))
        for _ in range(n):
            out = (out[0] * re - out[1] * im, out[0] * im + out[1] * re)
        return out

    assert ComplexBox.point(2).pow(-1).contains(F(1, 2))
    box = ComplexBox(RatInterval(F(3, 2), F(8, 5)), RatInterval(F(-2, 5), F(1, 3)))
    for n in (1, 3):
        inv = box.pow(-n)
        for re in (box.re.lo, box.re.mid, box.re.hi):
            for im in (box.im.lo, F(0), box.im.hi):
                pr, pi = cpow(re, im, n)
                nrm = pr * pr + pi * pi
                assert inv.contains(pr / nrm, -pi / nrm)


def test_horner_box_at_a_point():
    out = horner_box((1, 0, 1), 1, ComplexBox.point(0, 1))  # z^2 + 1 at i
    assert out == ComplexBox.point(0, 0)


def test_approx_str():
    s = RatInterval.point(F(1, 3)).approx_str(6)
    assert s.startswith("0.333333")


def test_approx_str_beyond_four_integer_digits():
    assert RatInterval.point(F(123456789, 7)).approx_str(6) == "17636684.142857"
    assert RatInterval.point(F(-10 ** 30, 3)).approx_str(2) == \
        "-333333333333333333333333333333.33"
    # a carry into a fifth integer digit
    assert RatInterval.point(F(99999999, 10000)).approx_str(3) == "10000.000"
    assert RatInterval.point(F(0)).approx_str(21) == "0E-21"


def test_approx_str_keeps_the_callers_decimal_context():
    import decimal
    before = decimal.getcontext().prec
    RatInterval(F(1, 3), F(2, 3)).approx_str(50)
    RatInterval.point(F(10 ** 9, 7)).approx_str(50)
    assert decimal.getcontext().prec == before


def test_int_ends_become_fractions():
    iv = RatInterval(1, 2)
    assert type(iv.lo) is F and type(iv.hi) is F
    assert iv.mid == F(3, 2) and type(iv.mid) is F
    r = iv.recip()
    assert (r.lo, r.hi) == (F(1, 2), F(1))
    assert type(r.lo) is F and type(r.hi) is F
    assert iv.approx_str(3) == "1.500"
    assert RatInterval(F(1, 3), 1).approx_str(6) == "0.666667"


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", None])
def test_non_rational_ends_rejected(bad):
    for make in (lambda: RatInterval(bad, 2), lambda: RatInterval(F(-1), bad),
                 lambda: RatInterval.point(bad)):
        with pytest.raises(TypeError):
            make()
