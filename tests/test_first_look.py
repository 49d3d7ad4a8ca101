"""The first look of `certified_floor`.

It reads root j's current enclosure once and runs the integer Horner step
on the element's coordinates.  The first look decides when that box pins
one unit interval; otherwise the enclosure stream decides.  The powers
phi^k of the golden ratio pin both paths: phi^k plus its conjugate
(-1/phi)^k is the Lucas number L_k, so floor(phi^k) is L_k - 1 for even k
and L_k for odd k, at a distance phi^-k from L_k.
"""

from fractions import Fraction as F

import pytest

from gpnf.intervals import horner_ints
from gpnf.numberfield import NumberField, certified_floor


def lucas(k):
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def golden(refine_bits=None):
    f = NumberField([-1, -1, 1])
    if refine_bits is not None:
        f.root_box(f.distinguished, F(1, 2 ** refine_bits))
    return f


def floor_phi_power(k):
    return lucas(k) - 1 if k % 2 == 0 else lucas(k)


def test_fresh_field_takes_the_stream():
    # a fresh field's root enclosure (refined to about 2^-16 while the field
    # is built) pins floor(phi^k) only for small k; for the others the
    # first-look box straddles an integer and the stream refines the root
    streamed = []
    for k in range(1, 91):
        f = golden()
        x = f.beta ** k
        iv = f._roots[f.distinguished].box
        lo, hi, den = x._first_look(f.distinguished)
        assert certified_floor(x) == floor_phi_power(k), k
        refined = f._roots[f.distinguished].box is not iv
        assert refined == (lo // den != hi // den), k
        streamed.append(refined)
    assert all(streamed[20:])


def test_refined_field_takes_the_first_look():
    f = golden(400)
    iv = f._roots[f.distinguished].box
    for k in range(1, 91):
        x = f.beta ** k
        assert certified_floor(x) == floor_phi_power(k), k
        assert certified_floor(-x) == -floor_phi_power(k) - 1, k
        L = lucas(k)
        assert x.compare_rational(L) == (1 if k % 2 else -1), k
        assert x.compare_rational(L - 1) == 1 and x.compare_rational(L + 1) == -1
    # nothing above refined the root: every answer came from the first look
    assert f._roots[f.distinguished].box is iv


def test_straddling_first_look_falls_through_to_the_stream():
    # phi^150 = L_150 - phi^-150, about 2^-104 below L_150; the first-look box
    # at a root width of 2^-130 is about 2^-27 wide and straddles L_150
    f = golden(130)
    x = f.beta ** 150
    L = lucas(150)
    lo, hi, den = x._first_look(f.distinguished)
    assert lo < L * den < hi
    assert (hi - lo) * 2 ** 26 < den
    assert certified_floor(x) == L - 1
    assert x.compare_rational(L) == -1


@pytest.mark.parametrize("k", [2, 3, 40, 41])
def test_first_look_box_encloses(k):
    f = golden(200)
    lo, hi, den = (f.beta ** k)._first_look(f.distinguished)
    # a box at most 2^-100 wide around phi^k, which lies at least 2^-29
    # from every integer
    assert lo < hi and (hi - lo) * 2 ** 100 < den
    assert lo // den == hi // den == floor_phi_power(k)


def test_first_look_follows_a_refinement():
    # the root keeps the integer form of its enclosure between first looks;
    # once root_box narrows the root, the next first look must use the
    # integers of the new interval, not those kept for the old one
    f = golden(40)
    j = f.distinguished
    x = f.beta ** 7 - 3
    before = x._first_look(j)
    old = f._roots[j].box
    f.root_box(j, F(1, 2 ** 120))
    new = f._roots[j].box
    assert new is not old
    for iv, look in ((old, before), (new, x._first_look(j))):
        lo, hi, dk = horner_ints(x.num, *iv._t)
        assert look == (lo, hi, x.den * dk)
    assert x._first_look(j) != before
