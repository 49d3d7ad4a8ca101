"""The integer scalar core of FieldElement: an integer coordinate vector over
one positive denominator, kept canonical.  Ring axioms and the canonical
form are property-tested; multiplication is checked against sympy."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gpnf.numberfield import FieldElement, NumberField

FIELDS = {
    "golden": NumberField([-1, -1, 1]),             # x^2 - x - 1
    "plastic": NumberField([-1, -1, 0, 1]),         # x^3 - x - 1
    "salem": NumberField([1, -1, -1, -1, 1]),       # x^4 - x^3 - x^2 - x + 1
    "nonmonic": NumberField([-3, 0, 2]),            # 2x^2 - 3
}

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
field_names = st.sampled_from(sorted(FIELDS))


@st.composite
def elements(draw, field, nonzero=False):
    x = field.element(draw(st.lists(rationals, min_size=field.degree,
                                    max_size=field.degree)))
    if nonzero and x.is_zero():
        x = field.one
    return x


@st.composite
def triples(draw):
    f = FIELDS[draw(field_names)]
    return draw(elements(f)), draw(elements(f)), draw(elements(f, nonzero=True))


def canonical(x: FieldElement) -> FieldElement:
    assert isinstance(x.den, int) and x.den > 0
    assert len(x.num) == x.field.degree
    assert all(isinstance(a, int) for a in x.num)
    assert gcd(x.den, *x.num) == 1
    return x


def test_reduction_table_denominator():
    assert FIELDS["golden"]._red_den == 1
    assert FIELDS["salem"]._red_den == 1
    K = FIELDS["nonmonic"]
    assert K._red_den == 2
    assert canonical(K.beta * K.beta) == F(3, 2)


@settings(max_examples=60, deadline=None)
@given(triples())
def test_ring_axioms(xyz):
    x, y, z = xyz
    assert canonical((x * y) * z) == canonical(x * (y * z))
    assert canonical((x + y) + z) == canonical(x + (y + z))
    assert x * y == y * x and x + y == y + x
    assert canonical(x * (y + z)) == x * y + x * z
    assert canonical(z * canonical(z.inverse())) == 1
    assert canonical((x + y) - y) == x
    assert canonical(x - x).is_zero() and (x - x).den == 1


@settings(max_examples=60, deadline=None)
@given(triples(), rationals, st.integers(-30, 30))
def test_scalar_paths_are_canonical(xyz, q, n):
    x, _y, z = xyz
    f = x.field
    for got, want in ((x * n, x * f.element(n)), (x * q, x * f.element(q)),
                      (x + n, x + f.element(n)), (x + q, x + f.element(q)),
                      (-x, f.zero - x), (z ** -2, (z * z).inverse()),
                      (x / z, x * z.inverse()), (n / z, f.element(n) / z),
                      (q / z, f.element(q) / z)):
        assert canonical(got) == want
        assert hash(got) == hash(want)


def test_rtruediv_takes_any_exact_rational_numerator():
    z = FIELDS["golden"].beta
    assert 2.5 / z == "5/2" / z == F(5, 2) * z.inverse()


@settings(max_examples=60, deadline=None)
@given(triples())
def test_eq_and_hash_agree_across_constructions(xyz):
    x, y, _z = xyz
    for v in (x, x * y, x + y):
        rebuilt = v.field.element(list(v.coords))
        assert rebuilt == v and hash(rebuilt) == hash(v)
        assert (rebuilt.num, rebuilt.den) == (v.num, v.den)
    if x.is_rational():
        q = x.as_rational()
        assert x == q and x == x.field.element(q)


@settings(max_examples=60, deadline=None)
@given(field_names, st.data())
def test_coords_round_trip(name, data):
    f = FIELDS[name]
    cs = data.draw(st.lists(rationals, min_size=f.degree, max_size=f.degree))
    x = canonical(f.element(cs))
    assert x.coords == tuple(cs)
    assert all(type(c) is F for c in x.coords)
    assert FieldElement(f, x.coords) == x
    with pytest.raises(AttributeError):
        x.coords = x.coords


@settings(max_examples=40, deadline=None)
@given(triples())
def test_from_traces_inverts_the_trace_form(xyz):
    x, _y, _z = xyz
    f = x.field
    traces = [(f.beta ** j * x).trace() for j in range(f.degree)]
    assert canonical(f.from_traces(traces)) == x
    with pytest.raises(ValueError):
        f.from_traces(traces[1:])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_mul_against_sympy_rem(name):
    f = FIELDS[name]
    t = sympy.Symbol("t")
    minpoly = sum(sympy.Rational(int(c)) * t ** i
                  for i, c in enumerate(f.minpoly_int))
    rng = random.Random(4 + f.degree)
    for _ in range(25):
        ca, cb = ([F(rng.randint(-40, 40), rng.randint(1, 9))
                   for _ in range(f.degree)] for _ in range(2))
        got = canonical(f.element(ca) * f.element(cb))
        a = sum(sympy.Rational(c.numerator, c.denominator) * t ** i
                for i, c in enumerate(ca))
        b = sum(sympy.Rational(c.numerator, c.denominator) * t ** i
                for i, c in enumerate(cb))
        r = sympy.Poly(sympy.rem(sympy.expand(a * b), minpoly, t), t)
        want = [F(int(c.p), int(c.q)) for c in reversed(r.all_coeffs())]
        want += [F(0)] * (f.degree - len(want))
        assert list(got.coords) == want


# degree 1-8: 2x - 3, 2x^2 - 3, 3x^3 - 2x + 5, the Salem quartic, x^5 - x - 1,
# x^6 - x^4 - x^3 - x^2 + 1, x^7 - x - 1 and x^8 - x^5 - x^4 - x^3 + 1, built
# with the irreducibility proof on (the non-monic ones skip the primes that
# divide their leading coefficient)
INVARIANT_FIELDS = {
    1: [-3, 2], 2: [-3, 0, 2], 3: [5, -2, 0, 3], 4: [1, -1, -1, -1, 1],
    5: [-1, -1, 0, 0, 0, 1], 6: [1, 0, -1, -1, -1, 0, 1],
    7: [-1, -1, 0, 0, 0, 0, 0, 1], 8: [1, 0, 0, -1, -1, -1, 0, 0, 1],
}


def _sym_coeffs(p, t):
    """Ascending Fractions of a sympy polynomial in t."""
    return [F(int(c.p), int(c.q))
            for c in reversed(sympy.Poly(p, t, domain="QQ").all_coeffs())]


@pytest.mark.parametrize("m", sorted(INVARIANT_FIELDS))
def test_invariants_against_sympy_mult_matrix(m):
    """trace, norm, char_poly, minimal_poly and inverse against the sympy
    matrix of multiplication modulo f, its trace, det and charpoly, and
    sympy.invert, on seeded elements (zero, rationals, powers of beta and
    random vectors)."""
    f = NumberField(INVARIANT_FIELDS[m])
    t, lam = sympy.symbols("t lam")
    minpoly = sum(int(c) * t ** i for i, c in enumerate(f.minpoly_int))
    rng = random.Random(40 + m)
    xs = [f.zero, f.element(F(-7, 3)), f.beta, f.beta ** m + 1]
    xs += [f.element([F(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(m)]) for _ in range(6)]
    for x in xs:
        a = sum(sympy.Rational(c.numerator, c.denominator) * t ** i
                for i, c in enumerate(x.coords))
        cols = [_sym_coeffs(sympy.rem(sympy.expand(a * t ** j), minpoly, t), t)
                for j in range(m)]
        M = sympy.Matrix(m, m, lambda i, j: (cols[j] + [0] * m)[i])
        cpoly = sympy.Poly(M.charpoly(lam).as_expr(), lam, domain="QQ")
        cp = _sym_coeffs(cpoly, lam)
        assert x.trace() == F(str(M.trace()))
        assert x.norm() == F(str(M.det()))
        assert x.char_poly() == tuple(cp)
        assert x.minimal_poly() == tuple(
            _sym_coeffs(sympy.sqf_part(cpoly).monic(), lam))
        assert x.is_unit() == (all(c.denominator == 1 for c in cp)
                               and abs(cp[0]) == 1)
        if x.is_zero():
            continue
        want = _sym_coeffs(sympy.invert(a, minpoly, t), t)
        assert list(canonical(x.inverse()).coords) == want + [F(0)] * (m - len(want))


# Q(phi), the plastic field, Lehmer's field (x^10 + x^9 - x^7 - x^6 - x^5 -
# x^4 - x^3 + x + 1) and Q(2^(1/4))
MINPOLY_FIELDS = {
    "golden": [-1, -1, 1], "plastic": [-1, -1, 0, 1],
    "lehmer": [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1],
    "quartic-root-2": [-2, 0, 0, 0, 1],
}


@pytest.mark.parametrize("name", sorted(MINPOLY_FIELDS))
def test_cached_minimal_poly_matches_the_computation(name):
    """The cached minimal polynomial of each element is the one computed
    afresh (the squarefree part of its char poly, in integer form), on
    seeded elements, in every order and after a cache clear."""
    f = NumberField(MINPOLY_FIELDS[name])
    m = f.degree
    rng = random.Random(60 + m)
    xs = [f.element(F(-7, 3)), f.beta, f.beta ** 2, f.beta ** m - f.beta]
    xs += [f.element([F(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(m)]) for _ in range(6)]
    fresh = FieldElement._minimal_poly_int.__wrapped__
    want = [fresh(x) for x in xs]
    FieldElement._minimal_poly_int.cache_clear()
    for _ in range(2):
        assert [x._minimal_poly_int() for x in xs] == want
        assert [FieldElement(f, x.coords)._minimal_poly_int()
                for x in reversed(xs)] == want[::-1]
    assert FieldElement._minimal_poly_int.cache_info().hits >= 3 * len(xs)


def test_minimal_poly_of_a_non_generator():
    # beta^2 in Q(2^(1/4)) has char poly (x^2 - 2)^2 and minimal poly x^2 - 2
    f = NumberField(MINPOLY_FIELDS["quartic-root-2"])
    x = f.beta ** 2
    assert x.char_poly() == (4, 0, -4, 0, 1)
    assert x._minimal_poly_int() == (-2, 0, 1)
    assert x.minimal_poly() == (-2, 0, 1)
    assert (x * F(1, 3))._minimal_poly_int() == (-2, 0, 9)
