import cmath
import random
from fractions import Fraction

import pytest
import sympy

from gpnf.numberfield import NumberField


X = sympy.Symbol("x")


def qq(p):
    """The sympy polynomial over QQ with the ascending rational (int or
    Fraction) coefficients p: the reference arithmetic of the tests."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p)] or [0], X, domain="QQ")


def from_qq(poly):
    """The ascending Fraction coefficients of a sympy polynomial; () for
    zero."""
    if poly.is_zero:
        return ()
    return tuple(Fraction(int(c.p), int(c.q))
                 for c in reversed(poly.all_coeffs()))


def poly_mul(*ps):
    """The product of rational polynomials given by ascending coefficients,
    by sympy, as Fractions."""
    out = qq((1,))
    for p in ps:
        out *= qq(p)
    return from_qq(out)


@pytest.fixture(scope="session")
def K_phi():
    return NumberField([-1, -1, 1])        # x^2 - x - 1


@pytest.fixture(scope="session")
def K_sqrt2():
    return NumberField([-2, 0, 1])         # x^2 - 2


@pytest.fixture(scope="session")
def K_plastic():
    return NumberField([-1, -1, 0, 1])     # x^3 - x - 1


@pytest.fixture(scope="session")
def K_salem():
    return NumberField([1, -1, -1, -1, 1])  # x^4 - x^3 - x^2 - x + 1


@pytest.fixture()
def rng():
    return random.Random(20260808)


def durand_kerner(coeffs, iters=400):
    """Float roots of a polynomial given by ascending exact coefficients.
    Independent numeric oracle (no library root code involved)."""
    cs = [complex(c) for c in coeffs]
    lead = cs[-1]
    cs = [c / lead for c in cs]
    n = len(cs) - 1
    roots = [(0.4 + 0.9j) ** k for k in range(1, n + 1)]
    for _ in range(iters):
        delta = 0.0
        new = []
        for i, r in enumerate(roots):
            val = 0j
            for c in reversed(cs):
                val = val * r + c
            den = 1 + 0j
            for j, s in enumerate(roots):
                if j != i:
                    den *= (r - s)
            step = val / den if den != 0 else 0
            new.append(r - step)
            delta = max(delta, abs(step))
        roots = new
        if delta < 1e-14:
            break
    return roots


def embed_floats(x):
    """All conjugate values of a field element, as floats, via the
    independent root finder."""
    return [v for _r, v in embed_float_pairs(x)]


def embed_float_pairs(x):
    """(root, value) pairs over all conjugates, via the independent root
    finder; the first entry is the distinguished embedding per the
    documented convention (real root of largest modulus, positive on a
    tie; first root when none is real)."""
    roots = durand_kerner(x.field.monic_minpoly)
    pairs = []
    for r in roots:
        val = 0j
        for c in reversed(x.coords):
            val = val * r + complex(c)
        pairs.append((r, val))
    reals = [p for p in pairs if abs(p[0].imag) < 1e-9]
    if reals:
        dist = max(reals, key=lambda p: (round(abs(p[0]), 9), p[0].real))
        pairs.remove(dist)
        pairs.insert(0, dist)
    return pairs


def random_element(field, rng, span=6, denoms=(1, 1, 2, 3)):
    return field.element([Fraction(rng.randint(-span, span), rng.choice(denoms))
                          for _ in range(field.degree)])


def detector_oracle(x, tol=1e-7):
    """Definition-level (is_pisot, is_salem) via independent float
    conjugates, anchored on the distinguished embedding."""
    pairs = embed_float_pairs(x)
    vals = [v for _r, v in pairs]
    prod = 1
    for v in vals:
        prod *= v
    es = [1.0 + 0j]
    integral = True
    for v in vals:
        new = [1.0 + 0j]
        for k in range(1, len(es) + 1):
            prev = es[k] if k < len(es) else 0
            new.append(prev + v * es[k - 1])
        es = new
    for e in es[1:]:
        if abs(e.imag) > tol or abs(e.real - round(e.real)) > tol:
            integral = False
    unit = integral and abs(abs(prod) - 1) < tol
    v0, others = vals[0], vals[1:]
    big0 = abs(v0.imag) < tol and v0.real > 1 + tol
    small = [v for v in others if abs(v) < 1 - tol]
    circle = [v for v in others if abs(abs(v) - 1) <= tol]
    is_pisot = unit and big0 and len(small) == len(others)
    is_salem = (unit and big0 and len(small) == 1
                and len(circle) == len(others) - 1 and len(circle) >= 2
                and abs(small[0] * v0 - 1) < tol)
    return is_pisot, is_salem


def detector_suite(fields, rng, per_field=50):
    """A deterministic 200-element suite spanning the four stock fields."""
    suite = []
    for K in fields:
        b = K.beta
        gens = [b ** k for k in range(-3, 7) if k != 0]
        gens += [-b, b + 1, b - 1, b * 2, K.one, K.zero - 2,
                 K.element(Fraction(1, 2)), b ** 2 + 1]
        while len(gens) < per_field:
            gens.append(random_element(K, rng, span=3))
        suite.extend(gens[:per_field])
    return suite
