"""`polys.gcd` by the heuristic gcd against the remainder-chain gcd.

`polys.gcd` evaluates both canonical forms at an integer xi, takes
one integer gcd, reads its symmetric base-xi digits back as a polynomial and
keeps that only when it divides both inputs exactly; xi grows a few times
before the remainder chain decides.  The oracle is the canonical last entry
of `cauchy_chain`, the gcd that `polys.gcd` returned before.
"""

import random
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from conftest import poly_mul, qq
from gpnf import polys as P


def chain_gcd(p, q):
    A, B = list(P.canonical(p)), list(P.canonical(q))
    return P.canonical(P.cauchy_chain(A, B)[-1])


def first_xi(A, B):
    return 2 * min(max(map(abs, A)), max(map(abs, B))) + 2


coeff = st.integers(-30, 30)
ints = st.lists(coeff, max_size=6)
rats = st.lists(st.fractions(-9, 9, max_denominator=6), max_size=5)


@settings(max_examples=400, deadline=None)
@given(st.one_of(ints, rats), st.one_of(ints, rats), st.one_of(ints, rats))
@example([], [], [])
@example([1, 1], [], [])
@example([1, 1], [5], [0, 1])
@example([0, 1], [0, 1], [1])
@example([0, 0, 1], [-1, 0, 1], [3, 0, 1])
def test_gcd_matches_chain_with_planted_factor(f, u, v):
    a, b = poly_mul(f, u), poly_mul(f, v)
    want = chain_gcd(a, b)
    assert P.gcd(a, b) == want == P.gcd(b, a)
    if a and b:  # the planted factor divides the gcd
        assert qq(want).rem(qq(f)).is_zero


def test_gcd_of_zero_and_constants():
    assert P.gcd((), ()) == ()
    assert P.gcd((), (F(-3), F(6))) == (-1, 2)
    assert P.gcd((F(4),), (F(-3), F(6))) == (1,)
    assert P.gcd((F(-3), F(6)), (F(4),)) == (1,)
    assert P.gcd((F(4),), ()) == (1,)


def _random_int_poly(rng, degree, size):
    return [rng.randint(-size, size) for _ in range(degree)] + [
        rng.choice((-1, 1)) * rng.randint(1, size)]


def test_first_xi_fails_and_gcd_still_agrees():
    """Inputs on which the first evaluation point fails the division check
    (a spurious integer factor of gcd(A(xi), B(xi)), such as xi itself when
    x divides both) exist, and the grown xi or the chain still gives the
    chain's gcd on them."""
    rng = random.Random(20261019)
    failed = 0
    for _ in range(400):
        f = _random_int_poly(rng, rng.randint(0, 3), 3)
        g, h = (_random_int_poly(rng, rng.randint(1, 4), 3) for _ in range(2))
        A, B = list(P.canonical(poly_mul(f, g))), list(P.canonical(poly_mul(f, h)))
        if P._heu_gcd(A, B, first_xi(A, B)) is None:
            failed += 1
            assert P.gcd(A, B) == chain_gcd(A, B), (A, B)
    assert failed >= 1


def test_heuristic_gcd_at_the_first_xi():
    # xi = 4: gcd(A(4), B(4)) = gcd(4, 20) = 4 reads back as x, which
    # divides both
    assert P._heu_gcd([0, 1], [0, 1, 1], first_xi([0, 1], [0, 1, 1])) == [0, 1]
    # xi = 6: gcd(A(6), B(6)) = 33 holds a spurious 3 next to (2x - 1)(6)
    # = 11; its digits read back x^2 - x + 3, which is refused
    A, B = [0, 1, -2], [3, -8, 1, 6, -2, 4]
    assert P._heu_gcd(A, B, first_xi(A, B)) is None
    assert P.gcd(A, B) == chain_gcd(A, B) == (-1, 2)


def test_large_resolvent_squarefree_part_without_chain(monkeypatch):
    """The squarefree part of the degree-64 sum resolvent of x^8 - x - 1
    comes from the heuristic gcd: no remainder chain is built."""
    S = P.sum_poly((-1, -1, 0, 0, 0, 0, 0, 0, 1), (-1, -1, 0, 0, 0, 0, 0, 0, 1))
    want = P._int_divexact(list(S), list(chain_gcd(S, P.derivative(S))))
    calls = []
    real = P.cauchy_chain
    monkeypatch.setattr(P, "cauchy_chain", lambda u, v: calls.append(1) or real(u, v))
    assert P.squarefree_part(S) == P.canonical(want)
    assert calls == []
