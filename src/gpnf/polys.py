"""Exact univariate polynomial arithmetic over the rationals, on integers.

Polynomials are tuples of ints in ascending order of power, in canonical
form: content 1 and a positive leading coefficient; the zero polynomial is
the empty tuple.  `canonical` brings rational coefficients (ints or
Fractions) to that form, and every function that depends only on the roots
of its arguments applies it to them.  `Fraction`s appear only in results
built for a caller: bounds, power sums, isolating intervals, the quotient
and remainder of `divmod_`, the resultant and the monic view `monic`;
`refine_root` takes and returns a `RatInterval`, on its integer ends.  One
integer Sturm chain counts real roots: the signed remainder chain of an
integer pair (u, v) gives twice the Cauchy index of v/u, with a root at an
end counted 1/2.  For (u, v) = (P, P') that is an exact count of the
distinct roots of p in an open interval, ends that are roots included,
which drives isolation and refinement of real roots; for (Re p, Im p) on a
line it gives the edge terms of winding counts; the last entry of the chain
of (p, q) is their gcd, on which `gcd` falls back when the heuristic
integer gcd fails.  Gcds give squarefree parts and tests.  Also here: the
factor degrees an integer polynomial can have, from distinct-degree
factorisation modulo primes; resultants; and the polynomials vanishing at
sums and products of roots, built from power sums by Newton's identities,
and at shifts and scalings of roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd as igcd, isqrt, lcm
from typing import Iterable

from .errors import OutOfRange, PrecisionExhausted
from .intervals import RatInterval, common_den, horner_ints

# The most bits a refinement may be asked for (PrecisionExhausted past it),
# far past any decision the library makes: every refinement loop ends.
CEILING_BITS = 1 << 24

Poly = tuple  # ints in canonical form, ascending powers


def canonical(p: Iterable) -> tuple:
    """The canonical form of the rational polynomial p (ints or Fractions,
    ascending): trailing zeros dropped, then scaled to ints with content 1
    and a positive leading coefficient."""
    f = list(p)
    while f and f[-1] == 0:
        f.pop()
    den = lcm(1, *[c.denominator for c in f])
    f = [c.numerator * (den // c.denominator) for c in f]
    g = igcd(*f)
    if f and f[-1] < 0:
        g = -g
    return tuple(c // g for c in f) if g not in (0, 1) else tuple(f)


def monic(p: Poly) -> tuple:
    """The monic view of a nonzero polynomial, as Fractions: the form built
    for callers such as `minimal_poly` and `LinRecSeq.charpoly`."""
    return tuple(Fraction(c, p[-1]) for c in p)


def degree(p: Poly) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def derivative(p: Poly) -> list:
    """p' as a list, ascending; ints for an integer p."""
    return [i * c for i, c in enumerate(p)][1:]


def divmod_(p: Poly, q: Poly) -> tuple:
    """(quotient, remainder) of p by q != 0 over Q, exactly, on integers.
    With p = A / a and q = B / b for integer A and B, c = lead(B) and
    n = deg A - deg B + 1, c^n A = Q B + R for integer Q and R
    (pseudo-division), so long division of c^n A by B divides exactly by c
    at every step; b Q / (a c^n) and R / (a c^n) are returned as Fractions,
    trailing zeros dropped."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    ((A,), a), ((B,), b) = common_den([p]), common_den([q])
    dq, c = len(B) - 1, B[-1]
    n = max(0, len(A) - dq)
    cn = c ** n
    r, quo = [x * cn for x in A], [0] * n
    for k in range(n - 1, -1, -1):
        quo[k] = t = r[k + dq] // c
        for i in range(dq):
            r[k + i] -= t * B[i]
    return _over([x * b for x in quo], a * cn), _over(r[:dq], a * cn)


def _over(f: list, s: int) -> tuple:
    """The integer polynomial f divided by s, as Fractions, trailing zeros
    dropped."""
    while f and f[-1] == 0:
        f.pop()
    return tuple(Fraction(a, s) for a in f)


_GCDHEU_TRIES = 4  # evaluation points tried before the remainder chain


def gcd(p: Poly, q: Poly) -> tuple:
    """Canonical gcd of p and q (zero when both are zero).

    The heuristic gcd GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput.
    7, 1989) comes first: for the canonical forms A and B, both of
    degree at least 1, one integer gcd of A(xi) and B(xi) at a large integer
    xi is read back as a polynomial (`_heu_gcd`), and kept only when it
    divides both exactly, which proves it is the gcd.  xi grows a few
    times; then the last entry of the integer remainder chain of A and B
    decides."""
    A, B = list(canonical(p)), list(canonical(q))
    if len(A) > 1 and len(B) > 1:
        xi = 2 * min(max(map(abs, A)), max(map(abs, B))) + 2
        for _ in range(_GCDHEU_TRIES):
            G = _heu_gcd(A, B, xi)
            if G is not None:
                return canonical(G)
            xi = xi * 73794 // 27011  # about xi times the golden ratio
    return canonical(cauchy_chain(A, B)[-1])


def _heu_gcd(A: list, B: list, xi: int):
    """gcd(A, B) for primitive integer A and B of degree at least 1 from
    h = gcd(A(xi), B(xi)), or None.  The digits of h in base xi, each in
    (-xi/2, xi/2], are the coefficients of a polynomial whose primitive
    part G is returned when it divides both A and B.  For xi at least
    2 min(|A|, |B|) + 2 (max norms), h is not 0, as xi exceeds the Cauchy
    bound of A or of B, and such a G is the gcd."""
    h = igcd(horner_at(A, xi, 1)[0], horner_at(B, xi, 1)[0])
    G, half = [], xi // 2
    while h:
        d = h % xi
        if d > half:
            d -= xi
        G.append(d)
        h = (h - d) // xi
    G = _int_primitive(G)
    try:
        _int_divexact(A, G)
        _int_divexact(B, G)
    except ArithmeticError:
        return None
    return G


def squarefree_part(p: Poly) -> tuple:
    """p divided by gcd(p, p'), in canonical form.  The division runs on
    the canonical forms, whose quotient is an integer polynomial (Gauss's
    lemma)."""
    P = canonical(p)
    g = gcd(P, derivative(P))
    return canonical(_int_divexact(P, g)) if len(g) > 1 else P


def is_squarefree(p: Poly) -> bool:
    return degree(p) <= 0 or degree(gcd(p, derivative(p))) == 0


def horner_at(f: list, a: int, d: int) -> tuple:
    """(acc, d^k): f(a / d) = acc / d^k for the ints f, ascending, with
    k = len(f) - 1 >= 0 and d > 0, by homogeneous Horner; acc has the sign
    of f(a / d)."""
    acc, dk = f[-1], 1
    for c in f[-2::-1]:
        dk *= d
        acc = acc * a + c * dk
    return acc, dk


def _int_divexact(a: list, b: list) -> list:
    """a / b for integer polynomials (lists of ints, ascending) whose
    quotient has integer coefficients; ArithmeticError otherwise."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + db], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c
        for i in range(db):
            r[k + i] -= c * b[i]
    if any(r[:db]):
        raise ArithmeticError("inexact polynomial division")
    return q


def cauchy_bound(p: Poly) -> Fraction:
    """All complex roots have modulus < 1 + max|a_i/lead|."""
    if len(p) < 2:
        return Fraction(1)
    lc = abs(p[-1])
    return 1 + max(Fraction(abs(c), lc) for c in p[:-1])


# -- integer Sturm chains of a pair (u, v) -----------------------------------
# The signed remainder chain u, v, -rem(u, v), ... gives twice the Cauchy
# index of v/u as a difference of sign variations, with Eisermann's
# convention that a zero next to a nonzero sign counts 1/2 (M. Eisermann,
# Amer. Math. Monthly 119, 2012).  Polynomials here are lists of ints,
# ascending; every step scales by a positive integer, which keeps all signs.

def _int_primitive(f: list) -> list:
    g = igcd(*f)
    return [c // g for c in f] if g > 1 else f


def _int_prem(a: list, b: list) -> list:
    """A positive multiple of the remainder of a by b; b nonzero."""
    a, lb, db = list(a), b[-1], len(b) - 1
    m, s = abs(lb), (lb > 0) - (lb < 0)
    while len(a) > db:
        k, c = len(a) - 1 - db, s * a[-1]
        a = [m * x for x in a]
        for i in range(db):
            a[k + i] -= c * b[i]
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def cauchy_chain(u: list, v: list) -> list:
    """Signed remainder chain u, v, -rem, ... of integer polynomials, each
    made primitive; its last entry is gcd(u, v) up to a nonzero factor.
    A zero v ends the chain at u."""
    chain = [_int_primitive(u)] + ([_int_primitive(v)] if v else [])
    while len(chain) >= 2:
        r = _int_prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in _int_primitive(r)])
    return chain


def int_sign_at(f: list, x: Fraction) -> int:
    """Sign of the integer polynomial f at the rational x."""
    acc = horner_at(f, x.numerator, x.denominator)[0] if f else 0
    return (acc > 0) - (acc < 0)


def _variations2(chain: list, x: Fraction) -> int:
    """Twice the sign variations of the chain at x; a zero next to a
    nonzero sign counts 1."""
    signs = [int_sign_at(f, x) for f in chain]
    return sum(abs(s - t) for s, t in zip(signs, signs[1:]))


def cauchy_index2(chain: list, a: Fraction, b: Fraction) -> int:
    """Twice the Cauchy index of chain[1]/chain[0] from a to b, with half
    jumps at endpoints where chain[0] vanishes; requires the chain's last
    entry not to vanish at a or b."""
    return _variations2(chain, a) - _variations2(chain, b)


# -- real roots ---------------------------------------------------------------
# The Sturm chain of p is the chain of (P, P'), P the canonical form of p.
# Twice the Cauchy index of P'/P on [lo, hi] is twice the number of distinct
# roots of p inside plus one for each end that is a root, whenever gcd(P, P')
# does not vanish at lo or hi.

def sturm_chain(p: Poly) -> list:
    """Integer Sturm chain P, P', -rem, ... of p (P the canonical form of
    p, as a list); its last entry is gcd(P, P')."""
    P = list(canonical(p))
    return cauchy_chain(P, derivative(P))


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def count_roots(chain: list, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of nonzero p in the open interval
    (lo, hi), lo < hi, for chain = sturm_chain(p); exact whenever gcd(P, P')
    does not vanish at lo or hi, so for every squarefree p."""
    P = chain[0]
    return (cauchy_index2(chain, lo, hi) - (int_sign_at(P, lo) == 0)
            - (int_sign_at(P, hi) == 0)) // 2


def isolate_real_roots(p: Poly) -> list:
    """Isolating intervals for the distinct real roots of p, ascending.

    Returns a list of (lo, hi) pairs with lo < hi, p(lo) != 0 != p(hi), and
    exactly one root in each open interval -- except that exact rational
    roots appear as point pairs (r, r).
    """
    if degree(p) < 1:
        return []
    chain = sturm_chain(p)
    out = []

    def is_root(x):
        return int_sign_at(chain[0], x) == 0

    def walk(lo, hi, n):
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if is_root(mid):
            # shrink around mid until the gap holds mid alone and the flanks
            # have clean endpoints
            eps = (hi - lo) / 4
            while (is_root(mid - eps) or is_root(mid + eps)
                   or count_roots(chain, mid - eps, mid + eps) != 1):
                eps /= 2
            nl = count_roots(chain, lo, mid - eps)
            walk(lo, mid - eps, nl)
            out.append((mid, mid))
            walk(mid + eps, hi, n - 1 - nl)
        else:
            nl = count_roots(chain, lo, mid)
            walk(lo, mid, nl)
            walk(mid, hi, n - nl)

    bound = cauchy_bound(chain[0])
    walk(-bound, bound, count_roots(chain, -bound, bound))
    return out


# -- factor degrees modulo primes ---------------------------------------------
# Modulo a prime p that divides neither the leading coefficient nor the
# discriminant, an integer factor of degree d of P reduces to a product of
# some of the irreducible factors of P mod p, so d is a sum of their degrees.
# Distinct-degree factorisation gives those degrees (Cohen, "A Course in
# Computational Algebraic Number Theory", Algorithm 3.4.3).  Polynomials over
# GF(p) are lists of ints in [0, p), ascending, without trailing zeros.

_DEGREE_PRIMES = 8  # good primes tried before the degrees left go to recombination


def _gfp_divmod(a: list, b: list, p: int) -> tuple:
    """(quotient, remainder) of a by monic b over GF(p)."""
    r, db = list(a), len(b) - 1
    q = [0] * max(0, len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = q[k] = r[k + db]
        if c:
            for i in range(db):
                r[k + i] = (r[k + i] - c * b[i]) % p
    r = r[:db]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _gfp_monic(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gfp_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd over GF(p); a nonzero."""
    while b:
        b = _gfp_monic(b, p)
        a, b = b, _gfp_divmod(a, b, p)[1]
    return _gfp_monic(a, p)


def _gfp_mulmod(a: list, b: list, f: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _gfp_divmod([c % p for c in out], f, p)[1]


def _gfp_factor_degrees(f: list, p: int) -> list:
    """Degrees of the irreducible factors of squarefree monic f over GF(p):
    once the factors of degree below i are divided out, the product of those
    of degree i is gcd(x^(p^i) - x, f)."""
    out, h, i = [], [0, 1], 0
    while 2 * (i + 1) <= len(f) - 1:
        i += 1
        e, base, h = p, h, [1]
        while e:  # h <- h^p mod f
            if e & 1:
                h = _gfp_mulmod(h, base, f, p)
            e >>= 1
            if e:
                base = _gfp_mulmod(base, base, f, p)
        hx = h + [0] * (2 - len(h))
        hx[1] = (hx[1] - 1) % p
        while hx and hx[-1] == 0:
            hx.pop()
        g = _gfp_gcd(f, hx, p)
        if len(g) > 1:
            out += [i] * ((len(g) - 1) // i)
            f = _gfp_divmod(f, g, p)[0]
            h = _gfp_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append(len(f) - 1)
    return out


def _factor_degree_candidates(P: list) -> list:
    """The degrees d with 1 <= d <= m/2 that a factor of the squarefree
    integer polynomial P of degree m can still have: the intersection, over
    the first few primes p dividing neither the leading coefficient nor the
    discriminant, of the sums of factor degrees of P mod p.  An empty list
    proves P irreducible over Q."""
    m = len(P) - 1
    full = 1 | 1 << m
    mask, good, p = (1 << (m + 1)) - 1, 0, 1
    while good < _DEGREE_PRIMES and mask != full:
        p += 1
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)) or P[-1] % p == 0:
            continue
        f = _gfp_monic([c % p for c in P], p)
        df = [i * c % p for i, c in enumerate(f)][1:]
        while df and df[-1] == 0:
            df.pop()
        if len(_gfp_gcd(f, df, p)) > 1:  # p divides the discriminant
            continue
        good += 1
        sums = 1
        for e in _gfp_factor_degrees(f, p):
            sums |= sums << e
        mask &= sums
    return [d for d in range(1, m // 2 + 1) if mask >> d & 1]


def dyadic_down(q: Fraction, t: int) -> Fraction:
    """Largest multiple of 2^-t that is <= q."""
    return Fraction((q.numerator << t) // q.denominator, 1 << t)


def _width_bits(w: Fraction) -> int:
    """Roughly -log2(w), never underestimating by more than 1."""
    if w <= 0:
        return 0
    return max(0, w.denominator.bit_length() - w.numerator.bit_length() + 1)


def refine_root(p: Poly, iv: RatInterval, width: Fraction) -> RatInterval:
    """Refine an isolating interval of squarefree p down to the given width.

    Interval Newton steps give quadratic convergence once the enclosure is
    tight; bisection on the sign of p against its sign just right of lo is
    the fallback, and the only step when an end of iv is a root (p then has
    the sign of p'(lo) there, as its roots are simple).  Point intervals
    pass through unchanged; a midpoint that hits the root exactly collapses
    the interval to a point.  A width that is no int or Fraction raises
    TypeError, and one <= 0 OutOfRange (a ValueError) unless the interval
    is already a point.  The steps run on integers: the canonical
    form P of p, a rational multiple that keeps roots and Newton quotients,
    and the ends [A, B] / D of iv.  The interval returned holds the
    rationals that the same steps give on Fractions.  A width past
    `CEILING_BITS` bits raises PrecisionExhausted.
    """
    if not isinstance(width, (int, Fraction)):
        raise TypeError("refine_root width must be an int or a Fraction, "
                        f"not {type(width).__name__}")
    A, B, D = iv._t
    if A == B:
        return iv
    if width <= 0:
        raise OutOfRange(f"cannot refine {iv} to width {width}")
    wn, wd = width.numerator, width.denominator
    if (B - A) * wd <= wn * D:
        return iv
    if _width_bits(width) > CEILING_BITS:
        raise PrecisionExhausted("refine_root past the ceiling", iv)
    P = canonical(p)
    n = len(P) - 1
    dP = derivative(P)
    slo, shi = horner_at(P, A, D)[0], horner_at(P, B, D)[0]
    newton = slo * shi < 0  # else an end is a root: bisections only
    slo = slo or horner_at(dP, A, D)[0]  # the sign just right of lo
    while (B - A) * wd > wn * D:
        M, D2 = A + B, 2 * D  # mid = M / D2
        fm = horner_at(P, M, D2)[0]
        if fm == 0:
            return RatInterval.over(M, M, D2)
        L, H, _ = horner_ints(dP, A, B, D)  # P'(iv) in [L, H] / D^(n-1)
        if newton and (L > 0 or H < 0):
            # Newton: the root lies in mid - P(mid) / P'(iv), whose ends
            # are (M 2^(n-1) E - fm) / (2^n D E) for E = L, H.  Round them
            # outward to multiples of 2^-t, so denominators stay linear in
            # the precision instead of doubling every step.
            t = 2 * _width_bits(Fraction(B - A, D)) + 8
            el, eh = (L, H) if fm > 0 else (H, L)
            c = M << (n - 1)
            nlo = ((c * el - fm) << t) // ((D * el) << n)
            nhi = -(((fm - c * eh) << t) // ((D * eh) << n))
            Ds = lcm(D, 1 << t)
            k, kt = Ds // D, Ds >> t
            nlo, nhi = max(A * k, nlo * kt), min(B * k, nhi * kt)
            if nlo <= nhi and 8 * (nhi - nlo) <= 7 * k * (B - A):
                slo = horner_at(P, nlo, Ds)[0]
                if slo == 0:
                    return RatInterval.over(nlo, nlo, Ds)
                if horner_at(P, nhi, Ds)[0] == 0:
                    return RatInterval.over(nhi, nhi, Ds)
                A, B, D = nlo, nhi, Ds
                continue
        A, B, D = (M, 2 * B, D2) if (fm > 0) == (slo > 0) else (2 * A, M, D2)
    return RatInterval.over(A, B, D)


# -- resultants --------------------------------------------------------------

def resultant(p: Poly, q: Poly) -> Fraction:
    """Res(p, q), exactly, as a Fraction: by the Euclidean rules Res(a, b) =
    (-1)^(deg a deg b) lead(b)^(deg a - deg r) Res(b, r) for the remainder r
    of a by b (`divmod_`) and Res(b, k R) = k^(deg b) Res(b, R) for r = k R
    with R canonical, so that every remainder is taken on integers."""
    if not p or not q:
        return Fraction(0)
    a, b = p, q
    res = Fraction(1)
    while len(b) > 1:
        r = divmod_(a, b)[1]
        if not r:
            return Fraction(0)
        R = canonical(r)
        da, db, dr = len(a) - 1, len(b) - 1, len(r) - 1
        res *= (-1) ** (da * db) * b[-1] ** (da - dr) * (r[-1] / R[-1]) ** db
        a, b = b, R
    return res * b[0] ** (len(a) - 1)


# -- composed sums and products ----------------------------------------------
# The power sums of the roots determine a monic polynomial (Newton's
# identities), and those of the sums and products of roots follow from the
# operands' power sums; see Bostan, Flajolet, Salvy and Schost, "Fast
# computation of special resultants", J. Symbolic Comput. 41 (2006).  All of
# it runs on integers: scaled by c = lead of its canonical form,
# each operand's roots are algebraic integers, and so are their sums and
# products, whose power sums are integers and whose polynomial has integer
# coefficients; its roots are scaled back by one factor at the end.

def _scaled_roots(p: Poly) -> tuple:
    """(F, c): c = a_m for the canonical form a_m x^m + ... + a_0 of p, and
    F the monic integer polynomial whose roots are c times the roots of p,
    y^m + sum a_i c^(m-1-i) y^i."""
    a = canonical(p)
    m, c = len(a) - 1, a[-1]
    return [a[i] * c ** (m - 1 - i) for i in range(m)] + [1], c


def _int_power_sums(F: list, upto: int) -> list:
    """Sums of the k-th powers of the roots of the monic integer polynomial
    F, with multiplicity, for 0 <= k <= upto (Newton's identities)."""
    m = len(F) - 1
    ps = [m]
    for k in range(1, upto + 1):
        acc = -k * F[m - k] if k <= m else 0
        for i in range(1, min(k - 1, m) + 1):
            acc -= F[m - i] * ps[k - i]
        ps.append(acc)
    return ps


def _int_from_power_sums(ps: list, n: int) -> list:
    """The monic integer polynomial of degree n whose roots, algebraic
    integers, have the power sums ps[k]; each step divides exactly by k, and
    ArithmeticError reports a step that does not."""
    g = [0] * n + [1]
    for k in range(1, n + 1):
        acc = ps[k]
        for i in range(1, k):
            acc += g[n - i] * ps[k - i]
        g[n - k], rem = divmod(-acc, k)
        if rem:
            raise ArithmeticError("power sums of algebraic integers expected")
    return g


def power_sums(p: Poly, upto: int) -> list:
    """Sums of the k-th powers of the roots of p, with multiplicity, for
    0 <= k <= upto (Newton's identities)."""
    F, c = _scaled_roots(p)
    return [Fraction(s, c ** k) for k, s in enumerate(_int_power_sums(F, upto))]


def sum_poly(A: Poly, B: Poly) -> tuple:
    """prod (s - a - b) over the roots a of A and b of B, with multiplicity,
    in canonical form.  With c_A, c_B the scalings of `_scaled_roots`, the
    roots C(a + b), C = c_A c_B, of the monic integer g have the power sums
    sum_j binom(k, j) c_B^j P_j(F_A) c_A^(k-j) P_(k-j)(F_B); g(C s) has
    coefficients g_i C^i."""
    n = degree(A) * degree(B)
    (FA, ca), (FB, cb) = _scaled_roots(A), _scaled_roots(B)
    x = [s * cb ** j for j, s in enumerate(_int_power_sums(FA, n))]
    y = [s * ca ** j for j, s in enumerate(_int_power_sums(FB, n))]
    ps = [sum(comb(k, j) * x[j] * y[k - j] for j in range(k + 1))
          for k in range(n + 1)]
    g, C = _int_from_power_sums(ps, n), ca * cb
    return canonical([c * C ** i for i, c in enumerate(g)])


def prod_poly(A: Poly, B: Poly) -> tuple:
    """prod (s - a * b) over the roots a of A and b of B, with
    multiplicity, in canonical form; zero roots need no special case.  The
    roots C a b, C = c_A c_B, have the power sums P_k(F_A) P_k(F_B)."""
    n = degree(A) * degree(B)
    (FA, ca), (FB, cb) = _scaled_roots(A), _scaled_roots(B)
    ps = [x * y for x, y in zip(_int_power_sums(FA, n), _int_power_sums(FB, n))]
    g, C = _int_from_power_sums(ps, n), ca * cb
    return canonical([c * C ** i for i, c in enumerate(g)])


def scale_roots(p: Poly, q) -> tuple:
    """The canonical polynomial whose roots are q times those of p, for a
    nonzero rational q = a / b: a^n p(b x / a), coefficient i
    p_i a^(n-i) b^i."""
    q = Fraction(q)
    a, b = q.numerator, q.denominator
    P = canonical(p)
    n = len(P) - 1
    return canonical([c * a ** (n - i) * b ** i for i, c in enumerate(P)])


def shift_roots(p: Poly, q) -> tuple:
    """The canonical polynomial whose roots are those of p plus the
    rational q = a / b: the integer Taylor shift by -a of the polynomial of
    the roots b r (von zur Gathen and Gerhard, ISSAC 1997), whose roots
    b r + a are then scaled by 1 / b."""
    q = Fraction(q)
    c = list(scale_roots(p, q.denominator))
    for i in range(len(c) - 1):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] -= q.numerator * c[k + 1]
    return scale_roots(c, Fraction(1, q.denominator))


def diff_poly(A: Poly, B: Poly) -> tuple:
    """A polynomial vanishing at every a - b with A(a) = 0, B(b) = 0."""
    return sum_poly(A, scale_roots(B, -1))
