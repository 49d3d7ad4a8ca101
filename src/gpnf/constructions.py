"""Explicit set predicates on number fields.

Lattice / ring-of-integers / unit indicators, Pisot-unit and Salem
detectors, the predicate for the powers of a Pisot unit in a rank-one
field, and the hereditary predicate deciding membership in {beta^i : i in I}
for an arbitrary index set I with a decidability certificate.

Membership in the cyclic group generated by beta is decided by an exact
index bracket: the k with Tr(beta^k) = Tr(x), read from one value index of
the traces (every such k has |Tr(x) - beta^k| <= m - 1), and an exact power
comparison confirms; the congruence-subgroup route this replaces is
nonconstructive but extensionally identical on the field.  The same
bracket, over the terms n_k, decides value-set membership in `linrec`.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .algebraic import abs_sq_of_embedding
from .errors import (DependentBasis, InvalidRho, NotPisot, OutOfRange,
                     RankNotOne, SearchBoundExceeded, ThresholdAmbiguous)
from .intervals import ComplexBox, RatInterval
from .linalg import gauss_jordan
from .numberfield import FieldElement, NumberField, certified_dist
from .records import Record
from . import polys

# ---------------------------------------------------------------------------
# predicates and index sets
# ---------------------------------------------------------------------------


class SetPredicate:
    """An exact membership function K -> {0, 1} with a provenance tag."""

    def __init__(self, name: str, field: NumberField, fn: Callable,
                 explain: Optional[Callable] = None,
                 exponent_of: Optional[Callable] = None):
        self.name = name
        self.field = field
        self._fn = fn
        self._explain = explain
        self.exponent_of = exponent_of

    def __call__(self, x: FieldElement) -> int:
        return 1 if self._fn(x) else 0

    def explain(self, x: FieldElement) -> dict:
        if self._explain is None:
            return {"predicate": self.name, "value": self(x)}
        return self._explain(x)

    def __repr__(self):
        return f"SetPredicate({self.name})"


class IndexSet:
    """A subset of the nonnegative integers with a decidability certificate:
    either an explicit finite set, or an eventually periodic description."""

    def __init__(self, kind: str, members=None, modulus=None, residues=None,
                 start: int = 0):
        self.kind = kind
        self.members = frozenset(members) if members is not None else None
        self.modulus = modulus
        self.residues = frozenset(residues) if residues is not None else None
        self.start = start

    @staticmethod
    def finite(members: Iterable) -> "IndexSet":
        ms = frozenset(int(i) for i in members)
        if any(i < 0 for i in ms):
            raise OutOfRange("index sets live in the nonnegative integers")
        return IndexSet("finite", members=ms)

    @staticmethod
    def periodic(modulus: int, residues: Iterable, start: int = 0) -> "IndexSet":
        if modulus < 1:
            raise OutOfRange("modulus must be positive")
        rs = frozenset(int(r) % modulus for r in residues)
        return IndexSet("periodic", modulus=modulus, residues=rs, start=start)

    @staticmethod
    def evens() -> "IndexSet":
        return IndexSet.periodic(2, [0])

    @staticmethod
    def from_bounded_predicate(fn: Callable, bound: int) -> "IndexSet":
        """A membership oracle promised empty beyond the bound."""
        return IndexSet.finite([i for i in range(bound + 1) if fn(i)])

    def contains(self, i: int) -> bool:
        if i < 0:
            return False
        if self.kind == "finite":
            return i in self.members
        return i >= self.start and i % self.modulus in self.residues

    __contains__ = contains

    def members_between(self, lo: int, hi: int) -> list:
        """Members in [lo, hi], ascending."""
        lo = max(lo, 0)
        return [i for i in range(lo, hi + 1) if self.contains(i)]

    def dilated_section(self, residue: int, modulus: int) -> "IndexSet":
        """The set {j : residue + j*modulus in self}."""
        if self.kind == "finite":
            return IndexSet.finite([(i - residue) // modulus for i in self.members
                                    if i >= residue and (i - residue) % modulus == 0])
        # membership of residue + j*modulus depends on j mod p (and the start)
        p = self.modulus // math.gcd(self.modulus, modulus)
        rs = [j for j in range(p) if (residue + j * modulus) % self.modulus in self.residues]
        # the least j >= 0 with residue + j*modulus >= start
        start_j = max(0, -((residue - self.start) // modulus))
        return IndexSet.periodic(p, rs, start=start_j)

    def __repr__(self):
        if self.kind == "finite":
            return f"IndexSet({sorted(self.members)})"
        return (f"IndexSet(i ≡ {sorted(self.residues)} mod {self.modulus}"
                f"{f', i >= {self.start}' if self.start else ''})")


# ---------------------------------------------------------------------------
# indicators from linear algebra
# ---------------------------------------------------------------------------

def lattice_indicator(field: NumberField, basis: list) -> SetPredicate:
    """Indicator of the Z-span of a Q-linearly independent family: the dual
    coordinates must be integers and the complementary coordinates zero."""
    r = len(basis)
    m = field.degree
    chosen = [list(field.element(b).coords) for b in basis]
    if gauss_jordan(list(chosen), m)[0] != r:
        raise DependentBasis("basis is Q-linearly dependent")
    # extend with standard basis vectors to a basis of Q^m
    for k in range(m):
        if len(chosen) == m:
            break
        e = [Fraction(int(t == k)) for t in range(m)]
        if gauss_jordan(chosen + [e], m)[0] > len(chosen):
            chosen.append(e)
    # invert the matrix whose columns are the chosen vectors
    A = [[v[i] for v in chosen] + [Fraction(int(i == k)) for k in range(m)]
         for i in range(m)]
    gauss_jordan(A, m)
    Minv = [row[m:] for row in A]

    def fn(x: FieldElement) -> bool:
        xc = field.element(x).coords
        c = [sum(Minv[i][j] * xc[j] for j in range(m)) for i in range(m)]
        return (all(ci.denominator == 1 for ci in c[:r])
                and all(ci == 0 for ci in c[r:]))

    return SetPredicate(f"lattice(rank {r})", field, fn)


def unit_indicator(field: NumberField) -> SetPredicate:
    """Indicator of the unit group: algebraic integers of norm +-1."""

    def fn(x: FieldElement) -> bool:
        return field.element(x).is_unit()

    return SetPredicate("units", field, fn)


# ---------------------------------------------------------------------------
# Pisot and Salem detectors
# ---------------------------------------------------------------------------

def _abs_lt_one(x: FieldElement, j: int) -> bool:
    """Exact test |sigma_j(x)| < 1 (any embedding)."""
    if x.field.is_real_root(j):
        return (x.compare_rational(1, j) < 0 and
                x.compare_rational(-1, j) > 0)
    a = x.embed(j, 12).abs_sq()
    if a.hi < 1:
        return True
    if a.lo > 1:
        return False
    # the box straddles 1: one exact comparison decides
    return abs_sq_of_embedding(x, j).compare_rational(1) < 0


def _is_pisot(x: FieldElement, unit: bool = False) -> bool:
    """Is x an algebraic integer (a unit, if asked) whose distinguished
    embedding is real and above 1, with every other conjugate of modulus
    below 1?  One characteristic polynomial, then one exact modulus test
    per real conjugate and one per complex pair."""
    f, d = x.field, x.field.distinguished
    cp = x.char_poly()
    return (all(c.denominator == 1 for c in cp)
            and (not unit or abs(cp[0]) == 1) and f.is_real_root(d)
            and x.compare_rational(1, d) > 0
            and all(_abs_lt_one(x, j) for j in
                    f.real_root_indices() + f.upper_root_indices() if j != d))


def pisot_unit_test(x: FieldElement) -> bool:
    """Is x a Pisot unit of the field: a unit whose distinguished real
    embedding exceeds 1 while every other embedding has modulus below 1.

    The Pisot gate `_is_pisot` decides it exactly, with the unit test
    (integer characteristic polynomial of constant +-1) first.
    """
    return _is_pisot(x, unit=True)


def _trace_polynomial(p: tuple) -> list:
    """For palindromic integer p of even degree 2k, the degree-k integer
    polynomial T with p(z) = z^k T(z + 1/z)."""
    k = (len(p) - 1) // 2
    T = [p[k]] + [0] * k
    # z^j + z^-j = C_j(z + 1/z): C_0 = 2, C_1 = y, C_(j+1) = y C_j - C_(j-1)
    prev, cur = [2], [0, 1]
    for j in range(1, k + 1):
        for i, c in enumerate(cur):
            T[i] += p[k + j] * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return T


def salem_test(x: FieldElement) -> bool:
    """Is x a Salem number generating the field: a unit exceeding 1 whose
    minimal polynomial is reciprocal with all conjugates except x and 1/x
    on the unit circle (decided exactly via the trace polynomial)."""
    f = x.field
    # x is a unit iff its minimal polynomial is monic over Z with constant
    # +-1: the char poly is a power of it, so one char poly serves both
    mpi = x._minimal_poly_int()
    if not (mpi[-1] == 1 and abs(mpi[0]) == 1
            and f.is_real_root(f.distinguished) and x.compare_rational(1) > 0):
        return False
    d = len(mpi) - 1
    if d != f.degree or d < 4 or d % 2 != 0:
        return False
    if any(mpi[i] != mpi[d - i] for i in range(d + 1)):
        return False  # 1/x is conjugate to x iff the minimal poly is reciprocal
    T = _trace_polynomial(mpi)
    if any(polys.int_sign_at(T, Fraction(e)) == 0 for e in (2, -2)):
        return False
    chain = polys.sturm_chain(T)
    inside = polys.count_roots(chain, Fraction(-2), Fraction(2))
    # k-1 of the k roots of T in (-2,2): those are the circle pairs; the
    # remaining root is x + 1/x > 2
    return inside == d // 2 - 1


# ---------------------------------------------------------------------------
# powers of a Pisot unit
# ---------------------------------------------------------------------------

class _IndexBracket:
    """The indices k >= 0 with v_k = v, for exact values v_k with
    |v_k - w beta^k| <= B and rational queries v.

    Built from rationals 1 < blo <= beta <= bhi, 0 < wlo <= |w| <= whi,
    B >= 0 and `value(k)`, the exact v_k, which must be safe to call from
    several threads.  `span(v, bound)` is the range of k >= 0 with
    wlo blo^k - B <= |v| <= whi bhi^k + B, which holds every k with
    v_k = v, with blo and bhi rounded outward to multiples of 2^-P; given
    a bound, it raises SearchBoundExceeded instead, exactly when
    wlo blo^(bound+1) <= |v| + B: when the range reaches past it.  A call
    returns the k of that range with v_k = v, ascending, under the same
    bound test.

    The index (values, ups) covers k < K = len(ups): ups[k] is the least
    integer n with wlo blo^k - B <= n, and values maps each v_k to the
    ascending tuple of its indices (an int key for an integer v_k).  ups
    never decreases, and every k with v_k = v has ups[k] <= |v|, so an integer
    |v| < ups[-1] is answered by the bound test ups[bound + 1] <= |v| and
    one lookup.  The index grows in place, one entry per step from the
    running power wlo a^K (a = blo 2^P), and only for an integer whose
    index estimate lies within one doubling of K or below NEAR: ups[k]
    has about P k bits, so reaching a far one-off query would cost a
    quadratic number of word operations.  Any other query filters `span`,
    whose ends `_last` settles from a bit-length estimate and exact
    integer comparisons.  Growth runs under the bracket's lock and writes
    the entry of v_k before it appends ups[k]: a reader that takes `index`
    once and trusts it only for |v| below the ups[-1] it sees needs no
    lock.
    """

    P = 64
    NEAR = 64

    def __init__(self, blo, bhi, wlo, whi, B, value: Callable):
        P = self.P
        self._a = (blo.numerator << P) // blo.denominator
        self._b = -((-bhi.numerator << P) // bhi.denominator)
        wlo, whi, B = Fraction(wlo), Fraction(whi), Fraction(B)
        if self._a <= 1 << P or not 0 < wlo <= whi or B < 0:
            raise ValueError("need 1 < blo, 0 < wlo <= whi and B >= 0")
        # wlo, whi and B as integers over one denominator d
        self._d = math.lcm(wlo.denominator, whi.denominator, B.denominator)
        self._wlo, self._whi, self._B = (int(t * self._d) for t in (wlo, whi, B))
        # 256 log2(blo), rounded down, from one bit length
        self._lg = (self._a ** 256).bit_length() - 1 - 256 * P
        self._caps: dict = {}   # a^(bound+1) for each bound asked about
        self._value = value
        self._lock = threading.Lock()
        self._X = self._wlo     # wlo d a^K, for the next upper threshold
        self.index = ({}, [])
        self._grow(0)

    def _grow(self, u: int) -> None:
        """Extend the index until its last upper threshold exceeds u."""
        values, ups = self.index
        a, P, d, B = self._a, self.P, self._d, self._B
        with self._lock:
            while not ups or ups[-1] <= u:
                k = len(ups)
                t = self._value(k)
                t = t.numerator if t.denominator == 1 else t
                values[t] = values.get(t, ()) + (k,)
                # the least n with n d + B >= X / 2^(Pk)
                ups.append(-((B + (-self._X >> (P * k))) // d))
                self._X *= a

    def _guess(self, L: int, R: int) -> int:
        """An estimate of the largest k with L a^k <= R 2^(Pk), from bit
        lengths."""
        return max(0, (R.bit_length() - L.bit_length()) * 256 // max(1, self._lg))

    def _last(self, L: int, R: int, base: int, strict: int) -> int:
        """The largest k >= 0 with L base^k <= R 2^(Pk) (< if strict), or -1."""
        if R <= 0:
            return -1
        P = self.P
        k = self._guess(L, R)
        X, Y = L * base ** k, R << (P * k)
        while X + strict > Y:
            if k == 0:
                return -1
            k, X, Y = k - 1, X // base, Y >> P
        while (X := X * base) + strict <= (Y := Y << P):
            k += 1
        return k

    def _reaches(self, L: int, R: int, k: int) -> bool:
        """L a^k <= R 2^(Pk).  Bit lengths clear small queries alone: then
        L a^k >= 2^(bits(L) - 1 + Pk + k lg/256) >= 2^(bits(R) + Pk)."""
        if 256 * (L.bit_length() - 1 - R.bit_length()) + k * self._lg >= 0:
            return False
        if k not in self._caps:
            self._caps[k] = self._a ** k
        return L * self._caps[k] <= R << (self.P * k)

    def span(self, v, bound: Optional[int] = None) -> range:
        """The range of k that holds every k with v_k = v."""
        vd = v.denominator
        n, e = abs(v.numerator) * self._d, self._B * vd
        L, R = self._wlo * vd, n + e
        if bound is not None and self._reaches(L, R, bound + 1):
            raise SearchBoundExceeded(
                f"the query's index bracket reaches past {bound}")
        top = self._last(L, R, self._a, 0)
        if top < 0:
            return range(0)
        return range(self._last(self._whi * vd, n - e, self._b, 1) + 1, top + 1)

    def __call__(self, v, bound: Optional[int] = None) -> tuple:
        values, ups = self.index
        if v.denominator == 1:
            u = abs(v.numerator)
            if u >= ups[-1] and (self._guess(self._wlo, u * self._d + self._B)
                                 < max(2 * len(ups), self.NEAR)):
                self._grow(u)
            if u < ups[-1]:
                # ups[k] <= u iff L a^k <= R 2^(Pk): the bound test of
                # `_reaches`, read off the index
                if bound is not None and bound + 1 < len(ups) \
                        and ups[bound + 1] <= u:
                    raise SearchBoundExceeded(
                        f"the query's index bracket reaches past {bound}")
                return values.get(v.numerator, ())
        return tuple(k for k in self.span(v, bound) if self._value(k) == v)


def _require_pisot_unit(beta: FieldElement) -> None:
    """The hypotheses of the power and hereditary predicates: a rank-one
    unit group (RankNotOne) and beta a Pisot unit (NotPisot)."""
    f = beta.field
    if not f.has_rank_one_units:
        raise RankNotOne(f"unit rank is {f.unit_rank}, need 1")
    if not pisot_unit_test(beta):
        raise NotPisot("beta must be a Pisot unit")


def power_set_predicate(beta: FieldElement) -> SetPredicate:
    """Indicator of {beta^i : i >= 0} for a Pisot unit beta in a rank-one
    field.  The other conjugates of beta lie in the open unit disc, so
    |Tr(beta^k) - beta^k| <= m - 1: the index bracket of the traces
    Tr(beta^k) gives the k with Tr(beta^k) = Tr(x), and an exact power
    comparison decides."""
    _require_pisot_unit(beta)
    f = beta.field
    # bounded: a predicate lives as long as its caller keeps it, and the
    # exponents it is asked about need not repeat
    power = functools.lru_cache(256)(beta.__pow__)
    box = beta.embed(None, _IndexBracket.P)
    bracket = _IndexBracket(box.lo, box.hi, 1, 1, f.degree - 1,
                            lambda k: int(power(k).trace()))

    def exponent_of(x) -> Optional[int]:
        x = f.element(x)
        t = x.trace()
        if t.denominator == 1:      # else x is no algebraic integer
            for k in bracket(t):
                if x == power(k):
                    return k
        return None

    def fn(x) -> bool:
        return exponent_of(x) is not None

    return SetPredicate(f"powers of {beta!r}", f, fn, exponent_of=exponent_of)


# ---------------------------------------------------------------------------
# hereditary predicate for {beta^i : i in I}
# ---------------------------------------------------------------------------

def _sqrt_upper(q: Fraction, bits: int = 48) -> Fraction:
    """A rational upper bound for sqrt(q), within 2**(1-bits)."""
    if q <= 0:
        return Fraction(0)
    num = q.numerator << (2 * bits)
    r = math.isqrt(num // q.denominator) + 1
    return Fraction(r, 1 << bits)


def _conjugate_bounds(x: FieldElement, bits: int = 48) -> dict:
    """{j: a certified rational upper bound for |sigma_j(x)|} over the
    embeddings j other than the distinguished one, read from boxes of
    width at most 2**(1-bits); a complex modulus goes through a 2**-bits
    square root."""
    f = x.field
    out = {}
    for j in range(f.degree):
        if j != f.distinguished:
            box = x.embed(j, bits)
            out[j] = (_sqrt_upper(box.abs_sq().hi, bits)
                      if isinstance(box, ComplexBox) else box.mag)
    return out


def default_rho(beta: FieldElement) -> Fraction:
    """A valid contraction rate: 1 < rho < beta with every other conjugate
    of modulus below 1/rho."""
    u = max(_conjugate_bounds(beta).values(), default=0)
    inv_u = 1 / u if u > 0 else Fraction(10 ** 6)
    blo = beta.embed(None, 20).lo
    cand = min(blo, inv_u)
    if cand <= 1:
        raise InvalidRho("no valid contraction rate exists")
    rho = 1 + (cand - 1) / 2
    return rho.limit_denominator(10 ** 6)


def pisot_tail_constant(beta: FieldElement, rho: Fraction,
                        direct_window: int = 8) -> Fraction:
    """A rational C with dist(beta^(1+k)) * rho^|k| <= C for every nonzero
    integer k: small |k| are measured exactly, the tails are bounded
    analytically through the conjugate moduli."""
    f = beta.field
    m = f.degree
    if rho <= 1:
        raise InvalidRho("rho must exceed 1")
    if beta.compare_rational(rho) <= 0:
        raise InvalidRho("rho must be below beta")
    bits = 48
    while True:
        u = max(_conjugate_bounds(beta, bits).values(), default=0)
        if u * rho < 1:
            break
        # either some conjugate really reaches 1/rho, or the bound is loose
        worst = max((abs_sq_of_embedding(beta, j).compare_rational(1 / rho ** 2))
                    for j in range(f.degree) if j != f.distinguished)
        if worst >= 0:
            raise InvalidRho("a conjugate has modulus at least 1/rho")
        bits *= 2
    C = Fraction(0)
    binv = beta.inverse()
    for k in range(1, direct_window + 1):
        for sign in (1, -1):
            e = 1 + sign * k
            el = beta ** e if e >= 0 else binv ** (-e)
            d = certified_dist(el)
            dhi = Fraction(0) if d.is_zero() else d.embed(None, 60).hi
            C = max(C, dhi * rho ** k)
    K0 = direct_window
    # k > K0: dist(beta^(1+k)) <= (m-1) u^(1+k), so the product is at most
    # (m-1) u (u rho)^k, decreasing in k
    C = max(C, (m - 1) * u * (u * rho) ** (K0 + 1))
    # k < -K0: dist(beta^(1-k)) <= beta^(1-k), product at most beta (rho/beta)^k
    bhi = beta.embed(None, 20).hi
    r = rho * binv.embed(None, 20).hi
    if r >= 1:
        raise InvalidRho("rho must be strictly below beta")
    C = max(C, bhi * r ** (K0 + 1))
    return C


def choose_m(beta: FieldElement, rho: Fraction) -> int:
    """The least power m for which the membership test separates: the tail
    bound 2 C rho^-m / (1 - rho^-m) must drop below dist(beta)/3, whatever
    the index set (it is worst-cased)."""
    rho = Fraction(rho)
    return _least_power(pisot_tail_constant(beta, rho), certified_dist(beta),
                        rho)


def _power_bounds(q: Fraction, m: int) -> tuple:
    """(lo, hi) with lo <= q^m <= hi, for q > 0 and m >= 0, by binary
    powering on mantissas of P = 64 + 2 bits(m) bits, x = M 2^e: lo rounds
    every product down and hi up, so each is within about m 2^-P of q^m,
    relatively."""
    P = 64 + 2 * m.bit_length()

    def mul(x, y, up):
        M, e = x[0] * y[0], x[1] + y[1]
        s = max(0, M.bit_length() - P)
        return (-(-M >> s) if up else M >> s), e + s

    n, d, ends = q.numerator << P, q.denominator, []
    for up in (False, True):
        out, base, k = (1, 0), ((-(-n // d) if up else n // d), -P), m
        while k:
            if k & 1:
                out = mul(out, base, up)
            k >>= 1
            if k:
                base = mul(base, base, up)
        M, e = out
        ends.append(Fraction(M << e) if e >= 0 else Fraction(M, 1 << -e))
    return tuple(ends)


def _least_power(C: Fraction, dist_beta: FieldElement, rho: Fraction) -> int:
    """choose_m for the tail constant C and dist(beta).  err(m) decreases
    in m, so doubling, then bisection, finds it; each step is decided on
    integers against one 2^-64 enclosure of dist(beta)/3: first for an
    enclosure of err(m) from `_power_bounds` of rho^m, then, only when that
    straddles an end, for err(m) itself, and exactly only when err(m) lies
    inside the enclosure of dist(beta)/3."""
    target = dist_beta * Fraction(1, 3)
    box = target.embed(None, 65)
    L, H = box.lo, box.hi

    def below(n: int, d: int, end: Fraction) -> bool:
        """err = 2 C / (n / d - 1) < end, for n > d > 0."""
        return (2 * C.numerator * d * end.denominator
                < end.numerator * C.denominator * (n - d))

    def fits(m: int) -> bool:  # err(m) = 2 C / (rho^m - 1) < target
        r_lo, r_hi = _power_bounds(rho, m)  # err(r_hi) <= err(m) <= err(r_lo)
        if r_lo > 1 and below(r_lo.numerator, r_lo.denominator, L):
            return True
        if not below(r_hi.numerator, r_hi.denominator, H):
            return False
        n, d = rho.numerator ** m, rho.denominator ** m
        if below(n, d, L):
            return True
        if not below(n, d, H):
            return False
        return target.compare_rational(
            Fraction(2 * C.numerator * d, C.denominator * (n - d))) > 0

    lo, hi, cap = 0, 1, 10 ** 6 - 1  # err(lo) >= target, or lo = 0
    while not fits(hi):
        if hi == cap:
            raise ThresholdAmbiguous("no admissible power found below the cap")
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


class PisotSetSpec(Record):
    """Everything needed to decide membership in {beta^(i m) : i in I}.

    The hypotheses (a rank-one unit group, beta a Pisot unit) are checked
    before any constant is computed; rho = None takes default_rho(beta)
    and m = None the least admissible power."""
    __match_args__ = ("field", "beta", "rho", "m", "indices")
    __slots__ = __match_args__ + ("threshold", "tail_constant")

    def __init__(self, field: NumberField, beta: FieldElement,
                 rho: Optional[Fraction], m: Optional[int], indices: IndexSet):
        self.field, self.beta, self.rho, self.m = field, beta, rho, m
        self.indices = indices
        _require_pisot_unit(self.beta)
        self.rho = (default_rho(self.beta) if self.rho is None
                    else Fraction(self.rho))
        self.tail_constant = pisot_tail_constant(self.beta, self.rho)
        dist_beta = certified_dist(self.beta)
        if self.m is None:
            self.m = _least_power(self.tail_constant, dist_beta, self.rho)
        self.threshold = dist_beta * Fraction(2, 3)
        if self.m < 1 or (dist_beta * Fraction(1, 3)
                          - self.tail_error(0)).compare_rational(0) <= 0:
            raise OutOfRange(
                f"m = {self.m} is too small for rho = {self.rho}; "
                f"use choose_m")

    @classmethod
    def create(cls, beta: FieldElement, indices: IndexSet,
               rho: Optional[Fraction] = None,
               m: Optional[int] = None) -> "PisotSetSpec":
        return cls(beta.field, beta, rho, m, indices)

    def tail_error(self, depth: int) -> Fraction:
        """Bound for the distance contribution of all terms beyond the
        given window depth."""
        rm = self.rho ** (-self.m)
        return 2 * self.tail_constant * rm ** (depth + 1) / (1 - rm)


def hereditary_predicate(spec: PisotSetSpec) -> SetPredicate:
    """Indicator of {beta^i : i in I} assembled as the union over residues
    a mod m of the dilated single-residue predicates.

    A query x is located by the power predicate of beta itself: x = beta^k
    for k >= 0 exactly when its `exponent_of` returns k, and then
    x = beta^a gamma^j (gamma = beta^m) for a = k mod m and j = k // m.
    The test compares the distance of gamma^j xi to the nearest integer
    against (2/3) dist(beta), where xi = sum over i in section a of
    beta gamma^-i; the near-diagonal terms are summed exactly and the tail
    is bounded geometrically, so the comparison is certified on both
    sides.
    """
    f = spec.field
    beta, m = spec.beta, spec.m
    exponent_of = power_set_predicate(beta).exponent_of
    binv = beta.inverse()
    sections = [spec.indices.dilated_section(a, m) for a in range(m)]

    def window_dist(a: int, j: int, depth: int) -> FieldElement:
        """dist(S) for S the exact sum of beta gamma^(j-i) over the members
        i of section a with |i - j| <= depth."""
        S = f.zero
        for i in sections[a].members_between(j - depth, j + depth):
            e = 1 + m * (j - i)
            S = S + (beta ** e if e >= 0 else binv ** (-e))
        return certified_dist(S)

    def xi_test(a: int, j: int) -> bool:
        depth = 1
        while depth <= 300:
            distS = window_dist(a, j, depth)
            tail = spec.tail_error(depth)
            margin = distS - spec.threshold
            if margin.compare_rational(tail) > 0:
                return True
            if (-margin).compare_rational(tail) > 0:
                return False
            depth += 1
        raise ThresholdAmbiguous(
            "certified refinement could not separate the score from the "
            "threshold; construction invariants are violated")

    def locate(x) -> Optional[tuple]:
        k = exponent_of(x)
        return None if k is None else (k % m, k // m)

    def fn(x) -> bool:
        loc = locate(x)
        if loc is None:
            return False
        a, j = loc
        return xi_test(a, j)

    def explain(x) -> dict:
        loc = locate(x)
        out = {"predicate": "hereditary", "m": m, "rho": str(spec.rho)}
        if loc is None:
            out.update(value=0, reason="not a power of beta")
            return out
        a, j = loc
        depth = 4
        box = window_dist(a, j, depth).embed(None, 40)
        tail = spec.tail_error(depth)
        score = RatInterval(max(box.lo - tail, Fraction(0)), box.hi + tail)
        thr = spec.threshold.embed(None, 40)
        out.update(value=1 if xi_test(a, j) else 0,
                   exponent=a + j * m,
                   score_interval=[str(score.lo.limit_denominator(10 ** 12)),
                                   str(score.hi.limit_denominator(10 ** 12))],
                   score_approx=score.approx_str(10),
                   threshold_approx=RatInterval(thr.lo, thr.hi).approx_str(10))
        return out

    return SetPredicate(f"{{beta^i : i in {spec.indices!r}}}", f, fn,
                        explain=explain)


# ---------------------------------------------------------------------------
# trace collisions (desk-scale search)
# ---------------------------------------------------------------------------

def trace_collision_search(field: NumberField, x: FieldElement,
                           y: FieldElement, bound: int) -> list:
    """All pairs (i, j) with i, j <= bound and Tr(beta^i x) = Tr(beta^j y),
    by exhaustive exact search (hash join on exact rationals)."""
    if bound > 10 ** 4:
        raise OutOfRange("bound is capped at 10^4 (desk scale)")
    m = field.degree
    a = field.monic_minpoly

    def trace_seq(z: FieldElement) -> list:
        vals = []
        cur = field.element(z)
        beta = field.beta
        for i in range(min(m, bound + 1)):
            vals.append(cur.trace())
            cur = cur * beta
        while len(vals) <= bound:
            nxt = -sum(a[t] * vals[len(vals) - m + t] for t in range(m))
            vals.append(nxt)
        return vals

    tx = trace_seq(x)
    ty = trace_seq(y)
    where = {}
    for j, v in enumerate(ty):
        where.setdefault(v, []).append(j)
    out = []
    for i, v in enumerate(tx):
        for j in where.get(v, ()):
            out.append((i, j))
    return out
