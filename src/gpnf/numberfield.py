"""Exact arithmetic in a number field Q(beta) with certified embeddings.

A NumberField is built from an irreducible defining polynomial, and proves
it irreducible: factor degrees modulo primes first, then recombination of
certified root enclosures for the degrees they leave.  Real conjugates are
isolated by Sturm bisection; complex conjugates by rectangle cuts, one
exact winding-number count per cut (`_cut`), of its lower half: one integer
Sturm chain of Re p and Im p per edge gives its Cauchy index (Wilf;
Eisermann), with no root isolation and no floating point anywhere.  The
same counts order complex pairs: two rectangles are cut at lines through
the overlap of their real projections, on the isolation's own memo of line
chains, until the projections part; only an exact tie of real parts asks
the Sturm chain of the sum resolvent, built then and only then.  Each
conjugate then keeps one box, which `NumberField.root_box` alone refines: a
RatInterval for a real root, by `polys.refine_root`, and a ComplexBox for an
upper root, which its lower conjugate reads as `.conj()`.  Complex boxes
are refined by approximating, then proving: Newton in Gaussian-integer
fixed point, then one Krawczyk inclusion in exact box arithmetic (on the
integer ends of `intervals`), with a winding-count cut only where the proof
fails.  Elements are coordinate vectors in the power basis.  Their
invariants come from power sums: the trace from the stored Tr(beta^i), the
characteristic polynomial from Tr(x^k) by Newton's identities, the norm
from its constant term and the inverse from Cayley-Hamilton.  Floor / nearest-integer /
fractional-part of real embeddings are decided exactly: intervals are
refined until they exclude all integers, and an exact field-equality test
settles integer hits, so ties are never guessed from numerics.
"""

from __future__ import annotations

import functools
import threading
from fractions import Fraction
from itertools import combinations, count
from math import ceil, gcd
from operator import mul as _mul
from typing import Optional, Sequence, Union

from . import polys
from .errors import (CertificateFailed, ComplexEmbedding, DegreeMismatch,
                     DivisionByZero, FieldMismatch, NoRealRoot, NotSquarefree,
                     OutOfRange, PrecisionExhausted, ReducibleDetected,
                     SingularSystem)
from .intervals import (ComplexBox, RatInterval, common_den, floor_of,
                        horner_box, horner_interval, horner_ints, sign_vs)
from .linalg import gauss_jordan

Rationalish = Union[int, Fraction, str]


class _BoundaryRoot(Exception):
    """Internal: a root lies on a counting rectangle's boundary."""


# ---------------------------------------------------------------------------
# winding-number root counting in rectangles
# ---------------------------------------------------------------------------

def _line_uv(P: list, c: Fraction, vertical: bool) -> tuple:
    """Integer real and imaginary parts of d^m P(z) on the line Re z = c
    (vertical) or Im z = c (horizontal), as polynomials in the moving
    coordinate; P has integer coefficients, m = deg P and d is the
    denominator of c."""
    n, d = c.numerator, c.denominator
    m = len(P) - 1
    # Q(X) = d^m P(X/d) shifted by n (vertical) or i n (horizontal), by
    # Horner over the Gaussian integers
    sr, si = (n, 0) if vertical else (0, n)
    re: list = []
    im: list = []
    for k in range(m, -1, -1):
        nre, nim = [0] + re, [0] + im
        for j, (a, b) in enumerate(zip(re, im)):
            nre[j] += a * sr - b * si
            nim[j] += a * si + b * sr
        nre[0] += P[k] * d ** (m - k)
        re, im = nre, nim
    # substitute X = d t (horizontal) or X = i d t (vertical)
    u, v, dl = [], [], 1
    for l, (a, b) in enumerate(zip(re, im)):
        a, b = a * dl, b * dl
        if vertical:
            for _ in range(l % 4):
                a, b = -b, a
        u.append(a)
        v.append(b)
        dl *= d
    while u and u[-1] == 0:
        u.pop()
    while v and v[-1] == 0:
        v.pop()
    return u, v


def _edge_index2(P: list, c: Fraction, vertical: bool, a, b,
                 memo: dict) -> int:
    """Twice the Cauchy index of Im p / Re p along the edge of the line
    through c (see `_line_uv`) from coordinate a to b.

    A line's chain and its variations at a point depend on nothing else,
    so memo keeps them for every edge of the same p: under (c, vertical)
    the chain with the Sturm chain of its gcd, under (c, vertical, x) their
    doubled variations at x.  Raises _BoundaryRoot if p vanishes on the
    closed edge.
    """
    line = (c, vertical)
    chains = memo.get(line)
    if chains is None:
        chain = polys.cauchy_chain(*_line_uv(P, c, vertical))
        # p vanishes on the line exactly at the real roots of g = gcd(u, v),
        # which are simple since p is squarefree: the doubled index of g'/g
        # is nonzero exactly when one lies on the closed edge
        g = chain[-1]
        chains = memo[line] = [chain]
        if len(g) > 1:
            chains.append(polys.sturm_chain(g))
    ends = []
    for x in (a, b):
        vs = memo.get(line + (x,))
        if vs is None:
            vs = memo[line + (x,)] = [polys._variations2(ch, x) for ch in chains]
        ends.append(vs)
    (va, *ga), (vb, *gb) = ends
    if ga != gb:
        raise _BoundaryRoot
    return va - vb


def count_roots_in_rect(p: tuple, xlo, xhi, ylo, yhi,
                        memo: Optional[dict] = None) -> int:
    """Exact number of roots of squarefree p strictly inside the rectangle:
    the winding number of p along its boundary is minus half the Cauchy
    index of Im p / Re p, taken counter-clockwise (Wilf, J. ACM 25, 1978;
    Eisermann, Amer. Math. Monthly 119, 2012).  Integer arithmetic only.

    A caller counting many rectangles of one p passes one dict as memo,
    positionally: bisected rectangles share lines and corners, and each
    line's chain and its variations at each corner are then built once
    (see `_edge_index2`).  Raises _BoundaryRoot if a root lies on the
    boundary.
    """
    P = polys.canonical(p)
    if memo is None:
        memo = {}
    total = (_edge_index2(P, ylo, False, xlo, xhi, memo)
             + _edge_index2(P, xhi, True, ylo, yhi, memo)
             + _edge_index2(P, yhi, False, xhi, xlo, memo)
             + _edge_index2(P, xlo, True, yhi, ylo, memo))
    if total % 4:
        raise _BoundaryRoot
    return -total // 4


# where a cut goes, as a fraction of the side it crosses: the middle first,
# then nearby points, for cuts through a root
_LADDER = tuple(Fraction(num, den) for num, den in (
    (1, 2), (17, 32), (15, 32), (9, 16), (7, 16), (19, 32), (13, 32), (5, 8),
    (3, 8), (21, 32), (11, 32), (23, 32)))


@functools.lru_cache(maxsize=256)
def _min_sep_sq(c: tuple) -> Fraction:
    """A positive rational lower bound for the squared distance between
    distinct roots of squarefree c (Mahler's separation bound)."""
    P = polys.canonical(c)
    m = len(P) - 1
    if m < 2:
        return Fraction(1)
    disc = abs(polys.resultant(P, polys.derivative(P)) / P[-1])
    norm2sq = sum(x * x for x in P)
    return 3 * disc / (m ** (m + 2) * norm2sq ** (m - 1))


def _isolate_complex_upper(p: tuple, expected: int,
                           memo: Optional[dict] = None) -> list:
    """Isolating rectangles (xlo, xhi, ylo, yhi) for the roots of squarefree
    p in the open upper half-plane.

    Rectangles are cut in half across the longer side by `_cut`, depth
    first from one containing them all.  A cut makes one winding count, of
    the lower half: its n1 roots leave the other n - n1 to the upper half,
    exactly, since a root on the cut line would lie on the lower half's
    edge, which moves the cut.  One memo serves every count, so each
    line's chain is built once: a fresh one unless the caller passes its
    own, to count on those lines again (see `NumberField._sort_uppers`)."""
    if expected == 0:
        return []
    bound = polys.cauchy_bound(p)
    # lower edge strictly below the least positive imaginary part, via the
    # Mahler root-separation bound (conjugate pairs are 2*Im apart)
    sep_sq = _min_sep_sq(p)
    eta = Fraction(1)
    while 4 * eta * eta > sep_sq:
        eta /= 2
    if memo is None:
        memo = {}
    r = (-bound, bound, eta, bound)
    work = [(r, count_roots_in_rect(p, *r, memo))]
    done = []
    while work:
        r, n = work.pop()
        if n == 0:
            continue
        if n == 1:
            done.append(r)
            continue
        k = 0 if r[1] - r[0] >= r[3] - r[2] else 2
        (r1, n1, r2), = _cut(p, [r], k, memo)
        work.extend(((r1, n1), (r2, n - n1)))
    if len(done) != expected:
        raise CertificateFailed("complex root isolation miscount", tuple(done))
    return done


def _box(rect: tuple) -> ComplexBox:
    """The rectangle (xlo, xhi, ylo, yhi) as a ComplexBox."""
    xlo, xhi, ylo, yhi = rect
    return ComplexBox(RatInterval(xlo, xhi), RatInterval(ylo, yhi))


def _cut(p: tuple, rects: list, k: int, memo: dict) -> list:
    """Rectangles of squarefree p cut at one line through the overlap of
    their projections on axis k (0: real, 2: imaginary): for each, the
    triple (lower half, its winding count, upper half), the lower half on
    the low side of the line.  The counts share the new line's chain in
    memo.  A root on the line lies on a lower half's edge, so that count
    raises _BoundaryRoot and the cut moves along `_LADDER`."""
    lo = max(r[k] for r in rects)
    hi = min(r[k + 1] for r in rects)
    for t in _LADDER:
        c = lo + (hi - lo) * t
        cuts = []
        for r in rects:
            below = r[:k + 1] + (c,) + r[k + 2:]
            try:
                n = count_roots_in_rect(p, *below, memo)
            except _BoundaryRoot:
                break
            cuts.append((below, n, r[:k] + (c,) + r[k + 1:]))
        else:
            return cuts
    raise CertificateFailed("winding cut failed", tuple(rects))


def _newton(P: list, cx: Fraction, cy: Fraction, t: int) -> tuple:
    """Bounded Newton iteration for the integer polynomial P from cx + i cy
    in Gaussian-integer fixed point: each iterate is a Gaussian integer
    (a, b) over 2^t, P and P' come exactly from one integer Horner pass over
    2^(t deg P), and only the step is rounded to 2^-t.  Returns the last
    iterate (a, b)."""
    a, b = ((q.numerator << t) // q.denominator for q in (cx, cy))
    for _ in range(2 * t.bit_length() + 8):
        pr, pi, dr, di, sh = P[-1], 0, 0, 0, 0
        for c in P[-2::-1]:
            sh += t
            dr, di = dr * a - di * b + (pr << t), dr * b + di * a + (pi << t)
            pr, pi = pr * a - pi * b + (c << sh), pr * b + pi * a
        nrm = dr * dr + di * di
        if nrm == 0:
            break
        sr = ((pr * dr + pi * di) << t) // nrm
        si = ((pi * dr - pr * di) << t) // nrm
        a, b = a - sr, b - si
        if -2 <= sr <= 1 and -2 <= si <= 1:
            break
    return a, b


def _krawczyk_proves(p: tuple, dp: tuple, Z: ComplexBox, t: int) -> bool:
    """Whether the box Z holds exactly one root of the integer polynomial p:
    with m its centre and Y a dyadic point near 1/p'(m), the Krawczyk
    operator K = m - Y p(m) + (1 - Y p'(Z)) (Z - m), in exact box
    arithmetic, lies strictly inside Z (Krawczyk, Computing 4, 1969; Rump,
    J. Comput. Appl. Math. 156, 2003).  p(m) and p'(m) are `horner_box` on
    the point box m."""
    m = ComplexBox.point(Z.re.mid, Z.im.mid)
    d = horner_box(dp, 1, m)
    dr, di = d.re.lo, d.im.lo
    nrm = dr * dr + di * di
    if nrm == 0:
        return False
    # K encloses the root for any Y; 1/p'(m) to about 2^-t relative, as a
    # dyadic, keeps the box products small
    t += max(0, nrm.numerator.bit_length() - nrm.denominator.bit_length())
    Y = ComplexBox.point(polys.dyadic_down(dr / nrm, t),
                         polys.dyadic_down(-di / nrm, t))
    K = (m - Y * horner_box(p, 1, m)
         + (ComplexBox.point(1) - Y * horner_box(dp, 1, Z)) * (Z - m))
    return K.re.strictly_inside(Z.re) and K.im.strictly_inside(Z.im)


def _refine_rect(p: tuple, Z: ComplexBox, width: Fraction) -> ComplexBox:
    """Shrink an isolating box of squarefree p below the given side.

    Approximate, then prove.  Newton in fixed point (`_newton`) runs from
    the centre of the box on the grid 2^-t, t = bits(width) + bits(deg p) +
    8, and the square B of half-side 16 * 2^-t around its result is
    returned when B lies in the box and one Krawczyk inclusion proves a
    root of p in B: that root is then the isolated one.  Otherwise one
    `_cut` across the longer side shrinks the box and Newton runs again;
    its counts share one memo (see `count_roots_in_rect`).  The width must
    be positive (`NumberField.root_box` checks it); one past
    `polys.CEILING_BITS` bits raises PrecisionExhausted."""
    bits = polys._width_bits(width)
    if bits > polys.CEILING_BITS:
        raise PrecisionExhausted("_refine_rect past the ceiling", Z)
    P = polys.canonical(p)
    dp = polys.derivative(P)
    memo: dict = {}
    t = bits + (len(P) - 1).bit_length() + 8
    while Z.width > width:
        a, b = _newton(P, Z.re.mid, Z.im.mid, t)
        B = ComplexBox(RatInterval.over(a - 16, a + 16, 1 << t),
                       RatInterval.over(b - 16, b + 16, 1 << t))
        if (Z.contains(B.re.lo, B.im.lo) and Z.contains(B.re.hi, B.im.hi)
                and _krawczyk_proves(p, dp, B, t)):
            return B
        k = 0 if Z.re.width >= Z.im.width else 2
        (below, n, above), = _cut(
            p, [(Z.re.lo, Z.re.hi, Z.im.lo, Z.im.hi)], k, memo)
        Z = _box(below if n else above)
    return Z


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

class _Root:
    __slots__ = ("kind", "box", "pair")

    def __init__(self, kind, box=None, pair=None):
        self.kind = kind    # 'real' | 'upper' | 'lower'
        self.box = box      # RatInterval (real), ComplexBox (upper), None
        self.pair = pair    # index of the complex-conjugate root


class NumberField:
    """Q(beta) for beta a root of an irreducible rational polynomial.

    Construction proves irreducibility: factor degrees modulo a few primes
    rule out most factor degrees, and the rest are settled by recombining
    certified root enclosures; a factor raises ReducibleDetected naming it.
    check_reducible=False skips that proof, for a polynomial the caller
    knows to be irreducible; it must still be squarefree.

    Conjugates are ordered canonically: real roots ascending, then complex
    pairs by ascending real part (exact ties broken by imaginary part),
    each pair listed upper-half root first.  Pairs are ordered by winding
    counts on cut lines (see `_sort_uppers`); the Sturm chain of the sum
    resolvent is built only for an exact tie.  `distinguished` is the index
    of the conjugate identified with beta; by default the real root of
    largest absolute value (positive one on an exact tie), or index 0 if
    there is no real root.
    """

    def __init__(self, coeffs: Sequence[Rationalish], *,
                 distinguished: Optional[int] = None,
                 require_real_distinguished: bool = False,
                 check_reducible: bool = True):
        P = polys.canonical([Fraction(c) for c in coeffs])
        if len(P) < 2:
            raise DegreeMismatch("defining polynomial must have degree >= 1")
        self.minpoly_int = polys.squarefree_part(P)
        if len(self.minpoly_int) < len(P):
            raise NotSquarefree("defining polynomial has a repeated root")
        self.monic_minpoly = polys.monic(self.minpoly_int)
        self.degree = m = len(P) - 1
        self._sum2 = self._chain2 = None
        degrees = (polys._factor_degree_candidates(self.minpoly_int)
                   if check_reducible else [])
        real_ivs = [RatInterval(*iv)
                    for iv in polys.isolate_real_roots(self.minpoly_int)]
        r1 = len(real_ivs)
        r2 = (m - r1) // 2
        self.signature = (r1, r2)

        memo: dict = {}
        uppers = _isolate_complex_upper(self.minpoly_int, r2, memo)
        self._roots = [_Root("real", iv) for iv in real_ivs]
        for rect in self._sort_uppers(uppers, memo):
            k = len(self._roots)
            self._roots.append(_Root("upper", _box(rect), k + 1))
            self._roots.append(_Root("lower", None, k))
        self._lock = threading.RLock()
        if degrees:
            f = self._find_factor(degrees)
            if f is not None:
                raise ReducibleDetected(f"found factor with coefficients {f}")

        self._red, self._red_den = self._reduction_table()
        (self._tr,), self._tr_den = common_den([self.power_sums(m - 1)])
        self.distinguished = self._pick_distinguished(
            distinguished, require_real_distinguished)
        self._hash = hash((self.minpoly_int, self.distinguished))

    # -- construction helpers -----------------------------------------------

    def _sum_resolvent(self) -> tuple:
        """`polys.sum_poly(p, p)`: the polynomial of the sums r_i + r_j of
        conjugates (i == j allowed), built once."""
        if self._sum2 is None:
            self._sum2 = polys.sum_poly(self.minpoly_int, self.minpoly_int)
        return self._sum2

    def _sum_chain(self) -> list:
        """The Sturm chain of the squarefree part of `_sum_resolvent`, which
        only exact ties need: two upper roots of equal real part, or two
        real roots of zero sum.  Built on first use; both callers run inside
        `__init__`, so the slot is filled during construction only."""
        if self._chain2 is None:
            self._chain2 = polys.sturm_chain(
                polys.squarefree_part(self._sum_resolvent()))
        return self._chain2

    def _sort_uppers(self, uppers: list, memo: Optional[dict] = None) -> list:
        """The isolating rectangles in the canonical order of their roots:
        ascending real part, ties by imaginary part; the rectangles returned
        are the ones given.

        Two roots compare on copies of their rectangles, kept per root from
        one comparison to the next: `_cut` cuts both at one vertical line
        through the overlap of their real projections, and each keeps the
        half that holds its root, until the projections part.  Roots lie
        strictly inside counted rectangles, so projections that only touch
        are apart.  Its counts share memo, which `__init__` hands over from
        the isolation, so only the cut lines' chains are new.  Equal real
        parts never part: after a few cuts, the chain of the sum resolvent
        (`_sum_chain`) decides whether both doubled real parts are one root
        of it, and if so horizontal cuts order the imaginary parts."""
        if len(uppers) <= 1:
            return uppers
        p = self.minpoly_int
        if memo is None:
            memo = {}
        boxes = list(uppers)

        def tied(ra: tuple, rb: tuple) -> bool:
            chain2 = self._sum_chain()
            a2, b2 = (2 * ra[0], 2 * ra[1]), (2 * rb[0], 2 * rb[1])
            return (polys.count_roots(chain2, *a2) == 1
                    and polys.count_roots(chain2, *b2) == 1
                    and polys.count_roots(chain2, max(a2[0], b2[0]),
                                          min(a2[1], b2[1])) >= 1)

        def cmp(i: int, j: int) -> int:
            k = cuts = 0
            while True:
                ra, rb = boxes[i], boxes[j]
                if ra[k + 1] <= rb[k]:
                    return -1
                if rb[k + 1] <= ra[k]:
                    return 1
                if k == 0 and cuts >= 4 and tied(ra, rb):
                    k = 2
                    continue
                boxes[i], boxes[j] = (below if n else above for below, n, above
                                      in _cut(p, [ra, rb], k, memo))
                cuts += 1

        order = sorted(range(len(uppers)), key=functools.cmp_to_key(cmp))
        return [uppers[i] for i in order]

    def _find_factor(self, degrees: list) -> Optional[list]:
        """A primitive integer factor of the defining polynomial p with
        degree in `degrees`, else None, from the field's own root boxes.

        Zassenhaus's recombination over certified root enclosures instead
        of a p-adic lift: the roots of a factor g of degree d form a set S
        of d roots closed under complex conjugation, and lead(p) * prod_S
        (x - r) = (lead(p) / lead(g)) g has integer coefficients.  For each
        such S, `root_box` refines the roots until some coefficient of that
        product encloses no integer, or all are enclosed in intervals
        narrower than 1; then its one integer candidate is tested by exact
        division.  The boxes stay refined for later reads.  For d = 1 this
        is the rational-root test, over the real roots in ascending order.
        """
        p = self.minpoly_int
        lead, m, r1 = p[-1], self.degree, self.signature[0]
        one = RatInterval.point(1)

        def root_factor(j: int, width: Fraction) -> list:
            """x - r for a real root, (x - r)(x - conj r) for an upper one,
            as interval coefficients, with the root enclosed below width."""
            e = self.root_box(j, width)
            return [-e, one] if j < r1 else [e.abs_sq(), e.re * -2, one]

        def candidate(S: tuple) -> Optional[tuple]:
            width = Fraction(1, 2 * lead)
            while True:
                cs = [RatInterval.point(lead)]
                for j in S:
                    f = root_factor(j, width)
                    out = [RatInterval.point(0)] * (len(cs) + len(f) - 1)
                    for i, x in enumerate(cs):
                        for k, y in enumerate(f):
                            out[i + k] = out[i + k] + x * y
                    cs = out
                ns = [ceil(c.lo) for c in cs]
                if any(n > c.hi for n, c in zip(ns, cs)):
                    return None
                if all(c.width < 1 for c in cs):
                    return tuple(ns)
                width /= 2

        uppers = self.upper_root_indices()
        for d in degrees:
            for S in (rs + us for a in range(d % 2, min(d, r1) + 1, 2)
                      for rs in combinations(range(r1), a)
                      for us in combinations(uppers, (d - a) // 2)):
                if 2 * d == m and 0 not in S:
                    continue  # a factor of degree m/2 or its cofactor has root 0
                g = candidate(S)
                if g is not None and not polys.divmod_(p, g)[1]:
                    return list(polys.canonical(g))
        return None

    def _reduction_table(self) -> tuple:
        """(rows, den): beta^k = rows[k - m] / den in the power basis for
        m <= k <= 2m-2, with integer rows over one positive denominator
        (1 for a monic integer minpoly)."""
        m = self.degree
        top = [-c for c in self.monic_minpoly[:-1]]
        fracs = []
        cur = [Fraction(0)] * (m - 1) + [Fraction(1)]  # beta^(m-1)
        for _ in range(m - 1):
            carry = cur[m - 1]
            cur = [carry * t + c for c, t in zip([Fraction(0)] + cur[:-1], top)]
            fracs.append(cur)
        return common_den(fracs)

    def _pick_distinguished(self, distinguished, require_real) -> int:
        r1 = self.signature[0]
        if isinstance(distinguished, int):
            real = self.is_real_root(self.root_index(distinguished))
            if require_real and not real:
                raise NoRealRoot("requested distinguished root is not real")
            return distinguished
        if r1 == 0:
            if require_real:
                raise NoRealRoot("polynomial has no real root")
            return 0
        if r1 == 1:
            return 0
        # real root of largest |.|; exact ties prefer the positive root.  The
        # real roots ascend, so it is the first or the last: the last iff
        # r_0 + r_last >= 0
        s_at_0 = self._sum_resolvent()[0] == 0
        last = r1 - 1
        width = Fraction(1, 16)
        while True:
            s = self.root_box(0, width) + self.root_box(last, width)
            a, b, _ = s._t
            if a >= 0:
                return last
            if b < 0:
                return 0
            if (s_at_0 and b > 0
                    and polys.count_roots(self._sum_chain(), s.lo, s.hi) == 1):
                return last  # the unique enclosed root of S is 0 itself
            width /= 16

    # -- root access ----------------------------------------------------------

    def root_index(self, j: Optional[int] = None) -> int:
        """j, or the distinguished index for None; OutOfRange unless
        0 <= j < degree."""
        if j is not None and not 0 <= j < self.degree:
            raise OutOfRange(f"root index {j} is not in 0..{self.degree - 1}")
        return self.distinguished if j is None else j

    def is_real_root(self, j: int) -> bool:
        return self._roots[j].kind == "real"

    def conj_index(self, j: int) -> int:
        r = self._roots[j]
        return j if r.kind == "real" else r.pair

    def real_root_indices(self) -> list:
        return [j for j in range(self.degree) if self.is_real_root(j)]

    def upper_root_indices(self) -> list:
        return [j for j in range(self.degree) if self._roots[j].kind == "upper"]

    def root_box(self, j: Optional[int] = None,
                 width: Fraction = Fraction(1, 2 ** 30)):
        """Certified enclosure of the j-th conjugate of beta (None: the
        distinguished one), at most width wide: a RatInterval for a real
        root, else a ComplexBox.  The one place roots are refined, under the
        lock: `polys.refine_root` or `_refine_rect` on the stored box, which
        a lower root shares with its upper conjugate and reads as `.conj()`.
        A width that is no int or Fraction raises TypeError, and one <= 0
        OutOfRange unless the box is already a point."""
        if not isinstance(width, (int, Fraction)):
            raise TypeError("root_box width must be an int or a Fraction, "
                            f"not {type(width).__name__}")
        r = self._roots[self.root_index(j)]
        base = self._roots[r.pair] if r.kind == "lower" else r
        with self._lock:
            if base.box.width > max(width, 0):
                if width <= 0:
                    raise OutOfRange(f"cannot refine {base.box} to width {width}")
                refine = polys.refine_root if r.kind == "real" else _refine_rect
                base.box = refine(self.minpoly_int, base.box, width)
        return base.box.conj() if r.kind == "lower" else base.box

    # -- elements -------------------------------------------------------------

    def element(self, coords) -> FieldElement:
        if isinstance(coords, FieldElement):
            if coords.field is not self and coords.field != self:
                raise FieldMismatch("element from a different field")
            return coords
        if isinstance(coords, str):
            coords = Fraction(coords)
        if isinstance(coords, (int, Fraction)):
            return _raw(self, (coords.numerator,) + (0,) * (self.degree - 1),
                        coords.denominator)
        v = [Fraction(c) for c in coords]
        if len(v) != self.degree:
            raise DegreeMismatch("coordinate vector has wrong length")
        # over the lcm of the denominators the vector is already canonical
        (num,), den = common_den([v])
        return _raw(self, num, den)

    @property
    def zero(self) -> FieldElement:
        return self.element(0)

    @property
    def one(self) -> FieldElement:
        return self.element(1)

    @property
    def beta(self) -> FieldElement:
        if self.degree == 1:
            return self.element(-self.monic_minpoly[0])
        return _raw(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def from_traces(self, traces) -> FieldElement:
        """The unique y with Tr(beta^j y) = traces[j] (int or Fraction)
        for 0 <= j < m."""
        if len(traces) != self.degree:
            raise DegreeMismatch("trace vector has wrong length")
        rows, den = _trace_dual(self)
        (z,), d = common_den([traces])
        return _elem(self, tuple(sum(map(_mul, row, z)) for row in rows),
                     den * d)

    @property
    def unit_rank(self) -> int:
        r1, r2 = self.signature
        return r1 + r2 - 1

    @property
    def has_rank_one_units(self) -> bool:
        return self.unit_rank == 1

    def power_sums(self, upto: int) -> list:
        """Traces of beta^k for 0 <= k <= upto, by Newton's identities."""
        return polys.power_sums(self.minpoly_int, upto)

    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.minpoly_int == other.minpoly_int
                and self.distinguished == other.distinguished)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        terms = " + ".join(
            f"{c}*x^{i}" if i else str(c)
            for i, c in enumerate(self.minpoly_int) if c)
        return f"NumberField({terms}, signature={self.signature})"


@functools.lru_cache(maxsize=64)
def _trace_dual(f: NumberField) -> tuple:
    """(rows, den): the inverse of the power-sum Hankel matrix
    (Tr(beta^(j+k)))_{j,k} as integer rows over one denominator."""
    m = f.degree
    ps = f.power_sums(2 * m)
    A = [[ps[j + k] for k in range(m)] + [Fraction(int(j == k)) for k in range(m)]
         for j in range(m)]
    if gauss_jordan(A, m)[0] < m:
        raise SingularSystem("trace system is singular")
    return common_den([row[m:] for row in A])


def _raw(field: NumberField, num: tuple, den: int) -> FieldElement:
    """The element num/den, already in canonical form."""
    x = object.__new__(FieldElement)
    x.field = field
    x.num = num
    x.den = den
    return x


def _elem(field: NumberField, num: tuple, den: int) -> FieldElement:
    """The element num/den for a positive integer den, made canonical."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
    return _raw(field, num, den)


class FieldElement:
    """sum_i num[i] beta^i / den: an integer coordinate vector in the power
    basis over one denominator, kept canonical (den > 0 and
    gcd(den, *num) == 1) so that equality and hashing compare integers."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, coords):
        x = field.element(coords)
        self.field, self.num, self.den = field, x.num, x.den

    @property
    def coords(self) -> tuple:
        """The power-basis coordinates as Fractions (derived, read-only)."""
        d = self.den
        return tuple(Fraction(a, d) for a in self.num)

    # -- ring structure -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch("elements of different fields")
            return other
        if isinstance(other, (int, Fraction, str)):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        da, db = self.den, o.den
        g = gcd(da, db)
        ka, kb = db // g, da // g
        return _elem(self.field,
                     tuple(a * ka + b * kb for a, b in zip(self.num, o.num)),
                     da * ka)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        f = self.field
        if isinstance(other, int):
            # gcd(den, n * num) == gcd(den, n) since gcd(den, *num) == 1
            g = gcd(self.den, other)
            k = other // g
            return _raw(f, tuple(a * k for a in self.num), self.den // g)
        if isinstance(other, Fraction):
            p = other.numerator
            return _elem(f, tuple(a * p for a in self.num),
                         self.den * other.denominator)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        m = f.degree
        prod = [0] * (2 * m - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(o.num):
                    if b:
                        prod[i + j] += a * b
        rd = f._red_den
        out = prod[:m] if rd == 1 else [c * rd for c in prod[:m]]
        for c, row in zip(prod[m:], f._red):
            if c:
                for t in range(m):
                    out[t] += c * row[t]
        return _elem(f, tuple(out), self.den * o.den * rd)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        """1/x by Cayley-Hamilton on y = D x of `_int_char_poly`: with its
        char poly X^m + ... + g_1 X + g_0, y^-1 = -(y^(m-1) + g_(m-1)
        y^(m-2) + ... + g_1) / g_0, and x^-1 = D y^-1."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            return self.field.element(1 / self.as_rational())
        pw, D, g = self._int_char_poly()
        if g[0] == 0:
            # a zero divisor: its gcd with the defining polynomial is a factor
            h = polys.gcd(self.num, self.field.minpoly_int)
            raise ReducibleDetected("element exposes factor with coefficients "
                                    f"{list(h)}")
        acc = sum((y * c for c, y in zip(g[1:], pw) if c), self.field.zero)
        return acc * Fraction(-D, g[0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.field.element(Fraction(other)) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return ((other.field is self.field or other.field == self.field)
                    and self.den == other.den and self.num == other.num)
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator
                    and self.num[0] == other.numerator
                    and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    # -- invariants -------------------------------------------------------

    def trace(self) -> Fraction:
        """Tr(x) = sum_i x_i Tr(beta^i), from the field's power sums."""
        f = self.field
        return Fraction(sum(map(_mul, self.num, f._tr)), self.den * f._tr_den)

    def norm(self) -> Fraction:
        return (-1) ** self.field.degree * self.char_poly()[0]

    def _int_char_poly(self) -> tuple:
        """([1, y, ..., y^(m-1)], D, g) for y = D x, D = den c^(m-1), with c
        the leading coefficient of the field's integer defining polynomial:
        c beta is an algebraic integer, so y is one too.  g is the
        characteristic polynomial of multiplication by y, monic with integer
        coefficients, ascending, from the integer traces of y^k for k <= m
        by Newton's identities."""
        f = self.field
        m = f.degree
        D = self.den * f.minpoly_int[-1] ** (m - 1)
        y = self * D
        pw = [f.one]
        for _ in range(m):
            pw.append(pw[-1] * y)
        ps = [z.trace() for z in pw]
        if any(t.denominator != 1 for t in ps):
            raise CertificateFailed("integer traces expected")
        return pw[:m], D, polys._int_from_power_sums(
            [t.numerator for t in ps], m)

    def char_poly(self) -> tuple:
        """Characteristic polynomial of multiplication by x, monic of degree
        m, ascending coefficients: that of y = D x, roots divided by D."""
        _, D, g = self._int_char_poly()
        m = len(g) - 1
        return tuple(Fraction(c, D ** (m - i)) for i, c in enumerate(g))

    def minimal_poly(self) -> tuple:
        """Monic minimal polynomial over Q."""
        return polys.monic(self._minimal_poly_int())

    @functools.lru_cache(maxsize=256)
    def _minimal_poly_int(self) -> tuple:
        """The minimal polynomial over Q in canonical integer form: the
        squarefree part of the char poly of y = D x, roots divided by D;
        kept for the last 256 (immutable, hashable) elements."""
        _, D, g = self._int_char_poly()
        return polys.scale_roots(polys.squarefree_part(g), Fraction(1, D))

    def is_algebraic_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.char_poly())

    def is_unit(self) -> bool:
        """An algebraic integer of norm +-1."""
        cp = self.char_poly()
        return all(c.denominator == 1 for c in cp) and abs(cp[0]) == 1

    # -- embeddings ---------------------------------------------------------

    def embed(self, root_index: Optional[int] = None, prec_bits: int = 30):
        """Certified box around sigma_j(self), at most 2**(1-prec_bits) wide;
        OutOfRange below 0 bits, PrecisionExhausted past polys.CEILING_BITS."""
        if prec_bits < 0:
            raise OutOfRange("prec_bits must be >= 0")
        f = self.field
        j = f.root_index(root_index)
        target = Fraction(1, 2 ** prec_bits)
        if self.is_rational():
            q = self.as_rational()
            return (RatInterval.point(q) if f.is_real_root(j)
                    else ComplexBox.point(q))
        horner = horner_interval if f.is_real_root(j) else horner_box
        width = Fraction(1, 2 ** 8)
        while True:
            out = horner(self.num, self.den, f.root_box(j, width))
            if out.width <= 2 * target:
                return out
            if prec_bits > polys.CEILING_BITS:
                raise PrecisionExhausted(f"embed to {prec_bits} bits", out)
            width /= 2 ** 6

    def enclosures(self, root_index: Optional[int] = None, prec_bits: int = 8):
        """The boxes embed(j, prec_bits << k) for k = 0, 1, 2, ...: every
        refinement loop over sigma_j(self) reads this one stream."""
        return (self.embed(root_index, prec_bits << k) for k in count())

    def _first_look(self, j: int) -> tuple:
        """(lo, hi, den): sigma_j(self) lies in [lo, hi] / den, by integer
        Horner on real root j's current enclosure [a, b] / d: one read of
        its immutable `box`, so no lock is needed."""
        lo, hi, dk = horner_ints(self.num, *self.field._roots[j].box._t)
        return lo, hi, self.den * dk

    def compare_rational(self, q, root_index: Optional[int] = None) -> int:
        """Exact sign of sigma_j(self) - q at a real embedding: by the first
        look when q lies outside its box, else by the enclosure stream."""
        j = self.field.root_index(root_index)
        if not self.field.is_real_root(j):
            raise ComplexEmbedding("comparison needs a real embedding")
        q = Fraction(q)
        if self.is_rational():
            return polys._sign(self.as_rational() - q)
        lo, hi, den = self._first_look(j)
        if lo * q.denominator > q.numerator * den:
            return 1
        if hi * q.denominator < q.numerator * den:
            return -1
        return sign_vs(self.enclosures(j), q)

    def __repr__(self):
        return f"FieldElement{self.coords}"


# ---------------------------------------------------------------------------
# certified integer-part primitives on real embeddings
# ---------------------------------------------------------------------------

def certified_floor(x: FieldElement, root_index: Optional[int] = None) -> int:
    """Exact floor of sigma_j(x) at a real embedding.

    A first look at root j's current enclosure (`FieldElement._first_look`)
    decides when it pins a single unit interval.  Otherwise the enclosures
    narrow until one does; one that straddles an integer n is settled by the
    exact test x == n.
    """
    j = x.field.root_index(root_index)
    if not x.field.is_real_root(j):
        raise ComplexEmbedding("floor needs a real embedding")
    if x.is_rational():
        return x.num[0] // x.den
    lo, hi, den = x._first_look(j)
    if lo // den == hi // den:
        return lo // den
    return floor_of(x.enclosures(j), lambda n: n if x == n else None)


def certified_ceil(x: FieldElement, root_index: Optional[int] = None) -> int:
    return -certified_floor(-x, root_index)


def certified_nint(x: FieldElement, root_index: Optional[int] = None) -> int:
    """Nearest integer with halves rounding up: floor(x + 1/2)."""
    return certified_floor(x + Fraction(1, 2), root_index)


def certified_frac(x: FieldElement, root_index: Optional[int] = None) -> FieldElement:
    """x - floor(x), exactly, as a field element."""
    return x - certified_floor(x, root_index)


def certified_dist(x: FieldElement, root_index: Optional[int] = None) -> FieldElement:
    """Distance from sigma_j(x) to the nearest integer, as the exact field
    element |x - nint(x)|."""
    d = x - certified_nint(x, root_index)
    if d.is_zero() or d.compare_rational(0, root_index) >= 0:
        return d
    return -d


def compare_elements(x: FieldElement, y: FieldElement,
                     root_index: Optional[int] = None) -> int:
    """Exact sign of sigma_j(x) - sigma_j(y) at a shared real embedding."""
    d = x - y
    if d.is_zero():
        return 0
    return d.compare_rational(0, root_index)
