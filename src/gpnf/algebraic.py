"""Exact real algebraic numbers as (defining polynomial, isolating interval).

This layer handles every exact decision that leaves a single field
embedding: sums and products across embeddings or across different fields,
real and imaginary parts of complex embeddings, floors of such values, and
modulus-one tests.  Defining polynomials of sums and products come from
power-sum resolvents (`polys.sum_poly`, `polys.prod_poly`); all decisions
refine a certified interval and settle hits with exact polynomial
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import polys
from .errors import RealEmbedding
from .intervals import RatInterval
from .numberfield import FieldElement, _min_sep_sq


@lru_cache(maxsize=256)
def _sum_poly_sq(a: tuple, b: tuple) -> tuple:
    return polys.squarefree_part(polys.sum_poly(a, b))


@lru_cache(maxsize=256)
def _prod_poly_sq(a: tuple, b: tuple) -> tuple:
    return polys.squarefree_part(polys.prod_poly(a, b))


@lru_cache(maxsize=256)
def _diff_poly_sq(a: tuple, b: tuple) -> tuple:
    return polys.squarefree_part(polys.diff_poly(a, b))


class RealAlg:
    """A real algebraic number: squarefree defining polynomial plus an open
    isolating interval, or an exact rational.

    Binary add/mul build resolvent polynomials whose degree is the product
    of the operand degrees; they are meant for low-degree operands (the
    expression evaluator keeps values inside a single field whenever it
    can).  The per-embedding helpers below (re/im/|.|^2) use dedicated
    resolvents and stay one resultant deep.
    """

    __slots__ = ("poly", "lo", "hi", "rat")

    def __init__(self, poly, lo, hi, rat: Optional[Fraction] = None):
        self.poly = poly
        self.lo = lo
        self.hi = hi
        self.rat = rat

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "RealAlg":
        q = Fraction(q)
        return RealAlg(None, q, q, rat=q)

    @staticmethod
    def from_embedding(x: FieldElement, root_index: Optional[int] = None) -> "RealAlg":
        """sigma_j(x) at a real embedding, as a self-contained value."""
        f = x.field
        j = f.distinguished if root_index is None else root_index
        if not f.is_real_root(j):
            raise ValueError("from_embedding needs a real root index")
        if x.is_rational():
            return RealAlg.from_rational(x.as_rational())
        c = x.minimal_poly()
        prec = 8
        while True:
            box = x.embed(j, prec)
            r = _try_isolate(c, box)
            if r is not None:
                return r
            prec *= 2

    # -- basic state ----------------------------------------------------------

    def interval(self) -> RatInterval:
        return RatInterval(self.lo, self.hi)

    def refine(self, width: Fraction) -> None:
        if self.rat is not None:
            return
        lo, hi = polys.refine_root(self.poly, self.lo, self.hi, width)
        self.lo, self.hi = lo, hi
        if lo == hi:
            self.rat = lo

    def refined_interval(self, width: Fraction) -> RatInterval:
        self.refine(width)
        return self.interval()

    # -- exact decisions -------------------------------------------------------

    def compare_rational(self, q) -> int:
        """Exact sign of self - q."""
        q = Fraction(q)
        if self.rat is not None:
            return (self.rat > q) - (self.rat < q)
        if q <= self.lo:
            return 1
        if q >= self.hi:
            return -1
        if polys.eval_at(self.poly, q) == 0:
            # q is a root strictly inside the isolating interval, hence
            # it is the unique root there: the value itself
            self.rat = q
            self.lo = self.hi = q
            return 0
        width = (self.hi - self.lo) / 4
        while True:
            self.refine(width)
            if self.rat is not None:
                return (self.rat > q) - (self.rat < q)
            if q <= self.lo:
                return 1
            if q >= self.hi:
                return -1
            width /= 16

    def eq_rational(self, q) -> bool:
        return self.compare_rational(q) == 0

    def sign(self) -> int:
        return self.compare_rational(0)

    def floor(self) -> int:
        if self.rat is not None:
            return self.rat.numerator // self.rat.denominator
        width = Fraction(1, 4)
        while True:
            self.refine(width)
            if self.rat is not None:
                return self.rat.numerator // self.rat.denominator
            flo = self.lo.numerator // self.lo.denominator
            fhi = self.hi.numerator // self.hi.denominator
            if flo == fhi:
                return flo
            if fhi - flo == 1:
                return fhi if self.compare_rational(fhi) >= 0 else flo
            width /= 16

    def nint(self) -> int:
        """Nearest integer, halves rounding up."""
        return self.add_rational(Fraction(1, 2)).floor()

    # -- arithmetic -------------------------------------------------------------

    def __neg__(self) -> "RealAlg":
        if self.rat is not None:
            return RealAlg.from_rational(-self.rat)
        return RealAlg(polys.squarefree_part(polys.scale_roots(self.poly, -1)),
                       -self.hi, -self.lo)

    def add_rational(self, q) -> "RealAlg":
        q = Fraction(q)
        if self.rat is not None:
            return RealAlg.from_rational(self.rat + q)
        shifted = polys.compose(self.poly, polys.mk([-q, 1]))
        return RealAlg(shifted, self.lo + q, self.hi + q)

    def mul_rational(self, q) -> "RealAlg":
        q = Fraction(q)
        if self.rat is not None:
            return RealAlg.from_rational(self.rat * q)
        if q == 0:
            return RealAlg.from_rational(0)
        a, b = self.lo * q, self.hi * q
        return RealAlg(polys.squarefree_part(polys.scale_roots(self.poly, q)),
                       min(a, b), max(a, b))

    def add(self, other: "RealAlg") -> "RealAlg":
        if other.rat is not None:
            return self.add_rational(other.rat)
        if self.rat is not None:
            return other.add_rational(self.rat)
        target = _sum_poly_sq(self.poly, other.poly)
        return _isolate_binary(target, self, other,
                               lambda a, b: a + b)

    def mul(self, other: "RealAlg") -> "RealAlg":
        if other.rat is not None:
            return self.mul_rational(other.rat)
        if self.rat is not None:
            return other.mul_rational(self.rat)
        target = _prod_poly_sq(self.poly, other.poly)
        return _isolate_binary(target, self, other,
                               lambda a, b: a * b)

    def __repr__(self):
        if self.rat is not None:
            return f"RealAlg({self.rat})"
        return f"RealAlg(deg {polys.degree(self.poly)} in [{self.lo}, {self.hi}])"


def _try_isolate(sq: tuple, box: RatInterval) -> Optional[RealAlg]:
    """Wrap box as an isolating interval for a root of squarefree sq, or
    return None when the box does not yet isolate; a lone root on an end
    of the box is that rational itself."""
    lo, hi = box.lo, box.hi
    if lo == hi:
        return RealAlg.from_rational(lo)
    chain = polys.sturm_chain(sq)
    ends = [x for x in (lo, hi) if polys.int_sign_at(chain[0], x) == 0]
    n = polys.count_roots(chain, lo, hi) + len(ends)
    if n == 1:
        return RealAlg.from_rational(ends[0]) if ends else RealAlg(sq, lo, hi)
    if n == 0:
        raise ArithmeticError("certified enclosure contains no root")
    return None


def _isolate_binary(target: tuple, a: RealAlg, b: RealAlg, op) -> RealAlg:
    """Isolate op(a, b) among the roots of its resolvent polynomial."""
    width = Fraction(1, 64)
    while True:
        ia = a.refined_interval(width)
        ib = b.refined_interval(width)
        r = _try_isolate(target, op(ia, ib))
        if r is not None:
            return r
        width /= 16


# ---------------------------------------------------------------------------
# complex embeddings: real part, imaginary part, |.|^2, complex floor
# ---------------------------------------------------------------------------

def embedding_is_real(x: FieldElement, root_index: int) -> bool:
    """Exact test: is tau_j(x) a real number?  (The value is a root of the
    minimal polynomial of x; nonreal roots have |Im| bounded below by half
    the root-separation bound, so refining the box decides.)"""
    f = x.field
    if f.is_real_root(root_index):
        return True
    if x.is_rational():
        return True
    c = x.minimal_poly()
    sep_sq = _min_sep_sq(c)
    prec = 8
    while True:
        box = x.embed(root_index, prec)
        im = box.im
        if not im.contains(0):
            return False
        if 4 * im.mag ** 2 < sep_sq:
            return True
        prec *= 2


def re_of_embedding(x: FieldElement, root_index: Optional[int] = None) -> RealAlg:
    """Re tau_j(x) as an exact real algebraic number."""
    f = x.field
    j = f.distinguished if root_index is None else root_index
    if f.is_real_root(j):
        return RealAlg.from_embedding(x, j)
    if x.is_rational():
        return RealAlg.from_rational(x.as_rational())
    c = x.minimal_poly()
    if embedding_is_real(x, j):
        # the embedded value is itself a real root of c
        prec = 8
        while True:
            box = x.embed(j, prec)
            r = _try_isolate(c, box.re + RatInterval(-box.im.mag, box.im.mag))
            if r is not None:
                return r
            prec *= 2
    twice = _sum_poly_sq(c, c)  # roots include tau + conj(tau) = 2 Re
    prec = 8
    while True:
        box = x.embed(j, prec)
        r = _try_isolate(twice, box.re * 2)
        if r is not None:
            return r.mul_rational(Fraction(1, 2))
        prec *= 2


def im_of_embedding(x: FieldElement, root_index: Optional[int] = None) -> RealAlg:
    """Im tau_j(x) as an exact real algebraic number."""
    f = x.field
    j = f.distinguished if root_index is None else root_index
    if f.is_real_root(j) or x.is_rational() or embedding_is_real(x, j):
        return RealAlg.from_rational(0)
    c = x.minimal_poly()
    diff = _diff_poly_sq(c, c)          # roots alpha_a - alpha_b, odd symmetric
    # strip the zero root, keep the even-function structure: E(w) = w G(w^2)
    dp = list(diff)
    while dp and dp[0] == 0:
        dp.pop(0)
    G = polys.mk(dp[0::2])
    if any(c2 != 0 for c2 in dp[1::2]):
        raise ArithmeticError("difference resolvent is not odd-symmetric")
    # tau - conj(tau) = 2 i Im, so (2 i Im)^2 = -4 Im^2 is a root of G
    H = polys.squarefree_part(polys.compose(G, polys.mk([0, 0, -4])))
    prec = 8
    while True:
        box = x.embed(j, prec)
        r = _try_isolate(H, box.im)
        if r is not None:
            return r
        prec *= 2


def abs_sq_of_embedding(x: FieldElement, root_index: Optional[int] = None) -> RealAlg:
    """|sigma_j(x)|^2 as an exact real algebraic number (any embedding)."""
    f = x.field
    j = f.distinguished if root_index is None else root_index
    if x.is_rational():
        return RealAlg.from_rational(x.as_rational() ** 2)
    if f.is_real_root(j):
        return RealAlg.from_embedding(x * x, j)
    c = x.minimal_poly()
    pp = _prod_poly_sq(c, c)  # roots alpha_a * alpha_b, includes tau * conj(tau)
    prec = 8
    while True:
        box = x.embed(j, prec)
        r = _try_isolate(pp, box.abs_sq())
        if r is not None:
            return r
        prec *= 2


def complex_floor(x: FieldElement, root_index: Optional[int] = None) -> tuple:
    """Componentwise floor of tau_j(x): (floor Re, floor Im), both exact.

    Raises RealEmbedding at a real root index (use certified_floor there).
    """
    f = x.field
    j = f.distinguished if root_index is None else root_index
    if f.is_real_root(j):
        raise RealEmbedding("complex floor needs a complex embedding")
    return re_of_embedding(x, j).floor(), im_of_embedding(x, j).floor()
