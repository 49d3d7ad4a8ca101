"""Exact real algebraic numbers as (defining polynomial, isolating interval).

This layer handles every exact decision that leaves a single field
embedding: sums and products across embeddings or across different fields,
real and imaginary parts of complex embeddings, floors of such values, and
modulus-one tests.  A value's defining polynomial is a canonical integer
polynomial (ints, content 1, positive leading coefficient).  Those of sums
and products come from power-sum resolvents (`polys.sum_poly`,
`polys.prod_poly`) and their squarefree parts; a rational shift or scaling
is an integer Taylor shift or root scaling (`polys.shift_roots`,
`polys.scale_roots`); that of a field element is its canonical integer
minimal polynomial, from the integer traces of an algebraic-integer
multiple.  Each value is built by `_isolate` from a stream of enclosures
(a field element's `enclosures`, or two `RealAlg.enclosures` zipped): the
first box settles it when P' keeps one sign there, so P is monotone on it,
and otherwise the boxes are read until one holds a single root of the
resolvent, counted on its Sturm chain.  Signs and floors then read the
value's own stream through `intervals.sign_vs` and `intervals.floor_of`,
and settle hits with exact integer arithmetic.  A `genpoly` chain of sums
or products folds its same-field operands first: one resolvent per
embedding it holds, not one per operand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from operator import add, mul
from typing import Optional

from . import polys
from .errors import CertificateFailed, ComplexEmbedding, RealEmbedding
from .intervals import RatInterval, floor_of, horner_interval, sign_vs
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
    """A real algebraic number: squarefree defining polynomial `poly`, a
    canonical tuple of ints, plus an open isolating interval `iv`, a
    `RatInterval` whose ends `lo` and `hi` are read-only; or an exact
    rational `rat`, with the point interval `iv` at it.

    Decisions read the stream `enclosures(width)` of ever narrower
    isolating intervals: `compare_rational` through `intervals.sign_vs`,
    `floor` through `intervals.floor_of`, which settles a straddled integer
    by an exact comparison.  Binary add/mul build a sum or product
    resolvent, whose degree is the product of the operand degrees, and
    isolate the result from the operands' zipped streams; they are meant
    for low-degree operands (`genpoly.eval_expr` folds the operands of a
    chain at one root of one field before it builds any).
    """

    __slots__ = ("poly", "iv", "rat")

    def __init__(self, poly, iv: RatInterval, rat: Optional[Fraction] = None):
        self.poly = poly
        self.iv = iv
        self.rat = rat

    lo = property(lambda self: self.iv.lo)
    hi = property(lambda self: self.iv.hi)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "RealAlg":
        q = Fraction(q)
        return RealAlg(None, RatInterval.point(q), rat=q)

    @staticmethod
    def from_embedding(x: FieldElement, root_index: Optional[int] = None) -> "RealAlg":
        """sigma_j(x) at a real embedding, as a self-contained value.  For
        x = beta, the field's polynomial and root box at width 2^-8, which
        `_isolate` reads off the first enclosure; else isolated."""
        j = x.field.root_index(root_index)
        if not x.field.is_real_root(j):
            raise ComplexEmbedding("from_embedding needs a real root index")
        if x.is_rational():
            return RealAlg.from_rational(x.as_rational())
        if x == x.field.beta:
            iv = x.field.root_box(j, Fraction(1, 2 ** 8))
            return (RealAlg.from_rational(iv.lo) if iv._t[0] == iv._t[1]
                    else RealAlg(x.field.minpoly_int, iv))
        return _isolate(x._minimal_poly_int(), x.enclosures(j))

    # -- basic state ----------------------------------------------------------

    def interval(self) -> RatInterval:
        return self.iv

    def refine(self, width: Fraction) -> None:
        if self.rat is not None:
            return
        self.iv = iv = polys.refine_root(self.poly, self.iv, width)
        if iv._t[0] == iv._t[1]:
            self.rat = iv.lo

    def refined_interval(self, width: Fraction) -> RatInterval:
        self.refine(width)
        return self.interval()

    def enclosures(self, width: Fraction):
        """The intervals refined_interval(width / 16**k), k = 0, 1, 2, ..."""
        return (self.refined_interval(width / 16 ** k) for k in count())

    # -- exact decisions -------------------------------------------------------

    def compare_rational(self, q) -> int:
        """Exact sign of self - q."""
        q = Fraction(q)
        if self.lo < q < self.hi and polys.int_sign_at(self.poly, q) == 0:
            # q is a root strictly inside the isolating interval, hence
            # it is the unique root there: the value itself
            self.rat = q
            self.iv = RatInterval.point(q)
        return sign_vs(chain([self.iv], self.enclosures(self.iv.width / 4)), q)

    def eq_rational(self, q) -> bool:
        return self.compare_rational(q) == 0

    def sign(self) -> int:
        return self.compare_rational(0)

    def floor(self) -> int:
        return floor_of(self.enclosures(Fraction(1, 4)),
                        lambda n: n if self.compare_rational(n) >= 0 else n - 1)

    def nint(self) -> int:
        """Nearest integer, halves rounding up."""
        return self.add_rational(Fraction(1, 2)).floor()

    # -- arithmetic -------------------------------------------------------------

    def __neg__(self) -> "RealAlg":
        if self.rat is not None:
            return RealAlg.from_rational(-self.rat)
        return RealAlg(polys.scale_roots(self.poly, -1), -self.iv)

    def add_rational(self, q) -> "RealAlg":
        q = Fraction(q)
        if self.rat is not None:
            return RealAlg.from_rational(self.rat + q)
        return RealAlg(polys.shift_roots(self.poly, q), self.iv + q)

    def mul_rational(self, q) -> "RealAlg":
        q = Fraction(q)
        if self.rat is not None:
            return RealAlg.from_rational(self.rat * q)
        if q == 0:
            return RealAlg.from_rational(0)
        return RealAlg(polys.scale_roots(self.poly, q), self.iv * q)

    def add(self, other: "RealAlg") -> "RealAlg":
        if other.rat is not None:
            return self.add_rational(other.rat)
        if self.rat is not None:
            return other.add_rational(self.rat)
        w = Fraction(1, 64)  # map() pulls the two streams in step
        return _isolate(_sum_poly_sq(self.poly, other.poly),
                        map(add, self.enclosures(w), other.enclosures(w)))

    def mul(self, other: "RealAlg") -> "RealAlg":
        if other.rat is not None:
            return self.mul_rational(other.rat)
        if self.rat is not None:
            return other.mul_rational(self.rat)
        w = Fraction(1, 64)
        return _isolate(_prod_poly_sq(self.poly, other.poly),
                        map(mul, self.enclosures(w), other.enclosures(w)))

    def __repr__(self):
        if self.rat is not None:
            return f"RealAlg({self.rat})"
        return f"RealAlg(deg {polys.degree(self.poly)} in {self.iv})"


def _isolate(P: tuple, boxes) -> Optional[RealAlg]:
    """The root of the squarefree canonical polynomial P that the boxes
    enclose, with P as defining polynomial; a lone root on an end of a box,
    or a point box, is that rational itself.  None when a finite iterable
    of boxes runs out first.

    The first box X is tried without a remainder chain: when one integer
    Horner pass of P' over X leaves out 0, P is monotone on X, so the root
    that X holds is its only one there, and the signs of P at the ends of
    X give it (an interval Newton certificate, after R. E. Moore,
    "Interval Analysis", 1966).  Otherwise the boxes are read until one
    holds exactly one root, counted on the Sturm chain of P."""
    dP = polys.derivative(P) or [0]  # [0]: P is constant
    sturm = None
    for box in boxes:
        a, b, d = box._t
        if a == b:
            return RealAlg.from_rational(box.lo)
        slo, shi = (polys._sign(polys.horner_at(P, e, d)[0]) for e in (a, b))
        if sturm is None and not horner_interval(dP, 1, box).contains(0):
            n = int(slo != shi)  # P is monotone on the box
        else:
            sturm = sturm or polys.sturm_chain(P)
            n = polys.count_roots(sturm, box.lo, box.hi) + (slo, shi).count(0)
        if n == 1:
            if slo == 0 or shi == 0:
                return RealAlg.from_rational(box.lo if slo == 0 else box.hi)
            return RealAlg(P, box)
        if n == 0:
            raise CertificateFailed("certified enclosure contains no root", box)
    return None


# ---------------------------------------------------------------------------
# complex embeddings: real part, imaginary part, |.|^2, complex floor
# ---------------------------------------------------------------------------

def embedding_is_real(x: FieldElement, root_index: int) -> bool:
    """Exact test: is tau_j(x) a real number?  (The value is a root of the
    minimal polynomial of x; nonreal roots have |Im| bounded below by half
    the root-separation bound, so refining the box decides.)"""
    j = x.field.root_index(root_index)
    if x.field.is_real_root(j) or x.is_rational():
        return True
    return _is_real_at(x, j, x._minimal_poly_int())


def _is_real_at(x: FieldElement, j: int, c: tuple) -> bool:
    """embedding_is_real at a complex root index j, for x irrational with
    minimal polynomial c."""
    sep_sq = _min_sep_sq(c)
    for box in x.enclosures(j):
        if not box.im.contains(0):
            return False
        if 4 * box.im.mag ** 2 < sep_sq:
            return True


def re_of_embedding(x: FieldElement, root_index: Optional[int] = None) -> RealAlg:
    """Re tau_j(x) as an exact real algebraic number."""
    j = x.field.root_index(root_index)
    if x.field.is_real_root(j):
        return RealAlg.from_embedding(x, j)
    if x.is_rational():
        return RealAlg.from_rational(x.as_rational())
    c = x._minimal_poly_int()
    if _is_real_at(x, j, c):
        # the embedded value is itself a real root of c
        return _isolate(c, (b.re + RatInterval(-b.im.mag, b.im.mag)
                            for b in x.enclosures(j)))
    twice = _sum_poly_sq(c, c)  # roots include tau + conj(tau) = 2 Re
    return _isolate(twice, (b.re * 2 for b in x.enclosures(j))).mul_rational(
        Fraction(1, 2))


def im_of_embedding(x: FieldElement, root_index: Optional[int] = None) -> RealAlg:
    """Im tau_j(x) as an exact real algebraic number."""
    j = x.field.root_index(root_index)
    if x.field.is_real_root(j) or x.is_rational():
        return RealAlg.from_rational(0)
    c = x._minimal_poly_int()
    if _is_real_at(x, j, c):
        return RealAlg.from_rational(0)
    diff = _diff_poly_sq(c, c)          # roots alpha_a - alpha_b, odd symmetric
    # strip the simple zero root, keep the even-function structure:
    # E(w) = w G(w^2)
    dp = diff[1:]
    if any(dp[1::2]):
        raise CertificateFailed("difference resolvent is not odd-symmetric")
    # tau - conj(tau) = 2 i Im, so (2 i Im)^2 = -4 Im^2 is a root of G and
    # Im one of H(y) = G(-4 y^2)
    H = [0] * len(dp)
    H[0::2] = [g * (-4) ** k for k, g in enumerate(dp[0::2])]
    return _isolate(polys.squarefree_part(H), (b.im for b in x.enclosures(j)))


def abs_sq_of_embedding(x: FieldElement, root_index: Optional[int] = None) -> RealAlg:
    """|sigma_j(x)|^2 as an exact real algebraic number (any embedding)."""
    j = x.field.root_index(root_index)
    if x.is_rational():
        return RealAlg.from_rational(x.as_rational() ** 2)
    if x.field.is_real_root(j):
        return RealAlg.from_embedding(x * x, j)
    c = x._minimal_poly_int()
    pp = _prod_poly_sq(c, c)  # roots alpha_a * alpha_b, includes tau * conj(tau)
    return _isolate(pp, (b.abs_sq() for b in x.enclosures(j)))


def complex_floor(x: FieldElement, root_index: Optional[int] = None) -> tuple:
    """Componentwise floor of tau_j(x): (floor Re, floor Im), both exact.

    Raises RealEmbedding at a real root index (use certified_floor there).
    """
    j = x.field.root_index(root_index)
    if x.field.is_real_root(j):
        raise RealEmbedding("complex floor needs a complex embedding")
    return re_of_embedding(x, j).floor(), im_of_embedding(x, j).floor()
