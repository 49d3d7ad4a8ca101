"""Certified interval arithmetic on integers over one denominator.

A RatInterval [lo, hi] always contains the true value; operations produce
intervals containing every possible result, so enclosure is preserved with
no rounding anywhere.  Its ends are integers a <= b over one d > 0 in lowest
terms; `lo` and `hi` are their Fraction view.  ComplexBox is a rectangle
(pair of intervals).

The Horner kernels `horner_interval` and `horner_box` read those integers:
every step is integer products, a min/max and an add, and the box is
reduced once at the end.  All scalings are by positive integers, so the
result is the same rational box as the rational Horner `acc * x + c`.

Exact values (field embeddings, `algebraic.RealAlg`) hand out streams of
ever narrower enclosures; `sign_vs` and `floor_of` are the sign and floor
rules that read them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .records import Frozen, set_field


def common_den(rows: list) -> tuple:
    """(int_rows, den): rows of rationals (ints or Fractions) as integer
    tuples over the least common denominator of all their entries."""
    den = lcm(1, *(c.denominator for row in rows for c in row))
    return [tuple(c.numerator * (den // c.denominator) for c in row)
            for row in rows], den


def _rational(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"interval ends must be int or Fraction, not "
                    f"{type(v).__name__}")


def _ends(x) -> tuple:
    """(a, b, d) of an interval, or (n, n, e) of a scalar n / e."""
    if isinstance(x, RatInterval):
        return x._t
    x = x if type(x) is int else Fraction(x)
    return x.numerator, x.numerator, x.denominator


def _over(a: int, b: int, d: int) -> "RatInterval":
    """[a, b] / d in lowest terms, for ints a <= b and d > 0; for a power of
    two d, gcd(a, b, d) is the lowest set bit of a | b | d."""
    g = gcd(d, a, b) if d & (d - 1) else (a | b | d) & -(a | b | d)
    iv = object.__new__(RatInterval)
    set_field(iv, "_t", (a // g, b // g, d // g))
    return iv


class RatInterval(Frozen):
    """[lo, hi] = [a, b] / d, kept as _t = (a, b, d)."""
    __slots__ = ("_t", "_f")
    __match_args__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if type(lo) is not Fraction or type(hi) is not Fraction:
            lo, hi = _rational(lo), _rational(hi)
        (a, d), (b, e) = lo.as_integer_ratio(), hi.as_integer_ratio()
        if a * e > b * d:
            raise ValueError("empty interval")
        h = lcm(d, e)
        set_field(self, "_t", (a * (h // d), b * (h // e), h))
        set_field(self, "_f", (lo, hi))

    def _values(self) -> tuple:
        """(lo, hi) as Fractions, built on first read and kept."""
        try:
            return self._f
        except AttributeError:
            a, b, d = self._t
            set_field(self, "_f", (Fraction(a, d), Fraction(b, d)))
            return self._f

    lo = property(lambda self: self._values()[0])
    hi = property(lambda self: self._values()[1])
    over = staticmethod(_over)

    @staticmethod
    def point(x) -> "RatInterval":
        return RatInterval(x, x)

    @property
    def width(self) -> Fraction:
        a, b, d = self._t
        return Fraction(b - a, d)

    @property
    def mid(self) -> Fraction:
        a, b, d = self._t
        return Fraction(a + b, 2 * d)

    @property
    def mag(self) -> Fraction:
        """Upper bound for |x| over the interval."""
        a, b, d = self._t
        return Fraction(max(-a, b), d)

    @property
    def mig(self) -> Fraction:
        """Lower bound for |x| over the interval (0 if it contains 0)."""
        a, b, d = self._t
        return Fraction(a if a > 0 else max(0, -b), d)

    def contains(self, x) -> bool:
        (a, b, d), (n, _, e) = self._t, _ends(x)
        return a * e <= n * d <= b * e

    def overlaps(self, other: "RatInterval") -> bool:
        (a, b, d), (e, f, g) = self._t, other._t
        return a * g <= f * d and e * d <= b * g

    def strictly_inside(self, other: "RatInterval") -> bool:
        (a, b, d), (e, f, g) = self._t, other._t
        return e * d < a * g and b * g < f * d

    def __add__(self, other):
        (a, b, d), (e, f, g) = self._t, _ends(other)
        return _over(a * g + e * d, b * g + f * d, d * g)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._t
        return _over(-b, -a, d)

    def __sub__(self, other):
        (a, b, d), (e, f, g) = self._t, _ends(other)
        return _over(a * g - f * d, b * g - e * d, d * g)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        (a, b, d), (e, f, g) = self._t, _ends(other)
        p, q, r, s = a * e, a * f, b * e, b * f
        return _over(min(p, q, r, s), max(p, q, r, s), d * g)

    __rmul__ = __mul__

    def recip(self) -> "RatInterval":
        a, b, d = self._t
        if a <= 0 <= b:
            raise ZeroDivisionError("interval contains zero")
        return _over(d * a, d * b, a * b)   # [d/b, d/a]: a and b share a sign

    def __truediv__(self, other):
        if isinstance(other, RatInterval):
            return self * other.recip()
        return self * (1 / Fraction(other))

    def sq(self) -> "RatInterval":
        a, b, d = self._t
        lo = 0 if a <= 0 <= b else min(abs(a), abs(b))
        hi = max(-a, b)
        return _over(lo * lo, hi * hi, d * d)

    def pow(self, n: int) -> "RatInterval":
        if n == 0:
            return RatInterval.point(1)
        if n < 0:
            return self.pow(-n).recip()
        out = RatInterval.point(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base.sq()
            n >>= 1
        return out

    def sign(self):
        """+1, -1, or None when the interval straddles zero."""
        a, b, _ = self._t
        if a > 0:
            return 1
        if b < 0:
            return -1
        if a == b == 0:
            return 0
        return None

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"

    def approx_str(self, digits: int = 12) -> str:
        """The midpoint to `digits` decimals, in a local decimal context."""
        from decimal import Decimal, localcontext
        m = self.mid
        whole = len(str(abs(m.numerator) // m.denominator))
        with localcontext() as ctx:
            ctx.prec = digits + 4 + max(0, whole - 4)
            d = Decimal(m.numerator) / Decimal(m.denominator)
            ctx.prec += 1  # room for a carry into a new integer digit
            return str(+d.quantize(Decimal(1).scaleb(-digits)))


def horner_interval(num, den: int, x: RatInterval) -> RatInterval:
    """Enclosure of sum_i num[i] x^i / den over the box, for integers num
    and den > 0, by `horner_ints` on the ends of x."""
    if not num:
        return RatInterval.point(0)
    lo, hi, dk = horner_ints(num, *x._t)
    return _over(lo, hi, den * dk)


def horner_ints(num, a: int, b: int, d: int) -> tuple:
    """(lo, hi, d^k): sum_i num[i] x^i, k = len(num) - 1 >= 0, lies in
    [lo, hi] / d^k for x in [a, b] / d, all ints and d > 0.  A step is lo,
    hi = min/max of the four products with a, b, plus the next num d^k."""
    lo = hi = num[-1]
    dk = 1
    for n in num[-2::-1]:
        dk *= d
        t = n * dk
        p, q, r, s = lo * a, lo * b, hi * a, hi * b
        lo, hi = min(p, q, r, s) + t, max(p, q, r, s) + t
    return lo, hi, dk


class ComplexBox(Frozen):
    __slots__ = __match_args__ = ("re", "im")

    def __init__(self, re: RatInterval, im: RatInterval):
        set_field(self, "re", re)
        set_field(self, "im", im)

    @staticmethod
    def point(re, im=0) -> "ComplexBox":
        return ComplexBox(RatInterval.point(re), RatInterval.point(im))

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

    def conj(self) -> "ComplexBox":
        return ComplexBox(self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, ComplexBox):
            return ComplexBox(self.re + other.re, self.im + other.im)
        return ComplexBox(self.re + other, self.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexBox(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, ComplexBox):
            return ComplexBox(self.re - other.re, self.im - other.im)
        return ComplexBox(self.re - other, self.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, ComplexBox):
            return ComplexBox(self.re * other.re - self.im * other.im,
                              self.re * other.im + self.im * other.re)
        return ComplexBox(self.re * other, self.im * other)

    __rmul__ = __mul__

    def abs_sq(self) -> RatInterval:
        return self.re.sq() + self.im.sq()

    def recip(self) -> "ComplexBox":
        d = self.abs_sq().recip()
        return ComplexBox(self.re * d, -(self.im * d))

    def __truediv__(self, other):
        if isinstance(other, ComplexBox):
            return self * other.recip()
        return ComplexBox(self.re / other, self.im / other)

    def __rtruediv__(self, other):
        return self.recip() * other

    def contains(self, re, im=0) -> bool:
        return self.re.contains(re) and self.im.contains(im)

    def pow(self, n: int) -> "ComplexBox":
        if n < 0:
            return self.pow(-n).recip()
        out = ComplexBox.point(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def approx_str(self, digits: int = 12) -> str:
        return f"{self.re.approx_str(digits)} + {self.im.approx_str(digits)} i"

    def __repr__(self):
        return f"({self.re} + {self.im} i)"


def horner_box(num, den: int, z: ComplexBox) -> ComplexBox:
    """Enclosure of sum_i num[i] z^i / den over the box, for integers num
    and den > 0: `horner_interval` on the ends [a, b], [e, f] / d of the
    rectangle, with the parts [rl, rh], [il, ih] over den d^k after k steps."""
    if not num:
        return ComplexBox.point(0)
    (a, b, d), (e, f, g) = z.re._t, z.im._t
    h = lcm(d, g)
    a, b, e, f, d = a * (h // d), b * (h // d), e * (h // g), f * (h // g), h
    rl = rh = num[-1]
    il = ih = 0
    dk = 1
    for n in num[-2::-1]:
        dk *= d
        t = n * dk
        p = (rl * a, rl * b, rh * a, rh * b)  # re * re
        q = (il * e, il * f, ih * e, ih * f)  # im * im
        r = (rl * e, rl * f, rh * e, rh * f)  # re * im
        s = (il * a, il * b, ih * a, ih * b)  # im * re
        rl, rh, il, ih = (min(p) - max(q) + t, max(p) - min(q) + t,
                          min(r) + min(s), max(r) + max(s))
    den *= dk
    return ComplexBox(_over(rl, rh, den), _over(il, ih, den))


def sign_vs(boxes, q) -> int:
    """Exact sign of v - q from intervals that enclose v.  A point box is v
    itself; otherwise the first box with q on or beyond an end decides, so
    v == q must already be ruled out (by an exact test, or because the
    boxes are open isolating intervals)."""
    n, _, e = _ends(q)
    for box in boxes:
        a, b, d = box._t
        lo, nd = a * e, n * d   # v - q against a/d - n/e, over d e > 0
        if a == b:
            return (lo > nd) - (lo < nd)
        if nd <= lo:
            return 1
        if nd >= b * e:
            return -1


def floor_of(boxes, settle) -> int:
    """Exact floor of v from intervals that enclose v.  The first box inside
    one [n, n + 1) decides; a box straddling a single integer n asks
    settle(n), which returns the floor or None for the next, finer box."""
    for box in boxes:
        a, b, d = box._t
        flo, fhi = a // d, b // d
        if flo == fhi:
            return flo
        if fhi - flo == 1:
            n = settle(fhi)
            if n is not None:
                return n
