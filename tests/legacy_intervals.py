"""Interval arithmetic as it was before the ends became integers over one
denominator: `RatInterval` and `ComplexBox` on `Fraction` ends, every
operation in `Fraction` arithmetic.  Kept only as an oracle for
`test_interval_ints.py` and `legacy_isolation.py`; the library never
imports it."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from gpnf.records import Frozen, set_field


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


class RatInterval(Frozen):
    __slots__ = __match_args__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if type(lo) is not Fraction or type(hi) is not Fraction:
            lo, hi = _rational(lo), _rational(hi)
        if lo > hi:
            raise ValueError("empty interval")
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)

    @staticmethod
    def point(x) -> "RatInterval":
        return RatInterval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def mag(self) -> Fraction:
        """Upper bound for |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def mig(self) -> Fraction:
        """Lower bound for |x| over the interval (0 if it contains 0)."""
        if self.contains(0):
            return Fraction(0)
        return min(abs(self.lo), abs(self.hi))

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def overlaps(self, other: "RatInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other):
        if isinstance(other, RatInterval):
            return RatInterval(self.lo + other.lo, self.hi + other.hi)
        q = Fraction(other)
        return RatInterval(self.lo + q, self.hi + q)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RatInterval)
                       else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RatInterval):
            prods = (self.lo * other.lo, self.lo * other.hi,
                     self.hi * other.lo, self.hi * other.hi)
            return RatInterval(min(prods), max(prods))
        q = Fraction(other)
        a, b = self.lo * q, self.hi * q
        return RatInterval(min(a, b), max(a, b))

    __rmul__ = __mul__

    def recip(self) -> "RatInterval":
        if self.contains(0):
            raise ZeroDivisionError("interval contains zero")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        if isinstance(other, RatInterval):
            return self * other.recip()
        return self * (1 / Fraction(other))

    def sq(self) -> "RatInterval":
        lo, hi = abs(self.lo), abs(self.hi)
        lo, hi = min(lo, hi), max(lo, hi)
        if self.contains(0):
            lo = Fraction(0)
        return RatInterval(lo * lo, hi * hi)

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
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
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
    and den > 0, by `horner_ints` on x over a common denominator."""
    if not num:
        return RatInterval.point(0)
    ((a, b),), d = common_den([(x.lo, x.hi)])
    lo, hi, dk = horner_ints(num, a, b, d)
    den *= dk
    return RatInterval(Fraction(lo, den), Fraction(hi, den))


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

    def __neg__(self):
        return ComplexBox(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, ComplexBox):
            return ComplexBox(self.re - other.re, self.im - other.im)
        return ComplexBox(self.re - other, self.im)

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


def poly_complex_box(coeffs, z: ComplexBox) -> ComplexBox:
    """Enclosure of p(z) over the box, by complex interval Horner."""
    (num,), den = common_den([coeffs])
    return horner_box(num, den, z)


def horner_box(num, den: int, z: ComplexBox) -> ComplexBox:
    """Enclosure of sum_i num[i] z^i / den over the box, for integers num
    and den > 0: `horner_interval` on the rectangle, with the real and
    imaginary parts [rl, rh], [il, ih] over den D^k after k steps."""
    if not num:
        return ComplexBox.point(0)
    ((a, b, e, f),), d = common_den([(z.re.lo, z.re.hi, z.im.lo, z.im.hi)])
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
    return ComplexBox(RatInterval(Fraction(rl, den), Fraction(rh, den)),
                      RatInterval(Fraction(il, den), Fraction(ih, den)))


def sign_vs(boxes, q) -> int:
    """Exact sign of v - q from intervals that enclose v.  A point box is v
    itself; otherwise the first box with q on or beyond an end decides, so
    v == q must already be ruled out (by an exact test, or because the
    boxes are open isolating intervals)."""
    for box in boxes:
        if box.lo == box.hi:
            return (box.lo > q) - (box.lo < q)
        if q <= box.lo:
            return 1
        if q >= box.hi:
            return -1


def floor_of(boxes, settle) -> int:
    """Exact floor of v from intervals that enclose v.  The first box inside
    one [n, n + 1) decides; a box straddling a single integer n asks
    settle(n), which returns the floor or None for the next, finer box."""
    for box in boxes:
        flo = box.lo.numerator // box.lo.denominator
        fhi = box.hi.numerator // box.hi.denominator
        if flo == fhi:
            return flo
        if fhi - flo == 1:
            n = settle(fhi)
            if n is not None:
                return n
