"""Complex root isolation, refinement and ordering as they were before the
winding counts kept a memo of line chains: every edge of every count
builds its line's chain afresh, every rectangle is counted again when it
is taken off the work list, and both halves of a split are counted (its
own `_splits`, from before `_cut` made one count per cut); and the
Krawczyk test as it was before intervals kept integer ends, in `Fraction`
box arithmetic (`legacy_intervals.py`).  Kept only as an oracle for
`test_isolation_memo.py` and `test_interval_ints.py`; the library never
imports it."""

import functools
from fractions import Fraction

from gpnf import polys
from gpnf.errors import CertificateFailed, PrecisionExhausted
from gpnf.numberfield import (_LADDER, _BoundaryRoot, _line_uv, _min_sep_sq,
                              _newton)
from legacy_intervals import ComplexBox, RatInterval, common_den, poly_complex_box


def _splits(rect: tuple):
    """The two halves (r1, r2) of rect cut across its longer side, at each
    point of `_LADDER` in turn."""
    xlo, xhi, ylo, yhi = rect
    vertical = (xhi - xlo) >= (yhi - ylo)
    for t in _LADDER:
        if vertical:
            c = xlo + (xhi - xlo) * t
            yield (xlo, c, ylo, yhi), (c, xhi, ylo, yhi)
        else:
            c = ylo + (yhi - ylo) * t
            yield (xlo, xhi, ylo, c), (xlo, xhi, c, yhi)


def _gauss_eval(p: tuple, re: Fraction, im: Fraction) -> tuple:
    if not p:
        return Fraction(0), Fraction(0)
    (num,), den = common_den([p])
    ((a, b),), d = common_den([(re, im)])
    ar, ai, dk = num[-1], 0, 1
    for n in num[-2::-1]:
        dk *= d
        ar, ai = ar * a - ai * b + n * dk, ar * b + ai * a
    den *= dk
    return Fraction(ar, den), Fraction(ai, den)


def _krawczyk_proves(p: tuple, dp: tuple, Z: ComplexBox, t: int) -> bool:
    m = ComplexBox.point(Z.re.mid, Z.im.mid)
    fr, fi = _gauss_eval(p, Z.re.mid, Z.im.mid)
    dr, di = _gauss_eval(dp, Z.re.mid, Z.im.mid)
    nrm = dr * dr + di * di
    if nrm == 0:
        return False
    t += max(0, nrm.numerator.bit_length() - nrm.denominator.bit_length())
    Y = ComplexBox.point(polys.dyadic_down(dr / nrm, t),
                         polys.dyadic_down(-di / nrm, t))
    K = (m - Y * ComplexBox.point(fr, fi)
         + (ComplexBox.point(1) - Y * poly_complex_box(dp, Z)) * (Z - m))
    return (Z.re.lo < K.re.lo and K.re.hi < Z.re.hi
            and Z.im.lo < K.im.lo and K.im.hi < Z.im.hi)


def _edge_index2(P: list, c: Fraction, vertical: bool, a, b) -> int:
    chain = polys.cauchy_chain(*_line_uv(P, c, vertical))
    g = chain[-1]
    if len(g) > 1 and polys.cauchy_index2(polys.sturm_chain(g), min(a, b),
                                          max(a, b)):
        raise _BoundaryRoot
    return polys.cauchy_index2(chain, a, b)


def count_roots_in_rect(p: tuple, xlo, xhi, ylo, yhi) -> int:
    P = polys.canonical(p)
    total = (_edge_index2(P, ylo, False, xlo, xhi)
             + _edge_index2(P, xhi, True, ylo, yhi)
             + _edge_index2(P, yhi, False, xhi, xlo)
             + _edge_index2(P, xlo, True, yhi, ylo))
    if total % 4:
        raise _BoundaryRoot
    return -total // 4


def isolate_complex_upper(p: tuple, expected: int) -> list:
    if expected == 0:
        return []
    bound = polys.cauchy_bound(p)
    sep_sq = _min_sep_sq(p)
    eta = Fraction(1)
    while 4 * eta * eta > sep_sq:
        eta /= 2
    work = [(-bound, bound, eta, bound)]
    done = []
    while work:
        r = work.pop()
        n = count_roots_in_rect(p, *r)
        if n == 0:
            continue
        if n == 1:
            done.append(r)
            continue
        for r1, r2 in _splits(r):
            try:
                n1 = count_roots_in_rect(p, *r1)
                n2 = count_roots_in_rect(p, *r2)
            except _BoundaryRoot:
                continue
            if n1 + n2 == n:
                work.extend((r1, r2))
                break
        else:
            raise CertificateFailed("complex root isolation failed to split", r)
    if len(done) != expected:
        raise CertificateFailed("complex root isolation miscount", tuple(done))
    return done


def refine_rect(p: tuple, rect: tuple, width: Fraction) -> tuple:
    xlo, xhi, ylo, yhi = rect
    if width <= 0 < max(xhi - xlo, yhi - ylo):
        raise ValueError(f"cannot refine {rect} to width {width}")
    bits = polys._width_bits(width)
    if bits > polys.CEILING_BITS:
        raise PrecisionExhausted("_refine_rect past the ceiling", rect)
    P = polys.canonical(p)
    dp = polys.derivative(P)
    t = bits + (len(P) - 1).bit_length() + 8
    h = RatInterval(Fraction(-16, 1 << t), Fraction(16, 1 << t))
    while max(xhi - xlo, yhi - ylo) > width:
        a, b = _newton(P, (xlo + xhi) / 2, (ylo + yhi) / 2, t)
        B = ComplexBox(h + Fraction(a, 1 << t), h + Fraction(b, 1 << t))
        if (xlo <= B.re.lo and B.re.hi <= xhi and ylo <= B.im.lo
                and B.im.hi <= yhi and _krawczyk_proves(p, dp, B, t)):
            return B.re.lo, B.re.hi, B.im.lo, B.im.hi
        for r1, r2 in _splits((xlo, xhi, ylo, yhi)):
            try:
                n1 = count_roots_in_rect(p, *r1)
            except _BoundaryRoot:
                continue
            xlo, xhi, ylo, yhi = r1 if n1 == 1 else r2
            break
        else:
            raise CertificateFailed("rectangle refinement failed", (xlo, xhi, ylo, yhi))
    return xlo, xhi, ylo, yhi


def sort_uppers(p: tuple, chain2: list, uppers: list) -> list:
    """`NumberField._sort_uppers` of the field of p, given the Sturm chain
    of its sum resolvent."""
    if len(uppers) <= 1:
        return uppers

    def cmp(ra, rb):
        while True:
            if ra[1] < rb[0]:
                return -1
            if rb[1] < ra[0]:
                return 1
            a2 = (2 * ra[0], 2 * ra[1])
            b2 = (2 * rb[0], 2 * rb[1])
            if (polys.count_roots(chain2, *a2) == 1
                    and polys.count_roots(chain2, *b2) == 1):
                ilo, ihi = max(a2[0], b2[0]), min(a2[1], b2[1])
                if ilo < ihi and polys.count_roots(chain2, ilo, ihi) >= 1:
                    while not (ra[3] < rb[2] or rb[3] < ra[2]):
                        ra = refine_rect(p, ra, (ra[3] - ra[2]) / 4)
                        rb = refine_rect(p, rb, (rb[3] - rb[2]) / 4)
                    return -1 if ra[3] < rb[2] else 1
            ra = refine_rect(p, ra, (ra[1] - ra[0]) / 4)
            rb = refine_rect(p, rb, (rb[1] - rb[0]) / 4)

    return sorted(uppers, key=functools.cmp_to_key(cmp))
