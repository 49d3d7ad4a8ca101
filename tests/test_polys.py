import inspect
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import from_qq, poly_mul, qq
from gpnf import polys as P
from gpnf.errors import OutOfRange
from gpnf.intervals import RatInterval


def _trim(cs):
    """The tuple of cs with trailing zeros dropped."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def test_canonical_normalizes():
    assert P.canonical([1, 2, 0, 0]) == (1, 2)
    assert P.canonical([F(1, 2), F(-1, 3), 0]) == (-3, 2)
    assert P.canonical([-4, 0, -6]) == (2, 0, 3)
    assert P.canonical([0]) == () == P.canonical([])
    assert all(type(c) is int for c in P.canonical([F(4), F(6), F(-2)]))
    assert P.degree(()) == -1
    assert P.degree(P.canonical([3])) == 0


def test_divmod_roundtrip():
    rng = random.Random(6)
    for _ in range(50):
        a = _trim(rng.randint(-9, 9) for _ in range(rng.randint(1, 7)))
        b = _trim(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
        if not b:
            continue
        # int tuples, and the same values as Fractions
        for x, y in ((a, b), (tuple(map(F, a)), tuple(map(F, b)))):
            q, r = P.divmod_(x, y)
            assert qq(q) * qq(y) + qq(r) == qq(x)
            assert P.degree(r) < P.degree(y)


def test_divmod_and_resultant_are_exact():
    assert P.resultant((1, 0, 1), (1, 3)) == 10   # 3^2 (1/9 + 1)
    q, r = P.divmod_((1, 0, 1), (0, 3))
    assert (q, r) == ((0, F(1, 3)), (1,))
    assert qq(q) * qq((0, 3)) + qq(r) == qq((1, 0, 1))
    assert all(type(c) is F for c in q + r)
    # rational input is cleared of denominators first
    assert P.divmod_((0, F(1, 2)), (0, 3)) == ((F(1, 6),), ())
    assert P.divmod_((F(1, 3), F(2, 5), 1), (F(1, 2), F(-3, 4))) == (
        (F(-64, 45), F(-4, 3)), (F(47, 45),))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       st.integers(-9, 9).filter(bool), st.integers(-9, 9).filter(bool))
def test_divmod_and_resultant_vs_sympy_on_ints(a, b, la, lb):
    # the resultant is the Sylvester determinant (sympy.resultant differs
    # from it in sign on some inputs, such as 2x - 3 and x^3)
    from sympy.polys.subresultants_qq_zz import sylvester
    a, b = tuple(a) + (la,), tuple(b) + (lb,)
    q, r = P.divmod_(a, b)
    sq, sr = qq(a).div(qq(b))
    assert (q, r) == (from_qq(sq), from_qq(sr))
    assert P.resultant(a, b) == sylvester(qq(a).as_expr(), qq(b).as_expr(),
                                          qq(a).gen).det()


def _leaves(x):
    if isinstance(x, RatInterval):
        x = (x.lo, x.hi)
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       st.integers(-9, 9).filter(bool), st.integers(-9, 9).filter(bool),
       st.fractions(-9, 9, max_denominator=7).filter(bool))
def test_public_functions_return_ints_and_fractions(a, b, la, lb, q):
    """The runtime complement of the AST check in test_no_float: every
    public function of `polys`, on integer input, returns ints and Fractions
    only."""
    a, b = tuple(a) + (la,), tuple(b) + (lb,)
    sq = P.squarefree_part(a)
    ivs = P.isolate_real_roots(sq)
    chain = P.sturm_chain(a)
    results = {
        "canonical": P.canonical(a), "monic": P.monic(a), "degree": P.degree(a),
        "derivative": P.derivative(a), "divmod_": P.divmod_(a, b),
        "resultant": P.resultant(a, b), "gcd": P.gcd(a, b),
        "squarefree_part": sq,
        "horner_at": P.horner_at(a, q.numerator, q.denominator),
        "cauchy_bound": P.cauchy_bound(a), "cauchy_chain": P.cauchy_chain(a, b),
        "int_sign_at": P.int_sign_at(a, q),
        "cauchy_index2": P.cauchy_index2(P.cauchy_chain(a, b), -q - 1, q * q),
        "sturm_chain": chain, "count_roots": P.count_roots(chain, -q - 1, q * q),
        "isolate_real_roots": ivs,
        "refine_root": [P.refine_root(sq, RatInterval(*iv), F(1, 2 ** 20))
                        for iv in ivs],
        "power_sums": P.power_sums(a, 6), "sum_poly": P.sum_poly(a, b),
        "prod_poly": P.prod_poly(a, b), "diff_poly": P.diff_poly(a, b),
        "scale_roots": P.scale_roots(a, q), "shift_roots": P.shift_roots(a, q),
        "dyadic_down": P.dyadic_down(q, 8), "is_squarefree": P.is_squarefree(a),
    }
    public = {name for name, f in vars(P).items() if not name.startswith("_")
              and inspect.isfunction(f) and f.__module__ == P.__name__}
    assert public == set(results)
    for name, value in results.items():
        for leaf in _leaves(value):
            assert isinstance(leaf, (int, F)), (name, leaf)


def test_gcd_and_squarefree():
    x2m1, xm1 = (-1, 0, 1), (-1, 1)       # (x-1)(x+1), x-1
    assert P.gcd(x2m1, xm1) == xm1
    sq = (1, -2, 1)                        # (x-1)^2
    assert not P.is_squarefree(sq)
    assert P.squarefree_part(sq) == xm1
    assert P.is_squarefree((-1, -1, 1))


def test_eval_and_compose():
    p = (1, 2, 3)                          # 3x^2 + 2x + 1
    assert P.horner_at(list(p), 2, 1) == (17, 1)
    q = P.shift_roots(p, -1)               # p(x+1), canonical
    assert q == (6, 8, 3)
    assert P.horner_at(list(q), 1, 1) == (17, 1)


@pytest.mark.parametrize("coeffs,expected", [
    ([-1, -1, 1], 2),          # golden ratio: two real roots
    ([1, 0, 1], 0),            # x^2 + 1
    ([-1, -1, 0, 1], 1),       # plastic cubic
    ([1, -1, -1, -1, 1], 2),   # Salem quartic
    # not squarefree: distinct roots are counted
    ([2, -3, 0, 1], 2),        # (x-1)^2 (x+2)
    ([-8, 0, 12, 0, -6, 0, 1], 2),                 # (x^2-2)^3
    ([0, 1, 0, 2, 0, 1], 1),   # x (x^2+1)^2
    ([F(1, 81), F(-4, 27), F(2, 3), F(-4, 3), 1], 1),  # (x-1/3)^4
    ([1, 3, 6, 7, 6, 3, 1], 0),                    # (x^2+x+1)^3
])
def test_count_real_roots(coeffs, expected):
    assert len(P.isolate_real_roots(coeffs)) == expected
    scaled = [c * F(-7, 3) for c in coeffs]
    assert len(P.isolate_real_roots(scaled)) == expected


def test_isolation_brackets_roots():
    # oracle: known closed forms
    import math
    p = (-1, -1, 1)
    ivs = P.isolate_real_roots(p)
    assert len(ivs) == 2
    phi = (1 + math.sqrt(5)) / 2
    vals = sorted([(1 - math.sqrt(5)) / 2, phi])
    for (lo, hi), v in zip(ivs, vals):
        assert float(lo) <= v <= float(hi)


def test_refine_root_converges():
    p = (-2, 0, 1)
    iv = RatInterval(*P.isolate_real_roots(p)[1])
    iv = P.refine_root(p, iv, F(1, 2 ** 300))
    lo, hi = iv.lo, iv.hi
    assert hi - lo <= F(1, 2 ** 300)
    mid = (lo + hi) / 2
    assert abs(mid * mid - 2) < F(1, 2 ** 250)


def test_refine_root_rational_root():
    p = (-4, 0, 1)                   # roots +-2
    ivs = P.isolate_real_roots(p)
    iv = P.refine_root(p, RatInterval(*ivs[1]), F(1, 2 ** 40))
    lo, hi = iv.lo, iv.hi
    assert hi - lo <= F(1, 2 ** 40)
    assert lo <= 2 <= hi


def test_resultant_vs_sympy():
    # the oracle is the Sylvester determinant: sympy.resultant differs from
    # it in sign on some pairs, such as 2x - 3 and x^3 (resultant 27)
    import sympy
    from sympy.polys.subresultants_qq_zz import sylvester
    x = sympy.symbols("x")
    rng = random.Random(7)
    pairs = [((-3, 2), (0, 0, 0, 1))]
    for _ in range(15):
        a = _trim(rng.randint(-4, 4) for _ in range(rng.randint(2, 5)))
        b = _trim(rng.randint(-4, 4) for _ in range(rng.randint(2, 5)))
        if P.degree(a) >= 1 and P.degree(b) >= 1:
            pairs.append((a, b))
    for a, b in pairs:
        pa = sum(c * x ** i for i, c in enumerate(a))
        pb = sum(c * x ** i for i, c in enumerate(b))
        # int tuples, and the same values as Fractions
        assert P.resultant(a, b) == sylvester(pa, pb, x).det()
        assert P.resultant(tuple(map(F, a)), tuple(map(F, b))) == P.resultant(a, b)
    assert P.resultant((-3, 2), (0, 0, 0, 1)) == 27


def test_sum_poly_kills_sums():
    # roots of x^2-2 and x^2-3: sums +-sqrt2 +- sqrt3 are roots of the resolvent
    import math
    A, B = (-2, 0, 1), (-3, 0, 1)
    S = P.sum_poly(A, B)
    for s1 in (1, -1):
        for s2 in (1, -1):
            v = s1 * math.sqrt(2) + s2 * math.sqrt(3)
            acc = 0.0
            for c in reversed(S):
                acc = acc * v + float(c)
            assert abs(acc) < 1e-6


def test_prod_poly_kills_products():
    import math
    A, B = (-2, 0, 1), (-3, 0, 1)
    Q = P.prod_poly(A, B)
    v = math.sqrt(6)
    acc = 0.0
    for c in reversed(Q):
        acc = acc * v + float(c)
    assert abs(acc) < 1e-6


def test_prod_poly_zero_root():
    A = (0, 1)        # root 0
    B = (-3, 0, 1)
    Q = P.prod_poly(A, B)
    assert Q[0] == 0


def test_isolate_rational_midpoint_root():
    # 2x^3 - 3x^2 + x has roots 0, 1/2, 1; the first midpoint is the root 0
    p = (0, 1, -3, 2)
    ivs = P.isolate_real_roots(p)
    assert len(ivs) == 3
    for (lo, hi), r in zip(ivs, (F(0), F(1, 2), F(1))):
        assert lo <= r <= hi
        assert lo == hi or 0 not in (qq(p).eval(lo), qq(p).eval(hi))


def _random_poly(rng, zero_root):
    """Degree 1-4, rational, usually non-monic; a zero root on request."""
    d = rng.randint(1, 4)
    cs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
    cs.append(F(rng.choice([1, 2, -3, 5]), rng.randint(1, 2)))
    if zero_root:
        cs[0] = F(0)
    return tuple(cs)


def _random_pairs(seed, count):
    rng = random.Random(seed)
    pairs = [(_random_poly(rng, k % 5 == 1), _random_poly(rng, k % 5 == 3))
             for k in range(count)]
    assert any(a[0] == 0 for a, _b in pairs)
    assert any(b[0] == 0 for _a, b in pairs)
    assert any(a[-1] != 1 for a, _b in pairs)
    return pairs


def _sympy_expr(p, z):
    import sympy
    return sum(sympy.Rational(c.numerator, c.denominator) * z ** i
               for i, c in enumerate(p))


def _from_sympy(expr, s):
    import sympy
    return from_qq(sympy.Poly(expr, s))


@pytest.mark.parametrize("name,seed", [("sum_poly", 31), ("prod_poly", 32),
                                       ("diff_poly", 33)])
def test_resolvents_vs_sympy_resultant(name, seed):
    import sympy
    s, z = sympy.symbols("s z")
    for A, B in _random_pairs(seed, 60):
        if name == "sum_poly":
            c = _sympy_expr(B, s - z)
        elif name == "diff_poly":
            c = _sympy_expr(B, z - s)
        else:
            c = sympy.expand(z ** P.degree(B) * _sympy_expr(B, s / z))
        expected = _from_sympy(sympy.resultant(_sympy_expr(A, z), c, z), s)
        got = getattr(P, name)(A, B)
        assert P.squarefree_part(got) == P.squarefree_part(expected), (A, B)


def test_power_sums_vs_sympy():
    import sympy
    x = sympy.symbols("x")
    rng = random.Random(34)
    for k in range(25):
        p = _random_poly(rng, k % 4 == 0)
        C = sympy.Matrix.companion(sympy.Poly(_sympy_expr(p, x), x).monic())
        M = sympy.eye(P.degree(p))
        expected = []
        for _ in range(9):
            expected.append(F(str(M.trace())))
            M = M * C
        assert P.power_sums(p, 8) == expected, p


def test_cauchy_bound_contains_roots():
    p = (-1, -1, 1)
    b = P.cauchy_bound(p)
    for lo, hi in P.isolate_real_roots(p):
        assert -b <= lo and hi <= b


def _chain_case(rng, k):
    """A rational interval [a, b] and an integer pair (u, v) of degree 1-10
    with u squarefree and coprime to v.  Every third u vanishes at a or b
    (or both), every other one has a negative leading coefficient."""
    while True:
        a = F(rng.randint(-40, 40), rng.randint(1, 9))
        b = a + F(rng.randint(1, 60), rng.randint(1, 9))
        d = rng.randint(1, 10)
        u = (1,)
        if k % 3 == 0:
            for r in rng.sample([a, b], rng.randint(1, min(d, 2))):
                u = poly_mul(u, (-r.numerator, r.denominator))
        while P.degree(u) < d:
            e = rng.randint(1, min(3, d - P.degree(u)))
            u = poly_mul(u, [rng.randint(-9, 9) for _ in range(e)]
                         + [rng.choice([1, -2, 3, -5])])
        v = ([rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]
             + [rng.choice([1, -1, 4, -7])])
        if k % 2:
            u = tuple(-c for c in u)
        if P.is_squarefree(u) and P.degree(P.gcd(u, v)) == 0:
            return a, b, [int(c) for c in u], [int(c) for c in v]


def test_cauchy_index2_vs_sympy():
    # twice the Cauchy index of v/u on [a, b]: 2 sign(v u') at each root of
    # u inside, and the half jump sign(v u') at a root on either end
    import sympy
    x = sympy.symbols("x")
    rng = random.Random(47)
    ends = 0
    for k in range(150):
        a, b, u, v = _chain_case(rng, k)
        su = sympy.Poly(list(reversed(u)), x)
        sv = sympy.Poly(list(reversed(v)), x)
        w = sv * su.diff(x)
        expected = 0
        for (lo, hi), _mult in su.intervals():
            # shrink the isolating interval off a, b and the roots of w
            while lo < hi and (lo < a < hi or lo < b < hi
                               or w.count_roots(lo, hi)):
                lo, hi = su.refine_root(lo, hi, eps=(hi - lo) / 4)
            if a <= lo and hi <= b:
                s = 1 if w.eval(lo) > 0 else -1
                expected += s if lo == hi and lo in (a, b) else 2 * s
                ends += lo == hi and lo in (a, b)
        chain = P.cauchy_chain(u, v)
        assert P.cauchy_index2(chain, a, b) == expected, (u, v, a, b)
        assert P.cauchy_index2(chain, b, a) == -expected, (u, v, a, b)
    assert ends >= 40


def test_cauchy_chain_signs_match_rational_remainders():
    # each entry is a positive multiple of the rational remainder sequence
    # u, v, -rem(u, v), ...: positive pseudo-remainder multipliers keep signs
    rng = random.Random(48)
    for k in range(150):
        _a, _b, u, v = _chain_case(rng, k)
        rat = [qq(u), qq(v)]
        while True:
            r = rat[-2].rem(rat[-1])
            if r.is_zero:
                break
            rat.append(-r)
        chain = P.cauchy_chain(u, v)
        assert len(chain) == len(rat), (u, v)
        for f, g in zip(chain, rat):
            g = from_qq(g)
            ratio = F(f[-1]) / g[-1]
            assert ratio > 0 and tuple(c * ratio for c in g) == tuple(f), (u, v)


def test_cauchy_index2_small_cases():
    # u = x, v = 1 on [0, 1]: the root of u sits on the left end (half jump)
    chain = P.cauchy_chain([0, 1], [1])
    assert P.cauchy_index2(chain, F(0), F(1)) == 1
    assert P.cauchy_index2(chain, F(-1), F(0)) == 1
    assert P.cauchy_index2(chain, F(-1), F(1)) == 2
    # v = -1 turns each jump around; a negative leading u does as well
    assert P.cauchy_index2(P.cauchy_chain([0, 1], [-1]), F(-1), F(1)) == -2
    assert P.cauchy_index2(P.cauchy_chain([0, -1], [1]), F(-1), F(1)) == -2
    # u = x^2 - 2 with v = u' = 2x: one full jump per root, in Sturm's way
    chain = P.cauchy_chain([-2, 0, 1], [0, 2])
    assert P.cauchy_index2(chain, F(-2), F(2)) == 4
    assert P.cauchy_index2(chain, F(0), F(2)) == 2
    # a zero u or v has index 0; the chain ends at gcd(u, v)
    assert P.cauchy_index2(P.cauchy_chain([], [1, 1]), F(0), F(1)) == 0
    assert P.cauchy_chain([-1, 1], []) == [[-1, 1]]
    assert P.cauchy_chain([-2, 0, 2], [-3, 3])[-1] in ([-1, 1], [1, -1])
    assert P.int_sign_at([-1, 3], F(1, 3)) == 0
    assert P.int_sign_at([-1, 3], F(-1, 3)) == -1


def test_count_roots_vs_sympy():
    # open count: sympy's count on the closed [lo, hi] minus roots at the ends
    import sympy
    x = sympy.symbols("x")
    rng = random.Random(49)
    ends = 0
    for k in range(150):
        lo, hi, u, _v = _chain_case(rng, k)
        s = F(rng.choice([1, -3, 5]), rng.randint(2, 7))
        p = tuple(c * s for c in u)
        sp = sympy.Poly(_sympy_expr(p, x), x)
        on_ends = sum(sp.eval(sympy.Rational(e)) == 0 for e in (lo, hi))
        expected = sp.count_roots(sympy.Rational(lo), sympy.Rational(hi)) - on_ends
        ends += on_ends > 0
        assert P.count_roots(P.sturm_chain(p), lo, hi) == expected, (p, lo, hi)
    assert ends >= 50


def test_try_isolate_root_on_box_end():
    from gpnf.algebraic import _isolate
    from gpnf.intervals import RatInterval
    sq = (3, -6, -1, 2)                    # (2x - 1)(x^2 - 3), canonical
    for lo, hi in ((F(1, 2), F(1)), (F(-1), F(1, 2))):
        r = _isolate(sq, [RatInterval(lo, hi)])
        assert r.rat == F(1, 2) and r.compare_rational(F(1, 2)) == 0
    # a second root inside as well: not isolated yet
    assert _isolate(sq, [RatInterval(F(1, 2), F(2))]) is None
    r = _isolate(sq, [RatInterval(F(1), F(2))])
    assert r.rat is None and (r.lo, r.hi) == (1, 2)
    with pytest.raises(ArithmeticError):
        _isolate(sq, [RatInterval(F(2), F(3))])
    # the first box that isolates decides
    boxes = [RatInterval(F(-2), F(2)), RatInterval(F(1, 2), F(2)),
             RatInterval(F(3, 2), F(7, 4)), RatInterval(F(0), F(9))]
    r = _isolate(sq, boxes)
    assert (r.lo, r.hi) == (F(3, 2), F(7, 4)) and r.compare_rational(F(17, 10)) == 1


def test_refine_root_zero_width():
    p = (-2, 0, 1)
    iv = RatInterval(*P.isolate_real_roots(p)[1])
    with pytest.raises(ValueError):
        P.refine_root(p, iv, F(0))
    with pytest.raises(ValueError):
        P.refine_root(p, iv, F(-1))
    point = RatInterval(2, 2)
    assert P.refine_root((-4, 0, 1), point, F(0)) is point


@pytest.mark.parametrize("width", [2.0 ** -40, "1/8", None])
def test_refine_root_rejects_a_width_of_another_type(width):
    iv = RatInterval(1, 2)  # isolates sqrt 2
    with pytest.raises(TypeError, match=type(width).__name__):
        P.refine_root((-2, 0, 1), iv, width)


@pytest.mark.parametrize("width", [0, -1])
def test_refine_root_rejects_a_width_out_of_range(width):
    with pytest.raises(OutOfRange):
        P.refine_root((-2, 0, 1), RatInterval(1, 2), width)
    point = RatInterval(2, 2)
    assert P.refine_root((-4, 0, 1), point, width) is point


def _gcd_case(rng, k):
    """A pair (p, q) of rational polynomials sharing a factor with repeats:
    zero and constants on some cases, usually non-monic."""
    def rand(d):
        return _trim(F(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(d + 1))

    if k % 10 == 0:
        return (), rand(rng.randint(0, 4))
    if k % 10 == 1:
        return rand(0), rand(rng.randint(1, 4))
    common = (1,)
    for _ in range(rng.randint(0, 2)):
        common = poly_mul(common, rand(rng.randint(1, 2)))
    e = rng.randint(1, 3)
    p = poly_mul(rand(rng.randint(0, 4)), common)
    for _ in range(e - 1):
        p = poly_mul(p, common)
    q = poly_mul(rand(rng.randint(0, 4)), common)
    return (p, q) if k % 3 else (q, p)


def test_gcd_and_squarefree_part_vs_sympy():
    import sympy
    x = sympy.symbols("x")
    rng = random.Random(61)
    seen = set()
    for k in range(120):
        p, q = _gcd_case(rng, k)
        sp, sq = (sympy.Poly(_sympy_expr(f, x), x, domain="QQ") for f in (p, q))
        g = sp.gcd(sq)
        want = () if g.is_zero else _from_sympy(g.monic().as_expr(), x)
        assert P.monic(P.gcd(p, q)) == want == P.monic(P.gcd(q, p)), (p, q)
        if p:
            sf = sympy.sqf_part(sp).monic()
            assert P.monic(P.squarefree_part(p)) == _from_sympy(sf.as_expr(), x)
            assert P.is_squarefree(p) == sp.is_sqf
        seen.add((P.degree(p), P.degree(P.gcd(p, q)) > 0, P.is_squarefree(p)))
    assert P.gcd((), ()) == ()
    assert P.squarefree_part(()) == ()
    # zero, constants, nontrivial gcds and repeated factors all occur
    assert {d for d, _g, _s in seen} >= {-1, 0}
    assert any(g for _d, g, _s in seen) and not all(s for _d, _g, s in seen)


def _sympy_degree_sums(coeffs, p, x):
    """Subset sums of the degrees of the irreducible factors of the integer
    polynomial mod p, from sympy, or None when p divides the leading
    coefficient or the polynomial is not squarefree mod p."""
    import sympy
    f = sympy.Poly(list(reversed(coeffs)), x, modulus=p)
    factors = f.factor_list()[1]
    if f.degree() != len(coeffs) - 1 or any(e > 1 for _g, e in factors):
        return None
    sums = {0}
    for g, _e in factors:
        sums |= {s + g.degree() for s in sums}
    return sums


def test_factor_degrees_mod_p_vs_sympy():
    import sympy
    x = sympy.symbols("x")
    rng = random.Random(71)
    for _ in range(60):
        m = rng.randint(1, 12)
        coeffs = [rng.randint(-50, 50) for _ in range(m)] + [rng.randint(1, 9)]
        for p in (2, 3, 5, 7, 13, 101):
            want = _sympy_degree_sums(coeffs, p, x)
            if want is None:
                continue
            got = {0}
            for e in P._gfp_factor_degrees(
                    P._gfp_monic([c % p for c in coeffs], p), p):
                got |= {s + e for s in got}
            assert got == want, (coeffs, p)


def test_factor_degree_candidates_vs_sympy():
    """The candidate degrees are the intersection of the factor-degree sums
    modulo the first P._DEGREE_PRIMES good primes, cut short once only 0 and
    m remain; irreducible catalogue polynomials need no recombination."""
    import sympy
    x = sympy.symbols("x")
    rng = random.Random(72)
    cases = [[rng.randint(-9, 9) for _ in range(rng.randint(2, 10))] + [1]
             for _ in range(40)]
    cases += [[1, -3, 2, -2, 5, -2, 2, -3, 1], [1, 0, 0, 0, 0, 0, 0, 0, 1]]
    for coeffs in cases:
        if not P.is_squarefree(coeffs):
            continue
        m, keep, good, p = len(coeffs) - 1, set(range(len(coeffs))), 0, 1
        while good < P._DEGREE_PRIMES and keep != {0, m}:
            p = sympy.nextprime(p)
            sums = _sympy_degree_sums(coeffs, p, x)
            if sums is not None:
                good += 1
                keep &= sums
        want = sorted(d for d in keep if 1 <= d <= m // 2)
        assert P._factor_degree_candidates(coeffs) == want, coeffs
    for coeffs in ([-1, -1, 1], [-1, -1, 0, 1], [-1, -1, -1, -1, -1, -1, 1],
                   [1, 0, -1, -1, -1, 0, 1], [1, 0, 0, -1, -1, -1, 0, 0, 1],
                   [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1], [-1, -1] + [0] * 14 + [1]):
        assert P._factor_degree_candidates(coeffs) == []
