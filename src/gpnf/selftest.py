"""Invariant suites runnable from the CLI (`gpnf selftest`).

Each suite is a compact, deterministic check of the library invariants:
ring axioms, embedding enclosures, floor identities, indicator exactness,
detector closure properties, stepping and transfer laws, recovery
completeness, and the word-combinatorics properties.  The pytest suite
runs the full-strength versions; this is the quick field kit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from .analysis import (non_hereditary_construct, sturmian, subword_complexity,
                       surrogate_slow_decay_set)
from .constructions import (IndexSet, PisotSetSpec, hereditary_predicate,
                            lattice_indicator, pisot_unit_test,
                            power_set_predicate, salem_test)
from .genpoly import (Add, Dist, Embed, Floor, Frac, Mul, Neg, Nint,
                      RationalConst, Var, eval_expr, parse, pretty,
                      zero_indicator)
from .linalg import gauss_jordan
from .linrec import (LinRecSeq, salem_recover_exact, salem_recovery_family,
                     trace_representation, transfer_map, value_set_membership,
                     verified_i0)
from .numberfield import (NumberField, certified_floor, certified_frac,
                          certified_nint)

_PHI = None
_SQRT2 = None
_SALEM = None
_PLASTIC = None


def _fields():
    global _PHI, _SQRT2, _SALEM, _PLASTIC
    if _PHI is None:
        _PHI = NumberField([-1, -1, 1])
        _SQRT2 = NumberField([-2, 0, 1])
        _SALEM = NumberField([1, -1, -1, -1, 1])
        _PLASTIC = NumberField([-1, -1, 0, 1])
    return _PHI, _SQRT2, _SALEM, _PLASTIC


def _random_elem(f, rng, span=6):
    return f.element([Fraction(rng.randint(-span, span),
                               rng.choice([1, 1, 1, 2, 3])) for _ in range(f.degree)])


def check_ring_axioms(fast=False):
    rng = random.Random(1)
    for f in _fields():
        for _ in range(10 if fast else 40):
            a, b, c = (_random_elem(f, rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            if not b.is_zero():
                assert (a / b) * b == a


def check_embedding_enclosures(fast=False):
    rng = random.Random(2)
    for f in _fields():
        for _ in range(4 if fast else 12):
            x = _random_elem(f, rng)
            for prec in (16, 40):
                boxes = [x.embed(j, prec) for j in range(f.degree)]
                total = None
                for b in boxes:
                    r = b if not hasattr(b, "re") else b.re
                    total = r if total is None else total + r
                assert total.contains(x.trace())


def check_trace_linearity(fast=False):
    rng = random.Random(3)
    for f in _fields():
        for _ in range(10 if fast else 30):
            a, b = _random_elem(f, rng), _random_elem(f, rng)
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            assert (a * q + b).trace() == q * a.trace() + b.trace()


def check_gram_nondegenerate(fast=False):
    for f in _fields():
        m = f.degree
        basis = [f.beta ** k for k in range(m)]
        G = [[(basis[i] * basis[j]).trace() for j in range(m)] for i in range(m)]
        assert gauss_jordan(G, m)[1]() != 0
    f = _fields()[1]
    G = [[(f.beta ** (i + j)).trace() for j in range(2)] for i in range(2)]
    assert gauss_jordan(G, 2)[1]() == 8  # Q(sqrt2): [[2,0],[0,4]]


def check_floor_sandwich(fast=False):
    rng = random.Random(4)
    for f in _fields():
        for _ in range(8 if fast else 25):
            x = _random_elem(f, rng)
            n = certified_floor(x)
            assert x.compare_rational(n) >= 0
            assert x.compare_rational(n + 1) < 0
            fr = certified_frac(x)
            assert fr.compare_rational(0) >= 0 and fr.compare_rational(1) < 0
            assert x - n == fr


def check_algebraic_integers_closed(fast=False):
    rng = random.Random(5)
    for f in _fields():
        ints = []
        while len(ints) < (4 if fast else 8):
            x = f.element([rng.randint(-4, 4) for _ in range(f.degree)])
            if x.is_algebraic_integer():
                ints.append(x)
        for a in ints:
            for b in ints:
                assert (a + b).is_algebraic_integer()
                assert (a * b).is_algebraic_integer()


def check_floor_identities(fast=False):
    rng = random.Random(6)
    env_syms = parse("frac(x)"), parse("nint(x)"), parse("dist(x)")
    for _ in range(30 if fast else 120):
        q = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
        env = {"x": q}
        fl = q.numerator // q.denominator
        fr = q - fl
        assert eval_expr(env_syms[0], env).as_rational() == fr
        assert eval_expr(env_syms[1], env).as_rational() == (q + Fraction(1, 2)).numerator // (q + Fraction(1, 2)).denominator
        assert eval_expr(env_syms[2], env).as_rational() == min(fr, 1 - fr)
        ceil_expr = parse("-floor(-x)")
        assert eval_expr(ceil_expr, env).as_rational() == -((-q).numerator // (-q).denominator)


def check_zero_indicator(fast=False):
    rng = random.Random(7)
    phi, sq2, _, _ = _fields()
    zi = zero_indicator(Var("f"))
    zeros = [Fraction(0), phi.zero, phi.beta - phi.beta]
    nonzeros = [Fraction(3), Fraction(-2, 7), phi.beta, sq2.beta - 1,
                phi.beta ** 3, sq2.element([1, 1])]
    for v in zeros:
        assert eval_expr(zi, {"f": v}).as_rational() == 1
    for v in nonzeros:
        assert eval_expr(zi, {"f": v}).as_rational() == 0
    for _ in range(4 if fast else 12):
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        expected = 1 if q == 0 else 0
        assert eval_expr(zi, {"f": q}).as_rational() == expected


def check_sturmian_expression(fast=False):
    _, sq2, _, _ = _fields()
    expr = parse("floor(a*(n+1)+b) - floor(a*n+b)")
    a = sq2.beta - 1
    ones = 0
    N = 60 if fast else 300
    for n in range(N):
        v = eval_expr(expr, {"a": a, "b": Fraction(0), "n": n}).as_rational()
        assert v in (0, 1)
        ones += v
    dens = Fraction(ones, N)
    assert abs(dens - Fraction(414214, 10 ** 6)) < Fraction(3, isqrt(N))


def check_parse_roundtrip(fast=False):
    rng = random.Random(8)

    def gen(depth):
        if depth == 0 or rng.randrange(10) < 3:
            return rng.choice([RationalConst(Fraction(rng.randint(0, 9))),
                               Var(rng.choice("xyz")),
                               Embed(rng.choice("xy"), rng.randint(0, 3))])
        k = rng.randrange(10)
        if k < 3:
            return Add(gen(depth - 1), gen(depth - 1))
        if k < 5:
            return Mul(gen(depth - 1), gen(depth - 1))
        if k < 6:
            return Neg(gen(depth - 1))
        return rng.choice([Floor, Frac, Nint, Dist])(gen(depth - 1))

    for _ in range(40 if fast else 150):
        ast = gen(4)
        assert parse(pretty(ast)) == ast
    for text in ("floor(a*(n+1)+b) - floor(a*n+b)",
                 "1/2 + 3 * x - y * nint(z)",
                 "tr(x) + lf(y, 1/2, -3) * dist(x)"):
        assert pretty(parse(text)) == pretty(parse(pretty(parse(text))))


def check_lattice_vs_integers(fast=False):
    rng = random.Random(9)
    for f in _fields()[:2]:  # power bases of Q(phi), Q(sqrt2) are integral
        pred = lattice_indicator(f, [f.beta ** k for k in range(f.degree)])
        for _ in range(60 if fast else 10 ** 3):
            x = _random_elem(f, rng, span=9)
            assert pred(x) == (1 if x.is_algebraic_integer() else 0)


def check_pisot_power_closure(fast=False):
    phi = _fields()[0].beta
    for k in range(1, 12 if fast else 31):
        assert pisot_unit_test(phi ** k)


def check_power_predicate(fast=False):
    phi = _fields()[0].beta
    pred = power_set_predicate(phi)
    hi = 12 if fast else 41
    for i in range(hi):
        assert pred(phi ** i) == 1
    for i in range(hi):
        assert pred(-(phi ** i)) == 0
        assert pred((phi ** i) * (phi - 1)) == (1 if i >= 1 else 0)
        assert pred((phi ** i) * 2) == 0


def check_hereditary_monotone(fast=False):
    phi = _fields()[0].beta
    small = IndexSet.finite([0, 2])
    big = IndexSet.finite([0, 1, 2, 5])
    rho = Fraction(3, 2)
    p_small = hereditary_predicate(PisotSetSpec.create(phi, small, rho=rho))
    p_big = hereditary_predicate(PisotSetSpec.create(phi, big, rho=rho))
    for i in range(8):
        assert p_small(phi ** i) <= p_big(phi ** i)


def check_salem_powers(fast=False):
    beta = _fields()[2].beta
    for k in range(1, 5 if fast else 11):
        assert salem_test(beta ** k)
    assert not salem_test(_fields()[0].beta)


def check_trace_representation(fast=False):
    rng = random.Random(10)
    for cp in ([-1, -1, 1], [1, -1, -1, -1, 1], [-1, -1, 0, 1]):
        for _ in range(3 if fast else 8):
            init = [Fraction(rng.randint(-9, 9)) for _ in range(len(cp) - 1)]
            seq = LinRecSeq(cp, init)
            x = trace_representation(seq)
            beta = seq.field.beta
            upto = 40 if fast else 200
            for i in range(upto):
                assert (beta ** i * x).trace() == seq.term(i)


def check_stepping(fast=False):
    fib = LinRecSeq([-1, -1, 1], [0, 1])
    luc = LinRecSeq([-1, -1, 1], [2, 1])
    pell = LinRecSeq([-1, -2, 1], [0, 1])
    perrin = LinRecSeq([-1, -1, 0, 1], [3, 0, 2])
    span = 20 if fast else 100
    for seq in (fib, luc, pell, perrin):
        i0 = verified_i0(seq, 1)
        beta = seq.field.beta
        for i in range(i0, i0 + span):
            assert certified_nint(beta * seq.term(i)) == seq.term(i + 1)


def check_transfer_roundtrip(fast=False):
    fib = LinRecSeq([-1, -1, 1], [0, 1])
    luc = LinRecSeq([-1, -1, 1], [2, 1])
    fw = transfer_map(fib, luc)
    bw = transfer_map(luc, fib)
    start = max(fw.onset, bw.onset)
    for i in range(start, start + (6 if fast else 20)):
        assert fw.apply(fib.term(i)) == luc.term(i)
        assert bw.apply(luc.term(i)) == fib.term(i)


def check_salem_recovery(fast=False):
    sal = LinRecSeq([1, -1, -1, -1, 1], [4, 1, 3, 7])
    beta = sal.field.beta
    hi = 8 if fast else 20
    for i in range(hi):
        for k in range(0, 4):
            assert (salem_recover_exact(sal, i) * salem_recover_exact(sal, k)
                    == salem_recover_exact(sal, i + k))
    fam = salem_recovery_family(sal, range(0, 6 if fast else 21))
    for i in fam.verify_range:
        c = fam.correction_tuple(i)
        assert fam.contains(c)


def check_uniqueness_solver(fast=False):
    rng = random.Random(11)
    for f in _fields():
        for _ in range(5 if fast else 15):
            x = _random_elem(f, rng)
            rhs = [(f.beta ** i * x).trace() for i in range(f.degree)]
            seq = LinRecSeq(f.monic_minpoly, rhs)
            assert trace_representation(seq) == x


def check_membership(fast=False):
    fib = LinRecSeq([-1, -1, 1], [0, 1])
    values = {int(fib.term(i)) for i in range(25)}
    hi = 600 if fast else 5000
    for q in range(hi):
        assert value_set_membership(fib, q) == (q in values)


def check_word_properties(fast=False):
    _, sq2, _, _ = _fields()
    w = sturmian(sq2.beta - 1, 0, 0, 400 if fast else 1200)
    prev = 0
    for N in range(1, 20):
        c = subword_complexity(w, N)
        assert c >= prev
        if prev:
            assert c <= 2 * prev
        prev = c
    # ones count telescopes to floor(a n): error at most 1 from the slope
    a_num = 414214
    for n in (50, len(w.bits)):
        ones = sum(w.bits[:n])
        assert abs(ones - Fraction(a_num, 10 ** 6) * n) <= 2


def check_plan_integrity(fast=False):
    E = surrogate_slow_decay_set(
        lambda N: Fraction(9, 10) if N < 10 ** 4 else Fraction(9, 10) * Fraction(10 ** 4, N))
    plan = non_hereditary_construct(E, lambda L: Fraction(1, 2), 3 if fast else 4)
    assert plan.certified()
    for i in range(plan.N_max):
        if plan.window[i]:
            assert E(i)
    for rec in plan.levels:
        for mblk in rec.positions:
            base = rec.N_prev + mblk * rec.level
            trace = tuple(off for off in range(rec.level) if E(base + off))
            assert trace == rec.block_set


SUITES = [
    ("ring axioms", check_ring_axioms),
    ("embedding enclosures contain the trace", check_embedding_enclosures),
    ("trace is Q-linear", check_trace_linearity),
    ("trace form is nondegenerate", check_gram_nondegenerate),
    ("certified floor sandwich", check_floor_sandwich),
    ("algebraic integers closed under + and *", check_algebraic_integers_closed),
    ("floor/frac/nint/dist identities", check_floor_identities),
    ("zero indicator exactness", check_zero_indicator),
    ("Sturmian expression values and density", check_sturmian_expression),
    ("parse/pretty round trip", check_parse_roundtrip),
    ("lattice indicator vs algebraic integers", check_lattice_vs_integers),
    ("Pisot units closed under powers", check_pisot_power_closure),
    ("power-set predicate exhaustive", check_power_predicate),
    ("hereditary predicate monotone", check_hereditary_monotone),
    ("Salem numbers closed under powers", check_salem_powers),
    ("trace representation reproduces terms", check_trace_representation),
    ("nearest-integer stepping", check_stepping),
    ("transfer round trip", check_transfer_roundtrip),
    ("Salem recovery multiplicative + family audit", check_salem_recovery),
    ("trace system uniqueness", check_uniqueness_solver),
    ("value-set membership vs direct list", check_membership),
    ("subword complexity monotonicity, Sturmian counts", check_word_properties),
    ("construction plan integrity", check_plan_integrity),
]


def run_all(fast: bool = False, verbose: bool = True) -> bool:
    ok = True
    for name, fn in SUITES:
        try:
            fn(fast=fast)
            if verbose:
                print(f"PASS  {name}")
        except Exception as e:  # noqa: BLE001 - report and continue
            ok = False
            if verbose:
                print(f"FAIL  {name}: {type(e).__name__}: {e}")
    return ok
