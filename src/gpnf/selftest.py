"""Invariant suites: the one copy of each library invariant.

Each suite is a deterministic check of one law: ring axioms, embedding
enclosures, floor identities, indicator exactness, detector closure under
powers, stepping and transfer laws, recovery completeness, and the
word-combinatorics properties.  pytest runs every suite
(`tests/test_selftest.py`), and `gpnf selftest` runs them as the installed
field kit.  A suite fails by raising through `_check`, never by `assert`,
so it still checks under `python -O`.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .analysis import (non_hereditary_construct, sturmian, subword_complexity,
                       surrogate_slow_decay_set)
from .constructions import (IndexSet, PisotSetSpec, hereditary_predicate,
                            lattice_indicator, pisot_unit_test,
                            power_set_predicate, salem_test)
from . import genpoly
from .genpoly import (Add, Mul, Neg, RationalConst, Var, eval_expr, parse,
                      pretty, zero_indicator)
from .linalg import gauss_jordan
from .linrec import (LinRecSeq, pisot_step, salem_recover_exact,
                     salem_recovery_family, trace_representation,
                     transfer_map, value_set_membership, verified_i0)
from .numberfield import NumberField, certified_floor, certified_frac


@functools.lru_cache(maxsize=None)
def _fields():
    """Q(phi), Q(sqrt2), the Salem quartic field and the plastic cubic field."""
    return (NumberField([-1, -1, 1]), NumberField([-2, 0, 1]),
            NumberField([1, -1, -1, -1, 1]), NumberField([-1, -1, 0, 1]))


def _random_elem(f, rng, span=6):
    return f.element([Fraction(rng.randint(-span, span),
                               rng.choice([1, 1, 1, 2, 3])) for _ in range(f.degree)])


def _check(ok, what: str) -> None:
    """Fail the suite with `what` unless `ok`."""
    if not ok:
        raise AssertionError(what)


def check_ring_axioms():
    rng = random.Random(1)
    for f in _fields():
        for _ in range(40):
            a, b, c = (_random_elem(f, rng) for _ in range(3))
            _check((a + b) * c == a * c + b * c, "distributive law")
            _check((a * b) * c == a * (b * c), "associative law")
            if not b.is_zero():
                _check((a / b) * b == a, "(a / b) * b == a")


def check_embedding_enclosures():
    rng = random.Random(2)
    for f in _fields():
        for _ in range(12):
            x = _random_elem(f, rng)
            for prec in (16, 40):
                # a complex embedding adds the real part of its box
                reals = [getattr(b, "re", b)
                         for b in (x.embed(j, prec) for j in range(f.degree))]
                _check(sum(reals[1:], reals[0]).contains(x.trace()),
                       f"embeddings at {prec} bits sum around the trace")


def check_trace_linearity():
    rng = random.Random(3)
    for f in _fields():
        for _ in range(30):
            a, b = _random_elem(f, rng), _random_elem(f, rng)
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            _check((a * q + b).trace() == q * a.trace() + b.trace(),
                   "Tr(q a + b) == q Tr(a) + Tr(b)")


def check_gram_nondegenerate():
    for f in _fields():
        m = f.degree
        basis = [f.beta ** k for k in range(m)]
        G = [[(basis[i] * basis[j]).trace() for j in range(m)] for i in range(m)]
        _check(gauss_jordan(G, m)[1]() != 0, "trace form determinant != 0")
    f = _fields()[1]
    G = [[(f.beta ** (i + j)).trace() for j in range(2)] for i in range(2)]
    # Q(sqrt2): [[2,0],[0,4]]
    _check(gauss_jordan(G, 2)[1]() == 8, "Q(sqrt2) trace form determinant == 8")


def check_floor_sandwich():
    rng = random.Random(4)
    for f in _fields():
        for _ in range(25):
            x = _random_elem(f, rng)
            n = certified_floor(x)
            _check(x.compare_rational(n) >= 0 and x.compare_rational(n + 1) < 0,
                   "floor(x) <= x < floor(x) + 1")
            fr = certified_frac(x)
            _check(fr.compare_rational(0) >= 0 and fr.compare_rational(1) < 0,
                   "0 <= frac(x) < 1")
            _check(x - n == fr, "x - floor(x) == frac(x)")


def check_algebraic_integers_closed():
    rng = random.Random(5)
    for f in _fields():
        ints = []
        while len(ints) < 8:
            x = f.element([rng.randint(-4, 4) for _ in range(f.degree)])
            if x.is_algebraic_integer():
                ints.append(x)
        for a in ints:
            for b in ints:
                _check((a + b).is_algebraic_integer(), "a + b is integral")
                _check((a * b).is_algebraic_integer(), "a * b is integral")


def check_floor_identities():
    rng = random.Random(6)
    texts = ("floor(x)", "frac(x)", "nint(x)", "dist(x)", "-floor(-x)")
    exprs = [parse(t) for t in texts]
    for _ in range(150):
        q = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
        fl = q // 1
        fr = q - fl
        want = (fl, fr, (q + Fraction(1, 2)) // 1, min(fr, 1 - fr), -(-q // 1))
        for text, expr, w in zip(texts, exprs, want):
            _check(eval_expr(expr, {"x": q}).as_rational() == w, f"{text} at x = {q}")


def check_zero_indicator():
    rng = random.Random(7)
    phi, sq2, _, _ = _fields()
    zi = zero_indicator(Var("f"))

    def indicator(v):
        return eval_expr(zi, {"f": v}).as_rational()

    zeros = [Fraction(0), phi.zero, phi.beta - phi.beta]
    nonzeros = [Fraction(3), Fraction(-2, 7), phi.beta, sq2.beta - 1,
                phi.beta ** 3, sq2.element([1, 1])]
    for v in zeros:
        _check(indicator(v) == 1, f"indicator of zero {v}")
    for v in nonzeros:
        _check(indicator(v) == 0, f"indicator of nonzero {v}")
    for _ in range(12):
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        _check(indicator(q) == (1 if q == 0 else 0), f"indicator of {q}")
    for _ in range(25):
        x = _random_elem(rng.choice([phi, sq2]), rng, span=4)
        _check(indicator(x) == (1 if x.is_zero() else 0), "indicator of a field element")


def check_sturmian_expression():
    _, sq2, _, _ = _fields()
    expr = parse("floor(a*(n+1)+b) - floor(a*n+b)")
    a = sq2.beta - 1
    ones = 0
    N = 300
    for n in range(N):
        v = eval_expr(expr, {"a": a, "b": Fraction(0), "n": n}).as_rational()
        _check(v in (0, 1), f"Sturmian letter {n} is 0 or 1")
        ones += v
    # |ones / N - (sqrt2 - 1)| < 3 / sqrt(N)
    _check((Fraction(ones, N) - Fraction(414214, 10 ** 6)) ** 2 * N < 9,
           "Sturmian density near sqrt2 - 1")


def random_expr(rng: random.Random, depth: int):
    """A random expression of at most the given depth: constants (sqrt2
    among them), variables, the operators and a call from every row of
    `genpoly._CALLS`, with up to four arguments where a row repeats one."""
    if depth == 0 or rng.randrange(10) < 3:
        return rng.choice([RationalConst(Fraction(rng.randint(0, 9),
                                                  rng.randint(1, 3))),
                           Var(rng.choice("xyz")), genpoly._sqrt2_const()])
    k = rng.randrange(10)
    if k < 4:
        return (Add, Mul)[k % 2](random_expr(rng, depth - 1),
                                 random_expr(rng, depth - 1))
    if k < 5:
        return Neg(random_expr(rng, depth - 1))
    _name, cls, shape = rng.choice(genpoly._CALLS)
    draw = {"e": lambda: random_expr(rng, depth - 1),
            "v": lambda: rng.choice("xyz"), "i": lambda: rng.randint(0, 3),
            "q": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))}
    kinds = genpoly._kinds(shape, len(shape) + rng.randrange(3))
    return genpoly._node(cls, shape, [draw[k]() for k in kinds])


def check_parse_roundtrip():
    rng = random.Random(8)
    for _ in range(300):
        ast = random_expr(rng, 5)
        _check(parse(pretty(ast)) == ast, "parse(pretty(t)) == t")
    for text in ("floor(a*(n+1)+b) - floor(a*n+b)",
                 "1/2 + 3 * x - y * nint(z)",
                 "tr(x) + lf(y, 1/2, -3) * dist(x)",
                 "cfloor(emb(x, 2)) * c(-1/2, 3) - re(z) * im(sqrt2 * z)"):
        _check(pretty(parse(text)) == pretty(parse(pretty(parse(text)))),
               f"pretty is a fixed point on {text}")


def check_lattice_vs_integers():
    rng = random.Random(9)
    for f in _fields()[:2]:  # power bases of Q(phi), Q(sqrt2) are integral
        pred = lattice_indicator(f, [f.beta ** k for k in range(f.degree)])
        for _ in range(10 ** 3):
            x = _random_elem(f, rng, span=9)
            _check(pred(x) == (1 if x.is_algebraic_integer() else 0),
                   "lattice of the power basis == algebraic integers")


def check_pisot_power_closure():
    phi = _fields()[0].beta
    for k in range(1, 31):
        _check(pisot_unit_test(phi ** k), f"phi^{k} is a Pisot unit")


def check_power_predicate():
    phi = _fields()[0].beta
    pred = power_set_predicate(phi)
    for i in range(41):
        _check(pred(phi ** i) == 1, f"phi^{i} is a power")
        _check(pred(-(phi ** i)) == 0, f"-phi^{i} is not a power")
        _check(pred((phi ** i) * (phi - 1)) == (1 if i >= 1 else 0),
               f"phi^{i} (phi - 1) == phi^{i - 1}")
        _check(pred((phi ** i) * 2) == 0, f"2 phi^{i} is not a power")


def check_hereditary_monotone():
    phi = _fields()[0].beta
    rho = Fraction(3, 2)
    for small, big in (([0, 2], [0, 1, 2, 5]), ([1, 4], [0, 1, 3, 4, 6])):
        p_small = hereditary_predicate(
            PisotSetSpec.create(phi, IndexSet.finite(small), rho=rho))
        p_big = hereditary_predicate(
            PisotSetSpec.create(phi, IndexSet.finite(big), rho=rho))
        for i in range(9):
            _check(p_small(phi ** i) <= p_big(phi ** i),
                   f"index set {small} inside {big}, at phi^{i}")


def check_salem_powers():
    beta = _fields()[2].beta
    for k in range(1, 11):
        _check(salem_test(beta ** k), f"Salem beta^{k} is Salem")
    _check(not salem_test(_fields()[0].beta), "phi is not Salem")


def check_trace_representation():
    rng = random.Random(10)
    seqs = [LinRecSeq([-1, -1, 1], [0, 1]), LinRecSeq([-1, -1, 1], [2, 1]),
            LinRecSeq([1, -1, -1, -1, 1], [4, 1, 3, 7])]
    for cp in ([-1, -1, 1], [1, -1, -1, -1, 1], [-1, -1, 0, 1]):
        for _ in range(15):
            seqs.append(LinRecSeq(cp, [rng.randint(-20, 20) for _ in range(len(cp) - 1)]))
    for seq in seqs:
        cur = trace_representation(seq)
        beta = seq.field.beta
        for i in range(200):
            _check(cur.trace() == seq.term(i), f"Tr(beta^{i} x) == term {i}")
            cur = cur * beta


def check_stepping():
    fib = LinRecSeq([-1, -1, 1], [0, 1])
    luc = LinRecSeq([-1, -1, 1], [2, 1])
    pell = LinRecSeq([-1, -2, 1], [0, 1])
    perrin = LinRecSeq([-1, -1, 0, 1], [3, 0, 2])
    for seq in (fib, luc, pell, perrin):
        i0 = verified_i0(seq, 1)
        beta = seq.field.beta
        for i in range(i0, i0 + 100):
            _check(pisot_step(beta, 1, seq.term(i)) == seq.term(i + 1),
                   f"nint(beta n_{i}) == n_{i + 1}")


def check_transfer_roundtrip():
    fib = LinRecSeq([-1, -1, 1], [0, 1])
    luc = LinRecSeq([-1, -1, 1], [2, 1])
    fw = transfer_map(fib, luc)
    bw = transfer_map(luc, fib)
    start = max(fw.onset, bw.onset)
    for i in range(start, start + 40):
        _check(fw.apply(fib.term(i)) == luc.term(i), f"Fibonacci -> Lucas at {i}")
        _check(bw.apply(luc.term(i)) == fib.term(i), f"Lucas -> Fibonacci at {i}")


def check_salem_recovery():
    sal = LinRecSeq([1, -1, -1, -1, 1], [4, 1, 3, 7])
    for i in range(20):
        for k in range(5):
            _check(salem_recover_exact(sal, i) * salem_recover_exact(sal, k)
                   == salem_recover_exact(sal, i + k), f"r({i}) r({k}) == r({i + k})")
    fam = salem_recovery_family(sal, range(0, 21))
    for i in fam.verify_range:
        _check(fam.contains(fam.correction_tuple(i)), f"family holds correction {i}")


def check_uniqueness_solver():
    rng = random.Random(11)
    for f in _fields():
        for _ in range(20):
            x = _random_elem(f, rng)
            rhs = [(f.beta ** i * x).trace() for i in range(f.degree)]
            seq = LinRecSeq(f.monic_minpoly, rhs)
            _check(trace_representation(seq) == x, "the trace system's one solution")


def check_membership():
    fib = LinRecSeq([-1, -1, 1], [0, 1])
    values = {int(fib.term(i)) for i in range(25)}
    for q in range(5000):
        _check(value_set_membership(fib, q) == (q in values), f"membership of {q}")


def check_word_properties():
    _, sq2, _, _ = _fields()
    w = sturmian(sq2.beta - 1, 0, 0, 1200)
    prev = 0
    for N in range(1, 26):
        c = subword_complexity(w, N)
        _check(prev <= c and (not prev or c <= 2 * prev),
               f"p({N - 1}) <= p({N}) <= 2 p({N - 1})")
        prev = c
    # ones count telescopes to floor(a n): error at most 1 from the slope
    a_num = 414214
    for n in (50, len(w.bits)):
        ones = sum(w.bits[:n])
        _check(abs(ones - Fraction(a_num, 10 ** 6) * n) <= 2, f"ones in the first {n} bits")


def check_plan_integrity():
    E = surrogate_slow_decay_set(
        lambda N: Fraction(9, 10) if N < 10 ** 4 else Fraction(9, 10) * Fraction(10 ** 4, N))
    plan = non_hereditary_construct(E, lambda L: Fraction(1, 2), 4)
    _check(plan.certified(), "plan is certified")
    for i in range(plan.N_max):
        _check(not plan.window[i] or E(i), f"window position {i} lies in E")
    for rec in plan.levels:
        for mblk, Aj in zip(rec.positions, rec.chosen_subsets):
            base = rec.N_prev + mblk * rec.level
            trace = tuple(off for off in range(rec.level) if E(base + off))
            _check(trace == rec.block_set, f"level {rec.level} block {mblk} shows A")
            # after carving, the block shows A \ A_j
            got = tuple(off for off in range(rec.level) if plan.window[base + off])
            _check(got == tuple(o for o in rec.block_set if o not in Aj),
                   f"level {rec.level} block {mblk} shows A minus A_j")


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


def run_all(verbose: bool = True) -> bool:
    ok = True
    for name, fn in SUITES:
        try:
            fn()
            if verbose:
                print(f"PASS  {name}")
        except Exception as e:  # noqa: BLE001 - report and continue
            ok = False
            if verbose:
                print(f"FAIL  {name}: {type(e).__name__}: {e}")
    return ok
