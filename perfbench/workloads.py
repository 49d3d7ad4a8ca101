"""The benchmark's three workloads and their exact oracles.

Each workload is one process with one caller in a closed loop.  It makes
all of its inputs from the seed before anything is timed, and the library
sees only those inputs.  `build` is the set-up a user pays once (fields,
sequences, predicates and the warm-up of lazy caches); `run` is one timed
operation; `check` compares a result with an oracle that does not go
through the code path being timed, outside the timed region.
"""

from __future__ import annotations

import json
import random
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction as F
from math import isqrt, lcm

import gpnf
from gpnf import algebraic, genpoly

LIMIT = 10 ** 6            # membership queries and Sturmian offsets live in [0, LIMIT]
CLI_MIN_QUERY = 10 ** 5


def seeded(seed: int, purpose: str) -> random.Random:
    return random.Random(f"gpnf-perfbench:{seed}:{purpose}")


_RESOLVENT_CACHES = (algebraic._sum_poly_sq, algebraic._prod_poly_sq,
                     algebraic._diff_poly_sq)


def reset_library_caches() -> None:
    """Drop the library's process-wide caches, so that set-up starts cold."""
    for cached in _RESOLVENT_CACHES + (algebraic._min_sep_sq,):
        cached.cache_clear()
    genpoly._SQRT2_FIELD = None


def resolvent_lookups() -> tuple:
    """(hits, misses) summed over the resolvent caches of `algebraic`."""
    infos = [c.cache_info() for c in _RESOLVENT_CACHES]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def int_terms(charpoly: list, initial: list, count: int) -> list:
    """First `count` terms of the integer recurrence with monic
    characteristic polynomial `charpoly` (ascending coefficients)."""
    m = len(initial)
    t = list(initial)
    while len(t) < count:
        t.append(-sum(charpoly[j] * t[len(t) - m + j] for j in range(m)))
    return t


def desc(coeffs: list) -> str:
    """Ascending coefficients as the CLI's leading-first list."""
    return ",".join(str(c) for c in reversed(coeffs))


def json_answer(key):
    return lambda out: json.loads(out)[key]


class Workload:
    name = ""
    chunk = 1            # operations per unit of `wall_s`
    setup_repeats = 5

    def __init__(self, seed: int, seconds: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def build(self) -> None:
        raise NotImplementedError

    def ops(self, traced: bool) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> bool:
        raise NotImplementedError

    def cli_commands(self, scratch) -> list:
        """[(argv, expected, parse(stdout) -> answer)] for fresh processes."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# membership: warm value-set queries
# ---------------------------------------------------------------------------

class Membership(Workload):
    """Integers from a seed-placed block of [0, 10^6] classified against
    Fibonacci, Perrin and a Salem sequence in a fixed 2:1:1 rotation.  One
    query in MEMBER_EVERY per sequence is a seed-chosen term instead, so
    that the confirmation paths run too (exact recovery for Salem)."""

    name = "membership"
    chunk = 10 ** 4
    setup_repeats = 3
    SEQS = (("fibonacci", [-1, -1, 1], [0, 1]),
            ("perrin", [-1, -1, 0, 1], [3, 0, 2]),
            ("salem", [1, -1, -1, -1, 1], [4, 1, 3, 7]))
    ROTATION = (0, 1, 0, 2)
    MEMBER_EVERY = 64
    RATE = 12000           # queries per second of --seconds
    TRACE_QUERIES = 16384

    def __init__(self, seed, seconds, tracer):
        super().__init__(seed, seconds, tracer)
        self.count = min(LIMIT, self.chunk * max(
            1, round(seconds * self.RATE / self.chunk)))
        self.start = seeded(seed, "block").randrange(LIMIT + 1 - self.count)
        terms = [int_terms(c, i, 200) for _n, c, i in self.SEQS]
        self.term_sets = [frozenset(t) for t in terms]
        self.members = [sorted({v for v in t if 0 <= v <= LIMIT}) for t in terms]

    def build(self):
        reset_library_caches()
        self.seqs = [gpnf.LinRecSeq(c, i) for _n, c, i in self.SEQS]
        for seq, mem in zip(self.seqs, self.members):
            for q in (mem[-1], mem[-1] - 1, self.start):
                gpnf.value_set_membership(seq, q)

    def ops(self, traced):
        rng = seeded(self.seed, "members")
        n = self.TRACE_QUERIES if traced else self.count
        out = []
        for i in range(n):
            k = self.ROTATION[i % len(self.ROTATION)]
            if (i // len(self.ROTATION)) % self.MEMBER_EVERY == self.MEMBER_EVERY - 1:
                out.append((k, rng.choice(self.members[k])))
            else:
                out.append((k, self.start + i))
        return out

    def run(self, op):
        return gpnf.value_set_membership(self.seqs[op[0]], op[1])

    def check(self, op, result):
        return result == (op[1] in self.term_sets[op[0]])

    def cli_commands(self, scratch):
        rng = seeded(self.seed, "cli")
        _n, c, i = self.SEQS[0]
        # queries below the transfer onset skip most of the cold set-up;
        # keep the query above it so that each run pays the same
        q = (rng.choice([v for v in self.members[0] if v >= CLI_MIN_QUERY])
             if rng.random() < 0.5 else rng.randrange(CLI_MIN_QUERY, LIMIT))
        return [(["linrec", "--charpoly", desc(c), "--init",
                  ",".join(map(str, i)), "member", str(q), "--json"],
                 q in self.term_sets[0], json_answer("member"))]


# ---------------------------------------------------------------------------
# field-build: cold construction over a catalogue
# ---------------------------------------------------------------------------

def float_roots(coeffs: list) -> list:
    """All complex roots of a monic polynomial by Durand-Kerner iteration;
    an approximate oracle for the certified root boxes."""
    m = len(coeffs) - 1

    def p(z):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    zs = [(0.4 + 0.9j) ** k for k in range(m)]
    for _ in range(500):
        new = []
        for i, z in enumerate(zs):
            den = 1
            for j, w in enumerate(zs):
                if j != i:
                    den *= z - w
            new.append(z - p(z) / den)
        zs = new
    return zs


class FieldBuild(Workload):
    """Cold passes over a catalogue of Pisot and Salem fields.  One
    operation is one catalogue entry: construction, every conjugate box,
    the Pisot and Salem tests, and for rank-one Pisot units a hereditary
    predicate over a seed-chosen periodic index set with queries beta^i;
    the degree-4 Salem entry also builds its recovery family.  One chunk
    is one pass, in a seed-chosen order."""

    name = "field-build"
    WIDTH = F(1, 2 ** 128)
    PASS_SECONDS = 20      # one pass per this many --seconds, at least one
    # name, ascending coefficients, signature, Pisot unit, Salem number
    CATALOGUE = (
        ("golden", [-1, -1, 1], (2, 0), True, False),
        ("silver", [-1, -2, 1], (2, 0), True, False),
        ("plastic", [-1, -1, 0, 1], (1, 1), True, False),
        ("tribonacci", [-1, -1, -1, 1], (1, 1), True, False),
        ("tetranacci", [-1, -1, -1, -1, 1], (2, 1), True, False),
        ("pentanacci", [-1, -1, -1, -1, -1, 1], (1, 2), True, False),
        ("hexanacci", [-1, -1, -1, -1, -1, -1, 1], (2, 2), True, False),
        ("salem4", [1, -1, -1, -1, 1], (2, 1), False, True),
        ("salem6", [1, 0, -1, -1, -1, 0, 1], (2, 2), False, True),
    )
    RANK_ONE = ("golden", "silver", "plastic", "tribonacci")
    SALEM_SEQ = ([1, -1, -1, -1, 1], [4, 1, 3, 7])
    RECOVERY_VERIFY = range(0, 3)

    def __init__(self, seed, seconds, tracer):
        super().__init__(seed, seconds, tracer)
        rng = seeded(seed, "catalogue")
        self.order = list(range(len(self.CATALOGUE)))
        rng.shuffle(self.order)
        self.index_sets = {}
        self.queries = {}
        for e, (name, *_rest) in enumerate(self.CATALOGUE):
            if name in self.RANK_ONE:
                mod = rng.choice((2, 3, 4))
                res = sorted(rng.sample(range(mod), rng.randint(1, mod - 1)))
                self.index_sets[e] = (mod, res)
                self.queries[e] = ([(i, 1) for i in rng.sample(range(16), 5)]
                                   + [(rng.randrange(1, 16), 2)])
        self.recover_at = sorted(rng.sample(range(3, 13), 2))
        self.roots = [float_roots(c) for _n, c, *_r in self.CATALOGUE]
        self.passes = max(1, round(seconds / self.PASS_SECONDS))
        self.chunk = len(self.CATALOGUE)
        self.corrections = {i: salem_corrections(i) for i in self.recover_at}

    def _steps(self, e: int) -> tuple:
        name, coeffs, *_r = self.CATALOGUE[e]
        steps = [("build", e)] + [("box", e, j) for j in range(len(coeffs) - 1)]
        steps += [("pisot", e), ("salem", e)]
        if e in self.index_sets:
            steps += [("spec", e), ("pred", e)]
            steps += [("query", e, i, s) for i, s in self.queries[e]]
        if name == "salem4":
            steps.append(("family", e))
            steps += [("recover", e, i) for i in self.recover_at]
        return tuple(steps)

    def build(self):
        reset_library_caches()

    def ops(self, traced):
        entries = [self._steps(e) for e in self.order]
        return entries * (1 if traced else self.passes)

    def run(self, op):
        st = {}
        return [self._step(step, st) for step in op]

    def check(self, op, result):
        return all(self._check_step(step, r) for step, r in zip(op, result))

    def _step(self, op, st):
        kind, e = op[0], op[1]
        if kind == "build":
            st["K"] = gpnf.NumberField(self.CATALOGUE[e][1])
            return st["K"].signature
        K = st["K"]
        if kind == "box":
            return K.root_box(op[2], self.WIDTH)
        if kind == "pisot":
            return gpnf.pisot_unit_test(K.beta)
        if kind == "salem":
            return gpnf.salem_test(K.beta)
        if kind == "spec":
            mod, res = self.index_sets[e]
            st["spec"] = gpnf.PisotSetSpec.create(
                K.beta, gpnf.IndexSet.periodic(mod, res))
            return st["spec"].m
        if kind == "pred":
            st["pred"] = self.tracer.wrap(gpnf.hereditary_predicate(st["spec"]),
                                          "constructions.hereditary_query")
            return True
        if kind == "query":
            return st["pred"](K.beta ** op[2] * op[3])
        if kind == "family":
            seq = gpnf.LinRecSeq(*self.SALEM_SEQ)
            st["family"] = gpnf.salem_recovery_family(seq, self.RECOVERY_VERIFY)
            return st["family"].bounds
        if kind == "recover":
            return st["family"].recover(op[2])[0]
        raise ValueError(f"unknown step {op!r}")

    def _check_step(self, op, result):
        kind, e = op[0], op[1]
        name, coeffs, signature, pisot, salem = self.CATALOGUE[e]
        if kind == "build":
            return result == signature
        if kind == "box":
            return self._box_ok(coeffs, e, result)
        if kind == "pisot":
            return result is pisot
        if kind == "salem":
            return result is salem
        if kind in ("spec", "pred"):
            return result is True or (isinstance(result, int) and result >= 1)
        if kind == "query":
            mod, res = self.index_sets[e]
            return result == (1 if op[3] == 1 and op[2] % mod in res else 0)
        if kind == "family":
            return (len(result) == 4
                    and all(isinstance(b, int) and b >= 1 for b in result))
        if kind == "recover":
            return tuple(result) == self.corrections[op[2]]
        return False

    def _box_ok(self, coeffs, e, box) -> bool:
        if box.width > self.WIDTH:
            return False
        if isinstance(box, gpnf.RatInterval):
            def p(x):
                return sum(c * x ** k for k, c in enumerate(coeffs))
            if p(box.lo) * p(box.hi) > 0:
                return False
            centre = complex(float(box.mid))
        else:
            centre = complex(float(box.re.mid), float(box.im.mid))
        return min(abs(z - centre) for z in self.roots[e]) < 1e-9

    def cli_commands(self, scratch):
        rng = seeded(self.seed, "cli")
        # the plastic field for every seed: its complex box sets the cost
        _n, coeffs, signature, *_r = self.CATALOGUE[2]
        mod, res = seeded(self.seed, "cli-index").choice(
            [(2, [0]), (3, [1]), (4, [1, 3])])
        i = rng.randrange(2, 16)
        fib = int_terms([-1, -1, 1], [0, 1], i + 1)
        q = rng.randrange(CLI_MIN_QUERY, LIMIT)
        return [
            (["field", "--minpoly", desc(coeffs), "--json"], list(signature),
             json_answer("signature")),
            (["pisot-set", "--minpoly", "1,-1,-1", "--indices-mod",
              ",".join(map(str, [mod] + res)), "--query", f"{fib[i - 1]},{fib[i]}",
              "--json"], [1 if i % mod in res else 0], json_answer("results")),
            (["linrec", "--charpoly", "1,-1,-1", "--init", "0,1", "member",
              str(q), "--json"], q in set(int_terms([-1, -1, 1], [0, 1], 40)),
             json_answer("member")),
        ]


def decimal_floor(v: Decimal, guard: Decimal) -> int:
    """floor(v), refusing to decide when v is within `guard` of an integer."""
    fl = v.to_integral_value(rounding=ROUND_FLOOR)
    if v - fl < guard or fl + 1 - v < guard:
        raise ArithmeticError("oracle cannot separate the value from an integer")
    return int(fl)


def salem_corrections(i: int) -> tuple:
    """c_j = floor(beta^j n_i) - n_{i+j} for the Salem sequence (4, 1, 3, 7),
    with beta from Newton's method in 80-digit decimals."""
    coeffs, init = FieldBuild.SALEM_SEQ
    n = int_terms(coeffs, init, i + len(init) + 1)
    with localcontext() as ctx:
        ctx.prec = 80
        b = Decimal("1.72")
        for _ in range(12):
            p = sum(c * b ** k for k, c in enumerate(coeffs))
            dp = sum(k * c * b ** (k - 1) for k, c in enumerate(coeffs) if k)
            b -= p / dp
        guard = Decimal(10) ** -40
        return (F(0),) + tuple(F(decimal_floor(b ** j * n[i], guard) - n[i + j])
                               for j in range(1, len(init)))


# ---------------------------------------------------------------------------
# exact-eval: warm expression evaluation
# ---------------------------------------------------------------------------

def golden_floor(c0: F, c1: F) -> int:
    """floor(c0 + c1*phi), phi = (1 + sqrt5)/2, by integer square roots."""
    d = lcm(c0.denominator, c1.denominator)
    u, v = int(c0 * d), int(c1 * d)
    a, c = 2 * u + v, 2 * d            # the value is (a + v*sqrt5) / c
    if v == 0:
        return a // c
    s = isqrt(5 * v * v)               # floor(|v| sqrt5); never exact
    return (a + (s if v > 0 else -s - 1)) // c


class ExactEval(Workload):
    """Warm eval_expr calls in a fixed rotation of five kinds:
    S  the Sturmian expression floor(a*(n+1)+b) - floor(a*n+b) on Q(phi);
    Z  zero_indicator(x - y), which leaves the field through sqrt2;
    N  floor(sqrt2*x*x + x), nested real algebraic arithmetic;
    T  trace_expr on the plastic field, through its complex embeddings,
       read as an integer with floor (an exact tie at that integer);
    W  a Sturmian window followed by its subword complexity.
    S is ten of every sixteen operations, so that op_p50_ms falls inside
    its latency cluster rather than between two kinds."""

    name = "exact-eval"
    chunk = 160
    PATTERN = "SZSSNSZSWSSTSZSS"
    RATE = 160             # operations per second of --seconds
    TRACE_OPS = 320
    WINDOW = 64
    FACTOR_LEN = 8
    STURM_TEXT = "floor(a*(n+1)+b) - floor(a*n+b)"
    # slopes c0 + c1*phi in (0, 1) for the Sturmian windows
    SLOPES = ((F(-1), F(1)), (F(2), F(-1)), (F(-1, 2), F(1, 2)),
              (F(1), F(-1, 2)), (F(0), F(1, 3)), (F(3), F(-3, 2)))
    # power sums p0, p1, p2 of x^3 - x - 1: tr(c0 + c1 b + c2 b^2) = 3 c0 + 2 c2
    PLASTIC_POWER_SUMS = (3, 0, 2)

    def __init__(self, seed, seconds, tracer):
        super().__init__(seed, seconds, tracer)
        self.count = self.chunk * max(1, round(seconds * self.RATE / self.chunk))

    def build(self):
        reset_library_caches()
        self.G = gpnf.NumberField([-1, -1, 1])
        self.P = gpnf.NumberField([-1, -1, 0, 1])
        self.exprs = {
            "S": gpnf.parse(self.STURM_TEXT),
            "Z": gpnf.zero_indicator(gpnf.parse("x - y")),
            "N": gpnf.parse("floor(sqrt2*x*x + x)"),
            "T": genpoly.Floor(gpnf.trace_expr(self.P)),
        }
        warm = seeded(0, "exact-eval-warm-up")
        for kind in self.PATTERN * 2:
            self.run(self._draw(kind, warm))

    def _draw(self, kind: str, rng: random.Random) -> tuple:
        def rat(lo, hi):
            return F(rng.randint(lo, hi), rng.randint(1, 9))

        def nonzero(r):
            return rng.choice((-1, 1)) * rng.randint(1, r)

        if kind == "S":
            a = (rat(-9, 9), F(nonzero(9), rng.randint(1, 9)))
            return ("S", a, F(rng.randrange(100), 100), rng.randrange(LIMIT))
        if kind == "Z":
            x = (rat(-20, 20), rat(-20, 20))
            y = x if rng.random() < 0.25 else (rat(-20, 20), rat(-20, 20))
            return ("Z", x, y)
        # irrational x with coordinates up to 99: every N and T operation
        # builds resolvents of the same degrees, and inputs rarely repeat
        if kind == "N":
            return ("N", (rng.randint(-99, 99), nonzero(99)))
        if kind == "T":
            return ("T", (rng.randint(-99, 99), nonzero(99), rng.randint(-99, 99)))
        return ("W", rng.choice(self.SLOPES), F(rng.randrange(100), 100),
                rng.randrange(LIMIT))

    def ops(self, traced):
        rng = seeded(self.seed, "environments")
        n = self.TRACE_OPS if traced else self.count
        return [self._draw(self.PATTERN[i % len(self.PATTERN)], rng)
                for i in range(n)]

    def run(self, op):
        kind = op[0]
        G = self.G
        if kind == "S":
            env = {"a": G.element(op[1]), "b": op[2], "n": op[3]}
        elif kind == "Z":
            env = {"x": G.element(op[1]), "y": G.element(op[2])}
        elif kind == "N":
            env = {"x": G.element(op[1])}
        elif kind == "T":
            env = {"x": self.P.element(op[1])}
        else:
            a, b, lo = op[1:]
            word = gpnf.sturmian(G.element(a), b, lo, lo + self.WINDOW - 1)
            return word.bits, gpnf.subword_complexity(word, self.FACTOR_LEN)
        return gpnf.eval_expr(self.exprs[kind], env)

    def check(self, op, result):
        expected = self.oracle(op)
        if op[0] == "W":
            return result == expected
        return result.compare_rational(expected) == 0

    def oracle(self, op):
        kind = op[0]
        if kind == "S":
            (a0, a1), b, n = op[1:]
            return (golden_floor(a0 * (n + 1) + b, a1 * (n + 1))
                    - golden_floor(a0 * n + b, a1 * n))
        if kind == "Z":
            return 1 if op[1] == op[2] else 0
        if kind == "N":
            c0, c1 = op[1]
            if c0 == c1 == 0:
                return 0
            with localcontext() as ctx:
                ctx.prec = 80
                x = c0 + c1 * (1 + Decimal(5).sqrt()) / 2
                return decimal_floor(Decimal(2).sqrt() * x * x + x,
                                     Decimal(10) ** -40)
        if kind == "T":
            return sum(p * c for p, c in zip(self.PLASTIC_POWER_SUMS, op[1]))
        return self.window_oracle(*op[1:])

    def window_oracle(self, a, b, lo):
        (a0, a1) = a
        fl = [golden_floor(a0 * n + b, a1 * n)
              for n in range(lo, lo + self.WINDOW + 1)]
        bits = tuple(y - x for x, y in zip(fl, fl[1:]))
        L = self.FACTOR_LEN
        return bits, len({bits[i:i + L] for i in range(len(bits) - L + 1)})

    def cli_commands(self, scratch):
        rng = seeded(self.seed, "cli")
        field = {"schema": 1, "minpoly": ["1", "-1", "-1"]}

        def env_file(tag, vars_):
            path = scratch / f"env-{tag}-seed{self.seed}.json"
            path.write_text(json.dumps({"schema": 1, "field": field,
                                        "vars": vars_}))
            return str(path)

        def coords(c):
            return {"coords": [str(v) for v in c]}

        s = self._draw("S", rng)
        z = self._draw("Z", rng)
        _w, a, b, _lo = self._draw("W", rng)
        zero_text = ("floor(1 - frac(x - y)) * "
                     "floor(1 - frac(sqrt2*(x - y)))")
        return [
            (["eval", "--text", self.STURM_TEXT, "--env",
              env_file("S", {"a": coords(s[1]), "b": {"rational": str(s[2])},
                             "n": {"rational": str(s[3])}}), "--json"],
             str(self.oracle(s)), json_answer("value")),
            (["eval", "--text", zero_text, "--env",
              env_file("Z", {"x": coords(z[1]), "y": coords(z[2])}), "--json"],
             str(self.oracle(z)), json_answer("value")),
            (["complexity", "--minpoly", "1,-1,-1",
              "--a=" + ",".join(map(str, a)), "--b", str(b),
              "--window", str(self.WINDOW), "--n-min", str(self.FACTOR_LEN),
              "--n-max", str(self.FACTOR_LEN), "--json"],
             [[self.FACTOR_LEN, self.window_oracle(a, b, 0)[1]]],
             json_answer("complexity")),
        ]


WORKLOADS = {w.name: w for w in (Membership, FieldBuild, ExactEval)}
