"""Command-line front end.

Polynomial coefficients on flags are leading-first, constant term last:
``--charpoly "1,-1,-1"`` is x^2 - x - 1 (Fibonacci).  All output is exact
(rational strings, coordinate vectors); pass ``--approx BITS`` for decimal
enclosures alongside.  ``--json`` switches to machine-readable output with
a ``schema: 1`` tag.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import isqrt

from . import fileformats as ff
from .analysis import (non_hereditary_construct, sturmian, subword_complexity,
                       surrogate_slow_decay_set, BinaryWord)
from .constructions import IndexSet, PisotSetSpec, hereditary_predicate
from .errors import GpnfError
from .genpoly import eval_expr, parse
from .linrec import (LinRecSeq, salem_recover_exact, sml_zeros, trace_representation,
                     transfer_map, value_set_membership, verified_i0)
from .numberfield import NumberField


def _out(payload: dict, args, human_lines) -> None:
    if args.json:
        payload["schema"] = ff.SCHEMA
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


def _load_field(args) -> NumberField:
    if getattr(args, "spec", None):
        return ff.load_field(args.spec)
    if getattr(args, "minpoly", None):
        coeffs = ff.parse_coeff_list(args.minpoly)
        kwargs = {}
        if getattr(args, "distinguished", None) not in (None, "largest-real"):
            kwargs["distinguished"] = args.distinguished
        return NumberField(list(reversed(coeffs)), **kwargs)
    raise GpnfError("a field is required: --minpoly or --spec")


# -- field -------------------------------------------------------------------

def _cmd_field(args) -> int:
    f = _load_field(args)
    bits = args.approx or 48
    boxes = [f.root_box(j, Fraction(1, 2 ** bits)) for j in range(f.degree)]
    payload = ff.field_to_dict(f)
    payload["roots"] = [
        {"index": j, "real": f.is_real_root(j),
         "enclosure": b.approx_str(bits // 3)}
        for j, b in enumerate(boxes)]
    lines = [f"degree {f.degree}, signature {f.signature}, "
             f"distinguished root index {f.distinguished}"]
    for item in payload["roots"]:
        tag = "real" if item["real"] else "complex"
        mark = " *" if item["index"] == f.distinguished else ""
        lines.append(f"  root {item['index']} ({tag}): {item['enclosure']}{mark}")
    _out(payload, args, lines)
    return 0


# -- eval --------------------------------------------------------------------

def _cmd_eval(args) -> int:
    expr = parse(args.text if args.expr is None else ff.read_input(args.expr))
    env = ff.load_env(args.env) if args.env else {}
    val = eval_expr(expr, env)
    if val.kind != "cpx":
        payload, lines = _value_out(val, args.approx)
    else:
        payload, lines = {}, []
        for part, v in zip(("re", "im"), val.payload):
            payload[part], sub = _value_out(v, args.approx)
            lines += [f"{part}: {line}" for line in sub]
    _out(payload, args, lines)
    return 0


def _value_out(val, approx) -> tuple:
    """(payload, lines) of a value that is not a re/im pair: a rational,
    a field element's coordinates with its embedding index, or an
    enclosure of a real algebraic number."""
    q = val.as_rational()
    if q is not None:
        payload = {"value": ff.rat_str(q)}
        lines = [payload["value"]]
    elif val.kind in ("emb", "cemb"):
        payload = {"coords": ff.element_to_list(val.payload[0]),
                   "root_index": val.payload[1]}
        lines = [",".join(payload["coords"]) + f"  (embedding {val.payload[1]})"]
    else:
        box = val.certified_interval(max(approx or 48, 48))
        payload = {"enclosure": [ff.rat_str(box.lo), ff.rat_str(box.hi)]}
        lines = [f"in [{box.lo}, {box.hi}]"]
    if approx:
        box = (val.payload[0].embed(val.payload[1], approx)
               if val.kind == "cemb" else val.certified_interval(approx))
        payload["approx"] = box.approx_str(approx // 3)
        lines.append(f"~ {payload['approx']}")
    return payload, lines


# -- pisot-set ---------------------------------------------------------------

def _parse_indices(args) -> IndexSet:
    if args.indices:
        return IndexSet.finite(args.indices)
    if args.indices_mod:
        return IndexSet.periodic(args.indices_mod[0], args.indices_mod[1:])
    raise GpnfError("an index set is required: --indices or --indices-mod")


def _cmd_pisot_set(args) -> int:
    f = _load_field(args)
    beta = ff.parse_element_text(f, args.beta) if args.beta else f.beta
    indices = _parse_indices(args)
    rho = ff.parse_rational(args.rho) if args.rho else None
    spec = PisotSetSpec.create(beta, indices, rho=rho, m=args.m)
    pred = hereditary_predicate(spec)
    if args.queries:
        queries = ff.load_elements(args.queries, f)
    else:
        queries = [ff.parse_element_text(f, q) for q in args.query or []]
    if not queries:
        raise GpnfError("no queries: pass --queries FILE or --query COORDS")
    results = [pred.explain(x) if args.explain else pred(x) for x in queries]
    payload = {"m": spec.m, "rho": ff.rat_str(spec.rho), "results": results,
               "m_derivation": "least power with tail bound "
                               "2 C rho^-m/(1-rho^-m) < dist(beta)/3; "
                               "C from an explicit window-plus-tail chain"}
    lines = [f"m = {spec.m}, rho = {spec.rho}"]
    for x, r in zip(queries, results):
        lines.append(f"  {','.join(ff.element_to_list(x))} -> {r}")
    _out(payload, args, lines)
    return 0


# -- linrec ------------------------------------------------------------------

def _load_seq(args) -> LinRecSeq:
    cp = list(reversed(ff.parse_coeff_list(args.charpoly)))
    init = ff.parse_coeff_list(args.init)
    return LinRecSeq(cp, init)


def _cmd_linrec(args) -> int:
    seq = _load_seq(args)
    act = args.action
    payload: dict = {}
    lines = []
    if act == "term":
        v = seq.term(args.i)
        payload["term"] = ff.rat_str(v)
        lines.append(ff.rat_str(v))
    elif act == "trace-rep":
        x = trace_representation(seq)
        payload["coords"] = ff.element_to_list(x)
        lines.append(",".join(payload["coords"]))
    elif act == "i0":
        v = verified_i0(seq, args.j)
        payload["i0"] = v
        lines.append(str(v))
    elif act == "transfer":
        cp, init = ff.load_seq_spec(args.to)
        dst = LinRecSeq(cp, init)
        tm = transfer_map(seq, dst)
        payload["coefficients"] = [ff.rat_str(c) for c in tm.coeffs]
        payload["onset"] = tm.onset
        payload["scale"] = ff.rat_str(tm.scale)
        lines.append(f"g(n) = sum_j w_j nint(beta^j n), onset {tm.onset}, "
                     f"scale {tm.scale}")
        lines.append("w = " + ", ".join(payload["coefficients"]))
    elif act == "recover":
        y = salem_recover_exact(seq, args.i)
        payload["coords"] = ff.element_to_list(y)
        lines.append(",".join(payload["coords"]))
    elif act == "member":
        v = value_set_membership(seq, ff.parse_rational(args.q),
                                 search_bound=args.search_bound)
        payload["member"] = bool(v)
        lines.append("1" if v else "0")
    elif act == "zeros":
        rep = sml_zeros(seq, args.bound)
        payload["zeros"] = rep.zeros
        payload["progressions"] = rep.progressions
        payload["heuristic"] = rep.heuristic
        lines.append(f"zeros on [0, {rep.bound}]: {rep.zeros}")
        if rep.progressions:
            lines.append("residue classes entirely zero on the window "
                         f"(heuristic): {rep.progressions}")
    _out(payload, args, lines)
    return 0


def _cmd_salem_recover(args) -> int:
    args.action = "recover" if args.i is not None else "member"
    args.q = args.member
    return _cmd_linrec(args)


# -- complexity --------------------------------------------------------------

def _cmd_complexity(args) -> int:
    if args.word_file:
        word = BinaryWord(0, ff.load_word(args.word_file))
    else:
        f = _load_field(args)
        a = ff.parse_element_text(f, args.a)
        b = ff.parse_rational(args.b or "0")
        word = sturmian(a, b, 0, args.window - 1)
    ns = range(args.n_min, args.n_max + 1)
    counts = [(N, subword_complexity(word, N)) for N in ns]
    payload = {"window": len(word), "complexity": [[N, c] for N, c in counts]}
    lines = [f"window length {len(word)}"]
    for N, c in counts:
        poly_note = " (= N+1)" if c == N + 1 else ""
        lines.append(f"  p({N}) = {c}{poly_note}")
    _out(payload, args, lines)
    return 0


# -- nonhereditary -----------------------------------------------------------

def _cmd_nonhereditary(args) -> int:
    if args.e_file:
        members = set(map(ff.parse_rational, ff.read_input(args.e_file).split()))
        E = lambda n: n in members
    else:
        dense_until = args.dense_until
        E = surrogate_slow_decay_set(
            lambda N: Fraction(9, 10) if N < dense_until
            else Fraction(9, 10) * Fraction(dense_until, N))
    if args.h_preset == "half":
        h = lambda L: Fraction(1, 2)
    else:
        # ceil(sqrt(L)) / L: the block occupancy ceil(h(L) L) of 1/sqrt(L)
        h = lambda L: Fraction(isqrt(L - 1) + 1, L)
    plan = non_hereditary_construct(E, h, args.l_max)
    report = {
        "levels": [{
            "L": r.level, "a": r.a, "h": ff.rat_str(r.h), "M": r.M,
            "N": r.N, "block_set": list(r.block_set),
            "positions": list(r.positions),
            "plus_count": r.plus_count, "required_plus": r.required_plus,
            "complexity": plan.complexity_at(r.level),
            "bound": 2 ** r.a,
        } for r in plan.levels],
        "window_length": plan.N_max,
        "certified": plan.certified(),
    }
    if args.out_window:
        with open(args.out_window, "w") as fh:
            fh.write("".join(str(b) for b in plan.window.bits))
    lines = [f"levels: {args.l_max}, window [0, {plan.N_max}), "
             f"certified: {report['certified']}"]
    for lv in report["levels"]:
        lines.append(f"  L={lv['L']}: p(L)={lv['complexity']} >= {lv['bound']}"
                     f" (M={lv['M']}, N={lv['N']})")
    _out(report, args, lines)
    return 0


# -- selftest ------------------------------------------------------------------

def _cmd_selftest(args) -> int:
    from .selftest import run_all
    ok = run_all(verbose=not args.json)
    if args.json:
        print(json.dumps({"schema": ff.SCHEMA, "ok": ok}))
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gpnf",
        description="Exact generalised polynomial maps on number fields: "
                    "Pisot/Salem set predicates and recurrent-sequence tools.",
        epilog='Coefficient order: leading first, constant last. '
               'Example: --charpoly "1,-1,-1" is x^2 - x - 1.')
    sub = ap.add_subparsers(dest="command", required=True)

    # argparse types: a ValueError is a usage error naming the type
    def int_list(text: str) -> list:
        return [int(t) for t in text.split(",")]

    def root_index(text: str):
        return text if text == "largest-real" else int(text)

    def index(text: str) -> int:
        i = int(text)
        if i < 0:
            raise ValueError(text)
        return i

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output (schema 1)")
        p.add_argument("--approx", type=int, default=None, metavar="BITS",
                       help="also print decimal enclosures (>= 16 bits)")

    p = sub.add_parser("field", help="inspect a number field")
    p.add_argument("--minpoly", help='coefficients, leading first: "1,-1,-1"')
    p.add_argument("--spec", help="field spec JSON file")
    p.add_argument("--distinguished", type=root_index, default=None,
                   help='root index or "largest-real"')
    common(p)
    p.set_defaults(fn=_cmd_field)

    p = sub.add_parser("eval", help="evaluate a generalised polynomial expression")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--expr", help="expression file")
    g.add_argument("--text", help="expression text")
    p.add_argument("--env", help="environment JSON file")
    common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("pisot-set",
                       help="hereditary membership in {beta^i : i in I}")
    p.add_argument("--minpoly")
    p.add_argument("--spec")
    p.add_argument("--distinguished", type=root_index, default=None)
    p.add_argument("--beta", help="coordinates of beta (default: the generator)")
    p.add_argument("--indices", type=int_list,
                   help="finite index set: 0,2,4")
    p.add_argument("--indices-mod", type=int_list,
                   help="periodic index set: p,r1,r2,...")
    p.add_argument("--rho", help="contraction rate (rational)")
    p.add_argument("--m", type=int,
                   help="power (defaults to the least admissible)")
    p.add_argument("--queries", help="file of query elements")
    p.add_argument("--query", action="append",
                   help="inline query coordinates (--query=-1,0 for a minus)")
    p.add_argument("--explain", action="store_true",
                   help="print score and threshold enclosures")
    common(p)
    p.set_defaults(fn=_cmd_pisot_set)

    p = sub.add_parser("linrec", help="linear recurrent sequence tools")
    p.add_argument("--charpoly", required=True,
                   help='characteristic polynomial, leading first: "1,-1,-1"')
    p.add_argument("--init", required=True, help='initial terms: "0,1"')
    acts = p.add_subparsers(dest="action", required=True)
    a = acts.add_parser("term")
    a.add_argument("i", type=index)
    common(a)
    a = acts.add_parser("trace-rep")
    common(a)
    a = acts.add_parser("i0")
    a.add_argument("--j", type=int, default=1)
    common(a)
    a = acts.add_parser("transfer")
    a.add_argument("--to", required=True, help="target sequence JSON file")
    common(a)
    a = acts.add_parser("recover")
    a.add_argument("--i", type=index, required=True)
    common(a)
    a = acts.add_parser("member")
    a.add_argument("q")
    a.add_argument("--search-bound", type=int, default=10 ** 4)
    common(a)
    a = acts.add_parser("zeros")
    a.add_argument("--bound", type=int, default=10 ** 4)
    common(a)
    p.set_defaults(fn=_cmd_linrec)

    p = sub.add_parser("salem-recover",
                       help="recover beta^i from a Salem sequence "
                            "(alias of linrec recover/member)")
    p.add_argument("--charpoly", required=True)
    p.add_argument("--init", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--i", type=index)
    g.add_argument("--member")
    p.add_argument("--search-bound", type=int, default=10 ** 4)
    common(p)
    p.set_defaults(fn=_cmd_salem_recover)

    p = sub.add_parser("complexity", help="subword complexity of a word window")
    p.add_argument("--word-file", help="file of 0/1 digits")
    p.add_argument("--minpoly", help="field for a Sturmian source")
    p.add_argument("--spec")
    p.add_argument("--distinguished", type=root_index, default=None)
    p.add_argument("--a", help="Sturmian slope coordinates")
    p.add_argument("--b", help="Sturmian intercept (rational)", default="0")
    p.add_argument("--window", type=int, default=2000)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=25)
    common(p)
    p.set_defaults(fn=_cmd_complexity)

    p = sub.add_parser("nonhereditary",
                       help="build a high-complexity subset of a sparse set")
    p.add_argument("--h-preset", choices=["half", "sqrt"], default="sqrt",
                   help="rate: 1/2 everywhere, or 1/sqrt(L)")
    p.add_argument("--l-max", type=int, default=4)
    p.add_argument("--e-file", help="file with the members of E")
    p.add_argument("--dense-until", type=int, default=10 ** 4,
                   help="surrogate E: dense prefix length")
    p.add_argument("--out-window", help="write the F window as 0/1 text")
    common(p)
    p.set_defaults(fn=_cmd_nonhereditary)

    p = sub.add_parser("selftest", help="run the library invariant suites")
    common(p)
    p.set_defaults(fn=_cmd_selftest)
    return ap


def dispatch(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.approx is not None and args.approx < 16:
        ap.error("--approx must be at least 16 bits")
    try:
        return args.fn(args)
    except GpnfError as e:
        msg = {"schema": ff.SCHEMA, "error": type(e).__name__, "detail": str(e)}
        if getattr(args, "json", False):
            print(json.dumps(msg))
        else:
            print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)
        return 1


def main() -> None:
    # exact answers and queries can have more digits than the int/str
    # conversion limit (4,300 by default since Python 3.11 and 3.10.7); it
    # is lifted for the command's process only, never on `import gpnf`
    set_max_str_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_max_str_digits is not None:
        set_max_str_digits(0)
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
