"""gpnf benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last line of stdout is the result with every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric
instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# candidate percentiles for op_tail_ms; the highest one that leaves at
# least TAIL_BEYOND samples above it is reported
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)
TAIL_BEYOND = 10
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import gpnf; "
                  "print(time.perf_counter() - t)")
CLI_TIMEOUT_S = 120
ALL_TIMEOUT_S = 900
WORKLOADS = ("membership", "field-build", "exact-eval")
CLI_ROUNDS = 5             # each workload's CLI commands run this many times
# The host alternates between a fast state and one up to 2x slower, in
# spells from under a second to longer than a run.  Every time is therefore
# scaled to the host's reference speed: a fixed pure-Python task that does
# not touch gpnf is timed every CAL_EVERY_S of the timed loop and around
# each set-up and CLI process, and a time measured while the task took c ns
# is multiplied by CAL_REF_NS / c.  The raw times are kept in the record.
CAL_STEPS = 150
CAL_REF_NS = 1_000_000
CAL_EVERY_S = 0.05
CAL_AROUND = 5             # calibrations before and after a set-up or process
CAL_SMOOTH = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def rank(n: int, p: float) -> int:
    """Nearest-rank index (0-based) of the p-th percentile of n samples."""
    return max(0, -(-(round(p * 1000) * n) // 100000) - 1)


def tail(sorted_ns) -> tuple:
    """(percentile, value_ns, samples beyond) for op_tail_ms: the highest
    ladder percentile with TAIL_BEYOND samples above it, or the maximum
    when no rung has that many."""
    n = len(sorted_ns)
    best = 100
    for p in TAIL_LADDER:
        if n - 1 - rank(n, p) >= TAIL_BEYOND:
            best = p
    r = rank(n, best)
    return best, sorted_ns[r], n - 1 - r


class Raised:
    """An exception raised by an operation, kept as its result."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def calibrate_ns() -> int:
    """Wall time of a fixed pure-Python task that does not touch gpnf."""
    t0 = time.perf_counter_ns()
    acc, x = Fraction(0), Fraction(3, 7)
    for i in range(1, CAL_STEPS):
        acc = acc * x + Fraction(i, 11)
        acc -= acc.numerator // acc.denominator
    return time.perf_counter_ns() - t0


def calibrations() -> list:
    return [calibrate_ns() for _ in range(CAL_AROUND)]


def scaled(raw, before: list, after: list) -> float:
    """A time measured between two sets of calibrations, at reference speed."""
    cal = before + after
    return raw * CAL_REF_NS * len(cal) / sum(cal)


class Pass:
    """One closed-loop pass over a list of operations.

    A timer interrupts the loop every CAL_EVERY_S to run one calibration,
    also in the middle of a long operation; its time is taken out of the
    operation's latency.  An operation is scaled by the calibrations taken
    from just before it to just after it, and CAL_SMOOTH more on each side.
    `lat` holds the scaled latencies, `raw_lat` the clock readings.
    """

    def __init__(self, wl, ops):
        run, clock, chunk = wl.run, time.perf_counter_ns, wl.chunk
        self.cal = cal = [calibrate_ns()]
        self._spent = 0
        raw, span = array("q"), array("q")
        self.results = results = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        t_start = clock()
        try:
            for op in ops:
                first, spent = len(cal) - 1, self._spent
                t0 = clock()
                try:
                    r = run(op)
                except Exception as exc:  # counted as a failed operation
                    r = Raised(exc)
                t1 = clock()
                raw.append(t1 - t0 - (self._spent - spent))
                span.extend((first, len(cal)))
                results.append(r)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.wall_ns = clock() - t_start - self._spent
        cal.append(calibrate_ns())
        self.raw_lat = raw
        sums = [0]
        for c in cal:
            sums.append(sums[-1] + c)
        self.lat = lat = array("d")
        for i, d in enumerate(raw):
            lo = max(0, span[2 * i] - CAL_SMOOTH)
            hi = min(len(cal), span[2 * i + 1] + 1 + CAL_SMOOTH)
            lat.append(d * CAL_REF_NS * (hi - lo) / (sums[hi] - sums[lo]))
        n = len(lat)
        self.chunks_ns = [sum(lat[c:c + chunk]) for c in range(0, n, chunk)
                          if c + chunk <= n] or [sum(lat)]

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter_ns()
        self.cal.append(calibrate_ns())
        self._spent += time.perf_counter_ns() - t0


def check(wl, ops, results) -> list:
    """Descriptions of the operations whose result the oracle rejects."""
    bad = []
    for op, r in zip(ops, results):
        if isinstance(r, Raised):
            bad.append(f"{op!r} raised {r.text}")
            continue
        try:
            ok = wl.check(op, r)
        except Exception as exc:  # an undecidable oracle fails the operation
            bad.append(f"{op!r}: oracle raised {type(exc).__name__}: {exc}")
            continue
        if not ok:
            bad.append(f"{op!r} returned {r!r}")
    return bad


def fresh_import_s() -> float:
    p = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
                       env=child_env(), capture_output=True, text=True,
                       timeout=CLI_TIMEOUT_S, check=True)
    return float(p.stdout.strip().splitlines()[-1])


def measure_setup(wl, repeats: int) -> tuple:
    """Set-up times, raw and at reference speed: a fresh interpreter's
    `import gpnf` plus the workload's cold build and warm-up, repeated."""
    raw, ref = [], []
    for _ in range(repeats):
        before = calibrations()
        imp = fresh_import_s()
        t0 = time.perf_counter()
        wl.build()
        raw.append(imp + time.perf_counter() - t0)
        ref.append(scaled(raw[-1], before, calibrations()))
    return raw, ref


def run_cli(wl, traced: bool) -> dict:
    """Fresh CLI processes: each command of the workload, CLI_ROUNDS times.
    `cold_s` is the median over all of them, at reference speed."""
    OUT.mkdir(exist_ok=True)
    base = ([sys.executable, str(HERE / "cli_probe.py")] if traced
            else [sys.executable, "-m", "gpnf.cli"])
    walls, ref, bad, probes = [], [], [], []
    for argv, expected, answer in wl.cli_commands(OUT) * CLI_ROUNDS:
        before = calibrations()
        t0 = time.perf_counter()
        p = subprocess.run(base + argv, cwd=ROOT, env=child_env(),
                           capture_output=True, text=True,
                           timeout=CLI_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        ref.append(scaled(walls[-1], before, calibrations()))
        try:
            got = answer(p.stdout) if p.returncode == 0 else None
        except (ValueError, KeyError) as exc:
            got = f"unreadable output: {exc}"
        if got != expected:
            bad.append(f"cli {argv!r}: exit {p.returncode}, got {got!r}, "
                       f"expected {expected!r}; {p.stderr.strip()[-300:]}")
        if traced:
            marks = [ln for ln in p.stderr.splitlines()
                     if ln.startswith("PERFBENCH_PROBE ")]
            if marks:
                probes.append(json.loads(marks[-1].split(" ", 1)[1]))
    return {"walls": walls, "cold_s": statistics.median(ref), "bad": bad,
            "probes": probes}


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    lines = 0
    for path in sorted((SRC / "gpnf").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "seed": seed,
            "src_gpnf_lines": lines}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def chunk_stats(p, chunk: int) -> dict:
    """Throughput, median, tail and wall time: each the median over chunks
    of its value in one chunk, at reference speed."""
    rows = []
    for c, wall_ns in enumerate(p.chunks_ns):
        lat = sorted(p.lat[c * chunk:(c + 1) * chunk])
        tail_p, tail_ns, beyond = tail(lat)
        rows.append((len(lat) / (wall_ns / 1e9), lat[rank(len(lat), 50)] / 1e6,
                     tail_ns / 1e6, wall_ns / 1e9))
    med = [statistics.median(col) for col in zip(*rows)]
    return {"ops_per_s": med[0], "op_p50_ms": med[1], "op_tail_ms": med[2],
            "wall_s": med[3],
            "op_tail": {"percentile": tail_p, "samples_per_chunk": len(lat),
                        "beyond": beyond}}


def untraced_run(wl) -> tuple:
    setup_raw, setup = measure_setup(wl, wl.setup_repeats)
    ops = wl.ops(traced=False)
    p = Pass(wl, ops)
    rss = peak_rss_mib()
    bad = check(wl, ops, p.results)
    cli = run_cli(wl, traced=False)
    bad += cli["bad"]
    st = chunk_stats(p, wl.chunk)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(st["ops_per_s"], "1/s"),
        "op_p50_ms": metric(st["op_p50_ms"], "ms"),
        "op_tail_ms": metric(st["op_tail_ms"], "ms"),
        "wall_s": metric(st["wall_s"], "s"),
        "cli_cold_s": metric(cli["cold_s"], "s"),
        "peak_rss_mib": metric(rss, "MiB"),
    }
    raw_chunks = [sum(p.raw_lat[c:c + wl.chunk]) / 1e9
                  for c in range(0, len(ops), wl.chunk)]
    details = {"ops": len(ops), "ops_per_chunk": wl.chunk,
               "op_tail": st["op_tail"], "raw_wall_s": p.wall_ns / 1e9,
               "setup_s": setup, "raw_setup_s": setup_raw,
               "chunk_s": [w / 1e9 for w in p.chunks_ns],
               "raw_chunk_s": raw_chunks,
               "calibration_s": [c / 1e9 for c in p.cal],
               "raw_cli_s": cli["walls"]}
    return len(ops) + len(cli["walls"]), bad, metrics, details


def traced_run(wl, tracer) -> tuple:
    import workloads

    wl.build()
    ops = wl.ops(traced=True)
    reference = Pass(wl, ops)
    bad = check(wl, ops, reference.results)
    tracer.install()
    wl.build()
    hits0, misses0 = workloads.resolvent_lookups()
    tracer.on = True
    traced = Pass(wl, ops)
    tracer.on = False
    hits1, misses1 = workloads.resolvent_lookups()
    bad += check(wl, ops, traced.results)
    cli = run_cli(wl, traced=True)
    bad += cli["bad"]

    totals = tracer.layer_totals()
    metrics, counts = {}, {}
    for layer, *_ in layers.SPANS:
        if layer == "cli.dispatch":
            calls = len(cli["probes"])
            self_s = sum(pr["dispatch_s"] for pr in cli["probes"])
        else:
            calls, _incl, self_ns = totals.get(layer, (0, 0, 0))
            self_s = self_ns / 1e9
        counts[layer] = calls
        metrics[f"{layer}.calls"] = metric(calls, "count")
        metrics[f"{layer}.self_s"] = metric(self_s, "s")

    nint_calls = totals.get("linrec._NintCache.call", (0,))[0]
    fallbacks = tracer.count_children("numberfield.certified_nint",
                                      "linrec._NintCache.call")
    lookups = (hits1 - hits0) + (misses1 - misses0)
    scalars = {
        "linrec.nint_fast_ratio": (
            1 - fallbacks / nint_calls if nint_calls else 0.0, nint_calls),
        "algebraic.resolvent_cache_hit_ratio": (
            (hits1 - hits0) / lookups if lookups else 0.0, lookups),
        "cli.import_s": (
            statistics.median(pr["import_s"] for pr in cli["probes"])
            if cli["probes"] else 0.0, len(cli["probes"])),
        "trace.overhead_ratio": (sum(traced.lat) / sum(reference.lat), 1),
    }
    for d in range(2, 7):
        n, incl, _self = totals.get(f"numberfield.NumberField.deg{d}", (0, 0, 0))
        scalars[f"numberfield.NumberField.deg{d}_s"] = (
            incl / n / 1e9 if n else 0.0, n)
    for name, unit, *_ in layers.SCALARS:
        value, counts[name] = scalars[name]
        metrics[name] = metric(value, unit)

    missing = [name for name, n in counts.items()
               if not n and wl.name in layers.EXERCISED_ON[name]]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{wl.seed}.tsv.gz"
    tracer.write(spans_path)
    details = {"ops": len(ops), "spans": len(tracer.start),
               "spans_file": str(spans_path.relative_to(ROOT)),
               "nint_fallbacks": fallbacks, "counts": counts,
               "unexercised": missing}
    return 2 * len(ops) + len(cli["walls"]), bad, metrics, details


def run_all(args) -> int:
    """Each workload in its own process, one after another; the combined
    result names every metric `<workload>.<metric>`."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        p = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=ALL_TIMEOUT_S)
        sys.stderr.write(p.stderr)
        lines = p.stdout.splitlines()
        print(f"# == {name}")
        print("\n".join(lines[:-1]))
        if p.returncode != 0 or not lines:
            return p.returncode or 1
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "gpnf" / "__init__.py").is_file():
        print(f"perfbench: no gpnf sources at {SRC / 'gpnf'}; run from the "
              f"root of a gpnf checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gpnf
    if Path(gpnf.__file__).resolve().parent != SRC / "gpnf":
        print(f"perfbench: imported gpnf from {gpnf.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    env = environment(args.seed)
    # one core for the benchmark, its calibrations and its CLI processes
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    if args.trace:
        attempted, bad, metrics, details = traced_run(wl, tracer)
    else:
        attempted, bad, metrics, details = untraced_run(wl)

    record = {"workload": wl.name, "trace": args.trace,
              "seconds": args.seconds, "env": env, "metrics": metrics,
              "fail_ratio": len(bad) / attempted, "failures": bad[:20],
              "details": details}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print("# env " + json.dumps(env))
    for line in bad[:20]:
        print(f"# FAILED {line}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(f"# fail_ratio = {len(bad) / attempted} (failed/attempted)")
    if args.trace and details["unexercised"]:
        print("perfbench: traced run left layers without calls on "
              f"{wl.name}: {details['unexercised']}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": len(bad), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
