"""Alternated pairs of benchmark runs: a base revision against the working tree.

    python3 tools/bench_pairs.py --base HEAD~1 --workload field-build \\
        --seed 1 --seed 2 --seconds 20 --pairs 10 --out BENCH_32.json

The base side runs in a temporary `git worktree` of --base, removed at the
end; the change side is the working tree.  Each side runs its own `perfbench/run.py --trace 0`.
A pair is one run on each side, one right after the other, and the side
that goes first alternates from pair to pair, so that a drift in the
host's speed favours neither.  Workloads and seeds run one after another,
never side by side.

The JSON written holds, per workload, seed and end-to-end metric of
BENCHMARK.json: each side's values, median and quartiles, the number of
pairs the change won (strictly better, in the metric's direction), the
median change in percent and a verdict against the metric's relative
`bound`: `unresolved` when the base's quartile spread, over its median,
exceeds the bound and not every change run beats every base run; else
`worse` when the change's median is worse than the base's by more than the
bound; else `within`.  `no_regression` is true when every verdict is
`within`.  It also holds the Python version, nproc and each side's
`src/gpnf` line count.  The exit status is 1 when a run fails or reports
`correct: false` on either side, else 0; speed gates nothing.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("membership", "field-build", "exact-eval")


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((tree / "src" / "gpnf").glob("*.py")))


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run in `tree`: whether it exited 0 with `correct:
    true`, and its metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, text=True, capture_output=True)
    try:
        result = json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if r.returncode:
        sys.stderr.write(r.stderr[-2000:])
    return {"correct": r.returncode == 0 and result.get("correct") is True,
            "metrics": result.get("metrics", {})}


def stats(values: list) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def verdict(base: dict, change: dict, lower: bool, bound: float) -> str:
    """`unresolved`, `worse` or `within`: the change's runs against the
    base's, for stats of `stats` and a relative bound."""
    b = base["median"]
    spread = (base["q3"] - base["q1"]) / abs(b) if b else 0.0
    if lower:
        beats_all = max(change["values"]) < min(base["values"])
        worse_by = change["median"] - b
    else:
        beats_all = min(change["values"]) > max(base["values"])
        worse_by = b - change["median"]
    if spread > bound and not beats_all:
        return "unresolved"
    if worse_by > bound * abs(b):
        return "worse"
    return "within"


def summarize(runs: list, end_to_end: list) -> dict:
    """Per end-to-end metric: each side's stats, the pairs the change won
    and the verdict against the metric's bound."""
    out = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in runs
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        base, change = stats([b for b, _ in pairs]), stats([c for _, c in pairs])
        won = sum((c < b) if lower else (c > b) for b, c in pairs)
        pct = (100 * (change["median"] - base["median"]) / base["median"]
               if base["median"] else None)
        out[name] = {"unit": m["unit"], "better": m["better"], "base": base,
                     "change": change, "pairs": len(pairs), "pairs_won": won,
                     "median_change_pct": pct, "bound": m["bound"],
                     "verdict": verdict(base, change, lower, m["bound"])}
    return out


def run_pairs(base: Path, args, workloads, seeds, end_to_end) -> dict:
    """The report: every pair of every workload and seed, summarized."""
    report = {"python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)),
              "src_gpnf_lines": {"base": src_lines(base),
                                 "change": src_lines(ROOT)},
              "seconds": args.seconds, "pairs": args.pairs,
              "change_rev": git("rev-parse", "HEAD"),
              "change_dirty": bool(git("status", "--porcelain", "--", "src")),
              "workloads": {}, "correct": True}
    for w in workloads:
        report["workloads"][w] = {}
        for seed in seeds:
            runs, correct = [], {"base": True, "change": True}
            for i in range(args.pairs):
                order = (("base", base), ("change", ROOT))
                res = {}
                for side, tree in (order if i % 2 == 0 else order[::-1]):
                    res[side] = run_once(tree, w, seed, args.seconds)
                    correct[side] &= res[side]["correct"]
                    print(f"# pair {i + 1}/{args.pairs} {w} seed {seed} "
                          f"{side}: correct {res[side]['correct']}",
                          file=sys.stderr)
                runs.append((res["base"], res["change"]))
            report["workloads"][w][str(seed)] = {
                "correct": correct, "metrics": summarize(runs, end_to_end)}
            report["correct"] &= correct["base"] and correct["change"]
    report["no_regression"] = all(
        m["verdict"] == "within" for by_seed in report["workloads"].values()
        for res in by_seed.values() for m in res["metrics"].values())
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="revision of the base side")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", action="append", type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    workloads, seeds = args.workload or list(WORKLOADS), args.seed or [1]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_rev = git("rev-parse", args.base)
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base), base_rev)
        try:
            report = run_pairs(base, args, workloads, seeds, spec["end_to_end"])
        finally:
            git("worktree", "remove", "--force", str(base))
    report["base_rev"] = base_rev
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    show(report)
    return 0 if report["correct"] else 1


def show(report: dict) -> None:
    """Print each metric's medians, pairs won and verdict."""
    for w, by_seed in report["workloads"].items():
        for seed, res in by_seed.items():
            print(f"# {w} seed {seed}: correct {res['correct']}")
            for name, m in res["metrics"].items():
                print(f"#   {name}: {m['base']['median']:.6g} -> "
                      f"{m['change']['median']:.6g} {m['unit']}, won "
                      f"{m['pairs_won']}/{m['pairs']}, {m['verdict']} "
                      f"(bound {m['bound']:.0%})")
    print(f"# no_regression: {report['no_regression']}")


if __name__ == "__main__":
    sys.exit(main())
