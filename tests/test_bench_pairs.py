"""The no-regression verdict of `tools/bench_pairs.py`, on synthetic runs.

Each end-to-end metric gets a verdict against its relative bound:
`unresolved` when the base's quartile spread over its median exceeds the
bound and not every change run beats every base run, else `worse` when the
change's median is worse than the base's by more than the bound, else
`within`.  No benchmark process is started: the runs are made up here.
"""

import importlib.util
import pathlib
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "ops_per_s", "unit": "1/s", "better": "higher",
            "bound": 0.25}]
STEADY = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
NOISY = [1.0, 2.0] * 5                      # quartile spread 100% of median


def run(name, value):
    return {"correct": True, "metrics": {name: {"value": value}}}


def verdict(name, base, change):
    runs = [(run(name, b), run(name, c)) for b, c in zip(base, change)]
    summary = bp.summarize(runs, METRICS)[name]
    assert summary["bound"] == 0.25
    return summary["verdict"]


def scaled(values, k):
    return [v * k for v in values]


def test_within_and_worse_in_each_direction():
    assert verdict("wall_s", STEADY, STEADY) == "within"
    assert verdict("wall_s", STEADY, scaled(STEADY, 1.2)) == "within"
    assert verdict("wall_s", STEADY, scaled(STEADY, 1.3)) == "worse"
    assert verdict("wall_s", STEADY, scaled(STEADY, 0.5)) == "within"
    assert verdict("ops_per_s", STEADY, scaled(STEADY, 0.8)) == "within"
    assert verdict("ops_per_s", STEADY, scaled(STEADY, 0.7)) == "worse"
    assert verdict("ops_per_s", STEADY, scaled(STEADY, 2)) == "within"


def test_a_wide_base_is_unresolved_unless_the_change_beats_every_run():
    assert verdict("wall_s", NOISY, NOISY) == "unresolved"
    assert verdict("wall_s", NOISY, scaled(NOISY, 3)) == "unresolved"
    assert verdict("wall_s", NOISY, [0.9] * 10) == "within"
    assert verdict("wall_s", NOISY, [1.0] * 10) == "unresolved"   # ties
    assert verdict("ops_per_s", NOISY, [2.1] * 10) == "within"


def test_report_no_regression(monkeypatch, capsys):
    # run_pairs and its printout on made-up runs: base and change differ
    # only in the tree handed to run_once (the change runs in ROOT)
    def fake_run_once(tree, workload, seed, seconds):
        k = 1.5 if tree == bp.ROOT and workload == "exact-eval" else 1.0
        return {"correct": True, "metrics": {
            "wall_s": {"value": k * STEADY[seed]},
            "ops_per_s": {"value": STEADY[seed] / k}}}

    monkeypatch.setattr(bp, "run_once", fake_run_once)
    monkeypatch.setattr(bp, "git", lambda *args, **kw: "")
    monkeypatch.setattr(bp, "src_lines", lambda tree: 0)
    args = SimpleNamespace(seconds=1, pairs=4)
    ok = bp.run_pairs("base", args, ["membership"], [1, 2], METRICS)
    assert ok["no_regression"] and ok["correct"]
    assert {m["verdict"] for res in ok["workloads"]["membership"].values()
            for m in res["metrics"].values()} == {"within"}
    bad = bp.run_pairs("base", args, ["membership", "exact-eval"], [1],
                       METRICS)
    assert not bad["no_regression"]
    by_workload = {w: {name: m["verdict"]
                       for name, m in res["1"]["metrics"].items()}
                   for w, res in bad["workloads"].items()}
    assert by_workload == {
        "membership": {"wall_s": "within", "ops_per_s": "within"},
        "exact-eval": {"wall_s": "worse", "ops_per_s": "worse"}}
    bp.show(bad)
    out = capsys.readouterr().out
    assert "#   wall_s: 1.01 -> 1.515 s, won 0/4, worse (bound 25%)" in out
    assert out.endswith("# no_regression: False\n")
