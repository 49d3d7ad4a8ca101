"""Golden CLI corpus: commands whose stdout must not change by a byte.

Each entry of `data/cli_golden.json` holds an argv, an optional
environment dict (written to a temporary `env.json` that replaces the
`{env}` placeholder in argv), the exit code and the exact stdout.  Every
command runs in-process through `cli.dispatch`.

After an intended output change, re-record the corpus from the current
code and review the diff:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from gpnf.cli import dispatch

DATA = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
CORPUS = json.loads(DATA.read_text())


def run_entry(entry: dict, tmp: pathlib.Path) -> tuple:
    """(exit code, stdout) of one corpus command."""
    argv = list(entry["argv"])
    if entry.get("env") is not None:
        path = tmp / "env.json"
        path.write_text(json.dumps(entry["env"]))
        argv = [str(path) if a == "{env}" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(argv)
    return code, out.getvalue()


def test_corpus_size():
    assert len(CORPUS) >= 40
    assert len({json.dumps([e["argv"], e.get("env")]) for e in CORPUS}) == len(CORPUS)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: " ".join(e["argv"]))
def test_cli_golden(entry, tmp_path):
    assert run_entry(entry, tmp_path) == (entry["code"], entry["stdout"])


def _record() -> None:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for entry in CORPUS:
            entry["code"], entry["stdout"] = run_entry(entry, pathlib.Path(tmp))
    DATA.write_text(json.dumps(CORPUS, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cli_golden.py --record")
    _record()
