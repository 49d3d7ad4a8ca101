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
from fractions import Fraction

import pytest

from gpnf.cli import dispatch
from gpnf.intervals import RatInterval

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


# The enclosures that moved entries printed before a change that keeps each
# value and moves only its enclosure, so each new one must overlap its old
# one.  The sqrt2 entries moved when sums and products stopped combining
# strictly left to right, one resolvent per cross-field operand, and
# folded same-field operands first.  re(emb(v,0)) on x^4 + 1 moved when the
# irreducibility proof began to refine the field's own root boxes, from
# which its 64-bit enclosure now starts.
PRIOR_ENCLOSURES = {
    "re(emb(v,0))": ("-854839645001009215068579/1208925819614629174706176",
                     "-106854955625126151883563/151115727451828646838272"),
    "sqrt2*x*x + x": (
        "1003967063819693053420411695702074303207768018269687791148831260"
        "2497187059428936289782541802053200968581473878424426066124956956"
        "458355190338704849935968997113405058001159/188698121241077067612"
        "0777290494134445458460610208220214188103150122812081196074426043"
        "0633625888293837707341875153819224498852923149623963162807171257"
        "16348021824697663488",
        "1003967063819693053420411695702074303207768018269687791148831260"
        "2497187059428936289782541802053200968581473878424426066124956956"
        "458355190338704849935968997113405058001207/188698121241077067612"
        "0777290494134445458460610208220214188103150122812081196074426043"
        "0633625888293837707341875153819224498852923149623963162807171257"
        "16348021824697663488"),
    "frac(sqrt2*x*x + x)": (
        "4679461688538548777410142404801025197001342321247946902303075193"
        "0294106025470264271446302211749440351276736590663799608036067093"
        "811074030793575368706597727559148954347996308149657/648361807637"
        "6551497675637287017439298456947237878807656243214577641645017832"
        "6689787495422639798496785753091978301574830974924235553308989185"
        "732419283030682610330965678148586307584",
        "1169865422134637194352535601200256299250335580311986725575768798"
        "2573526506367566067861575552937360087819184147665949902009016773"
        "452768507698393842176649431889787238586999077037435/162090451909"
        "4137874418909321754359824614236809469701914060803644410411254458"
        "1672446873855659949624196438272994575393707743731058888327247296"
        "433104820757670652582741419537146576896"),
}


@pytest.mark.parametrize("text", sorted(PRIOR_ENCLOSURES))
def test_moved_enclosure_overlaps_its_prior_one(text):
    entry, = [e for e in CORPUS if e["argv"][:3] == ["eval", "--text", text]]
    new = RatInterval(*map(Fraction, json.loads(entry["stdout"])["enclosure"]))
    old = RatInterval(*map(Fraction, PRIOR_ENCLOSURES[text]))
    assert new.overlaps(old)


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
