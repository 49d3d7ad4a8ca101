"""Source guard: one refinement schedule per exact value.

A decision about an exact value reads a stream of ever narrower
enclosures: `FieldElement.enclosures` doubles the precision of `embed`,
`RealAlg.enclosures` divides the width of `refined_interval` by 16.  No
`while` loop in the library may call `.embed(` or `.refined_interval(`
itself, which would write that schedule out by hand once more.
"""

import ast
import pathlib

import pytest

import gpnf

SRC = pathlib.Path(gpnf.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
REFINERS = {"embed", "refined_interval"}


def hand_ladders(source: str) -> list:
    """(line, method) for every refining call inside a while loop."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, ast.While):
            found.update((node.lineno, node.func.attr)
                         for node in ast.walk(loop)
                         if isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Attribute)
                         and node.func.attr in REFINERS)
    return sorted(found)


def test_guard_sees_every_module():
    assert {p.name for p in MODULES} >= {"algebraic.py", "constructions.py",
                                        "linrec.py", "numberfield.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_written_refinement_loop(path):
    assert hand_ladders(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    "while True:\n    box = x.embed(j, prec)\n    prec *= 2",
    "while box.lo <= 0 <= box.hi:\n    box = x.embed(None, bits)",
    "while True:\n    if ok(a.refined_interval(w)):\n        break\n    w /= 16",
    "while n:\n    for k in ks:\n        y = x.embed(k, 8)",
])
def test_guard_flags(snippet):
    assert hand_ladders(snippet)


@pytest.mark.parametrize("snippet", [
    "for box in x.enclosures(j):\n    pass",
    "box = x.embed(j, 30)",
    "while n:\n    n = step(n)",
    "w = next(b for b in x.enclosures(None, 48) if not b.contains(0))",
])
def test_guard_allows(snippet):
    assert hand_ladders(snippet) == []
