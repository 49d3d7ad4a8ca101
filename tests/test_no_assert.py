"""Source guard: no `assert` statement in the library.

`python -O` strips `assert` statements, and every exactness check in
`gpnf` (an exact division, a root count, a resolvent's symmetry) must
still run there, so each raises a typed error instead.  The one exception
is `selftest.py`, whose asserts are the checks it reports on.
"""

import ast
import pathlib

import pytest

import gpnf

SRC = pathlib.Path(gpnf.__file__).parent
MODULES = [p for p in sorted(SRC.glob("*.py")) if p.name != "selftest.py"]


def assert_lines(source: str) -> list:
    """The line of every `assert` statement in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_guard_sees_every_module():
    assert {p.name for p in MODULES} >= {"polys.py", "algebraic.py",
                                        "numberfield.py", "genpoly.py"}
    assert "selftest.py" not in {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_in_source(path):
    assert assert_lines(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    "assert q != 0",
    "def f(r):\n    assert not r, 'inexact'\n",
    "class C:\n    def g(self):\n        if x:\n            assert y\n",
])
def test_guard_flags(snippet):
    assert assert_lines(snippet)


def test_guard_allows_raising_checks():
    assert assert_lines("if rem:\n    raise ArithmeticError('inexact')\n") == []
