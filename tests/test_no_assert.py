"""Source guard: no `assert` statement in the library.

`python -O` strips `assert` statements, and every exactness check in
`gpnf` (an exact division, a root count, a resolvent's symmetry) must
still run there, so each raises a typed error instead.  The invariant
suites of `selftest.py` are covered too: they fail through `_check`, so
`python -O -m gpnf.cli selftest` still checks every suite.
"""

import ast
import pathlib

import pytest

import gpnf

SRC = pathlib.Path(gpnf.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def assert_lines(source: str) -> list:
    """The line of every `assert` statement in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_guard_sees_every_module():
    assert {p.name for p in MODULES} >= {"polys.py", "algebraic.py",
                                        "numberfield.py", "genpoly.py",
                                        "selftest.py"}


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
