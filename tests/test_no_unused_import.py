"""Source guard: no module of `gpnf` imports a name it never uses.

A name that an `import` or `from ... import` binds, at any depth, must be
read somewhere in its module: as a name, or as the base of an attribute
such as `polys.canonical`.  Names listed in the module's `__all__` count
as used, since re-exporting them is their use; `from __future__` imports
bind no name.  Only the standard library's `ast` is needed, so the guard
runs wherever the tests do.
"""

import ast
import pathlib

import pytest

import gpnf

SRC = pathlib.Path(gpnf.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _exported(tree: ast.Module) -> set:
    """The strings of a module-level `__all__ = [...]` or `(...)`."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(e.value for e in node.value.elts
                         if isinstance(e, ast.Constant))
    return names


def unused_imports(source: str) -> list:
    """(line, name) for every imported name that `source` never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend((node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend((node.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*")
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used = read | _exported(tree)
    return [(line, name) for line, name in bound if name not in used]


def test_guard_sees_every_module():
    assert {p.name for p in MODULES} >= {"__init__.py", "numberfield.py",
                                        "intervals.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    "import os",
    "import os.path",
    "from math import gcd",
    "from math import gcd as g\ngcd(1, 2)",
    "def f():\n    from fractions import Fraction\n    return 1",
    "from . import polys\n__all__ = ['other']",
])
def test_guard_flags(snippet):
    assert unused_imports(snippet)


@pytest.mark.parametrize("snippet", [
    "import os\nos.sep",
    "import os.path\nos.path.join('a')",
    "from math import gcd as g\ng(1, 2)",
    "from .errors import OutOfRange\n__all__ = ['OutOfRange']",
    "from __future__ import annotations",
    "from typing import Optional\ndef f(x: Optional[int]) -> None: pass",
])
def test_guard_passes(snippet):
    assert unused_imports(snippet) == []
