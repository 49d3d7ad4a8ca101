"""Source guard: no floating point in the library.

Every decision in `gpnf` is exact, so no module may hold a float literal,
call or name the `float` type, or use the floating-point logarithm,
exponential, square root or finiteness test of `math`.  The one
exception is the input rejection `isinstance(s, float)` in
`fileformats.py`.
"""

import ast
import pathlib

import pytest

import gpnf

SRC = pathlib.Path(gpnf.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
MATH_BANNED = {"exp", "sqrt", "isfinite"}


def _banned_math(name: str) -> bool:
    return name.startswith("log") or name in MATH_BANNED


def _allowed_float_names(tree: ast.AST, module: str) -> set:
    """The `float` names inside `isinstance(s, float)` in fileformats."""
    if module != "fileformats.py":
        return set()
    return {id(node.args[1]) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
            and len(node.args) == 2 and isinstance(node.args[1], ast.Name)
            and node.args[1].id == "float"}


def float_uses(source: str, module: str) -> list:
    """(line, what) for every float use the guard forbids in `source`."""
    tree = ast.parse(source)
    allowed = _allowed_float_names(tree, module)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif (isinstance(node, ast.Name) and node.id == "float"
              and id(node) not in allowed):
            found.append((node.lineno, "the float type"))
        elif (isinstance(node, ast.Attribute) and _banned_math(node.attr)
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"from math import {a.name}")
                         for a in node.names if _banned_math(a.name))
    return found


def test_guard_sees_every_module():
    assert {p.name for p in MODULES} >= {"constructions.py", "linrec.py",
                                        "numberfield.py", "fileformats.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_in_source(path):
    assert float_uses(path.read_text(), path.name) == []


@pytest.mark.parametrize("snippet", [
    "x = 0.5",
    "y = float(q)",
    "z = math.log(q)",
    "z = math.log2(q)",
    "z = math.exp(1)",
    "z = math.sqrt(2)",
    "ok = math.isfinite(v)",
    "from math import log",
    "def f(q) -> float: pass",
    "ok = isinstance(s, float)",
])
def test_guard_flags(snippet):
    assert float_uses(snippet, "linrec.py")


def test_guard_allows_input_rejection_only_in_fileformats():
    assert float_uses("ok = isinstance(s, float)", "fileformats.py") == []
    assert float_uses("y = float(s)", "fileformats.py")
    assert float_uses("z = math.isqrt(n) + math.gcd(a, b)", "linrec.py") == []
