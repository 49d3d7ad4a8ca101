"""Source guard: one refinement schedule per exact value.

A decision about an exact value reads a stream of ever narrower
enclosures: `FieldElement.enclosures` doubles the precision of `embed`,
`RealAlg.enclosures` divides the width of `refined_interval` by 16.  No
`while` loop in the library may call `.embed(` or `.refined_interval(`
itself, which would write that schedule out by hand once more.  Every
such stream ends: past `polys.CEILING_BITS` bits the three primitives
under it raise PrecisionExhausted.
"""

import ast
import pathlib
from fractions import Fraction as F

import pytest

import gpnf
from gpnf import numberfield, polys
from gpnf.algebraic import RealAlg
from gpnf.errors import CertificateFailed, OutOfRange, PrecisionExhausted
from gpnf.genpoly import Value
from gpnf.intervals import RatInterval
from gpnf.numberfield import NumberField, certified_floor

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


# -- the precision ceiling -----------------------------------------------------

@pytest.fixture
def ceiling_64(monkeypatch):
    monkeypatch.setattr(polys, "CEILING_BITS", 64)


def test_refine_root_stops_at_the_ceiling(ceiling_64):
    iv = RatInterval(1, 2)
    w = F(1, 2 ** 60)
    assert polys.refine_root((-2, 0, 1), iv, w).width <= w
    with pytest.raises(PrecisionExhausted) as ei:
        polys.refine_root((-2, 0, 1), iv, F(1, 2 ** 80))
    assert ei.value.box is iv
    assert isinstance(ei.value, CertificateFailed)
    # a floor that needs more than 64 bits of the golden ratio
    with pytest.raises(PrecisionExhausted) as ei:
        certified_floor(NumberField([-1, -1, 1]).beta ** 100)
    box = ei.value.box                  # encloses phi, the root of x^2 - x - 1
    lo, hi = box.lo, box.hi
    assert lo * lo - lo - 1 < 0 < hi * hi - hi - 1


def test_refine_rect_stops_at_the_ceiling(ceiling_64):
    Z = numberfield._box((F(-1, 2), F(1, 2), F(1, 2), F(3, 2)))  # holds i
    assert numberfield._refine_rect((1, 0, 1), Z, F(1, 2 ** 60)).contains(0, 1)
    with pytest.raises(PrecisionExhausted) as ei:
        numberfield._refine_rect((1, 0, 1), Z, F(1, 2 ** 80))
    assert ei.value.box == Z


def test_embed_and_its_stream_stop_at_the_ceiling(ceiling_64):
    assert NumberField([-1, -1, 1]).beta.embed(None, 60).width <= F(2, 2 ** 60)
    x = NumberField([-1, -1, 1]).beta       # a fresh field, its root unrefined
    with pytest.raises(PrecisionExhausted) as ei:
        x.embed(None, 80)
    assert ei.value.what == "embed to 80 bits"
    lo, hi = ei.value.box.lo, ei.value.box.hi
    assert lo * lo - lo - 1 < 0 < hi * hi - hi - 1
    # a loop that waits for an exact enclosure of phi now ends
    with pytest.raises(PrecisionExhausted):
        next(b for b in x.enclosures() if b.width == 0)


def test_negative_precision_is_out_of_range():
    # the check comes before any arithmetic: 2 ** -1 is a float, on which
    # Fraction raised a bare TypeError
    f = NumberField([-1, -1, 1])
    for x in (f.beta, f.element(3)):
        with pytest.raises(OutOfRange):
            x.embed(None, -1)
        assert x.embed(None, 0).width <= 2
    for v in (Value.rational(3), Value.of_embedding(f.beta),
              Value("alg", RealAlg.from_embedding(f.beta))):
        with pytest.raises(OutOfRange):
            v.certified_interval(-1)
        assert v.certified_interval(0).width <= 2
