"""The record classes against `dataclasses` oracles with the same fields:
construction, equality, hash, repr, `__match_args__` and immutability,
on seeded values; and a cold `import gpnf.cli` that loads neither
`dataclasses` nor `inspect`."""

import ast
import copy
import dataclasses
import os
import pathlib
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import gpnf
from gpnf import analysis, constructions, genpoly, intervals, linrec, records
from gpnf.numberfield import NumberField

G = genpoly
# class -> its fields as the dataclass declared them: NAME=DEFAULT has a
# default, NAME- is not a constructor argument
FROZEN = {
    G.RationalConst: "value", G.ComplexConst: "re im",
    G.AlgebraicConst: "name elem root_index", G.Var: "name",
    G.Embed: "name root_index", G.Trace: "name",
    G.LinearFunctional: "name duals", G.Add: "left right",
    G.Mul: "left right", G.Neg: "arg", G.Floor: "arg",
    G.ComplexFloor: "arg", G.Frac: "arg", G.Nint: "arg", G.Dist: "arg",
    G.RealPart: "arg", G.ImagPart: "arg",
    intervals.RatInterval: "lo hi", intervals.ComplexBox: "re im",
    analysis.BinaryWord: "start bits",
}
MUTABLE = {
    linrec.TransferMap: "field coeffs onset scale _nints",
    linrec.ZeroReport: "bound zeros progressions heuristic=True",
    constructions.PisotSetSpec: "field beta rho m indices threshold- "
                                "tail_constant-",
    analysis.LevelRecord: "level a h M N_prev N block_set positions "
                          "chosen_subsets plus_count required_plus",
    analysis.NonHereditaryPlan: "levels window removed",
}
RECORDS = {**FROZEN, **MUTABLE}
# few distinct values, so that equal records turn up among the samples
POOL = (0, 1, -2, F(1, 3), F(-5, 2), "x", "y", (F(1), F(2, 3)), None)
ENDS = (0, 1, -2, F(1, 3), F(-5, 2))


def _rat_interval_post_init(self):
    """RatInterval's former __post_init__: int ends become Fractions."""
    if type(self.lo) is not F or type(self.hi) is not F:
        object.__setattr__(self, "lo", intervals._rational(self.lo))
        object.__setattr__(self, "hi", intervals._rational(self.hi))
    if self.lo > self.hi:
        raise ValueError("empty interval")


def oracle(cls):
    """The dataclass that `cls` used to be: same name, fields and frozenness,
    and the methods its class body defines that a dataclass keeps."""
    spec = []
    for word in RECORDS[cls].split():
        name, eq, default = word.partition("=")
        if eq:
            spec.append((name, object, dataclasses.field(default=ast.literal_eval(default))))
        elif name.endswith("-"):
            spec.append((name[:-1], object, dataclasses.field(init=False)))
        else:
            spec.append(name)
    ns = {k: cls.__dict__[k] for k in ("__repr__",) if k in cls.__dict__}
    if cls is intervals.RatInterval:
        ns["__post_init__"] = _rat_interval_post_init
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=ns,
                                      frozen=cls in FROZEN)


def draw(cls, rng):
    """Seeded constructor arguments for cls."""
    if cls is intervals.RatInterval:
        return tuple(sorted(rng.sample(ENDS, 2)))
    if cls is intervals.ComplexBox:
        return tuple(intervals.RatInterval(*draw(intervals.RatInterval, rng))
                     for _ in "ri")
    return tuple(rng.choice(POOL) for _ in cls.__match_args__)


def pisot_specs():
    """Library and oracle PisotSetSpecs, the oracle's derived fields copied
    from the library's (they are not constructor arguments)."""
    phi, psi = NumberField([-1, -1, 1]).beta, NumberField([-1, -1, 1]).beta
    ev = constructions.IndexSet.evens()
    libs = [constructions.PisotSetSpec.create(b, ix, rho, m)
            for b, ix, rho, m in ((phi, ev, None, None), (psi, ev, None, None),
                                  (phi, ev, F(3, 2), None),
                                  (phi, constructions.IndexSet.periodic(3, [1]),
                                   None, None))]
    Oracle, orcs = oracle(constructions.PisotSetSpec), []
    for s in libs:
        o = Oracle(s.field, s.beta, s.rho, s.m, s.indices)
        o.threshold, o.tail_constant = s.threshold, s.tail_constant
        orcs.append(o)
    return libs, orcs


def samples(cls, seed):
    """(args, library records, oracle records) of 40 seeded argument tuples."""
    if cls is constructions.PisotSetSpec:
        libs, orcs = pisot_specs()
        return [tuple(getattr(s, n) for n in cls.__match_args__)
                for s in libs], libs, orcs
    rng = random.Random(seed)
    args = [draw(cls, rng) for _ in range(36)]
    args += args[:4]        # equal records built apart
    Oracle = oracle(cls)
    return args, [cls(*a) for a in args], [Oracle(*a) for a in args]


def test_every_record_class_is_listed():
    found = {c for m in (genpoly, intervals, analysis, linrec, constructions)
             for c in vars(m).values() if isinstance(c, type)
             and issubclass(c, records.Record) and c.__module__ == m.__name__
             and c is not genpoly._Node}
    assert found == set(RECORDS) and len(found) == 25


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_record_agrees_with_its_oracle(cls):
    args, libs, orcs = samples(cls, sum(map(ord, cls.__name__)))
    Oracle = type(orcs[0])
    assert cls.__match_args__ == Oracle.__match_args__
    for a, lib in zip(args, libs):
        assert cls(**dict(zip(cls.__match_args__, a))) == lib
    assert [repr(x) for x in libs] == [repr(o) for o in orcs]
    for i in range(len(libs)):
        assert not libs[i] == orcs[i] and libs[i] != orcs[i]
        for j in range(len(libs)):
            assert (libs[i] == libs[j]) is (orcs[i] == orcs[j])
            assert (libs[i] != libs[j]) is (orcs[i] != orcs[j])
    assert any(libs[i] == libs[j] for i in range(len(libs))
               for j in range(i))       # the samples hold equal pairs
    if cls in FROZEN:
        assert [hash(x) for x in libs] == [hash(o) for o in orcs]
        for x in libs[:3]:
            assert copy.copy(x) == copy.deepcopy(x) == x
            assert pickle.loads(pickle.dumps(x)) == x
            for name in (*cls.__match_args__, "other"):
                with pytest.raises(AttributeError):
                    setattr(x, name, 1)
                with pytest.raises(AttributeError):
                    delattr(x, name)
    else:
        for x, o in ((libs[0], orcs[0]), (orcs[0], orcs[0])):
            with pytest.raises(TypeError):
                hash(x)
        for name in cls.__slots__:
            setattr(libs[0], name, F(7))
            setattr(orcs[0], name, F(7))
        assert repr(libs[0]) == repr(orcs[0])


def test_records_of_different_classes_are_unequal():
    built = [cls(*(F(i) for i in range(len(cls.__match_args__))))
             for cls in RECORDS if cls is not constructions.PisotSetSpec]
    for i, a in enumerate(built):
        for j, b in enumerate(built):
            assert (a == b) is (i == j) and (a != b) is (i != j)


def test_constructor_arguments():
    assert intervals.RatInterval(1, 2) == intervals.RatInterval(F(1), F(2))
    assert type(intervals.RatInterval(1, F(2)).lo) is F
    with pytest.raises(ValueError, match="empty interval"):
        intervals.RatInterval(2, 1)
    with pytest.raises(TypeError):
        intervals.RatInterval(0.5, 1)
    assert linrec.ZeroReport(3, [], []).heuristic is True
    for bad in ((1,), (1, 2, 3), ((1,), {"left": 2}), ((), {"left": 1}),
                ((), {"left": 1, "right": 2, "arg": 3})):
        a, kw = bad if isinstance(bad[-1], dict) else (bad, {})
        with pytest.raises(TypeError):
            genpoly.Add(*a, **kw)
    match genpoly.parse("x + 1"):
        case genpoly.Add(genpoly.Var(name), genpoly.RationalConst(value)):
            assert (name, value) == ("x", 1)
        case _:
            pytest.fail("no match")


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter (no site hooks) that imports the command line
    has loaded neither module, and `import gpnf` loads every library
    module eagerly."""
    src = pathlib.Path(gpnf.__file__).resolve().parents[1]
    code = ("import sys, gpnf; lib = sorted(m for m in sys.modules "
            "if m.startswith('gpnf.')); import gpnf.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), lib)")
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                       text=True, timeout=120, check=True,
                       env={**os.environ, "PYTHONPATH": str(src)})
    assert r.stdout.split(" ", 1)[0] == "[]", r.stdout
    lib = {f"gpnf.{p.stem}" for p in (src / "gpnf").glob("*.py")}
    lib -= {"gpnf.__init__", "gpnf.cli", "gpnf.fileformats", "gpnf.selftest"}
    assert r.stdout.split(" ", 1)[1].strip() == str(sorted(lib))
