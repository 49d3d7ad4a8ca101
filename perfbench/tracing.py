"""Span tracing for the traced run, installed from outside the library.

`install` replaces the public callables named in `layers.py` by wrappers
that record one span per call: an id (its index), the id of the enclosing
span, a name, and start and end times in nanoseconds.  Functions are
replaced in every `gpnf` module namespace that holds them, so a name that
a module imported with ``from .x import y`` is traced there too; methods
are replaced on their class.  Spans stay in memory in flat arrays and are
written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter_ns

from layers import POLYS

# (module, attribute) pairs traced as plain functions
FUNCTIONS = [
    ("linrec", "value_set_membership"),
    ("linrec", "salem_recover_exact"),
    ("constructions", "pisot_unit_test"),
    ("constructions", "salem_test"),
    ("numberfield", "count_roots_in_rect"),
    ("numberfield", "certified_floor"),
    ("numberfield", "certified_nint"),
    ("algebraic", "re_of_embedding"),
    ("genpoly", "eval_expr"),
    ("analysis", "sturmian"),
    ("analysis", "subword_complexity"),
] + [("polys", fn) for fn in POLYS]

# (module, class, attributes, span name): methods traced on the class
METHODS = [
    ("linrec", "TransferMap", ("apply",), "linrec.TransferMap.apply"),
    ("linrec", "LinRecSeq", ("term",), "linrec.LinRecSeq.term"),
    ("linrec", "SalemRecoveryFamily", ("recover",),
     "linrec.SalemRecoveryFamily.recover"),
    # fallbacks of the fast nearest-integer path are the certified_nint
    # spans directly under this one
    ("linrec", "_NintCache", ("__call__",), "linrec._NintCache.call"),
    ("constructions", "PisotSetSpec", ("create",),
     "constructions.PisotSetSpec.create"),
    ("numberfield", "FieldElement", ("__mul__", "__rmul__"),
     "numberfield.FieldElement.mul"),
    ("numberfield", "FieldElement", ("__add__", "__radd__"),
     "numberfield.FieldElement.add"),
    ("numberfield", "FieldElement", ("__eq__",), "numberfield.FieldElement.eq"),
    ("numberfield", "FieldElement", ("__pow__",),
     "numberfield.FieldElement.pow"),
    ("numberfield", "FieldElement", ("embed",),
     "numberfield.FieldElement.embed"),
    ("numberfield", "NumberField", ("root_box",),
     "numberfield.NumberField.root_box"),
    ("intervals", "RatInterval", ("__mul__", "__rmul__"),
     "intervals.RatInterval.mul"),
    ("intervals", "ComplexBox", ("__mul__", "__rmul__"),
     "intervals.ComplexBox.mul"),
] + [
    ("algebraic", "RealAlg", (op,), f"algebraic.RealAlg.{op}")
    for op in ("add", "mul", "floor", "compare_rational")
]


class NullTracer:
    """Stand-in for untraced runs: wrapping is the identity."""

    def wrap(self, fn, name, rename=None):
        return fn


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list = []
        self._ids: dict = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, rename=None):
        """fn with a span around each call made while `on` is set.

        `rename(args, result)` may give the span its final name once the
        call has returned.
        """
        nid = self.intern(name)
        tracer, stack = self, self._stack
        parent, names, start, end = self.parent, self.name, self.start, self.end

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
            if rename is not None:
                names[sid] = tracer.intern(rename(args, result))
            return result

        return traced

    # -- install ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable of the imported `gpnf` modules."""
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "gpnf" or k.startswith("gpnf.")]
        pkg = {m.__name__: m for m in mods}

        def replace_everywhere(orig, wrapped) -> None:
            hits = 0
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        hits += 1
            if not hits:
                raise RuntimeError(f"{orig!r} is bound in no gpnf module")

        for mod, attr in FUNCTIONS:
            orig = getattr(pkg[f"gpnf.{mod}"], attr)
            replace_everywhere(orig, self.wrap(orig, f"{mod}.{attr}"))

        for mod, cls_name, attrs, span in METHODS:
            cls = getattr(pkg[f"gpnf.{mod}"], cls_name)
            for attr in attrs:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(raw.__func__, span)))
                else:
                    setattr(cls, attr, self.wrap(raw, span))

        nf = pkg["gpnf.numberfield"].NumberField
        nf.__init__ = self.wrap(
            nf.__dict__["__init__"], "numberfield.NumberField.init",
            rename=lambda args, _r: f"numberfield.NumberField.deg{args[0].degree}")

        # exponent_of is a closure: trace it on each predicate built
        psp = pkg["gpnf.constructions"].power_set_predicate

        def power_set_predicate(*args, **kwargs):
            pred = psp(*args, **kwargs)
            pred.exponent_of = self.wrap(pred.exponent_of,
                                         "constructions.exponent_of")
            return pred

        replace_everywhere(psp, power_set_predicate)

    # -- results ---------------------------------------------------------------

    def layer_totals(self) -> dict:
        """name -> [calls, inclusive ns, self ns] over all recorded spans."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals: dict = {}
        for i in range(n):
            dur = end[i] - start[i]
            t = totals.setdefault(self.names[self.name[i]], [0, 0, 0])
            t[0] += 1
            t[1] += dur
            t[2] += dur - child[i]
        return totals

    def count_children(self, child_name: str, parent_name: str) -> int:
        """Number of `child_name` spans directly inside a `parent_name` span."""
        c, p = self._ids.get(child_name), self._ids.get(parent_name)
        if c is None or p is None:
            return 0
        names, parent = self.name, self.parent
        return sum(1 for i in range(len(names))
                   if names[i] == c and parent[i] >= 0 and names[parent[i]] == p)

    def write(self, path) -> None:
        """Spans as gzipped TSV: id, parent, name, start_ns, end_ns, with
        times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t0}\t{self.end[i] - t0}\n")
