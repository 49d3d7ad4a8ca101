"""Generalised polynomial expressions: AST, text grammar, exact evaluation.

Grammar (LL(1), whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | atom
    atom    := NUMBER | 'c(' SRAT ',' SRAT ')' | IDENT
             | FUNC '(' expr ')' | 'emb(' IDENT ',' INT ')'
             | 'tr(' IDENT ')' | 'lf(' IDENT (',' SRAT)+ ')'
             | '(' expr ')'
    FUNC    := floor | cfloor | frac | nint | dist | re | im
    NUMBER  := digits or digits/digits;  SRAT allows a leading '-'

Reserved constant names: ``sqrt2``.  Variables are bound by an Environment
to exact rationals or field elements; a bare variable bound to a field
element denotes its distinguished embedding, ``emb(x, k)`` selects the
k-th conjugate.

Evaluation is exact.  Values stay inside a single field whenever the
expression allows it; sums and products across embeddings or fields drop
to self-contained real algebraic numbers (resolvent polynomials plus
certified isolating intervals), so floors and zero tests are always
decided, never guessed.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algebraic import (RealAlg, complex_floor, embedding_is_real,
                        im_of_embedding, re_of_embedding)
from .errors import (ExprSyntaxError, FieldMismatch, NonRealFloorArgument,
                     UnboundVariable, UnknownFunction)
from .intervals import RatInterval
from .numberfield import (FieldElement, NumberField, certified_floor)

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalConst:
    value: Fraction


@dataclass(frozen=True)
class ComplexConst:
    re: Fraction
    im: Fraction


@dataclass(frozen=True)
class AlgebraicConst:
    """A named exact algebraic constant (an embedded field element)."""
    name: str
    elem: FieldElement
    root_index: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Embed:
    name: str
    root_index: int


@dataclass(frozen=True)
class Trace:
    name: str


@dataclass(frozen=True)
class LinearFunctional:
    name: str
    duals: tuple


@dataclass(frozen=True)
class Add:
    left: "GPExpr"
    right: "GPExpr"


@dataclass(frozen=True)
class Mul:
    left: "GPExpr"
    right: "GPExpr"


@dataclass(frozen=True)
class Neg:
    arg: "GPExpr"


@dataclass(frozen=True)
class Floor:
    arg: "GPExpr"


@dataclass(frozen=True)
class ComplexFloor:
    arg: "GPExpr"


@dataclass(frozen=True)
class Frac:
    arg: "GPExpr"


@dataclass(frozen=True)
class Nint:
    arg: "GPExpr"


@dataclass(frozen=True)
class Dist:
    arg: "GPExpr"


@dataclass(frozen=True)
class RealPart:
    arg: "GPExpr"


@dataclass(frozen=True)
class ImagPart:
    arg: "GPExpr"


GPExpr = Union[RationalConst, ComplexConst, AlgebraicConst, Var, Embed,
               Trace, LinearFunctional, Add, Mul, Neg, Floor, ComplexFloor,
               Frac, Nint, Dist, RealPart, ImagPart]

_UNARY = {"floor": Floor, "cfloor": ComplexFloor, "frac": Frac,
          "nint": Nint, "dist": Dist, "re": RealPart, "im": ImagPart}

_RESERVED = {"sqrt2"} | set(_UNARY) | {"emb", "tr", "lf", "c"}

_SQRT2_FIELD = None


def _sqrt2_const() -> AlgebraicConst:
    global _SQRT2_FIELD
    if _SQRT2_FIELD is None:
        _SQRT2_FIELD = NumberField([-2, 0, 1])
    f = _SQRT2_FIELD
    return AlgebraicConst("sqrt2", f.beta, f.distinguished)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN = _re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([+\-*(),]))")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        num, ident, op = m.groups()
        if num:
            out.append(("num", Fraction(num), m.start(1)))
        elif ident:
            out.append(("ident", ident, m.start(2)))
        else:
            out.append(("op", op, m.start(3)))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self) -> GPExpr:
        e = self.expr()
        kind, _val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", pos)
        return e

    def expr(self) -> GPExpr:
        e = self.term()
        while True:
            kind, val, _pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = Add(e, rhs if val == "+" else Neg(rhs))
            else:
                return e

    def term(self) -> GPExpr:
        e = self.factor()
        while True:
            kind, val, _pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                e = Mul(e, self.factor())
            else:
                return e

    def factor(self) -> GPExpr:
        kind, val, _pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.factor())
        return self.atom()

    def signed_rational(self) -> Fraction:
        kind, val, pos = self.next()
        neg = False
        if kind == "op" and val == "-":
            neg = True
            kind, val, pos = self.next()
        if kind != "num":
            raise ExprSyntaxError("expected a rational number", pos)
        return -val if neg else val

    def atom(self) -> GPExpr:
        kind, val, pos = self.next()
        if kind == "num":
            return RationalConst(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind != "ident":
            raise ExprSyntaxError("expected an atom", pos)
        name = val
        nk, nv, _np = self.peek()
        if not (nk == "op" and nv == "("):
            if name == "sqrt2":
                return _sqrt2_const()
            if name in _RESERVED:
                raise ExprSyntaxError(f"{name!r} is reserved", pos)
            return Var(name)
        # function application
        self.next()  # consume '('
        if name in _UNARY:
            e = self.expr()
            self.expect(")")
            return _UNARY[name](e)
        if name == "c":
            a = self.signed_rational()
            self.expect(",")
            b = self.signed_rational()
            self.expect(")")
            return ComplexConst(a, b)
        if name == "emb":
            k, v, p = self.next()
            if k != "ident":
                raise ExprSyntaxError("emb expects a variable", p)
            self.expect(",")
            idx = self.signed_rational()
            if idx.denominator != 1 or idx < 0:
                raise ExprSyntaxError("emb index must be a nonnegative integer", p)
            self.expect(")")
            return Embed(v, int(idx))
        if name == "tr":
            k, v, p = self.next()
            if k != "ident":
                raise ExprSyntaxError("tr expects a variable", p)
            self.expect(")")
            return Trace(v)
        if name == "lf":
            k, v, p = self.next()
            if k != "ident":
                raise ExprSyntaxError("lf expects a variable", p)
            duals = []
            while True:
                nk, nv, _ = self.peek()
                if nk == "op" and nv == ",":
                    self.next()
                    duals.append(self.signed_rational())
                else:
                    break
            self.expect(")")
            if not duals:
                raise ExprSyntaxError("lf needs at least one coefficient", p)
            return LinearFunctional(v, tuple(duals))
        raise UnknownFunction(f"unknown function {name!r}")


def parse(text: str) -> GPExpr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# pretty printer
# ---------------------------------------------------------------------------

def _is_atomic(e: GPExpr) -> bool:
    return isinstance(e, (RationalConst, ComplexConst, AlgebraicConst, Var,
                          Embed, Trace, LinearFunctional, Floor, ComplexFloor,
                          Frac, Nint, Dist, RealPart, ImagPart))


def pretty(e: GPExpr) -> str:
    if isinstance(e, RationalConst):
        return str(e.value)
    if isinstance(e, ComplexConst):
        return f"c({e.re}, {e.im})"
    if isinstance(e, AlgebraicConst):
        return e.name
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Embed):
        return f"emb({e.name}, {e.root_index})"
    if isinstance(e, Trace):
        return f"tr({e.name})"
    if isinstance(e, LinearFunctional):
        return f"lf({e.name}, {', '.join(map(str, e.duals))})"
    if isinstance(e, Add):
        lhs = pretty(e.left)
        r = e.right
        if isinstance(r, Neg):
            inner = r.arg
            rs = pretty(inner)
            if isinstance(inner, (Add, Neg)):
                rs = f"({rs})"
            return f"{lhs} - {rs}"
        rs = pretty(r)
        if isinstance(r, Add):
            rs = f"({rs})"
        return f"{lhs} + {rs}"
    if isinstance(e, Mul):
        ls = pretty(e.left)
        if isinstance(e.left, (Add, Neg)):
            ls = f"({ls})"
        rs = pretty(e.right)
        if isinstance(e.right, (Add, Neg, Mul)):
            rs = f"({rs})"
        return f"{ls} * {rs}"
    if isinstance(e, Neg):
        s = pretty(e.arg)
        if not _is_atomic(e.arg):
            s = f"({s})"
        return f"-{s}"
    for name, cls in _UNARY.items():
        if isinstance(e, cls):
            return f"{name}({pretty(e.arg)})"
    raise TypeError(f"not a GPExpr: {e!r}")


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------


class Value:
    """Exact evaluation result.

    kind 'rat':  payload Fraction
    kind 'emb':  payload (FieldElement, root_index)   -- real embedding
    kind 'alg':  payload RealAlg
    kind 'cemb': payload (FieldElement, root_index)   -- complex embedding
    kind 'cpx':  payload (Value re, Value im), both real kinds
    """

    __slots__ = ("kind", "payload")

    def __init__(self, kind, payload):
        self.kind = kind
        self.payload = payload

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q) -> "Value":
        return Value("rat", q if type(q) is Fraction else Fraction(q))

    @staticmethod
    def of_embedding(elem: FieldElement, j: Optional[int] = None) -> "Value":
        f = elem.field
        j = f.distinguished if j is None else j
        if elem.is_rational():
            return Value.rational(elem.as_rational())
        if f.is_real_root(j):
            return Value("emb", (elem, j))
        return Value("cemb", (elem, j))

    @staticmethod
    def complex_pair(re: "Value", im: "Value") -> "Value":
        if im.is_exact_zero():
            return re
        return Value("cpx", (re, im))

    # -- predicates ----------------------------------------------------------

    def is_real_kind(self) -> bool:
        return self.kind in ("rat", "emb", "alg")

    def is_exact_zero(self) -> bool:
        if self.kind == "rat":
            return self.payload == 0
        if self.kind in ("emb", "cemb"):
            return self.payload[0].is_zero()
        if self.kind == "alg":
            return self.payload.eq_rational(0)
        re, im = self.payload
        return re.is_exact_zero() and im.is_exact_zero()

    def as_rational(self) -> Optional[Fraction]:
        """Exact rational value if this value is one, else None."""
        if self.kind == "rat":
            return self.payload
        if self.kind == "alg" and self.payload.rat is not None:
            return self.payload.rat
        return None

    # -- real scalar helpers ---------------------------------------------------

    def _as_alg(self) -> RealAlg:
        if self.kind == "rat":
            return RealAlg.from_rational(self.payload)
        if self.kind == "emb":
            return RealAlg.from_embedding(*self.payload)
        if self.kind == "alg":
            return self.payload
        raise NonRealFloorArgument("value is not real")

    def compare_rational(self, q) -> int:
        q = Fraction(q)
        if self.kind == "rat":
            return (self.payload > q) - (self.payload < q)
        if self.kind == "emb":
            elem, j = self.payload
            return elem.compare_rational(q, j)
        if self.kind == "alg":
            return self.payload.compare_rational(q)
        raise NonRealFloorArgument("comparison on a complex value")

    # -- real/imaginary structure ---------------------------------------------

    def real_part(self) -> "Value":
        if self.is_real_kind():
            return self
        if self.kind == "cemb":
            elem, j = self.payload
            return Value("alg", re_of_embedding(elem, j))
        return self.payload[0]

    def imag_part(self) -> "Value":
        if self.is_real_kind():
            return Value.rational(0)
        if self.kind == "cemb":
            elem, j = self.payload
            return Value("alg", im_of_embedding(elem, j))
        return self.payload[1]

    def _split(self) -> tuple:
        return self.real_part(), self.imag_part()

    # -- arithmetic ---------------------------------------------------------------

    def __neg__(self) -> "Value":
        if self.kind == "rat":
            return Value.rational(-self.payload)
        if self.kind in ("emb", "cemb"):
            elem, j = self.payload
            return Value(self.kind, (-elem, j))
        if self.kind == "alg":
            return Value("alg", -self.payload)
        re, im = self.payload
        return Value("cpx", (-re, -im))

    def __add__(self, other: "Value") -> "Value":
        a, b = self, other
        if a.kind == "rat" and b.kind == "rat":
            return Value.rational(a.payload + b.payload)
        if a.kind == "rat":
            a, b = b, a
        if b.kind == "rat":
            q = b.payload
            if a.kind in ("emb", "cemb"):
                elem, j = a.payload
                return Value(a.kind, (elem + q, j))
            if a.kind == "alg":
                return Value("alg", a.payload.add_rational(q))
            re, im = a.payload
            return Value.complex_pair(re + b, im)
        if a.kind in ("emb", "cemb") and b.kind == a.kind and \
                a.payload[1] == b.payload[1] and a.payload[0].field == b.payload[0].field:
            elem = a.payload[0] + b.payload[0]
            return Value.of_embedding(elem, a.payload[1])
        if a.is_real_kind() and b.is_real_kind():
            return Value("alg", a._as_alg().add(b._as_alg()))
        ra, ia = a._split()
        rb, ib = b._split()
        return Value.complex_pair(ra + rb, ia + ib)

    def __sub__(self, other: "Value") -> "Value":
        return self + (-other)

    def __mul__(self, other: "Value") -> "Value":
        a, b = self, other
        if a.kind == "rat" and b.kind == "rat":
            return Value.rational(a.payload * b.payload)
        if a.kind == "rat":
            a, b = b, a
        if b.kind == "rat":
            q = b.payload
            if q == 0:
                return Value.rational(0)
            if a.kind in ("emb", "cemb"):
                elem, j = a.payload
                return Value(a.kind, (elem * q, j))
            if a.kind == "alg":
                return Value("alg", a.payload.mul_rational(q))
            re, im = a.payload
            return Value.complex_pair(re * b, im * b)
        if a.kind in ("emb", "cemb") and b.kind == a.kind and \
                a.payload[1] == b.payload[1] and a.payload[0].field == b.payload[0].field:
            elem = a.payload[0] * b.payload[0]
            return Value.of_embedding(elem, a.payload[1])
        if a.is_real_kind() and b.is_real_kind():
            return Value("alg", a._as_alg().mul(b._as_alg()))
        ra, ia = a._split()
        rb, ib = b._split()
        return Value.complex_pair(ra * rb - ia * ib, ra * ib + ia * rb)

    # -- integer parts --------------------------------------------------------------

    def _require_real(self) -> "Value":
        if self.is_real_kind():
            return self
        if self.kind == "cemb":
            elem, j = self.payload
            if embedding_is_real(elem, j):
                return Value("alg", re_of_embedding(elem, j))
            raise NonRealFloorArgument("embedded value has nonzero imaginary part")
        re, im = self.payload
        if im.is_exact_zero():
            return re
        raise NonRealFloorArgument("value has nonzero imaginary part")

    def floor(self) -> "Value":
        v = self._require_real()
        if v.kind == "rat":
            q = v.payload
            return Value.rational(q.numerator // q.denominator)
        if v.kind == "emb":
            return Value.rational(certified_floor(*v.payload))
        return Value.rational(v.payload.floor())

    def frac(self) -> "Value":
        v = self._require_real()
        return v - v.floor()

    def nint(self) -> "Value":
        v = self._require_real()
        return (v + Value.rational(Fraction(1, 2))).floor()

    def dist_to_int(self) -> "Value":
        v = self._require_real()
        f = v.frac()
        # dist = min(frac, 1 - frac)
        if f.compare_rational(Fraction(1, 2)) <= 0:
            return f
        return Value.rational(1) - f

    def cfloor(self) -> "Value":
        if self.kind == "cemb":
            fr, fi = complex_floor(*self.payload)
            return Value.complex_pair(Value.rational(fr), Value.rational(fi))
        re, im = self._split()
        return Value.complex_pair(re.floor(), im.floor())

    # -- rendering -------------------------------------------------------------------

    def certified_interval(self, prec_bits: int = 30):
        """A certified enclosure of the (real) value."""
        v = self._require_real()
        if v.kind == "rat":
            return RatInterval.point(v.payload)
        if v.kind == "emb":
            return v.payload[0].embed(v.payload[1], prec_bits)
        return v.payload.refined_interval(Fraction(1, 2 ** prec_bits))

    def __repr__(self):
        if self.kind == "rat":
            return f"Value({self.payload})"
        return f"Value<{self.kind}>"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

Environment = dict  # name -> FieldElement | Fraction | int | str


class _EvalCtx:
    def __init__(self, env: Environment):
        self.env = env
        self.var_field = None

    def lookup(self, name: str) -> Union[Fraction, FieldElement]:
        if name not in self.env:
            raise UnboundVariable(f"variable {name!r} is not bound")
        v = self.env[name]
        if isinstance(v, FieldElement):
            if self.var_field is None:
                self.var_field = v.field
            elif self.var_field != v.field:
                raise FieldMismatch(
                    "variables from different fields in one expression")
            return v
        return v if type(v) is Fraction else Fraction(v)


def eval_expr(expr: GPExpr, env: Environment) -> Value:
    """Evaluate exactly.  Every floor argument must be real-valued; complex
    values flow through cfloor/re/im.  The result is a Value; indicator
    expressions always collapse to exact rationals.  Each node is evaluated
    by the rule `_RULES` holds for its type; any other object raises
    TypeError."""
    return _eval(expr, _EvalCtx(env))


def _eval(e: GPExpr, ctx: _EvalCtx) -> Value:
    rule = _RULES.get(type(e))
    if rule is None:
        raise TypeError(f"not a GPExpr: {e!r}")
    return rule(e, ctx)


def _bound(on_element):
    """The rule of a node naming a variable: a rational value is fixed by
    every embedding, and a field element v gives on_element(e, v)."""
    def rule(e, ctx: _EvalCtx) -> Value:
        v = ctx.lookup(e.name)
        return on_element(e, v) if isinstance(v, FieldElement) else Value.rational(v)
    return rule


def _linear_functional(e: LinearFunctional, ctx: _EvalCtx) -> Value:
    v = ctx.lookup(e.name)
    coords = v.coords if isinstance(v, FieldElement) else (Fraction(v),)
    if len(e.duals) != len(coords):
        raise ValueError("dual vector length does not match field degree")
    return Value.rational(sum(d * c for d, c in zip(e.duals, coords)))


def _unary(method):
    return lambda e, ctx: method(_eval(e.arg, ctx))


_RULES = {
    RationalConst: lambda e, ctx: Value.rational(e.value),
    ComplexConst: lambda e, ctx: Value.complex_pair(Value.rational(e.re),
                                                    Value.rational(e.im)),
    AlgebraicConst: lambda e, ctx: Value.of_embedding(e.elem, e.root_index),
    Var: _bound(lambda e, v: Value.of_embedding(v)),
    Embed: _bound(lambda e, v: Value.of_embedding(v, e.root_index)),
    Trace: _bound(lambda e, v: Value.rational(v.trace())),
    LinearFunctional: _linear_functional,
    Add: lambda e, ctx: _eval(e.left, ctx) + _eval(e.right, ctx),
    Mul: lambda e, ctx: _eval(e.left, ctx) * _eval(e.right, ctx),
    Neg: _unary(Value.__neg__), Floor: _unary(Value.floor),
    ComplexFloor: _unary(Value.cfloor), Frac: _unary(Value.frac),
    Nint: _unary(Value.nint), Dist: _unary(Value.dist_to_int),
    RealPart: _unary(Value.real_part), ImagPart: _unary(Value.imag_part),
}


# ---------------------------------------------------------------------------
# stock expressions
# ---------------------------------------------------------------------------

def zero_indicator(f: GPExpr, complex_valued: bool = False) -> GPExpr:
    """An expression evaluating to 1 exactly when f evaluates to 0, else 0.

    A real y is zero iff y and sqrt(2)*y are both integers, hence
    floor(1 - frac(f)) * floor(1 - frac(sqrt2 * f)).  For complex-valued f
    the indicator is the product of the indicators of the real and
    imaginary parts.
    """
    if complex_valued:
        return Mul(zero_indicator(RealPart(f)), zero_indicator(ImagPart(f)))
    one = RationalConst(Fraction(1))
    first = Floor(Add(one, Neg(Frac(f))))
    second = Floor(Add(one, Neg(Frac(Mul(_sqrt2_const(), f)))))
    return Mul(first, second)


def trace_expr(field: NumberField, varname: str = "x") -> GPExpr:
    """Sum of all embeddings of a variable; complex pairs contribute twice
    their real part.  Evaluates to the exact field trace."""
    terms = []
    for j in field.real_root_indices():
        terms.append(Embed(varname, j))
    for j in field.upper_root_indices():
        terms.append(Mul(RationalConst(Fraction(2)), RealPart(Embed(varname, j))))
    e = terms[0]
    for t in terms[1:]:
        e = Add(e, t)
    return e


def linear_functional_expr(field: NumberField, duals) -> GPExpr:
    """The coordinate functional x -> sum_i d_i * coord_i(x)."""
    duals = tuple(Fraction(d) for d in duals)
    if len(duals) != field.degree:
        raise ValueError("dual vector length must equal the field degree")
    return LinearFunctional("x", duals)
