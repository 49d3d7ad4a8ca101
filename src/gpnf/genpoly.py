"""Generalised polynomial expressions: AST, text grammar, exact evaluation.

Grammar (LL(1), whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | atom
    atom    := NUMBER | IDENT | NAME '(' expr (',' expr)* ')' | '(' expr ')'
    NUMBER  := digits or digits/digits

Variables are bound by an Environment to exact rationals or field
elements; a bare variable bound to a field element denotes its
distinguished embedding, ``emb(x, k)`` selects the k-th conjugate.

Evaluation is exact.  Values stay inside a single field whenever the
expression allows it, and a chain of sums or products combines its
operands embedded at one root of one field before any others; sums and
products across embeddings or fields drop to self-contained real
algebraic numbers (resolvent polynomials plus certified isolating
intervals), so floors and zero tests are always decided, never guessed.

A call reads its arguments as expressions and checks them against its row
of `_CALLS`: IDENT is a variable, never a reserved name (a call's name or
``sqrt2``, the exact constant); RAT is a NUMBER or its negative; INT is a
nonnegative integer; ... repeats the argument before it.  The calls::
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import reduce
from typing import Optional, Union

from .algebraic import (RealAlg, complex_floor, embedding_is_real,
                        im_of_embedding, re_of_embedding)
from .errors import (DegreeMismatch, ExprSyntaxError, FieldMismatch,
                     NonRealFloorArgument, OutOfRange, UnboundVariable,
                     UnknownFunction)
from .intervals import RatInterval
from .numberfield import (FieldElement, NumberField, certified_floor)
from .records import Frozen, set_field

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class _Node(Frozen):
    """An immutable AST node, built from its fields (`__match_args__`) by
    position or keyword.  The fields: a variable name (name, str),
    rationals (value; re, im), an embedded field element (elem,
    root_index), a tuple of rationals (duals) and subexpressions (left,
    right, arg)."""
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if len(args) + len(kwargs) != len(names) or (
                kwargs and not kwargs.keys() <= set(names[len(args):])):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(names)}")
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name, value in kwargs.items():
            set_field(self, name, value)


class RationalConst(_Node):
    __slots__ = __match_args__ = ("value",)


class ComplexConst(_Node):
    __slots__ = __match_args__ = ("re", "im")


class AlgebraicConst(_Node):
    """A named exact algebraic constant (an embedded field element)."""
    __slots__ = __match_args__ = ("name", "elem", "root_index")


class Var(_Node):
    __slots__ = __match_args__ = ("name",)


class Embed(_Node):
    __slots__ = __match_args__ = ("name", "root_index")


class Trace(_Node):
    __slots__ = __match_args__ = ("name",)


class LinearFunctional(_Node):
    __slots__ = __match_args__ = ("name", "duals")


class Add(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Mul(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Neg(_Node):
    __slots__ = __match_args__ = ("arg",)


class Floor(_Node):
    __slots__ = __match_args__ = ("arg",)


class ComplexFloor(_Node):
    __slots__ = __match_args__ = ("arg",)


class Frac(_Node):
    __slots__ = __match_args__ = ("arg",)


class Nint(_Node):
    __slots__ = __match_args__ = ("arg",)


class Dist(_Node):
    __slots__ = __match_args__ = ("arg",)


class RealPart(_Node):
    __slots__ = __match_args__ = ("arg",)


class ImagPart(_Node):
    __slots__ = __match_args__ = ("arg",)


GPExpr = Union[RationalConst, ComplexConst, AlgebraicConst, Var, Embed,
               Trace, LinearFunctional, Add, Mul, Neg, Floor, ComplexFloor,
               Frac, Nint, Dist, RealPart, ImagPart]


# ---------------------------------------------------------------------------
# the text language: one table, its parser and its printer
# ---------------------------------------------------------------------------

# The calls of the language, one row each: name, node class and argument
# shape, one letter per field of the node: 'e' an expression, 'v' a
# variable, 'q' a signed rational, 'i' a nonnegative integer.  A trailing
# '+' repeats the letter before it one or more times, into one tuple field.
_CALLS = (("c", ComplexConst, "qq"), ("emb", Embed, "vi"), ("tr", Trace, "v"),
          ("lf", LinearFunctional, "vq+"), ("floor", Floor, "e"),
          ("cfloor", ComplexFloor, "e"), ("frac", Frac, "e"), ("nint", Nint, "e"),
          ("dist", Dist, "e"), ("re", RealPart, "e"), ("im", ImagPart, "e"))
_BY_NAME = {name: (cls, shape) for name, cls, shape in _CALLS}
_BY_CLASS = {cls: (name, shape) for name, cls, shape in _CALLS}
_RESERVED = {"sqrt2", *_BY_NAME}
_PLACEHOLDER = {"e": "expr", "v": "IDENT", "q": "RAT", "i": "INT", "+": "..."}

_SQRT2_FIELD = None


def _sqrt2_const() -> AlgebraicConst:
    global _SQRT2_FIELD
    if _SQRT2_FIELD is None:
        _SQRT2_FIELD = NumberField([-2, 0, 1])
    f = _SQRT2_FIELD
    return AlgebraicConst("sqrt2", f.beta, f.distinguished)


def _signature(name: str, shape: str) -> str:
    """A call as the grammar writes it, such as lf(IDENT, RAT, ...)."""
    return f"{name}({', '.join(_PLACEHOLDER[k] for k in shape)})"


if __doc__:     # None under python -OO
    __doc__ += "".join(f"\n    {_signature(name, shape)}"
                       for name, _cls, shape in _CALLS) + "\n"


def _kinds(shape: str, n: int) -> str:
    """The shape letters of n arguments."""
    fixed = shape.rstrip("+")
    return fixed if fixed == shape else fixed + fixed[-1] * (n - len(fixed))


def _node(cls, shape: str, values: list) -> GPExpr:
    """The call node of its argument values, repeated ones as one tuple."""
    if shape.endswith("+"):
        values = [*values[:len(shape) - 2], tuple(values[len(shape) - 2:])]
    return cls(*values)


def _argument(kind: str, e: GPExpr):
    """The value argument e gives to a field of shape letter kind, or None
    if it does not fit; a signed rational is q or -q."""
    if kind == "e":
        return e
    if kind == "v":
        return e.name if type(e) is Var else None
    sign, e = (-1, e.arg) if type(e) is Neg else (1, e)
    q = sign * e.value if type(e) is RationalConst else None
    if kind == "q" or q is None:
        return q
    return int(q) if q.denominator == 1 and q >= 0 else None


_TOKEN = _re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<op>[+\-*(),])"
                     r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<bad>\S))")


def _tokenize(text: str) -> list:
    """(kind, value, position) triples, the last of kind 'end'."""
    out = []
    for m in _TOKEN.finditer(text):
        kind, val, pos = m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {val!r}", pos)
        out.append((kind, Fraction(val) if kind == "num" else val, pos))
    return out + [("end", None, len(text))]


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def pos(self) -> int:
        return self.toks[self.i][2]

    def take(self, *ops: str):
        """The next token if it is one of the operators ops, consumed."""
        kind, val, _pos = self.toks[self.i]
        if kind == "op" and val in ops:
            self.i += 1
            return val
        return None

    def expect(self, op: str) -> None:
        if not self.take(op):
            raise ExprSyntaxError(f"expected {op!r}", self.pos())

    def expr(self) -> GPExpr:
        e = self.term()
        while op := self.take("+", "-"):
            rhs = self.term()
            e = Add(e, rhs if op == "+" else Neg(rhs))
        return e

    def term(self) -> GPExpr:
        e = self.factor()
        while self.take("*"):
            e = Mul(e, self.factor())
        return e

    def factor(self) -> GPExpr:
        return Neg(self.factor()) if self.take("-") else self.atom()

    def atom(self) -> GPExpr:
        kind, val, pos = self.toks[self.i]
        self.i += 1
        if kind == "num":
            return RationalConst(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind != "ident":
            raise ExprSyntaxError("expected an atom", pos)
        if self.take("("):
            return self.call(val)
        if val == "sqrt2":
            return _sqrt2_const()
        if val in _RESERVED:
            raise ExprSyntaxError(f"{val!r} is reserved", pos)
        return Var(val)

    def call(self, name: str) -> GPExpr:
        """The call name(arg, ...) after its '(': every argument is read as
        an expression, then checked against the call's row of `_CALLS`."""
        if name not in _BY_NAME:
            raise UnknownFunction(f"unknown function {name!r}")
        cls, shape = _BY_NAME[name]
        args = [(self.pos(), self.expr())]
        while self.take(","):
            args.append((self.pos(), self.expr()))
        end = self.pos()
        self.expect(")")
        kinds = _kinds(shape, len(args))
        values = [_argument(k, e) for k, (_p, e) in zip(kinds, args)]
        wrong = [p for (p, _e), v in zip(args, values) if v is None]
        if wrong or len(args) != len(kinds):
            pos = (wrong or [p for p, _e in args[len(kinds):]] or [end])[0]
            raise ExprSyntaxError(f"expected {_signature(name, shape)}", pos)
        return _node(cls, shape, values)


def parse(text: str) -> GPExpr:
    p = _Parser(text)
    e = p.expr()
    if p.toks[p.i][0] != "end":
        raise ExprSyntaxError("trailing input", p.pos())
    return e


# An operand ranked below the least rank its place admits is printed in
# parentheses; calls, constants and variables rank 4.
_RANK = {Add: 1, Neg: 2, Mul: 3}


def _operand(e: GPExpr, least: int) -> str:
    s = pretty(e)
    return f"({s})" if _RANK.get(type(e), 4) < least else s


def pretty(e: GPExpr) -> str:
    t = type(e)
    if t is Add:
        minus = type(e.right) is Neg
        rhs = _operand(e.right.arg if minus else e.right, 3)
        return f"{pretty(e.left)} {'-' if minus else '+'} {rhs}"
    if t is Mul:
        return f"{_operand(e.left, 3)} * {_operand(e.right, 4)}"
    if t is Neg:
        return f"-{_operand(e.arg, 4)}"
    if t is RationalConst:
        return str(e.value)
    if t is Var or t is AlgebraicConst:
        return e.name
    if t not in _BY_CLASS:
        raise TypeError(f"not a GPExpr: {e!r}")
    name, shape = _BY_CLASS[t]
    values = [getattr(e, f) for f in e.__match_args__]
    if shape.endswith("+"):
        values[-1:] = values[-1]
    args = (pretty(v) if k == "e" else str(v)
            for k, v in zip(_kinds(shape, len(values)), values))
    return f"{name}({', '.join(args)})"


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
        j = elem.field.root_index(j)
        if elem.is_rational():
            return Value.rational(elem.as_rational())
        return Value("emb" if elem.field.is_real_root(j) else "cemb", (elem, j))

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
        """A certified enclosure of the real value; OutOfRange below 0 bits."""
        if prec_bits < 0:
            raise OutOfRange("prec_bits must be >= 0")
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
    TypeError.  A chain of + or * folds its operands embedded at one root
    of one field in field arithmetic first, so sqrt2*x*x builds one
    product resolvent, not two."""
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
        raise DegreeMismatch("dual vector length does not match field degree")
    return Value.rational(sum(d * c for d, c in zip(e.duals, coords)))


def _chain(op):
    """The rule of an Add or Mul node, for op its Value operation.  A node
    with a child of its own type heads a chain, whose operands are the
    maximal subtrees of another type, evaluated left to right.  Operands
    embedded in one field at one root index are combined first; then those
    groups and the other operands, each its own group, are combined in
    order of first appearance.  Exact + and * are associative and
    commutative, so only the number of resolvents changes."""
    def rule(e, ctx: _EvalCtx) -> Value:
        t = type(e)
        if type(e.left) is not t and type(e.right) is not t:
            return op(_eval(e.left, ctx), _eval(e.right, ctx))
        groups, todo = {}, [e]
        while todo:
            node = todo.pop()
            if type(node) is t:
                todo += (node.right, node.left)
                continue
            v = _eval(node, ctx)
            key = (v.payload[0].field, v.payload[1]) if v.kind in (
                "emb", "cemb") else len(groups)
            groups[key] = op(groups[key], v) if key in groups else v
        return reduce(op, groups.values())
    return rule


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
    Add: _chain(Value.__add__), Mul: _chain(Value.__mul__),
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
    two = RationalConst(Fraction(2))
    return reduce(Add, [Embed(varname, j) for j in field.real_root_indices()]
                  + [Mul(two, RealPart(Embed(varname, j)))
                     for j in field.upper_root_indices()])


def linear_functional_expr(field: NumberField, duals) -> GPExpr:
    """The coordinate functional x -> sum_i d_i * coord_i(x)."""
    duals = tuple(Fraction(d) for d in duals)
    if len(duals) != field.degree:
        raise DegreeMismatch("dual vector length must equal the field degree")
    return LinearFunctional("x", duals)
