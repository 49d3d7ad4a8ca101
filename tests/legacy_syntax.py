"""The expression parser and printer as they were before `genpoly._CALLS`
defined the language: one hand-written branch per call.  Kept only as an
oracle for `test_syntax_table.py`; the library never imports it."""

import re as _re
from fractions import Fraction

from gpnf.errors import ExprSyntaxError, UnknownFunction
from gpnf.genpoly import (Add, AlgebraicConst, ComplexConst, ComplexFloor,
                          Dist, Embed, Floor, Frac, GPExpr, ImagPart,
                          LinearFunctional, Mul, Neg, Nint, RationalConst,
                          RealPart, Trace, Var, _sqrt2_const)

_UNARY = {"floor": Floor, "cfloor": ComplexFloor, "frac": Frac,
          "nint": Nint, "dist": Dist, "re": RealPart, "im": ImagPart}

_RESERVED = {"sqrt2"} | set(_UNARY) | {"emb", "tr", "lf", "c"}

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
