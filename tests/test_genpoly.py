import random
import sys
import threading
import typing
from fractions import Fraction as F

import pytest

from conftest import random_element
from gpnf import genpoly
from gpnf.errors import (ExprSyntaxError, FieldMismatch, NonRealFloorArgument,
                         UnboundVariable)
from gpnf.genpoly import (Add, ComplexFloor, Embed, Floor, Mul, Neg, Var,
                          eval_expr, linear_functional_expr, parse, pretty,
                          trace_expr, zero_indicator)
from gpnf.numberfield import FieldElement, NumberField


# -- parsing -------------------------------------------------------------------

def test_parse_indicator_template():
    e = parse("floor(1 - frac(f)) * floor(1 - frac(r2 * f))")
    assert isinstance(e, Mul)
    assert isinstance(e.left, Floor)


def test_parse_sturmian():
    e = parse("floor(a*(n+1)+b) - floor(a*n+b)")
    assert isinstance(e, Add)
    assert isinstance(e.right, Neg)


def test_parse_cfloor_embed():
    e = parse("cfloor(emb(x,2))")
    assert e == ComplexFloor(Embed("x", 2))


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("floor(x")
    assert ei.value.position >= 6
    with pytest.raises(ExprSyntaxError):
        parse("1 + + 2")
    with pytest.raises(ExprSyntaxError):
        parse("x @ y")


def test_reserved_names():
    with pytest.raises(ExprSyntaxError):
        parse("frac + 1")


def test_unknown_function():
    from gpnf.errors import UnknownFunction
    with pytest.raises(UnknownFunction):
        parse("sin(x)")


def test_pretty_parse_identity_on_texts():
    texts = [
        "floor(a * (n + 1) + b) - floor(a * n + b)",
        "1/2 + 3 * x - y",
        "cfloor(emb(x, 2)) * c(1/2, -2/3)",
        "tr(x) + lf(y, 1/2, -3)",
        "dist(x) * (re(z) + im(z))",
    ]
    for t in texts:
        assert pretty(parse(t)) == t


# -- evaluation -----------------------------------------------------------------

def test_sturmian_value_at_two(K_sqrt2):
    e = parse("floor(a*(n+1)+b) - floor(a*n+b)")
    a = K_sqrt2.beta - 1
    v = eval_expr(e, {"a": a, "b": 0, "n": 2})
    assert v.as_rational() == 1   # floor(3a)=1, floor(2a)=0


def test_indicator_template_values():
    t = parse("floor(1 - frac(f)) * floor(1 - frac(sqrt2 * f))")
    assert eval_expr(t, {"f": F(0)}).as_rational() == 1
    assert eval_expr(t, {"f": F(1, 2)}).as_rational() == 0


def test_zero_indicator_examples(K_sqrt2, K_phi):
    zi = zero_indicator(Var("f"))
    assert eval_expr(zi, {"f": F(0)}).as_rational() == 1
    assert eval_expr(zi, {"f": K_sqrt2.beta - 1}).as_rational() == 0
    assert eval_expr(zi, {"f": F(3)}).as_rational() == 0   # nonzero integer
    assert eval_expr(zi, {"f": K_phi.beta}).as_rational() == 0
    assert eval_expr(zi, {"f": K_phi.beta - K_phi.beta}).as_rational() == 1


def test_zero_indicator_complex_split(K_salem):
    zi = zero_indicator(Embed("x", 2), complex_valued=True)
    assert eval_expr(zi, {"x": K_salem.zero}).as_rational() == 1
    assert eval_expr(zi, {"x": K_salem.beta}).as_rational() == 0


def test_trace_expr_examples(K_sqrt2, K_phi, K_salem):
    e = trace_expr(K_sqrt2)
    assert eval_expr(e, {"x": K_sqrt2.beta}).compare_rational(0) == 0
    e2 = trace_expr(K_phi)
    assert eval_expr(e2, {"x": K_phi.beta}).compare_rational(1) == 0
    e3 = trace_expr(K_salem)
    assert eval_expr(e3, {"x": K_salem.beta}).compare_rational(1) == 0
    assert eval_expr(e3, {"x": K_salem.beta ** 2}).compare_rational(3) == 0


def test_tr_node_is_exact(K_salem, rng):
    e = parse("tr(x)")
    for _ in range(10):
        x = random_element(K_salem, rng)
        assert eval_expr(e, {"x": x}).as_rational() == x.trace()


def test_linear_functional(K_phi):
    e = linear_functional_expr(K_phi, [1, 0])
    assert eval_expr(e, {"x": K_phi.beta}).as_rational() == 0
    e2 = linear_functional_expr(K_phi, [0, 1])
    assert eval_expr(e2, {"x": K_phi.beta}).as_rational() == 1


def test_identities_on_field_values(K_plastic, rng):
    frac_e = parse("frac(x) - (x - floor(x))")
    for _ in range(10):
        x = random_element(K_plastic, rng)
        assert eval_expr(frac_e, {"x": x}).compare_rational(0) == 0


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_expr(parse("x + 1"), {})


def test_mixed_fields_rejected(K_phi, K_sqrt2):
    e = parse("x + y")
    with pytest.raises(FieldMismatch):
        eval_expr(e, {"x": K_phi.beta, "y": K_sqrt2.beta})


def test_nonreal_floor_rejected(K_salem):
    e = parse("floor(emb(x, 2))")
    with pytest.raises(NonRealFloorArgument):
        eval_expr(e, {"x": K_salem.beta})


def test_floor_through_real_valued_complex_embedding(K_salem):
    # beta + 1/beta is real in every embedding; its floor at the circle
    # embedding is floor(2 cos theta) = -2
    e = parse("floor(emb(x, 2))")
    x = K_salem.beta + K_salem.beta.inverse()
    assert eval_expr(e, {"x": x}).as_rational() == -2


def test_cfloor_of_complex_embedding(K_salem):
    v = eval_expr(parse("cfloor(emb(x, 2))"), {"x": K_salem.beta})
    assert v.real_part().as_rational() == -1
    assert v.imag_part().as_rational() == 0


def test_complex_const_arithmetic():
    v = eval_expr(parse("c(1/2, 1/2) + c(1/2, -1/2)"), {})
    assert v.as_rational() == 1
    v2 = eval_expr(parse("c(0, 1) * c(0, 1)"), {})
    assert v2.as_rational() == -1


def test_multivariable_same_field(K_sqrt2):
    # h(x, y) with both variables over Q(sqrt2)
    e = parse("frac(emb(x, 0) + emb(y, 0))")
    x, y = K_sqrt2.beta, K_sqrt2.beta * 2
    v = eval_expr(e, {"x": x, "y": y})
    # -3 sqrt2 = -4.2426...: frac = 0.7573...
    assert v.compare_rational(F(75, 100)) == 1
    assert v.compare_rational(F(76, 100)) == -1


# -- dispatch and sharing ---------------------------------------------------------

def test_every_node_class_has_a_rule():
    assert set(typing.get_args(genpoly.GPExpr)) == set(genpoly._RULES)
    nodes = {c for c in vars(genpoly).values() if isinstance(c, type)
             and issubclass(c, genpoly._Node) and c is not genpoly._Node}
    assert nodes == set(genpoly._RULES)
    for bad in (object(), "x", F(1), Var):
        with pytest.raises(TypeError):
            eval_expr(bad, {"x": 1})


def test_shared_fields_and_expressions_across_threads():
    """Four threads evaluate floor(sqrt2*x*x + x) and zero_indicator(x - y)
    on Q(phi) and floor(trace_expr) on the plastic field, with shared fields
    and shared parsed expressions, in shuffled orders; every value must be
    the one a serial run on fields of its own gives."""
    def setup():
        G, P = NumberField([-1, -1, 1]), NumberField([-1, -1, 0, 1])
        exprs = {"N": parse("floor(sqrt2*x*x + x)"),
                 "Z": zero_indicator(parse("x - y")),
                 "T": Floor(trace_expr(P))}
        return {"N": G, "Z": G, "T": P}, exprs

    rng = random.Random(11)
    ops = []
    for i in range(24):
        x = [rng.randint(-99, 99), rng.choice((-1, 1)) * rng.randint(1, 99)]
        y = x if i % 4 == 0 else [rng.randint(-9, 9), rng.randint(-9, 9)]
        ops += [("N", {"x": x}), ("Z", {"x": x, "y": y}),
                ("T", {"x": x + [rng.randint(-99, 99)]})]

    def run(fields, exprs, op):
        kind, coords = op
        env = {k: fields[kind].element(v) for k, v in coords.items()}
        return eval_expr(exprs[kind], env).as_rational()

    fields, exprs = setup()
    expected = [run(fields, exprs, op) for op in ops]
    for (kind, coords), v in zip(ops, expected):
        if kind == "Z":
            assert v == (coords["x"] == coords["y"])
        if kind == "T":
            assert v == 3 * coords["x"][0] + 2 * coords["x"][2]
    FieldElement._minimal_poly_int.cache_clear()
    fields, exprs = setup()
    start = threading.Barrier(4)
    answers = [None] * 4

    def work(t: int) -> None:
        order = list(range(len(ops)))
        random.Random(t).shuffle(order)
        start.wait(timeout=30)
        answers[t] = {i: run(fields, exprs, ops[i]) for i in order}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert all(a == dict(enumerate(expected)) for a in answers)
