"""Sum and product chains fold their same-field operands first.

A chain of + or * combines the operands embedded at one root of one field
in field arithmetic before any cross-field resolvent.  Exact + and * are
associative and commutative, so each result must equal the pairwise
`Value` operations over the same operand values, left to right.
"""

import random
from fractions import Fraction as F
from functools import reduce

import pytest

from gpnf import algebraic, genpoly, polys
from gpnf.genpoly import (Add, Embed, Mul, RationalConst, Value, Var,
                          eval_expr, parse, pretty)
from gpnf.numberfield import NumberField

GOLDEN, PLASTIC = NumberField([-1, -1, 1]), NumberField([-1, -1, 0, 1])
OPS = {Add: Value.__add__, Mul: Value.__mul__}


def operands(e, cls) -> list:
    """The maximal subtrees of e of a type other than cls, left to right."""
    if type(e) is cls:
        return operands(e.left, cls) + operands(e.right, cls)
    return [e]


def pairwise(e, env) -> Value:
    """e by the pairwise Value operations over its chain operands."""
    cls = type(e)
    if cls in OPS:
        return reduce(OPS[cls], [pairwise(o, env) for o in operands(e, cls)])
    return eval_expr(e, env)


def same(a: Value, b: Value) -> bool:
    """Rationals exactly, else floor(2^64 * part) of both parts."""
    if a.as_rational() is not None and b.as_rational() is not None:
        return a.as_rational() == b.as_rational()
    scale = Value.rational(2 ** 64)
    return all((p * scale).floor().payload == (q * scale).floor().payload
               for p, q in ((a.real_part(), b.real_part()),
                            (a.imag_part(), b.imag_part())))


def random_chain(rng, field):
    """A random binary tree of + or * over 2-4 operands: variables,
    variables at real roots, sqrt2, rationals and now and then a chain of
    the other operation over two of them.  On a field with complex roots,
    one case in four is instead a variable at a complex root, one real
    irrational operand and rationals, shuffled: more real irrational operands next to a complex root make the
    left-to-right reference build resolvents of degree 54 and more."""
    cls = rng.choice((Add, Mul))
    other = Mul if cls is Add else Add
    real = field.real_root_indices()

    def leaf(nested=False):
        k = rng.randrange(6)
        if k == 0:
            return Var(rng.choice("xy"))
        if k in (1, 2):
            return Embed(rng.choice("xy"), rng.choice(real))
        if k == 3:
            return genpoly._sqrt2_const()
        if k == 4 and not nested:
            return other(leaf(True), leaf(True))
        return RationalConst(F(rng.randint(-5, 5), rng.randint(1, 3)))

    def tree(parts):
        if len(parts) == 1:
            return parts[0]
        i = rng.randint(1, len(parts) - 1)
        return cls(tree(parts[:i]), tree(parts[i:]))

    upper = field.upper_root_indices()
    if upper and rng.random() < 0.25:
        parts = [Embed(rng.choice("xy"), rng.choice(upper)),
                 rng.choice((Var("x"), Embed("y", real[0]),
                             genpoly._sqrt2_const()))]
        parts += [RationalConst(F(rng.randint(-5, 5), rng.randint(1, 3)))
                  for _ in range(rng.randint(0, 2))]
        rng.shuffle(parts)
    else:
        parts = [leaf() for _ in range(rng.randint(2, 4))]
    return tree(parts)


@pytest.mark.parametrize("seed", range(60))
def test_chain_equals_pairwise_reduce(seed):
    rng = random.Random(seed)
    field = rng.choice((GOLDEN, PLASTIC))
    env = {v: field.element([F(rng.randint(-3, 3), rng.randint(1, 2))
                             for _ in range(field.degree)]) for v in "xy"}
    e = random_chain(rng, field)
    assert same(eval_expr(e, env), pairwise(e, env)), pretty(e)


@pytest.fixture
def prod_calls(monkeypatch) -> list:
    """The argument pairs of every product resolvent built from now on."""
    calls = []
    prod_poly = polys.prod_poly
    monkeypatch.setattr(polys, "prod_poly",
                        lambda *a: calls.append(a) or prod_poly(*a))
    algebraic._prod_poly_sq.cache_clear()
    return calls


def test_fold_keys_on_the_root_index(prod_calls):
    # phi at root 1, -1/phi at root 0: phi^2 * (-1/phi) = -phi through one
    # product resolvent; a fold keyed by the field alone gives phi^3 in
    # field arithmetic, or two resolvents through the Value operations
    x = GOLDEN.beta
    v = eval_expr(parse("emb(x,1)*emb(x,0)*emb(x,1)"), {"x": x})
    assert v.floor().payload == -2
    assert (v + Value.of_embedding(x)).is_exact_zero()
    assert len(prod_calls) == 1


def test_complex_operands_fold_across_a_real_one():
    # left to right, the two complex factors meet only after degree-18
    # products with x, and then need resolvents of degree past 100; folded,
    # they are one field element
    env = {"x": PLASTIC.element([1, -1, F(1, 2)]),
           "y": PLASTIC.element([F(-1, 2), 2, 1])}
    e = parse("emb(y,1)*x*emb(y,1)")
    a, x, b = (eval_expr(o, env) for o in operands(e, Mul))
    assert same(eval_expr(e, env), a * b * x)


def test_sqrt2_cube_chain_makes_one_product_resolvent(prod_calls):
    x = GOLDEN.element([F(-7, 3), F(5, 2)])
    assert eval_expr(parse("floor(sqrt2*x*x*x)"), {"x": x}).payload == 7
    assert len(prod_calls) == 1
