"""The expression language as one table: `genpoly._CALLS` against the
hand-written parser and printer it replaced (`legacy_syntax.py`)."""

import pathlib
import random
from fractions import Fraction

import pytest

import legacy_syntax
from gpnf import genpoly
from gpnf.errors import ExprSyntaxError, UnknownFunction
from gpnf.genpoly import (ComplexConst, Embed, LinearFunctional, Neg, Trace,
                          parse, pretty)
from gpnf.selftest import random_expr

VOCAB = (["0", "1", "2", "1/2", "3/4", "x", "y", "z", "sqrt2", "sin",
          "+", "-", "*", "(", ")", ",", "(", ")", ","]
         + [name for name, _cls, _shape in genpoly._CALLS])


def outcome(parse_fn, text):
    """The AST, or the class of the syntax error raised."""
    try:
        return parse_fn(text)
    except (ExprSyntaxError, UnknownFunction) as e:
        return type(e)


def token_strings(rng, n):
    """Random token strings: half drawn freely from VOCAB, half printed
    random expressions with up to two tokens deleted, inserted or
    replaced."""
    for i in range(n):
        if i % 2:
            toks = [rng.choice(VOCAB) for _ in range(rng.randint(1, 10))]
        else:
            toks = [str(t[1]) for t in
                    genpoly._tokenize(pretty(random_expr(rng, 3)))[:-1]]
            for _ in range(rng.randint(0, 2)):
                j = rng.randrange(len(toks) + 1)
                edit = rng.randrange(3) if j < len(toks) else 1
                if edit == 0:
                    del toks[j]
                elif edit == 1:
                    toks.insert(j, rng.choice(VOCAB))
                else:
                    toks[j] = rng.choice(VOCAB)
        yield " ".join(toks)


def nodes(e):
    yield e
    for name in e.__match_args__:
        v = getattr(e, name)
        if isinstance(v, genpoly._Node):
            yield from nodes(v)


def names_a_reserved_variable(e) -> bool:
    return any(isinstance(n, (Embed, Trace, LinearFunctional))
               and n.name in genpoly._RESERVED for n in nodes(e))


def test_parser_agrees_with_the_legacy_parser():
    """Wherever the legacy parser accepts, the same AST, except that a
    reserved name as a call's variable is now a syntax error; wherever it
    rejects, a rejection too, except that a rational or variable argument
    may now stand in parentheses."""
    tally = {"same": 0, "reserved": 0, "newly legal": 0, "rejected": 0}
    for text in token_strings(random.Random(29), 20000):
        old, new = outcome(legacy_syntax.parse, text), outcome(parse, text)
        if not isinstance(old, type):
            if names_a_reserved_variable(old):
                assert new is ExprSyntaxError, text
                tally["reserved"] += 1
            else:
                assert new == old, text
                tally["same"] += 1
        elif not isinstance(new, type):
            assert any(s in text for s in ("( (", ", (", "- (")), text
            assert legacy_syntax.parse(pretty(new)) == new, text
            tally["newly legal"] += 1
        else:
            tally["rejected"] += 1
    assert tally["same"] > 3000 and tally["reserved"] > 0, tally


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_and_legacy_printing_on_every_entry(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(300):
        e = random_expr(rng, 5)
        seen.update(type(n) for n in nodes(e))
        assert pretty(e) == legacy_syntax.pretty(e)
        assert parse(pretty(e)) == e
    assert seen == set(genpoly._RULES)


def test_arguments_are_expressions_checked_against_the_entry():
    assert parse("c((1), -(2/3))") == ComplexConst(1, Fraction(-2, 3))
    assert parse("emb((x), 2)") == Embed("x", 2)
    for text, position in [("emb(x, -1)", 7), ("emb(x, 1/2)", 7),
                           ("emb(1, 2)", 4), ("lf(x)", 4), ("tr(x, 1)", 6),
                           ("c(1, 2, 3)", 8), ("c(1)", 3), ("c(1, x)", 5),
                           ("tr(sqrt2)", 3), ("lf(y, 1, -x)", 9)]:
        with pytest.raises(ExprSyntaxError) as ei:
            parse(text)
        assert ei.value.position == position, text
    for text in ("tr(frac)", "emb(floor, 0)", "lf(c, 1)"):
        with pytest.raises(ExprSyntaxError, match="reserved"):
            parse(text)
    with pytest.raises(UnknownFunction):
        parse("tr(sin(x))")
    assert parse("-tr(z)") == Neg(Trace("z"))


def test_docs_list_one_line_per_entry():
    lines = [genpoly._signature(name, shape)
             for name, _cls, shape in genpoly._CALLS]
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    grammar = readme.read_text().split("## Expression grammar")[1]
    grammar = grammar.split("\n## ")[0]
    for doc in (grammar, genpoly.__doc__ or "\n".join(lines)):
        listed = [line.strip() for line in doc.splitlines()
                  if line.strip() in lines]
        assert listed == lines
