import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from metriclogic.formula import (AtomD, Const, FormulaError, Neg, Relation,
                                 Signature, Var, borel_level, free_variables,
                                 lipschitz)
from metriclogic.structures import evaluate
from metriclogic.syntax import ParseError, parse, print_formula

from helpers import SMALL_SIG, modulus, random_formula, random_structure

SIG_C = Signature((), ("c", "u0"))
SIG_R = Signature((Relation("R", 1),), ("c",))


def test_parse_atom_d():
    phi = parse("(d x y)")
    assert phi == AtomD(Var("x"), Var("y"))


def test_parse_sup_dotminus():
    phi = parse("(sup x (dotminus (d x c) 1/2))", SIG_C)
    assert print_formula(phi) == "(sup x (dotminus (d x c) 1/2))"
    assert free_variables(phi) == frozenset()


def test_parse_relation_atom():
    phi = parse("(R x)", SIG_R)
    assert phi.name == "R" and phi.args == (Var("x"),)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("(d x")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("(unknownrel x)")
    with pytest.raises(ParseError):
        parse("(R x y)", SIG_R)          # arity mismatch
    with pytest.raises(ParseError):
        parse("3/2")                      # out of [0,1]


@pytest.mark.parametrize("text, message, position", [
    ("(min 1/0 (d x y))", "bad rational '1/0'", 5),
    ("(min 3/2 (d x y))", "rational 3/2 outside [0,1]", 5),
    ("(scale 3/0 (d x y))", "bad rational '3/0'", 7),
    ("(scale 0 (d x y))", "scale factor must be positive", 7),
    ("(scale -1/2 (d x y))", "scale factor must be positive", 7)],
    ids=["bad-constant", "constant-outside-unit", "bad-scale", "zero-scale", "negative-scale"])
def test_rational_diagnostics_name_the_token_and_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_scale_factors_and_constants_read_rationals_alike():
    assert print_formula(parse("(min -1/-2 (d x y))")) == "(min 1/2 (d x y))"
    assert print_formula(parse("(scale -3/-2 (d x y))")) == "(scale 3/2 (d x y))"


def test_unknown_symbol_vs_loose():
    with pytest.raises(ParseError):
        parse("(S x y)")
    phi = parse("(S x y)", loose=True)
    assert print_formula(phi) == "(S x y)"


@given(st.integers(0, 10 ** 6), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_print_parse_roundtrip(seed, depth):
    rng = random.Random(seed)
    sig = Signature(SMALL_SIG.relations, ("c0",))
    phi = random_formula(rng, sig, ["x", "y"], depth)
    assert parse(print_formula(phi), sig) == phi


def test_lipschitz_base_cases():
    assert lipschitz(parse("(d x y)")) == 2
    assert lipschitz(parse("(neg (d x y))")) == 2
    assert lipschitz(parse("(scale 10 (d u0 x))", SIG_C), SIG_C) == 10
    assert lipschitz(parse("(d c u0)", SIG_C), SIG_C) == 0
    assert lipschitz(parse("(half (d x y))")) == 1
    assert lipschitz(parse("(min (d x y) (d x z))")) == 2
    assert lipschitz(parse("(dotplus (d x y) (d x z))")) == 4
    assert lipschitz(parse("(sup x (d x y))")) == 1
    assert lipschitz(parse("(R x)", SIG_R), SIG_R) == 1
    assert lipschitz(parse("(inf x (R x))", SIG_R), SIG_R) == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 5))
def test_lipschitz_equals_the_plain_recursion(seed, depth):
    """lipschitz, over every free variable and over one variable (the
    widening's only_var), equals the modulus by plain recursion."""
    rng = random.Random(seed)
    sig = Signature((Relation("P", 1, F(1, 3)), Relation("E", 2), Relation("T", 3, F(5, 2))),
                    ("c0",))
    phi = random_formula(rng, sig, ["x", "y", "z"], depth)
    assert lipschitz(phi, sig) == modulus(phi, sig)
    for v in ("x", "y", "z"):
        assert lipschitz(phi, sig, only_var=v) == modulus(phi, sig, v)


def test_lipschitz_soundness_sampled():
    """|phi(a) - phi(b)| <= L * max displacement, exact comparison."""
    rng = random.Random(4)
    violations = 0
    samples = 0
    while samples < 2000:
        M = random_structure(rng, rng.randint(2, 5), SMALL_SIG)
        variables = ["x", "y"]
        phi = random_formula(rng, SMALL_SIG, variables, rng.randint(0, 3))
        coeff = lipschitz(phi, SMALL_SIG)
        fv = sorted(free_variables(phi))
        pts = M.space.points
        for _ in range(10):
            a = {v: rng.choice(pts) for v in fv}
            b = {v: rng.choice(pts) for v in fv}
            gap = abs(evaluate(phi, M, a) - evaluate(phi, M, b))
            move = max((M.space.d(a[v], b[v]) for v in fv), default=F(0))
            if gap > coeff * move:
                violations += 1
            samples += 1
    assert violations == 0


BOREL_TABLE = [
    ("(d x y)", "<", 1),
    ("(d x y)", ">", 2),
    ("(neg (d x y))", "<", 2),
    ("(neg (d x y))", ">", 1),
    ("(inf x (R x))", "<", 1),
    ("(sup x (R x))", "<", 2),
    ("(sup x (inf y (d x y)))", "<", 2),
    ("(min (neg (R c)) (d x y))", "<", 2),
    ("(inf x (neg (R x)))", "<", 2),
    ("(sup x (neg (inf y (d x y))))", "<", 4),
]


@pytest.mark.parametrize("text,cmp,index", BOREL_TABLE)
def test_borel_levels_hand_table(text, cmp, index):
    level = borel_level(parse(text, SIG_R), cmp)
    assert level.class_kind == "Sigma"
    assert level.index == index


@given(st.integers(0, 10 ** 6), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_borel_neg_duality(seed, depth):
    rng = random.Random(seed)
    phi = random_formula(rng, SMALL_SIG, ["x"], depth)
    assert borel_level(phi, "<").index == borel_level(Neg(phi), ">").index
    assert borel_level(phi, ">").index == borel_level(Neg(phi), "<").index


def test_borel_dual_kind():
    level = borel_level(parse("(d x y)"), "<")
    assert level.dual().class_kind == "Pi"
    assert level.dual().index == level.index


def test_signature_validation():
    with pytest.raises(FormulaError):
        Relation("R", 0)
    with pytest.raises(FormulaError):
        Relation("R", 2, F(-1))
    with pytest.raises(FormulaError):
        Signature((Relation("R", 1), Relation("R", 2)), ())
    with pytest.raises(FormulaError):
        Const(F(3, 2))
