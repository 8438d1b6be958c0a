"""The walkers over a formula share one fold: its depth limit, predicate
expansion under every connective, and the merged isometry backtracker and
truncated weighted sum."""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from metriclogic.formula import (AtomD, ConstName, FormulaError, Half, MAX_DEPTH,
                                 Relation, Signature, Var, borel_level,
                                 free_variables, is_quantifier_free)
from metriclogic.intervals import Enclosure, truncated_weighted_sum
from metriclogic.metric import RationalMetricSpace
from metriclogic.structures import FiniteStructure, automorphisms, space_isometries
from metriclogic.syntax import parse, print_formula
from metriclogic.urysohn import AnchoredStructure, PredicateDef, expand_predicates


def halves(depth):
    """Half^(depth-1) (d a x), built in Python: `depth` levels."""
    f = AtomD(ConstName("a"), Var("x"))
    for _ in range(depth - 1):
        f = Half(f)
    return f


WALKERS = {
    "borel_level": lambda f: borel_level(f, "<"),
    "free_variables": free_variables,
    "is_quantifier_free": is_quantifier_free,
    "print_formula": print_formula,
}


@pytest.mark.parametrize("walker", sorted(WALKERS))
@pytest.mark.parametrize("depth", [2 * MAX_DEPTH, 2 * MAX_DEPTH + 1, 3000])
def test_walkers_refuse_formulas_past_twice_the_depth_limit(walker, depth):
    walk = WALKERS[walker]
    if depth <= 2 * MAX_DEPTH:
        expected = {"borel_level": borel_level(halves(1), "<"),
                    "free_variables": frozenset({"x"}),
                    "is_quantifier_free": True,
                    "print_formula": "(half " * (depth - 1) + "(d a x)" + ")" * (depth - 1)}
        assert walk(halves(depth)) == expected[walker]
    else:
        with pytest.raises(FormulaError, match=f"deeper than {2 * MAX_DEPTH} levels"):
            walk(halves(depth))


# ------------------------------------------------------ predicate expansion

SIG_P = Signature((Relation("P", 2),), ("a",))
SIG_A = Signature((), ("a",))


def p_inlined(s, t):
    """P(u v) = (dotminus (d u v) (half (d v a))) at u = s, v = t."""
    return f"(dotminus (d {s} {t}) (half (d {t} a)))"


CASES = {
    "half": ("(half (P x y))", f"(half {p_inlined('x', 'y')})"),
    "neg": ("(neg (P y x))", f"(neg {p_inlined('y', 'x')})"),
    # (d a a) is an atom between two anchors: the constant 0
    "scale": ("(scale 2/3 (P x a))", "(scale 2/3 (dotminus (d x a) (half 0)))"),
    **{kw: (f"({kw} (P x y) (P y x))", f"({kw} {p_inlined('x', 'y')} {p_inlined('y', 'x')})")
       for kw in ("min", "max", "absdiff", "dotminus", "dotplus")},
    "sup": ("(sup x (P a x))", f"(sup x {p_inlined('a', 'x')})"),
    "inf": ("(inf y (max (P y x) (P x y)))",
            f"(inf y (max {p_inlined('y', 'x')} {p_inlined('x', 'y')}))"),
}


@pytest.mark.parametrize("connective", sorted(CASES))
def test_expand_predicates_under_every_connective(connective):
    text, inlined = CASES[connective]
    definition = PredicateDef(("u", "v"), parse("(dotminus (d u v) (half (d v a)))", SIG_A))
    anchored = AnchoredStructure(RationalMetricSpace.build(("a",), {}), {"P": definition})
    assert expand_predicates(parse(text, SIG_P), anchored) == parse(inlined, SIG_A)


def test_expand_predicates_returns_a_relation_free_formula_itself():
    anchored = AnchoredStructure(RationalMetricSpace.build(("a",), {}), {})
    phi = parse("(sup x (max (d a x) (half (d x y))))", SIG_A)
    assert expand_predicates(phi, anchored) is phi


def test_expand_predicates_refuses_a_relation_free_formula_past_the_limit():
    anchored = AnchoredStructure(RationalMetricSpace.build(("a",), {}), {})
    with pytest.raises(FormulaError, match=f"deeper than {2 * MAX_DEPTH} levels"):
        expand_predicates(halves(2 * MAX_DEPTH + 1), anchored)



# ------------------------------------------------- one isometry backtracker

def symmetric_structure(rng):
    """A structure whose space and tables often have nontrivial symmetries:
    distances from {1/2, 1}, tables constant, distance-driven or random."""
    pts = tuple(f"p{i}" for i in range(rng.randint(1, 5)))
    space = RationalMetricSpace.build(
        pts, {(p, q): rng.choice((F(1, 2), F(1))) for i, p in enumerate(pts) for q in pts[i + 1:]})
    consts = tuple(f"c{i}" for i in range(rng.randint(0, 2)))
    rels = (Relation("R", 1), Relation("E", 2))[:rng.randint(0, 2)]
    tables = {}
    for rel in rels:
        kind, ref = rng.randrange(3), rng.choice(pts)
        tables[rel.name] = {
            tup: (F(1, 2) if kind == 0 else space.d(tup[0], ref) if kind == 1
                  else F(rng.randint(0, 2), 2))
            for tup in product(pts, repeat=rel.arity)}
    return FiniteStructure(space, Signature(rels, consts), tables,
                           {c: rng.choice(pts) for c in consts})


def test_automorphisms_are_the_isometries_that_keep_constants_and_tables():
    rng = random.Random(20)
    nontrivial = 0
    for _ in range(150):
        M = symmetric_structure(rng)
        pts = M.space.points
        expected = [g for g in space_isometries(M.space)
                    if all(g[p] == p for p in M.constants.values())
                    and all(M.tables[rel.name][tup] == M.tables[rel.name][tuple(g[p] for p in tup)]
                            for rel in M.sig.relations for tup in product(pts, repeat=rel.arity))]
        autos = automorphisms(M)
        assert autos == expected
        nontrivial += len(autos) > 1
    assert nontrivial > 20


def test_carries_tables_agrees_with_transport():
    # one check for automorphisms and for orbit_equiv's witness: g carries
    # M's tables onto N's exactly when transporting M along g gives N's tables
    from metriclogic.structures import carries_tables
    rng = random.Random(21)
    agree = disagree = 0
    for _ in range(100):
        M = symmetric_structure(rng)
        isos = space_isometries(M.space)
        for h in isos:
            N = M.transport(h)
            for g in isos:
                got = carries_tables(M, N, g)
                assert got == (M.transport(g).tables == N.tables)
                agree += got
                disagree += not got
    assert agree > 100 and disagree > 100


# -------------------------------------------------- truncated weighted sum

def test_truncated_weighted_sum():
    assert truncated_weighted_sum([]) == Enclosure(F(0), F(1))
    assert truncated_weighted_sum([F(1), F(1, 2)]) == Enclosure(F(5, 8), F(7, 8))
    assert truncated_weighted_sum([F(1)] * 3) == Enclosure(F(7, 8), F(1))
