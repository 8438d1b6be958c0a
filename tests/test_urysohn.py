import random
from fractions import Fraction as F
from math import isqrt

import pytest

from metriclogic.formula import (AtomD, ConstName, Inf, Max, Relation, Signature, Sup,
                                 Var)
from metriclogic.intervals import sqrt_enclosure
from metriclogic.metric import RationalMetricSpace
from metriclogic.structures import FiniteStructure, evaluate
from metriclogic.syntax import parse
from metriclogic.urysohn import (AnchoredStructure, PredicateDef,
                                 QuantifierBudget, UrysohnError, eval_urysohn,
                                 qf_decide, snap_mesh, theta_demo)

from helpers import interval_value, random_far_space


def anchors(pairs, pts=None):
    if pts is None:
        pts = sorted({p for pq in pairs for p in pq})
    space = RationalMetricSpace.build(pts, {k: F(*v) for k, v in pairs.items()})
    return AnchoredStructure(space)


def csig(*names):
    return Signature((), names)


def test_const_is_exact_under_any_budget():
    a = anchors({}, pts=["s"])
    for mesh in (F(1, 2), F(1, 7), F(1, 64)):
        e = eval_urysohn(parse("2/5"), a, {}, QuantifierBudget(mesh, 1))
        assert (e.lo, e.hi) == (F(2, 5), F(2, 5))


def test_sup_distance_reaches_diameter():
    a = anchors({}, pts=["s"])
    e = eval_urysohn(parse("(sup x (d s x))", csig("s")), a, {},
                     QuantifierBudget(F(1, 16), 1))
    assert e.contains(F(1))
    assert e.width <= F(1, 1000)


def test_inf_midpoint_value():
    a = anchors({("a", "b"): (3, 5)})
    e = eval_urysohn(parse("(inf x (max (d a x) (d b x)))", csig("a", "b")),
                     a, {}, QuantifierBudget(F(1, 40), 3))
    assert e.contains(F(3, 10))
    assert e.width <= F(1, 100)


def test_enclosures_nested_under_refinement():
    a = anchors({("a", "b"): (1, 2)})
    sig = csig("a", "b")
    shallow = ["(sup x (d a x))",
               "(inf x (dotplus (d a x) (d b x)))",
               "(sup x (min (d a x) (neg (d b x))))",
               "(inf x (absdiff (d a x) (d b x)))"]
    for text in shallow:
        phi = parse(text, sig)
        coarse = eval_urysohn(phi, a, {}, QuantifierBudget(F(1, 8), 1))
        fine = eval_urysohn(phi, a, {}, QuantifierBudget(F(1, 8), 3))
        assert coarse.contains_enclosure(fine)
        assert fine.width <= coarse.width
    nested = parse("(sup x (inf y (dotminus (d x y) (d a y))))", sig)
    coarse = eval_urysohn(nested, a, {}, QuantifierBudget(F(1, 4), 0))
    fine = eval_urysohn(nested, a, {}, QuantifierBudget(F(1, 4), 1))
    assert coarse.contains_enclosure(fine)
    assert fine.width <= coarse.width


def test_finite_substructure_bounds():
    """sup over any finite subspace is at most the certified sup bound, and
    inf at least the certified inf bound."""
    rng = random.Random(6)
    for _ in range(5):
        space = random_far_space(rng, 3, lo=F(1, 4))
        a = AnchoredStructure(space)
        sig = csig(*space.points)
        M = FiniteStructure(space, sig, {}, {p: p for p in space.points})
        s0 = space.points[0]
        sup_phi = parse(f"(sup x (d {s0} x))", sig)
        inf_phi = parse(f"(inf x (d {s0} x))", sig)
        e_sup = eval_urysohn(sup_phi, a, {}, QuantifierBudget(F(1, 8), 1))
        e_inf = eval_urysohn(inf_phi, a, {}, QuantifierBudget(F(1, 8), 1))
        assert evaluate(sup_phi, M) <= e_sup.hi
        assert evaluate(inf_phi, M) >= e_inf.lo


def test_anchored_predicates_expand():
    space = RationalMetricSpace.build(("u0",), {})
    defs = {"R": PredicateDef(("z",), parse("(d z u0)", csig("u0")))}
    a = AnchoredStructure(space, defs)
    sig = Signature((Relation("R", 1),), ("u0",))
    e = eval_urysohn(parse("(sup x (R x))", sig), a, {},
                     QuantifierBudget(F(1, 16), 1))
    assert e.contains(F(1))


def test_definition_using_a_relation_symbol_refused():
    """A definition's body is distance atoms only: one that reads a relation
    symbol is refused when the structure is built."""
    space = RationalMetricSpace.build(("u0",), {})
    sig = Signature((Relation("S", 1),), ("u0",))
    defs = {"R": PredicateDef(("z",), parse("(max (S z) (d z u0))", sig))}
    with pytest.raises(UrysohnError, match="definition of R uses relation symbol S"):
        AnchoredStructure(space, defs)


def test_anchors_grown_point_by_point_give_the_same_enclosures():
    """The search reads the anchors' int rows: a space grown by with_point,
    whose rows are handed over and rescaled as it grows, gives the same
    enclosures as the same table built in one go."""
    pts = ("a", "b", "c")
    dists = {("a", "b"): F(3, 5), ("a", "c"): F(1, 3), ("b", "c"): F(1, 2)}
    built = RationalMetricSpace.build(pts, dists)
    grown = RationalMetricSpace.build(("a",), {}).with_point(
        "b", {"a": F(3, 5)}).with_point("c", {"a": F(1, 3), "b": F(1, 2)})
    assert grown.int_rows == built.int_rows
    for text in ("(sup x (min (d a x) (d c x)))",
                 "(inf x (max (d a x) (max (d b x) (d c x))))",
                 "(sup x (inf y (dotminus (d b y) (d x y))))",
                 "(dotplus (d a c) (inf x (absdiff (d b x) (d c x))))"):
        phi = parse(text, csig(*pts))
        budget = QuantifierBudget(F(1, 8), 1)
        assert (eval_urysohn(phi, AnchoredStructure(grown), {}, budget)
                == eval_urysohn(phi, AnchoredStructure(built), {}, budget))


def test_rejects_unbound_variables():
    a = anchors({}, pts=["s"])
    with pytest.raises(UrysohnError):
        eval_urysohn(parse("(d s x)", csig("s")), a, {},
                     QuantifierBudget(F(1, 4), 0))


@pytest.mark.parametrize("phi", [
    Sup("x", AtomD(Var("x"), ConstName("c"))),
    Sup("x", Max(AtomD(Var("x"), ConstName("a")),
                 Inf("y", AtomD(Var("y"), ConstName("c"))))),
    AtomD(ConstName("a"), ConstName("c")),
    AtomD(ConstName("c"), ConstName("c")),
], ids=["quantified", "under_a_connective", "two_constants", "same_constant"])
def test_a_point_that_is_no_anchor_is_refused_by_name(phi):
    a = anchors({("a", "b"): (3, 5)})
    with pytest.raises(UrysohnError, match="point 'c' is not an anchor"):
        eval_urysohn(phi, a, {}, QuantifierBudget(F(1, 4), 0))


def test_snap_mesh_clears_denominators():
    space = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(3, 5)})
    h = snap_mesh(F(1, 1000), space)
    assert h <= F(1, 1000)
    assert (F(3, 5) / h).denominator == 1


# ------------------------------------------------------------- qf layer

def test_qf_decide_examples():
    frag = RationalMetricSpace.build(
        ("s", "t", "u"), {("s", "t"): F(2, 5), ("s", "u"): F(1, 2), ("t", "u"): F(3, 4)})
    sig = csig("s", "t", "u")
    assert qf_decide(parse("(d s s)", sig), frag) == 0
    assert qf_decide(parse("(neg (d s t))", sig), frag) == F(3, 5)
    assert qf_decide(parse("(dotminus (d s u) (d t u))", sig), frag) == 0


def test_qf_decide_rejects_quantifiers_and_unknowns():
    frag = RationalMetricSpace.build(("s",), {})
    with pytest.raises(UrysohnError):
        qf_decide(parse("(sup x (d s x))", csig("s")), frag)
    from metriclogic.formula import FormulaError
    with pytest.raises((UrysohnError, FormulaError)):
        qf_decide(parse("(d s missing)", csig("s")), frag)


def test_qf_decide_agrees_with_finite_eval():
    rng = random.Random(13)
    for _ in range(40):
        frag = random_far_space(rng, rng.randint(2, 4), lo=F(1, 4))
        sig = csig(*frag.points)
        M = FiniteStructure(frag, sig, {}, {p: p for p in frag.points})
        from helpers import random_formula
        phi = random_formula(rng, sig, [], rng.randint(0, 3))
        assert qf_decide(phi, frag) == evaluate(phi, M, {})
        # an oracle that shares no code with evaluate: exact intervals
        lo, hi = interval_value(phi, lambda p, q: (frag.d(p, q),) * 2)
        assert lo == hi == qf_decide(phi, frag)


# ------------------------------------------------------------ theta demo

def high_precision_sqrt(q: F, bits=80):
    scale = 1 << bits
    n = q.numerator * q.denominator * scale * scale
    r = isqrt(n)
    return F(r, q.denominator * scale), F(r + 1, q.denominator * scale)


def test_theta_demo_quarter():
    e = theta_demo(F(1, 4), F(1, 10 ** 6))
    assert e.contains(F(1, 2))
    assert e.width <= F(1, 10 ** 6)


def test_theta_demo_49_hundredths():
    e = theta_demo(F(49, 100), F(1, 10 ** 6))
    assert e.contains(F(7, 10))


def test_theta_demo_rejects_out_of_range():
    with pytest.raises(UrysohnError):
        theta_demo(F(1, 20), F(1, 1000))
    with pytest.raises(UrysohnError):
        theta_demo(F(1, 2), F(1, 1000))


def test_theta_demo_contains_sqrt_on_grid():
    for k in range(11, 50, 6):
        q = F(k, 100)
        e = theta_demo(q, F(1, 10 ** 6))
        lo, hi = high_precision_sqrt(q)
        assert e.lo <= lo and hi <= e.hi or e.contains(lo) or e.contains(hi)
        # the enclosure must contain the true sqrt: compare via squaring
        assert e.lo * e.lo <= q <= e.hi * e.hi


def test_sqrt_enclosure_exact_on_squares():
    e = sqrt_enclosure(F(1, 4))
    assert e.lo == e.hi == F(1, 2)
    e2 = sqrt_enclosure(F(1, 2), 40)
    assert e2.lo < e2.hi and e2.width <= F(1, 2 ** 40)
    assert e2.lo * e2.lo <= F(1, 2) <= e2.hi * e2.hi
