import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from metriclogic import graded
from metriclogic.formula import Relation, Signature
from metriclogic.graded import (ApproxFailure, ApproxWitness,
                                GradedAtomDescriptor, GradedError,
                                GradedMaxDescriptor, GroupMetricContext,
                                PartialIsometry, SizeGuardError, approx_search,
                                check_formula_invariance, check_graded_axioms,
                                graded_eval, oligo_probe,
                                rho_s, value_below)
from metriclogic.intervals import Enclosure
from metriclogic.metric import MetricError, RationalMetricSpace
from metriclogic.structures import FiniteStructure, space_isometries
from metriclogic.syntax import parse

from helpers import SMALL_SIG, graded_axioms_oracle, random_formula, random_structure


def equilateral(n, d=F(1, 2)):
    pts = tuple(f"p{i}" for i in range(n))
    return RationalMetricSpace.build(pts, {pq: d for pq in combinations(pts, 2)})


def all_isometries(space):
    return [PartialIsometry(space, space, m) for m in space_isometries(space)]


def test_identity_evaluates_to_zero():
    s = equilateral(3)
    for kind in ("linear", "sqrt"):
        D = GradedAtomDescriptor(kind, F(2), ("p0", "p1"), ("p0", "p1"))
        v = graded_eval(D, PartialIsometry.identity(s))
        if isinstance(v, Enclosure):
            assert v.lo == v.hi == 0
        else:
            assert v == 0


def test_linear_eval_with_dotted_scale():
    s = equilateral(3, F(1, 4))
    D = GradedAtomDescriptor("linear", F(2), ("p0",), ("p0",))
    g = [i for i in all_isometries(s) if i.map["p0"] == "p1"][0]
    assert graded_eval(D, g) == F(1, 2)
    D8 = GradedAtomDescriptor("linear", F(8), ("p0",), ("p0",))
    assert graded_eval(D8, g) == 1                      # capped


def test_sqrt_eval_exact_on_squares():
    s = equilateral(3, F(1, 4))
    D = GradedAtomDescriptor("sqrt", F(1), ("p0",), ("p0",))
    g = [i for i in all_isometries(s) if i.map["p0"] == "p1"][0]
    v = graded_eval(D, g)
    assert v.lo == v.hi == F(1, 2)                      # sqrt(1/4) exact


def test_undefined_point_rejected():
    s = equilateral(3)
    D = GradedAtomDescriptor("linear", F(1), ("p0",), ("p0",))
    g = PartialIsometry.build(s, s, {"p1": "p2"})
    with pytest.raises(GradedError):
        graded_eval(D, g)


def test_corrupted_isometry_rejected_at_construction():
    s = equilateral(3, F(1, 4))
    t = RationalMetricSpace.build(("q0", "q1"), {("q0", "q1"): F(1, 2)})
    with pytest.raises(MetricError):
        PartialIsometry.build(s, t, {"p0": "q0", "p1": "q1"})


def test_axioms_exhaustive_on_small_spaces():
    rng = random.Random(21)
    from helpers import random_far_space
    spaces = [equilateral(3), equilateral(4, F(1, 4)),
              random_far_space(rng, 5), random_far_space(rng, 6)]
    for s in spaces:
        isos = all_isometries(s)
        pairs = [(g, h) for g in isos for h in isos]
        for D in (GradedAtomDescriptor("linear", F(2), (s.points[0],), (s.points[0],)),
                  GradedAtomDescriptor("sqrt", F(1), s.points[:2], s.points[:2]),
                  GradedMaxDescriptor((
                      GradedAtomDescriptor("sqrt", F(1, 2), (s.points[0],), (s.points[0],)),
                      GradedAtomDescriptor("linear", F(1), (s.points[1],), (s.points[1],))))):
            rep = check_graded_axioms(D, s, pairs)
            assert rep.ok, rep.failures


def test_axioms_on_shift_descriptor_rejected():
    s = equilateral(3)
    D = GradedAtomDescriptor("linear", F(1), ("p0",), ("p1",))
    with pytest.raises(GradedError):
        check_graded_axioms(D, s, [])


def test_value_below_is_exact():
    s = equilateral(3, F(1, 2))
    D = GradedAtomDescriptor("sqrt", F(1), ("p0",), ("p0",))
    g = [i for i in all_isometries(s) if i.map["p0"] == "p1"][0]
    # value is sqrt(1/2); sqrt(1/2) < 3/4 iff 1/2 < 9/16
    assert value_below(D, g, F(3, 4))
    assert not value_below(D, g, F(7, 10))   # 49/100 < 1/2


def test_rho_s_basics():
    s = equilateral(3, F(1, 2))
    ctx = GroupMetricContext(s, s.points)
    isos = all_isometries(s)
    ident = isos[0]
    e = rho_s(ident, ident, ctx, 3)
    assert e.lo == 0 and e.hi == F(1, 8)
    swap = [i for i in isos if i.map["p0"] == "p1" and i.map["p1"] == "p0"][0]
    e2 = rho_s(ident, swap, ctx, 1)
    assert e2.lo == F(1, 4)                 # weight 1/2 times distance 1/2


def test_rho_s_left_invariance_exact():
    rng = random.Random(2)
    from helpers import random_far_space
    s = random_far_space(rng, 4)
    ctx = GroupMetricContext(s, s.points)
    isos = all_isometries(s)
    for f in isos:
        for g in isos[:3]:
            for h in isos[:3]:
                for k in range(len(s.points) + 1):
                    left = rho_s(f.compose(g), f.compose(h), ctx, k)
                    base = rho_s(g, h, ctx, k)
                    assert (left.lo, left.hi) == (base.lo, base.hi)


def test_formula_invariance_identity_and_stabilizer():
    rng = random.Random(31)
    M = random_structure(rng, 4, SMALL_SIG)
    phi = parse("(P x)", SMALL_SIG)
    params = {"x": M.space.points[0]}
    ident = PartialIsometry.identity(M.space)
    rep = check_formula_invariance(phi, M, params, [ident])
    assert rep.ok and rep.checked >= 1


def test_formula_invariance_exhaustive_small():
    rng = random.Random(41)
    for _ in range(6):
        M = random_structure(rng, rng.randint(2, 5), SMALL_SIG)
        samples = [PartialIsometry(M.space, M.space, a)
                   for a in space_isometries(M.space)]
        for _ in range(4):
            phi = random_formula(rng, SMALL_SIG, ["x", "y"], rng.randint(0, 3))
            from metriclogic.formula import free_variables
            params = {v: rng.choice(M.space.points)
                      for v in sorted(free_variables(phi))}
            rep = check_formula_invariance(phi, M, params, samples)
            assert not rep.failures, rep.failures


def test_formula_invariance_rejects_non_extendable():
    space = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(1, 2)})
    sig = Signature((Relation("P", 1),), ())
    M = FiniteStructure(space, sig, {"P": {("a",): F(0), ("b",): F(1, 2)}}, {})
    swap = PartialIsometry.build(space, space, {"a": "b", "b": "a"})
    rep = check_formula_invariance(parse("(P x)", sig), M, {"x": "a"}, [swap])
    assert rep.rejected and not rep.failures


# ------------------------------------------------------------ approx search

def test_approx_identity_witness():
    rng = random.Random(51)
    M = random_structure(rng, 3, SMALL_SIG)
    H = GradedAtomDescriptor("linear", F(1), (M.space.points[0],), (M.space.points[0],))
    res = approx_search(M, M, H, F(1, 4), budget=100)
    assert isinstance(res, ApproxWitness)
    assert res.h_radicand == 0 and res.structure_distance == 0


def test_approx_planted_witness():
    space = equilateral(3, F(1, 2))
    sig = Signature((Relation("P", 1),), ())
    tables = {"P": {("p0",): F(0), ("p1",): F(1, 4), ("p2",): F(1, 2)}}
    M = FiniteStructure(space, sig, tables, {})
    # g0 swaps p1, p2 and fixes p0 (the descriptor tuple)
    g0 = {"p0": "p0", "p1": "p2", "p2": "p1"}
    N = M.transport({v: k for k, v in g0.items()})
    H = GradedAtomDescriptor("linear", F(1), ("p0",), ("p0",))
    # eps below delta(M, N) so only an exact transport can win
    res = approx_search(M, N, H, F(1, 100), budget=100)
    assert isinstance(res, ApproxWitness)
    assert res.h_radicand == 0
    assert res.structure_distance == 0
    assert res.isometry.map == g0


def test_approx_failure_at_budget():
    space = equilateral(2, F(1, 2))
    sig = Signature((Relation("P", 1),), ())
    M = FiniteStructure(space, sig, {"P": {("p0",): F(0), ("p1",): F(0)}}, {})
    N = FiniteStructure(space, sig, {"P": {("p0",): F(1), ("p1",): F(1)}}, {})
    H = GradedAtomDescriptor("linear", F(1), ("p0",), ("p0",))
    res = approx_search(M, N, H, F(1, 16), budget=2)
    assert isinstance(res, ApproxFailure)
    assert res.examined == 2


# ------------------------------------------------------------- oligo probe

def test_oligo_diameter_covers_everything():
    rng = random.Random(61)
    M = random_structure(rng, 4, SMALL_SIG)
    res = oligo_probe(M, 1, F(1))
    assert len(res.family) == 1


def test_oligo_homogeneous_two_point():
    space = equilateral(2, F(1))
    M = FiniteStructure(space, Signature(), {}, {})
    res = oligo_probe(M, 1, F(1, 2))
    assert len(res.family) == 1
    assert res.group_order == 2


def test_oligo_rigid_three_point():
    space = RationalMetricSpace.build(
        ("a", "b", "c"),
        {("a", "b"): F(2, 5), ("a", "c"): F(1, 2), ("b", "c"): F(3, 5)})
    M = FiniteStructure(space, Signature(), {}, {})
    res = oligo_probe(M, 1, F(1, 4))
    assert res.group_order == 1
    assert len(res.family) == 3


def test_oligo_size_guard():
    space = equilateral(4, F(1, 2))
    M = FiniteStructure(space, Signature(), {}, {})
    with pytest.raises(SizeGuardError):
        oligo_probe(M, 9, F(1, 2), max_tuples=1000)


@pytest.mark.parametrize("n, eps", [(0, F(1, 2)), (-1, F(1, 2)), (1, F(-1))])
def test_oligo_refuses_degenerate_parameters(n, eps):
    M = FiniteStructure(equilateral(2), Signature(), {}, {})
    with pytest.raises(GradedError, match="must be >= "):
        oligo_probe(M, n, eps)


def test_axioms_compute_one_radicand_per_isometry(monkeypatch):
    """The bench's shape: all 36 pairs of the six isometries of an
    equilateral triangle, base (p0, p1).  The six isometries move (p0, p1)
    to six image pairs, so six radicands are all the check needs."""
    s = equilateral(3, F(1, 4))
    isos = all_isometries(s)
    pairs = [(g, h) for g in isos for h in isos]
    calls = []
    radicand = graded.graded_radicand

    def counting(D, g):
        calls.append(g)
        return radicand(D, g)

    monkeypatch.setattr(graded, "graded_radicand", counting)
    for kind in ("linear", "sqrt"):
        calls.clear()
        rep = check_graded_axioms(GradedAtomDescriptor(kind, F(3, 2), ("p0", "p1"), ("p0", "p1")),
                                  s, pairs)
        assert (rep.ok, rep.checked_symmetry, rep.checked_subadditivity) == (True, 72, 36)
        assert len(calls) <= 6


def test_axioms_build_one_record_per_radicand(monkeypatch):
    """The bench's shape again: the check builds one record per distinct
    radicand, not one per inverse and per composition (1 + 72 + 36)."""
    s = equilateral(3, F(1, 4))
    isos = all_isometries(s)
    pairs = [(g, h) for g in isos for h in isos]
    built = []
    init = PartialIsometry.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PartialIsometry, "__init__", counting)
    for kind in ("linear", "sqrt"):
        built.clear()
        rep = check_graded_axioms(GradedAtomDescriptor(kind, F(3, 2), ("p0", "p1"), ("p0", "p1")),
                                  s, pairs)
        assert (rep.ok, rep.checked_symmetry, rep.checked_subadditivity) == (True, 72, 36)
        assert len(built) <= 6


def test_axioms_refuse_a_pair_over_other_spaces():
    s, t = equilateral(3), equilateral(4)
    D = GradedAtomDescriptor("linear", F(1), ("p0",), ("p0",))
    pair = (PartialIsometry.identity(t), PartialIsometry.identity(s))
    with pytest.raises(GradedError, match="composition spaces do not match"):
        check_graded_axioms(D, s, [pair])


@st.composite
def axiom_cases(draw):
    """A space whose distances lie in [1/2, 1] (so any table is a metric),
    one to three leaves over one or two points each, and pairs of
    permutations, isometries or not."""
    n = draw(st.integers(2, 4))
    pts = [f"p{i}" for i in range(n)]
    dists = {pq: F(draw(st.integers(4, 8)), 8) for pq in combinations(pts, 2)}
    leaves = draw(st.lists(st.tuples(st.sampled_from(("linear", "sqrt")),
                                     st.sampled_from((F(1, 2), F(1), F(3, 2), F(3))),
                                     st.lists(st.sampled_from(pts), min_size=1, max_size=2,
                                              unique=True).map(tuple)),
                           min_size=1, max_size=3))
    perms = st.permutations(pts).map(lambda img: dict(zip(pts, img)))
    pairs = draw(st.lists(st.tuples(perms, perms), max_size=6))
    return pts, dists, leaves, pairs


@given(axiom_cases())
# Leaves that read p0 and p1: g fixes both and equals the identity there,
# and the pair fails symmetry and subadditivity.
@example((["p0", "p1", "p2", "p3"],
          dict(zip(combinations(["p0", "p1", "p2", "p3"], 2),
                   (F(1, 2), F(5, 8), F(3, 4), F(7, 8), F(1), F(1, 2)))),
          [("sqrt", F(1, 2), ("p0",)), ("linear", F(1), ("p1",))],
          [({"p0": "p0", "p1": "p1", "p2": "p3", "p3": "p2"},
            {"p0": "p0", "p1": "p2", "p2": "p3", "p3": "p1"})]))
@settings(max_examples=60, deadline=None)
def test_axiom_report_equals_plain_loops(case):
    pts, dists, leaves, pairs = case
    s = RationalMetricSpace.build(pts, dists)
    atoms = [GradedAtomDescriptor(kind, q, base, base) for kind, q, base in leaves]
    D = atoms[0] if len(atoms) == 1 else GradedMaxDescriptor(tuple(atoms))
    rep = check_graded_axioms(D, s, [(PartialIsometry(s, s, g), PartialIsometry(s, s, h))
                                     for g, h in pairs])
    assert (rep.checked_identity, rep.checked_symmetry, rep.checked_subadditivity,
            [(f.axiom, f.witness) for f in rep.failures]) == \
        graded_axioms_oracle(leaves, s.d, pairs)
