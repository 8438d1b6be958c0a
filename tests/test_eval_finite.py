import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from metriclogic.formula import Const, Relation, Signature, lipschitz
from metriclogic.metric import RationalMetricSpace
from metriclogic.scprobe import sc_probe
from metriclogic.structures import (FiniteStructure, StructureError,
                                    canonical_enumeration, delta_seq,
                                    evaluate, mod_member)
from metriclogic.syntax import parse

from helpers import SMALL_SIG, random_formula, random_structure


def two_point(d=F(1, 2)):
    space = RationalMetricSpace.build(("p", "q"), {("p", "q"): d})
    sig = Signature((Relation("R", 1),), ("a",))
    tables = {"R": {("p",): F(1, 4), ("q",): F(3, 4)}}
    return FiniteStructure(space, sig, tables, {"a": "p"})


def test_eval_examples():
    M = two_point()
    assert evaluate(parse("(neg 1)", M.sig), M) == 0
    assert evaluate(parse("(sup x (d a x))", M.sig), M) == F(1, 2)
    assert evaluate(parse("(dotplus 3/4 1/2)", M.sig), M) == 1
    assert evaluate(parse("(dotminus 1/4 3/4)", M.sig), M) == 0
    assert evaluate(parse("(half (R q))", M.sig), M, {"q": "q"}) == F(3, 8)


def test_eval_unbound_variable():
    M = two_point()
    with pytest.raises(StructureError):
        evaluate(parse("(d x y)", M.sig), M, {"x": "p"})


def test_eval_lattice_exact():
    rng = random.Random(12)
    for _ in range(20):
        M = random_structure(rng, 4, SMALL_SIG)
        phi = random_formula(rng, SMALL_SIG, ["x"], 2)
        psi = random_formula(rng, SMALL_SIG, ["x"], 2)
        for p in M.space.points:
            env = {"x": p}
            a, b = evaluate(phi, M, env), evaluate(psi, M, env)
            from metriclogic.formula import Max, Min
            assert evaluate(Min(phi, psi), M, env) == min(a, b)
            assert evaluate(Max(phi, psi), M, env) == max(a, b)


def test_delta_seq_basics():
    M = two_point()
    N = two_point()
    enum = canonical_enumeration(M.sig, M.space)
    e = delta_seq(M, N, enum, 2)
    assert e.lo == 0 and e.hi == F(1, 4)
    assert e.contains(F(0))
    # k = 0: empty partial sum
    e0 = delta_seq(M, N, enum, 0)
    assert (e0.lo, e0.hi) == (0, 1)


def test_delta_seq_weight_of_first_tuple():
    M = two_point()
    tables = {"R": {("p",): F(3, 4), ("q",): F(3, 4)}}
    N = FiniteStructure(M.space, M.sig, tables, {"a": "p"})
    enum = canonical_enumeration(M.sig, M.space)   # first tuple is ("p",)
    e = delta_seq(M, N, enum, 1)
    assert e.lo == F(1, 2) * F(1, 2)               # 2^-1 * |1/4 - 3/4|


def test_delta_seq_pseudometric():
    rng = random.Random(3)
    space = random_structure(rng, 3, SMALL_SIG).space
    ms = []
    for _ in range(3):
        m = random_structure(rng, 3, SMALL_SIG)
        ms.append(FiniteStructure(space, SMALL_SIG, m.tables, {}))
    enum = canonical_enumeration(SMALL_SIG, space)
    k = min(6, len(enum))
    a, b, c = ms
    assert delta_seq(a, b, enum, k).lo == delta_seq(b, a, enum, k).lo
    assert delta_seq(a, c, enum, k).lo <= \
        delta_seq(a, b, enum, k).lo + delta_seq(b, c, enum, k).lo
    assert delta_seq(a, a, enum, k).lo == 0


def test_mod_member_examples():
    M = two_point(F(3, 10))
    assert mod_member(M, Const(F(0)), {}, F(1, 2), "<")
    assert not mod_member(M, Const(F(1, 2)), {}, F(1, 2), "<")      # strict
    assert mod_member(M, parse("(d p q)", M.sig), {"p": "p", "q": "q"},
                      F(1, 4), ">")


def test_mod_member_consistency():
    rng = random.Random(8)
    for _ in range(30):
        M = random_structure(rng, 3, SMALL_SIG)
        phi = random_formula(rng, SMALL_SIG, ["x"], 2)
        env = {"x": rng.choice(M.space.points)}
        eps = F(rng.randint(0, 8), 8)
        below = mod_member(M, phi, env, eps, "<")
        above = mod_member(M, phi, env, eps, ">")
        assert not (below and above)


def test_modulus_compliance_vs_lipschitz():
    """Compliance of the tables is exactly what lipschitz soundness needs."""
    space = RationalMetricSpace.build(("p", "q"), {("p", "q"): F(1, 4)})
    sig = Signature((Relation("R", 1),), ())
    good = FiniteStructure(space, sig, {"R": {("p",): F(0), ("q",): F(1, 4)}}, {})
    assert not good.modulus_violations()
    bad = FiniteStructure(space, sig, {"R": {("p",): F(0), ("q",): F(1, 2)}}, {})
    assert bad.modulus_violations()
    phi = parse("(R x)", sig)
    coeff = lipschitz(phi, sig)
    gap = abs(evaluate(phi, bad, {"x": "p"}) - evaluate(phi, bad, {"x": "q"}))
    assert gap > coeff * space.d("p", "q")
    gap_good = abs(evaluate(phi, good, {"x": "p"}) - evaluate(phi, good, {"x": "q"}))
    assert gap_good <= coeff * space.d("p", "q")


def test_random_structures_are_compliant():
    rng = random.Random(77)
    for _ in range(10):
        M = random_structure(rng, rng.randint(2, 4), SMALL_SIG)
        assert not M.modulus_violations()


# ------------------------------------------------------------- sc probe

def discrete_two_point():
    space = RationalMetricSpace.build(("u", "v"), {("u", "v"): F(1)})
    return FiniteStructure(space, Signature(), {}, {})


def test_probe_single_condition_cover():
    M = discrete_two_point()
    rep = sc_probe(M, 1, F(1, 2), [Const(F(0))], depth=1)
    assert rep.status == "witness"
    assert len(rep.family) == 1 and rep.family[0].threshold == 0


def test_probe_empty_pool():
    M = discrete_two_point()
    rep = sc_probe(M, 1, F(1, 2), [], depth=1)
    assert rep.status == "counterexample"


def test_probe_groups_near_pair():
    dists = {("p1", "p2"): F(1, 10), ("p1", "p3"): F(9, 10), ("p2", "p3"): F(9, 10)}
    space = RationalMetricSpace.build(("p1", "p2", "p3"), dists)
    sig = Signature((), space.points)
    M = FiniteStructure(space, sig, {}, {p: p for p in space.points})
    pool = [parse(f"(d x1 {p})", sig) for p in space.points]
    rep = sc_probe(M, 1, F(1, 4), pool, depth=1)
    assert rep.status == "witness"
    assert len(rep.family) == 2
    near = [c for c in rep.family if c.threshold == F(1, 10)]
    assert near, "expected a condition grouping the near pair"


def test_probe_inconclusive_at_budget():
    M = discrete_two_point()
    rep = sc_probe(M, 1, F(1, 2), [Const(F(0)), Const(F(1, 2))], depth=1,
                   max_families=1, max_family_size=1)
    # the single budgeted family is examined, then the search gives up
    assert rep.status in ("witness", "inconclusive")
    rep2 = sc_probe(M, 1, F(1, 2), [Const(F(1, 2)), Const(F(1))], depth=0,
                    max_families=0)
    assert rep2.status == "inconclusive"


def test_probe_counterexample_pinned():
    """A counterexample that turns on the strict eps test (d(a, c) = eps):
    the failing tuple, its Delta and the families examined are pinned."""
    pts = ("a", "b", "c", "d")
    dists = dict(zip(combinations(pts, 2), map(F, ("3/4", "1/4", "1/2", "3/4", "3/4", "1/4"))))
    sig = Signature((Relation("P", 1),), ())
    P = {("a",): F(1), ("b",): F(1, 2), ("c",): F(0), ("d",): F(1, 2)}
    M = FiniteStructure(RationalMetricSpace.build(pts, dists), sig, {"P": P}, {})
    pool = [parse(f, sig) for f in ("(P x1)", "(d x1 x2)", "(P x2)", "(max (P x1) (P x2))")]
    rep = sc_probe(M, 1, F(1, 4), pool, depth=2)
    assert (rep.status, rep.failing_tuple, rep.families_examined) == ("counterexample", ("a",), 7)
    assert [str(c) for c in rep.failing_delta] == ["(P x1) <= 1", "(P x1) <= 1/2"]


PROBE_REPRO = """
from fractions import Fraction as F
from itertools import combinations
from metriclogic.formula import Relation, Signature
from metriclogic.metric import RationalMetricSpace
from metriclogic.scprobe import sc_probe
from metriclogic.structures import FiniteStructure
from metriclogic.syntax import parse
pts = ("a", "b", "c", "e")
space = RationalMetricSpace.build(pts, {pq: F(1, 2) for pq in combinations(pts, 2)})
sig = Signature((Relation("P", 1),), ())
P = {("a",): F(0), ("b",): F(0), ("c",): F(1, 2), ("e",): F(1, 2)}
M = FiniteStructure(space, sig, {"P": P}, {})
pool = [parse(f, sig) for f in ("(P x1)", "(d x1 x2)", "(P x2)")]
rep = sc_probe(M, 1, F(1, 4), pool, depth=1)
print(rep.status, rep.failing_tuple)
"""


def test_probe_counterexample_does_not_depend_on_the_hash_seed():
    """The failing tuple is the first in point order, under every hash seed
    (string hashing orders the sets of point-name tuples differently)."""
    src = Path(__file__).resolve().parent.parent / "src"
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", PROBE_REPRO], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "counterexample ('c',)\n", (seed, proc.stdout)


def naive_eval(phi, M, env):
    """Independent evaluator: immutable environments, no shared state."""
    from metriclogic.formula import (AbsDiff, AtomD, AtomR, Const, ConstName,
                                     DotMinus, DotPlus, DotScale, Half, Inf,
                                     Max, Min, Neg, Sup, Var)

    def term(t, env):
        return env[t.name] if isinstance(t, Var) else M.constants[t.name]

    def go(f, env):
        if isinstance(f, Const):
            return F(f.value)
        if isinstance(f, AtomD):
            return M.space.d(term(f.left, env), term(f.right, env))
        if isinstance(f, AtomR):
            return M.tables[f.name][tuple(term(t, env) for t in f.args)]
        if isinstance(f, Half):
            return go(f.body, env) / 2
        if isinstance(f, Neg):
            return 1 - go(f.body, env)
        if isinstance(f, DotScale):
            return min(F(f.factor) * go(f.body, env), F(1))
        if isinstance(f, Min):
            return min(go(f.left, env), go(f.right, env))
        if isinstance(f, Max):
            return max(go(f.left, env), go(f.right, env))
        if isinstance(f, AbsDiff):
            return abs(go(f.left, env) - go(f.right, env))
        if isinstance(f, DotMinus):
            return max(go(f.left, env) - go(f.right, env), F(0))
        if isinstance(f, DotPlus):
            return min(go(f.left, env) + go(f.right, env), F(1))
        if isinstance(f, Sup):
            return max(go(f.body, {**env, f.var: p}) for p in M.space.points)
        if isinstance(f, Inf):
            return min(go(f.body, {**env, f.var: p}) for p in M.space.points)
        raise AssertionError(f)

    return go(phi, dict(env))


def test_evaluate_matches_independent_evaluator():
    rng = random.Random(4242)
    for _ in range(150):
        M = random_structure(rng, rng.randint(2, 4), SMALL_SIG)
        phi = random_formula(rng, SMALL_SIG, ["x", "y", "z"], rng.randint(0, 4))
        from metriclogic.formula import free_variables
        env = {v: rng.choice(M.space.points) for v in free_variables(phi)}
        assert evaluate(phi, M, env) == naive_eval(phi, M, env)


def test_transport_is_substitution():
    """Evaluating in the moved structure equals pulling parameters back."""
    rng = random.Random(2424)
    from metriclogic.structures import automorphisms
    for _ in range(10):
        M = random_structure(rng, rng.randint(2, 4), SMALL_SIG)
        phi = random_formula(rng, SMALL_SIG, ["x"], rng.randint(0, 3))
        from metriclogic.formula import free_variables
        fv = sorted(free_variables(phi))
        for a in automorphisms(M):
            inv = {v: k for k, v in a.items()}
            moved = M.transport(a)
            env = {v: rng.choice(M.space.points) for v in fv}
            pulled = {v: inv[p] for v, p in env.items()}
            assert evaluate(phi, moved, env) == evaluate(phi, M, pulled)
