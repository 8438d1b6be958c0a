"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Tolerances are pinned here; nothing is deferred to later calibration.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations, product
from math import comb

from metriclogic.amalgam import amalgamate
from metriclogic.formula import Relation, Signature, borel_level, free_variables, lipschitz
from metriclogic.graded import (GradedAtomDescriptor, GradedMaxDescriptor,
                                GroupMetricContext, PartialIsometry,
                                check_graded_axioms, rho_s)
from metriclogic.metric import RationalMetricSpace
from metriclogic.quenum import qu_enumerate
from metriclogic.reduction import check_g_invariance, encode, random_instance
from metriclogic.structures import FiniteStructure, carries_tables, evaluate, space_isometries
from metriclogic.suite import run_suite, random_gspace, random_table
from metriclogic.syntax import parse
from metriclogic.urysohn import (AnchoredStructure, QuantifierBudget,
                                 eval_urysohn, qf_decide, theta_demo)
from metriclogic.vaught import _delta_scan, _int_tables, _star_scan, vaught_delta, vaught_star

from helpers import (SMALL_SIG, amalgam_instance, random_far_space,
                     random_formula, random_structure, triangle_violations)

MICRO = F(1, 10 ** 6)
MILLI = F(1, 10 ** 3)


def verdict(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_amalgamation():
    start = time.monotonic()
    rng = random.Random(20240)
    failures = 0
    runs = 0
    for trial in range(220):
        n = rng.randint(2, 6)
        q = rng.randint(0, min(2, n - 1))
        plant = q == 2 and n > 2 and rng.random() < 0.25
        host, a_pts, b_space, q, eps = amalgam_instance(rng, n, q, with_geodesic=plant)
        res = amalgamate(host, a_pts, b_space, q, eps)
        runs += 1
        disp = (2 * comb(n - q, 2) + 1) * eps
        if res.displacement != disp:
            failures += 1
        if any(res.space.d(a_pts[i], res.b_names[i]) != disp for i in range(q, n)):
            failures += 1
        if triangle_violations(res.space.points, res.space.d):
            failures += 1
        bmap = res.witness.map
        if any(b_space.d(p, r) != res.space.d(bmap[p], bmap[r])
               for p, r in combinations(b_space.points, 2)):
            failures += 1
    elapsed = time.monotonic() - start
    verdict(1, runs >= 200 and failures == 0 and elapsed < 30,
            f"amalgamation: {runs} instances, {failures} failures, {elapsed:.1f}s")


def test_criterion_2_theta_sqrt():
    start = time.monotonic()
    bad = []
    for k in range(11, 50):
        q = F(k, 100)
        e = theta_demo(q, MICRO)
        # contains sqrt(q) iff lo^2 <= q <= hi^2 (all quantities nonnegative)
        if not (e.lo * e.lo <= q <= e.hi * e.hi and e.width <= MICRO):
            bad.append(k)
    quarter = theta_demo(F(1, 4), MICRO)
    seven_tenths = theta_demo(F(49, 100), MICRO)
    ok_named = quarter.contains(F(1, 2)) and seven_tenths.contains(F(7, 10))
    elapsed = time.monotonic() - start
    verdict(2, not bad and ok_named and elapsed < 10,
            f"theta encloses sqrt(q) on all 39 grid points, {elapsed:.1f}s")


def test_criterion_3_vaught_lemma_suite():
    report = run_suite(seed=31337, instances=50, max_points=12,
                       max_group=24, max_denominator=8)
    verdict(3, report.instances >= 50 and report.ok,
            f"lemma suite: {report.instances} group spaces, "
            f"{report.checks} checks, {len(report.violations)} violations")


def test_criterion_4_definition_scan_agreement():
    rng = random.Random(31337)
    mismatches = 0
    checked = 0
    for _ in range(50):
        X = random_gspace(rng, 12, 24)
        phi = random_table(rng, X.points, 8)
        J = random_table(rng, X.elements, 8)
        E, P, Jk, grid = _int_tables(phi, J)
        delta = vaught_delta(X, phi, J)
        star = vaught_star(X, phi, J)
        for x in X.points:
            checked += 2
            pairs = [(P[X.act(h, x)], Jk[h]) for h in X.elements]
            if F(_delta_scan(pairs, grid, E), E) != delta[x]:
                mismatches += 1
            if F(_star_scan(pairs, grid, E), E) != star[x]:
                mismatches += 1
    verdict(4, checked > 0 and mismatches == 0,
            f"threshold scan equals closed form on {checked} table entries")


def test_criterion_5_lipschitz_soundness():
    rng = random.Random(555)
    violations = 0
    samples = 0
    while samples < 10 ** 4:
        M = random_structure(rng, rng.randint(2, 6), SMALL_SIG)
        phi = random_formula(rng, SMALL_SIG, ["x", "y"], rng.randint(0, 4))
        coeff = lipschitz(phi, SMALL_SIG)
        fv = sorted(free_variables(phi))
        pts = M.space.points
        for _ in range(20):
            a = {v: rng.choice(pts) for v in fv}
            b = {v: rng.choice(pts) for v in fv}
            gap = abs(evaluate(phi, M, a) - evaluate(phi, M, b))
            move = max((M.space.d(a[v], b[v]) for v in fv), default=F(0))
            if gap > coeff * move:
                violations += 1
            samples += 1
    verdict(5, samples >= 10 ** 4 and violations == 0,
            f"modulus bound exact on {samples} assignment pairs")


def test_criterion_6_urysohn_enclosures():
    sig_s = Signature((), ("s",))
    one_pt = AnchoredStructure(RationalMetricSpace.build(("s",), {}))
    sup_e = eval_urysohn(parse("(sup x (d s x))", sig_s), one_pt, {},
                         QuantifierBudget(F(1, 1024), 0))
    ok_sup = sup_e.contains(F(1)) and sup_e.width <= MILLI

    sig_ab = Signature((), ("a", "b"))
    ab = AnchoredStructure(RationalMetricSpace.build(
        ("a", "b"), {("a", "b"): F(3, 5)}))
    inf_e = eval_urysohn(parse("(inf x (max (d a x) (d b x)))", sig_ab), ab, {},
                         QuantifierBudget(F(1, 1280), 0))
    ok_inf = inf_e.contains(F(3, 10)) and inf_e.width <= MILLI

    pool = []
    for inner in ("(d a x)", "(d b x)", "(min (d a x) (d b x))",
                  "(max (d a x) (d b x))", "(dotplus (d a x) (d b x))",
                  "(dotminus (d a x) (d b x))", "(absdiff (d a x) (d b x))",
                  "(neg (d a x))", "(half (d a x))", "(scale 2 (d b x))"):
        pool.append(f"(sup x {inner})")
        pool.append(f"(inf x {inner})")
    assert len(pool) == 20
    ok_nested = True
    for text in pool:
        phi = parse(text, sig_ab)
        coarse = eval_urysohn(phi, ab, {}, QuantifierBudget(F(1, 10), 1))
        fine = eval_urysohn(phi, ab, {}, QuantifierBudget(F(1, 10), 3))
        if not (coarse.contains_enclosure(fine) and fine.width <= coarse.width):
            ok_nested = False
    verdict(6, ok_sup and ok_inf and ok_nested,
            f"sup width {float(sup_e.width):.2e}, inf width {float(inf_e.width):.2e}, "
            f"20-formula pool nested")


def test_criterion_7_qf_decidability():
    rng = random.Random(707)
    agreements = 0
    for _ in range(100):
        fragment = random_far_space(rng, rng.randint(2, 5), lo=F(1, 4))
        seed_frag, _ = qu_enumerate(fragment.restrict(fragment.points[:2]), 2, 1)
        frag = fragment if rng.random() < 0.5 else seed_frag
        sig = Signature((), frag.points)
        M = FiniteStructure(frag, sig, {}, {p: p for p in frag.points})
        phi = random_formula(rng, sig, [], rng.randint(0, 3))
        if qf_decide(phi, frag) == evaluate(phi, M, {}):
            agreements += 1
    verdict(7, agreements == 100,
            f"qf decision agrees with finite evaluation on {agreements}/100 sentences")


def test_criterion_8_reduction_soundness():
    rng = random.Random(808)
    discrepancies = 0
    invariance_failures = 0
    instances = 0
    pairs = 0
    budgets = [(4, 6, 24)] * 8 + [(5, 8, 8)] * 4
    for max_y, max_x, max_group in budgets:
        inst = random_instance(rng, max_y=max_y, max_x=max_x, max_group=max_group)
        instances += 1
        assert len(inst.x_space.points) <= 8 and len(inst.y_space.points) <= 5
        encodings = {x: encode(inst, x) for x in inst.x_space.points}
        isos = space_isometries(inst.y_space)
        for x, xp in product(inst.x_space.points, repeat=2):
            same = any(g.x_map[x] == xp for g in inst.elements)
            iso = any(carries_tables(encodings[x], encodings[xp], i) for i in isos)
            pairs += 1
            if same != iso:
                discrepancies += 1
        if check_g_invariance(inst, inst.x_space.points[0]):
            invariance_failures += 1
    verdict(8, discrepancies == 0 and invariance_failures == 0,
            f"orbit equivalence = encoded isomorphism on {pairs} pairs over "
            f"{instances} instances; transport identity exact")


def test_criterion_9_borel_table():
    sig = Signature((Relation("R", 1),), ("c",))
    table = [
        ("(d x y)", "<", 1),                    # atomic sublevel sets are open
        ("(d x y)", ">", 2),                    # superlevel: complement bump
        ("(neg (d x y))", "<", 2),              # negation bump
        ("(neg (d x y))", ">", 1),              # dual of an atom
        ("(inf x (R x))", "<", 1),              # inf preserves the class
        ("(sup x (R x))", "<", 2),              # union-of-intersections step
        ("(sup x (inf y (d x y)))", "<", 2),
        ("(min (neg (R c)) (d x y))", "<", 2),  # worst child
        ("(inf x (neg (R x)))", "<", 2),
        ("(sup x (neg (inf y (d x y))))", "<", 4),
    ]
    wrong = []
    for text, cmp, expected in table:
        level = borel_level(parse(text, sig), cmp)
        if level.class_kind != "Sigma" or level.index != expected:
            wrong.append(text)
    verdict(9, not wrong, f"analyzer matches the hand table on {len(table)} formulas")


def _corpus_spaces():
    rng = random.Random(1010)
    eq = lambda n, d: RationalMetricSpace.build(
        tuple(f"p{i}" for i in range(n)),
        {pq: d for pq in combinations([f"p{i}" for i in range(n)], 2)})
    two_pairs = RationalMetricSpace.build(
        ("a", "b", "c", "d", "e", "f"),
        {**{pq: F(1, 2) for pq in combinations(("a", "b", "c", "d", "e", "f"), 2)},
         ("a", "b"): F(1, 4), ("c", "d"): F(1, 4), ("e", "f"): F(1, 4)})
    return [eq(2, F(1, 2)), eq(3, F(1, 2)), eq(4, F(1, 4)),
            random_far_space(rng, 5), random_far_space(rng, 6), two_pairs]


def test_criterion_10_graded_axioms_and_rho():
    failures = 0
    checked_pairs = 0
    for space in _corpus_spaces():
        isos = [PartialIsometry(space, space, m) for m in space_isometries(space)]
        pairs = [(g, h) for g in isos for h in isos]
        p0 = space.points[0]
        descriptors = [
            GradedAtomDescriptor("linear", F(2), (p0,), (p0,)),
            GradedAtomDescriptor("sqrt", F(1), space.points[:2], space.points[:2]),
            GradedAtomDescriptor("sqrt", F(3, 2), (p0,), (p0,)),
            GradedMaxDescriptor((
                GradedAtomDescriptor("sqrt", F(1), (p0,), (p0,)),
                GradedAtomDescriptor("linear", F(1, 2), space.points[:2],
                                     space.points[:2]))),
        ]
        for D in descriptors:
            rep = check_graded_axioms(D, space, pairs)
            checked_pairs += rep.checked_subadditivity
            if not rep.ok:
                failures += 1
        ctx = GroupMetricContext(space, space.points)
        sample = isos[: min(4, len(isos))]
        for f in sample:
            for g in sample:
                for h in sample:
                    for k in range(len(space.points) + 1):
                        left = rho_s(f.compose(g), f.compose(h), ctx, k)
                        base = rho_s(g, h, ctx, k)
                        if (left.lo, left.hi) != (base.lo, base.hi):
                            failures += 1
    verdict(10, failures == 0,
            f"subgroup axioms exact on {checked_pairs} composable pairs; "
            f"group metric left-invariant at every truncation")
