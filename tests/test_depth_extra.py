"""Deeper checks: independent closure oracle, 3-deep quantifiers, error
paths, certificate contents, and catalog byte-exactness for every kind."""

import random
from fractions import Fraction as F

import pytest

from metriclogic import textio
from metriclogic.catalog import Catalog
from metriclogic.formula import Signature
from metriclogic.graded import (GradedError, GroupMetricContext,
                                PartialIsometry, oligo_probe, rho_s)
from metriclogic.metric import RationalMetricSpace
from metriclogic.rational import ONE, dot_add, dot_scale, dot_sub
from metriclogic.structures import (FiniteStructure, StructureError,
                                    canonical_enumeration, delta_seq,
                                    space_isometries)
from metriclogic.syntax import parse
from metriclogic.urysohn import AnchoredStructure, QuantifierBudget, eval_urysohn
from metriclogic.vaught import (FiniteGSpace, characteristic, nice_closure,
                                vaught_delta, vaught_star)

from helpers import SMALL_SIG, random_structure


def closure_oracle(X, family, cosets, scales):
    """Budget-free saturation computed with sets, for comparison."""
    def vec(t):
        return tuple(t[p] for p in X.points)

    def tab(v):
        return dict(zip(X.points, v))

    known = {vec(t) for t in family}
    while True:
        new = set()
        for v in known:
            new.add(tuple(ONE - a for a in v))
            for q in scales:
                new.add(tuple(dot_scale(F(q), a) for a in v))
            for rho in cosets:
                new.add(vec(vaught_delta(X, tab(v), rho)))
                new.add(vec(vaught_star(X, tab(v), rho)))
        for v in known:
            for w in known:
                new.add(tuple(min(a, b) for a, b in zip(v, w)))
                new.add(tuple(max(a, b) for a, b in zip(v, w)))
                new.add(tuple(abs(a - b) for a, b in zip(v, w)))
                new.add(tuple(dot_sub(a, b) for a, b in zip(v, w)))
                new.add(tuple(dot_add(a, b) for a, b in zip(v, w)))
        if new <= known:
            return known
        known |= new


def test_nice_closure_matches_oracle_at_fixed_point():
    X = FiniteGSpace(
        ("x", "y"), {"e": {"x": "x", "y": "y"}, "s": {"x": "y", "y": "x"}})
    family = [characteristic(X.points, ["x"]), {"x": F(1, 2), "y": F(1, 2)}]
    cosets = [{"e": F(0), "s": F(1, 2)}]
    scales = [F(2)]
    res = nice_closure(X, family, cosets, budget=10 ** 6, scales=scales)
    assert res.fixed_point
    assert set(res.family) == closure_oracle(X, family, cosets, scales)


def test_three_deep_quantifiers():
    # picking y = x kills the inner difference, so the true value is 0; the
    # per-level error terms stack to at most 3 * mesh on the hi side
    space = RationalMetricSpace.build(("s",), {})
    sig = Signature((), ("s",))
    phi = parse("(sup x (inf y (sup z (dotminus (d x z) (d y z)))))", sig)
    for mesh in (F(1, 4), F(1, 8)):
        e = eval_urysohn(phi, AnchoredStructure(space), {},
                         QuantifierBudget(mesh, 0))
        assert e.lo == 0
        assert e.hi <= 3 * mesh


def test_oligo_certificate_contents():
    rng = random.Random(3)
    M = random_structure(rng, 3, SMALL_SIG)
    eps = F(1, 2)
    res = oligo_probe(M, 1, eps)
    for tup, (rep, dist) in res.certificate.items():
        assert rep in res.family
        assert dist <= eps


def test_rho_s_insufficient_domain():
    space = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(1, 2)})
    ctx = GroupMetricContext(space, space.points)
    partial = PartialIsometry.build(space, space, {"a": "a"})
    with pytest.raises(GradedError):
        rho_s(partial, partial, ctx, 2)


def test_delta_seq_mismatched_structures():
    rng = random.Random(5)
    M = random_structure(rng, 3, SMALL_SIG)
    N = random_structure(rng, 4, SMALL_SIG)
    with pytest.raises(StructureError):
        delta_seq(M, N, canonical_enumeration(SMALL_SIG, M.space), 1)


def test_catalog_byte_exact_for_every_kind(tmp_path):
    rng = random.Random(8)
    from metriclogic.reduction import random_instance
    from metriclogic.graded import GradedMaxDescriptor, GradedAtomDescriptor

    M = random_structure(rng, 3, SMALL_SIG)
    inst = random_instance(rng, max_y=3, max_x=4)
    iso = space_isometries(M.space)[0]
    descriptor = GradedMaxDescriptor((
        GradedAtomDescriptor("sqrt", F(1, 2), (M.space.points[0],),
                             (M.space.points[0],)),
        GradedAtomDescriptor("linear", F(2), (M.space.points[1],),
                             (M.space.points[1],))))
    gspace_text = textio.serialize_gspace(
        FiniteGSpace(
            ("x", "y"), {"e": {"x": "x", "y": "y"}, "s": {"x": "y", "y": "x"}}),
        {"phi": {"x": F(0), "y": F(1, 2)}}, {"j": {"e": F(0), "s": F(1)}})

    artifacts = {
        "space": textio.serialize_space(M.space),
        "structure": textio.serialize_structure(M),
        "formula": "(sup x (min (d x y) 1/2))\n",
        "isometry": "\n".join(f"map {p} {q}" for p, q in sorted(iso.items())) + "\n",
        "descriptor": textio.serialize_descriptor(descriptor),
        "gspace": gspace_text,
        "instance": textio.serialize_instance(inst),
        "enumeration": "t P a0\nt E a0 a1\n",
    }
    cat = Catalog(tmp_path)
    for kind, text in artifacts.items():
        cat.put(f"it-{kind}", kind, text)
        stored_kind, stored = cat.get(f"it-{kind}")
        assert stored_kind == kind
        assert stored == text, kind
