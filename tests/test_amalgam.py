import random
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from metriclogic import amalgam
from metriclogic.amalgam import HypothesisError, amalgamate, check_hypotheses
from metriclogic.metric import MetricError, RationalMetricSpace

from helpers import amalgam_instance, triangle_violations


def two_point(d):
    return RationalMetricSpace.build(("a1", "a2"), {("a1", "a2"): F(*d)})


def test_worked_example_n2():
    host = two_point((1, 2))
    b = RationalMetricSpace.build(("b1", "b2"), {("b1", "b2"): F(9, 20)})
    res = amalgamate(host, ("a1", "a2"), b, 0, F(1, 10))
    s = res.space
    assert res.displacement == F(3, 10)
    assert s.d("a1", "b1") == s.d("a2", "b2") == F(3, 10)
    # first cross pair gets min(d_A, d_B) - eps/2
    assert s.d("a1", "b2") == s.d("b1", "a2") == F(9, 20) - F(1, 20) == F(2, 5)
    assert not triangle_violations(s.points, s.d)
    assert res.witness.check().ok


def test_zero_deviation_still_displaced():
    host = two_point((1, 2))
    b = RationalMetricSpace.build(("b1", "b2"), {("b1", "b2"): F(1, 2)})
    res = amalgamate(host, ("a1", "a2"), b, 0, F(1, 100))
    assert res.space.d("a1", "b1") == 3 * F(1, 100)
    assert res.space.d("a2", "b2") == 3 * F(1, 100)


def test_shared_points_are_identified():
    rng = random.Random(11)
    host, a_pts, b_space, q, eps = amalgam_instance(rng, 3, 1)
    res = amalgamate(host, a_pts, b_space, q, eps)
    assert res.b_names[0] == a_pts[0]
    assert len(res.space.points) == 3 + 2
    disp = (2 * comb(2, 2) + 1) * eps
    for i in (1, 2):
        assert res.space.d(a_pts[i], res.b_names[i]) == disp == 3 * eps
    assert not triangle_violations(res.space.points, res.space.d)


def test_a_broken_output_raises_what_build_raises(monkeypatch):
    """The output's rows are checked once, when its table is built: with
    the margin eps/2 tripled, the copies sit at 9/10 and the cross pairs at
    3/10, a triangle breaks, and the report is the one `build` gives."""
    host = two_point((1, 2))
    b = RationalMetricSpace.build(("b1", "b2"), {("b1", "b2"): F(9, 20)})
    real = amalgam._hypotheses

    def tripled(*args):
        bad, (E, A, B, h) = real(*args)
        return bad, (E, A, B, 3 * h)
    monkeypatch.setattr(amalgam, "_hypotheses", tripled)
    with pytest.raises(MetricError) as want:
        RationalMetricSpace.build(("a1", "a2", "b1", "b2"), {
            ("a1", "a2"): F(1, 2), ("b1", "b2"): F(9, 20), ("a1", "b1"): F(9, 10),
            ("a2", "b2"): F(9, 10), ("a1", "b2"): F(3, 10), ("a2", "b1"): F(3, 10)})
    with pytest.raises(MetricError) as got:
        amalgamate(host, ("a1", "a2"), b, 0, F(1, 10))
    assert type(got.value) is MetricError
    assert str(got.value) == str(want.value)


def test_hypothesis_failure_reported_in_detail():
    host = two_point((1, 2))
    b = RationalMetricSpace.build(("b1", "b2"), {("b1", "b2"): F(9, 20)})
    # eps too large: 3*eps >= 1/2
    bad = check_hypotheses(host, ("a1", "a2"), b, 0, F(1, 5))
    assert bad and any("not <" in str(v) for v in bad)
    with pytest.raises(HypothesisError):
        amalgamate(host, ("a1", "a2"), b, 0, F(1, 5))


def test_boundary_equality_rejected():
    # margin exactly equal to the displacement bound is refused
    host = two_point((3, 10))
    b = RationalMetricSpace.build(("b1", "b2"), {("b1", "b2"): F(3, 10)})
    bad = check_hypotheses(host, ("a1", "a2"), b, 0, F(1, 10))
    assert bad


def test_deviation_bound_checked():
    host = two_point((1, 2))
    b = RationalMetricSpace.build(("b1", "b2"), {("b1", "b2"): F(3, 4)})
    bad = check_hypotheses(host, ("a1", "a2"), b, 0, F(1, 10))
    assert any("d_B - d_A" in str(v) for v in bad)


def test_geodesic_with_two_displaced_points_rejected():
    pts = ("a0", "a1", "a2")
    host = RationalMetricSpace.build(
        pts, {("a0", "a1"): F(1, 2), ("a1", "a2"): F(1, 2), ("a0", "a2"): F(1)})
    renamed = RationalMetricSpace.build(
        ("b0", "b1", "b2"),
        {("b0", "b1"): F(1, 2), ("b1", "b2"): F(1, 2), ("b0", "b2"): F(1)})
    for q in (0, 1):
        bad = check_hypotheses(host, pts, renamed, q, F(1, 100))
        assert any("geodesic" in str(v) for v in bad)


def test_hypothesis_report_lists_margins_before_geodesics():
    """Every non-geodesic margin failure comes before every geodesic
    refusal, whatever the order of their triples."""
    pts = ("a0", "a1", "a2", "a3")
    half = F(1, 2)
    dists = {("a0", "a1"): half, ("a1", "a2"): half, ("a1", "a3"): half,
             ("a2", "a3"): half, ("a0", "a2"): F(1), ("a0", "a3"): F(3, 5)}
    host = RationalMetricSpace.build(pts, dists)
    renamed = RationalMetricSpace.build(
        ("b0", "b1", "b2", "b3"),
        {(p.replace("a", "b"), q.replace("a", "b")): d for (p, q), d in dists.items()})
    bad = check_hypotheses(host, pts, renamed, 0, F(1, 100))
    assert [str(v) for v in bad] == [
        "triangle a3 a0 a2: non-geodesic margin 1/10 not > 13/100",
        "triangle a0 a1 a2: geodesic triple with two displaced points"]


def test_witness_preserves_b_exactly():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(2, 5)
        q = rng.randint(0, min(2, n - 1))
        host, a_pts, b_space, q, eps = amalgam_instance(rng, n, q)
        res = amalgamate(host, a_pts, b_space, q, eps)
        for p, r in combinations(b_space.points, 2):
            assert b_space.d(p, r) == res.space.d(res.witness.map[p], res.witness.map[r])


def test_allowed_geodesic_with_fixed_endpoints_builds():
    rng = random.Random(37)
    for _ in range(15):
        n = rng.randint(3, 6)
        host, a_pts, b_space, q, eps = amalgam_instance(rng, n, 2, with_geodesic=True)
        res = amalgamate(host, a_pts, b_space, q, eps)
        assert not triangle_violations(res.space.points, res.space.d)


def test_first_cross_pair_gets_half_eps_margin():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(3, 6)
        q = rng.randint(0, min(2, n - 2))
        host, a_pts, b_space, q, eps = amalgam_instance(rng, n, q)
        res = amalgamate(host, a_pts, b_space, q, eps)
        pairs = [(i, j) for i in range(q, n) for j in range(i + 1, n)]
        lvals = {(i, j): min(host.d(a_pts[i], a_pts[j]),
                             b_space.d(b_space.points[i], b_space.points[j]))
                 for i, j in pairs}
        first = min(pairs, key=lambda ij: (lvals[ij], ij))
        i, j = first
        assert res.space.d(a_pts[i], res.b_names[j]) == lvals[first] - eps / 2


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 6), st.integers(0, 2))
def test_cross_pairs_get_half_eps_and_copies_the_displacement(seed, n, q):
    """Every cross pair is min(d_A, d_B) - eps/2, every displaced copy sits
    at (2*C(n-q,2)+1)*eps from its original, and B embeds unchanged."""
    host, a_pts, b_space, q, eps = amalgam_instance(random.Random(seed), n, min(q, n - 1))
    res = amalgamate(host, a_pts, b_space, q, eps)
    d, bs, names = res.space.d, b_space.points, res.b_names
    disp = (2 * comb(n - q, 2) + 1) * eps
    assert res.displacement == disp
    for i in range(q, n):
        assert d(a_pts[i], names[i]) == disp
    for i, j in combinations(range(q, n), 2):
        low = min(host.d(a_pts[i], a_pts[j]), b_space.d(bs[i], bs[j])) - eps / 2
        assert d(a_pts[i], names[j]) == d(names[i], a_pts[j]) == low
    for i, j in combinations(range(n), 2):
        assert d(names[i], names[j]) == b_space.d(bs[i], bs[j])
        assert d(a_pts[i], a_pts[j]) == host.d(a_pts[i], a_pts[j])
    assert not triangle_violations(res.space.points, d)


def test_hypothesis_report_prints_lowest_terms():
    """The values share the denominator 60 (with eps/2 = 1/20), and none has
    it: the report prints each in its own lowest terms."""
    host = RationalMetricSpace.build(
        ("a0", "a1", "a2"), {("a0", "a1"): F(1, 2), ("a0", "a2"): F(1, 3), ("a1", "a2"): F(5, 6)})
    b = RationalMetricSpace.build(
        ("b0", "b1", "b2"), {("b0", "b1"): F(7, 10), ("b0", "b2"): F(5, 12), ("b1", "b2"): F(11, 15)})
    pts, eps = ("a0", "a1", "a2"), F(1, 10)
    assert [str(v) for v in check_hypotheses(host, pts, b, 0, eps)] == [
        "range a0 a1: (2C+1)eps = 7/10 not < d = 1/2",
        "range b0 b1: |d_B - d_A| = 1/5 > eps",
        "range a0 a2: (2C+1)eps = 7/10 not < d = 1/3",
        "triangle a2 a0 a1: non-geodesic margin 2/3 not > 7/10",
        "triangle a0 a1 a2: geodesic triple with two displaced points"]
    report = [str(v) for v in check_hypotheses(host, pts, b, 2, eps)]
    assert report == ["range b0 b1: |d_B - d_A| = 1/5 > eps",
                      "symmetry b0 b1: B must agree with A on the first 2 points"]
    with pytest.raises(HypothesisError) as err:
        amalgamate(host, pts, b, 2, eps)
    assert str(err.value) == "; ".join(report)
