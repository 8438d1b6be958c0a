import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from metriclogic import metric, quenum
from metriclogic.metric import MetricError, RationalMetricSpace
from metriclogic.quenum import farey_values, qu_enumerate

from helpers import metric_ok, qu_enumerate_oracle, random_far_space


def singleton():
    return RationalMetricSpace.build(("a",), {})


def admissible_vectors_oracle(space, subset, bound):
    """Direct enumeration of admissible vectors, independent of the library."""
    values = [F(num, den) for den in range(1, bound + 1) for num in range(1, den + 1)]
    values = sorted(set(values))
    out = []

    def rec(prefix):
        if len(prefix) == len(subset):
            out.append(tuple(prefix))
            return
        for v in values:
            ok = True
            for p, w in zip(subset, prefix):
                d = space.d(p, subset[len(prefix)])
                if abs(v - w) > d or d > v + w:
                    ok = False
                    break
            if ok:
                rec(prefix + [v])

    rec([])
    return sorted(set(out))


def test_farey_values_bound_two():
    assert farey_values(2) == [F(1, 2), F(1)]


def test_singleton_budget_one():
    out, cert = qu_enumerate(singleton(), 2, 1)
    dists = sorted(out.d("a", p) for p in out.points if p != "a")
    assert dists == [F(1, 2), F(1)]
    assert metric_ok(out)


def test_budget_zero_returns_seed():
    seed = random_far_space(random.Random(1), 3)
    out, cert = qu_enumerate(seed, 3, 0)
    assert out.points == seed.points
    assert not cert.tasks


def test_pair_tasks_match_oracle():
    seed = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(1, 2)})
    out, cert = qu_enumerate(seed, 2, 2)
    pair_tasks = [t for t in cert.tasks if t.subset == ("a", "b")]
    oracle = admissible_vectors_oracle(seed, ("a", "b"), 2)
    assert sorted(t.values for t in pair_tasks) == oracle
    assert len(pair_tasks) == 4
    assert any(out.d("a", p) == F(1, 2) == out.d("b", p) for p in out.points)


def test_every_task_realized_exactly():
    rng = random.Random(9)
    seed = random_far_space(rng, 3)
    out, cert = qu_enumerate(seed, 2, 2)
    assert metric_ok(out)
    for task in cert.tasks:
        w = task.realized_by
        assert all(out.d(w, p) == v for p, v in zip(task.subset, task.values))


def test_monotone_in_budget():
    seed = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(1, 2)})
    small, _ = qu_enumerate(seed, 2, 1)
    large, _ = qu_enumerate(seed, 2, 2)
    assert large.points[:len(small.points)] == small.points
    for p, q in combinations(small.points, 2):
        assert small.d(p, q) == large.d(p, q)


def test_invalid_seed_rejected():
    with pytest.raises(MetricError):
        qu_enumerate(singleton(), 2, -1)


def test_deterministic():
    seed = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(3, 4)})
    a = qu_enumerate(seed, 2, 2)
    b = qu_enumerate(seed, 2, 2)
    assert a[0].points == b[0].points
    assert a[1] == b[1]


def test_seed_validated_once_not_per_added_point(monkeypatch):
    seed = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(1, 2)})
    calls = []
    exhaustive = metric.validate_table

    def counting(points, dist):
        calls.append(len(points))
        return exhaustive(points, dist)

    monkeypatch.setattr(metric, "validate_table", counting)
    out, cert = qu_enumerate(seed, 2, 2)
    assert sum(t.added_point for t in cert.tasks) == len(out.points) - 2 > 1
    assert calls == [2]


def test_realizers_are_first_in_point_order_on_a_large_enumeration():
    seed = RationalMetricSpace.build(
        ("a", "b", "c"), {("a", "b"): F(1, 2), ("a", "c"): F(1, 2), ("b", "c"): F(1, 2)})
    out, cert = qu_enumerate(seed, 5, 2)
    assert len(out.points) == 220
    for task in cert.tasks:
        first = next(p for p in out.points
                     if all(out.d(p, a) == v for a, v in zip(task.subset, task.values)))
        assert task.realized_by == first


@st.composite
def enumerations(draw):
    """A 1-4 point seed with distances k/den closed under shortest paths
    (so any draw is a metric), a bound 1-5 and a budget 0-3.  The budget is
    capped so that a draw grows at most a few hundred points: 3 up to bound
    3, 2 above it, and 1 at bound 5 on four points (budget 2 there grows
    about 300 points in about a second)."""
    n = draw(st.integers(1, 4))
    den = draw(st.sampled_from((1, 2, 3, 4, 6)))
    pts = "abcd"[:n]
    d = {(p, q): F(draw(st.integers(1, den)), den) for p, q in combinations(pts, 2)}
    for m in pts:
        for p, q in combinations(pts, 2):
            if m not in (p, q):
                d[(p, q)] = min(d[(p, q)], d[tuple(sorted((p, m)))] + d[tuple(sorted((m, q)))])
    bound = draw(st.integers(1, 5))
    top = 3 if bound <= 3 else 2 if bound == 4 or n <= 3 else 1
    return RationalMetricSpace.build(tuple(pts), d), bound, draw(st.integers(0, top))


@given(enumerations())
@example((RationalMetricSpace.build(("a", "b"), {("a", "b"): F(1)}), 2, 0))
@example((RationalMetricSpace.build(("a", "b"), {("a", "b"): F(1, 2)}), 3, 1))
@settings(max_examples=60, deadline=None)
def test_enumeration_equals_plain_loops(case):
    seed, bound, budget = case
    out, cert = qu_enumerate(seed, bound, budget)
    points, table, tasks = qu_enumerate_oracle(seed, bound, budget)
    assert out.points == tuple(points)
    assert {pq: out.d(*pq) for pq in table} == table
    assert [(t.subset, t.values, t.realized_by, t.added_point) for t in cert.tasks] == tasks
    assert out.int_rows == metric._int_rows(out.points, out.dist)


def test_a_row_that_breaks_a_triangle_raises_what_with_point_raises(monkeypatch):
    """The output's rows are checked when its table is built: a broken
    spread (here q0 on b, though a is at 1 from q0 and 1/2 from b) raises
    the report `with_point` gives for that point."""
    seed = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(1, 2)})
    real = quenum._spread
    monkeypatch.setattr(quenum, "_spread", lambda cols, on, cap:
                        [cap, 0] if len(cols[0]) == 2 else real(cols, on, cap))
    with pytest.raises(MetricError) as want:
        seed.with_point("q0", {"a": F(1), "b": F(0)})
    with pytest.raises(MetricError) as got:
        qu_enumerate(seed, 1, 1)
    assert str(got.value) == str(want.value)


def test_a_short_row_is_refused_as_missing(monkeypatch):
    """An added row one value short leaves a pair out of the table."""
    seed = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(1, 2)})
    real = quenum._spread
    monkeypatch.setattr(quenum, "_spread", lambda cols, on, cap: real(cols, on, cap)[:-1])
    with pytest.raises(MetricError) as got:
        qu_enumerate(seed, 2, 1)
    assert str(got.value).startswith("missing b q0: pair not in table")
