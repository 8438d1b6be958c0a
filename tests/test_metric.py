import random
from fractions import Fraction as F
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from metriclogic.metric import (KatetovFunction, MetricError, PartialIsometry,
                                RationalMetricSpace, _from_int_rows, _spread,
                                one_point_extend, validate_table)
from metriclogic.rational import scaled

from helpers import (metric_ok, partial_isometry_faults, random_far_space,
                     validation_text)


def space(pairs, pts=None):
    if pts is None:
        pts = sorted({p for pq in pairs for p in pq})
    return RationalMetricSpace.build(pts, {k: F(v) for k, v in pairs.items()})


def test_singleton_validates():
    report = validate_table(("a",), {("a", "a"): F(0)})
    assert report.ok


def test_equilateral_validates():
    s = space({("a", "b"): F(1, 2), ("a", "c"): F(1, 2), ("b", "c"): F(1, 2)})
    assert s.validate().ok


def test_triangle_violation_reported():
    table = {("a", "a"): F(0), ("b", "b"): F(0), ("c", "c"): F(0)}
    for (p, q), v in {("a", "b"): F(1, 10), ("b", "c"): F(1, 10),
                      ("a", "c"): F(9, 10)}.items():
        table[(p, q)] = table[(q, p)] = v
    report = validate_table(("a", "b", "c"), table)
    assert not report.ok
    assert [v.kind for v in report.violations] == ["triangle"]
    assert set(report.violations[0].points) == {"a", "b", "c"}


def test_range_and_asymmetry_reported_separately():
    table = {("a", "a"): F(0), ("b", "b"): F(0),
             ("a", "b"): F(3, 2), ("b", "a"): F(1, 2)}
    report = validate_table(("a", "b"), table)
    kinds = {v.kind for v in report.violations}
    assert kinds == {"range", "symmetry"}


def test_one_point_extend_singleton():
    s = space({}, pts=["a"])
    out = one_point_extend(s, KatetovFunction(s, {"a": F(1, 3)}), "p")
    assert out.d("a", "p") == F(1, 3)
    assert metric_ok(out)


def test_one_point_extend_midpoint():
    s = space({("a", "b"): F(3, 5)})
    f = KatetovFunction(s, {"a": F(3, 10), "b": F(3, 10)})
    assert f.admissible
    out = one_point_extend(s, f, "m")
    assert metric_ok(out)


def test_one_point_extend_rejects_inadmissible():
    s = space({("a", "b"): F(3, 5)})
    f = KatetovFunction(s, {"a": F(1, 10), "b": F(1, 10)})
    violations = f.admissibility_violations()
    assert violations and violations[0].kind == "triangle"
    assert set(violations[0].points) == {"a", "b"}
    with pytest.raises(MetricError):
        one_point_extend(s, f)


@st.composite
def katetov_candidates(draw):
    n = draw(st.integers(2, 5))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    s = random_far_space(rng, n, lo=F(1, 4))
    values = {p: F(draw(st.integers(0, 16)), 16) for p in s.points}
    return s, values


@given(katetov_candidates())
@settings(max_examples=120, deadline=None)
def test_extension_validates_iff_admissible(case):
    s, values = case
    f = KatetovFunction(s, values)
    if f.admissible:
        assert metric_ok(one_point_extend(s, f))
    else:
        with pytest.raises(MetricError):
            one_point_extend(s, f)


@given(katetov_candidates())
@settings(max_examples=60, deadline=None)
def test_katetov_spread_is_admissible(case):
    s, values = case
    sub = dict(list(values.items())[:2])
    f = KatetovFunction(s, sub)
    if not all(abs(a - b) <= s.d(p, q) <= a + b
               for (p, a), (q, b) in combinations(sub.items(), 2)):
        return
    # the shortest-path spread on ints over one denominator of the space and sub
    den = lcm(s.int_rows[0], *(v.denominator for v in sub.values()))
    cols = [scaled([s.d(a, x) for x in s.points], den) for a in sub]
    full = {x: F(k, den) for x, k in zip(s.points, _spread(cols, scaled(sub.values(), den), den))}
    assert KatetovFunction(s, full).admissible
    for p, v in sub.items():
        assert full[p] == v


def test_embedding_witness_checks_distances():
    s = space({("a", "b"): F(1, 2)})
    t = space({("x", "y"): F(1, 2), ("x", "z"): F(1, 2), ("y", "z"): F(1, 2)})
    ok = PartialIsometry(s, t, {"a": "x", "b": "y"})
    assert ok.check().ok
    bad = PartialIsometry(s, t, {"a": "x", "b": "x"})
    assert not bad.check().ok


@st.composite
def partial_maps(draw):
    """Two spaces on distances 1/2 and 1 (any such table is a metric, and
    isometries are common), and a partial map whose domain and images may
    fall outside them and repeat."""
    def draw_space(prefix):
        pts = [f"{prefix}{i}" for i in range(draw(st.integers(1, 4)))]
        return space({pq: draw(st.sampled_from((F(1, 2), F(1))))
                      for pq in combinations(pts, 2)}, pts)
    s, t = draw_space("p"), draw_space("q")
    stray = draw(st.booleans())         # may the map leave the spaces?
    mapping = draw(st.dictionaries(st.sampled_from(s.points + ("x",) * stray),
                                   st.sampled_from(t.points + ("y",) * stray), max_size=5))
    return s, t, mapping


@given(partial_maps())
@settings(max_examples=300, deadline=None)
def test_partial_isometry_check_equals_plain_loops(case):
    s, t, mapping = case
    want = partial_isometry_faults(s.points, t.points, s.d, t.d, mapping)
    report = PartialIsometry(s, t, mapping).check()
    assert [(v.kind, v.points, v.detail) for v in report.violations] == want
    assert report.ok == (not want)
    if want:
        with pytest.raises(MetricError) as exc:
            PartialIsometry.build(s, t, mapping)
        assert str(exc.value) == want[0][2]
    else:
        assert PartialIsometry.build(s, t, mapping).map == mapping


def test_partial_isometry_fault_kinds():
    s = space({("a", "b"): F(1, 2), ("a", "c"): F(1, 2), ("b", "c"): F(1, 4)})
    repeated = PartialIsometry(s, s, {"a": "c", "b": "c"}).check()
    assert str(repeated) == ("isometry c c: map is not injective; "
                             "isometry a b: distance not preserved on (a,b): 1/2 vs 0")
    moved = PartialIsometry(s, s, {"b": "b", "c": "a"}).check()
    assert str(moved) == "isometry b c: distance not preserved on (b,c): 1/4 vs 1/2"
    outside = PartialIsometry(s, s, {"z": "a", "a": "w"}).check()
    assert [v.kind for v in outside.violations] == ["missing", "missing"]
    assert PartialIsometry(s, s, {"a": "b", "b": "a"}).check().ok


def test_has_point_reads_one_kept_index():
    s = space({("a", "b"): F(1, 2)})
    assert s.has_point("a") and s.has_point("b")
    assert not s.has_point("c") and not s.has_point("")
    assert s.point_index is s.point_index       # built once, not per call
    assert s.point_index == {"a": 0, "b": 1}


def test_restrict_keeps_distances():
    rng = random.Random(5)
    s = random_far_space(rng, 5)
    sub = s.restrict(s.points[:3])
    for p, q in combinations(sub.points, 2):
        assert sub.d(p, q) == s.d(p, q)


NEW = "new"


@st.composite
def one_point_extensions(draw):
    """A valid base of 1-6 points and a candidate distance vector for NEW."""
    pts = [f"p{i}" for i in range(draw(st.integers(1, 6)))]
    d = {(p, p): F(0) for p in pts}
    for p, q in combinations(pts, 2):
        d[(p, q)] = d[(q, p)] = F(draw(st.integers(1, 8)), 8)
    for k in pts:                       # shortest-path closure makes it a metric
        for p in pts:
            for q in pts:
                d[(p, q)] = min(d[(p, q)], d[(p, k)] + d[(k, q)])
    base = RationalMetricSpace.build(
        pts, {(p, q): d[(p, q)] for p, q in combinations(pts, 2)})
    if draw(st.booleans()):             # a point near an old one: range may fail
        near, shift = draw(st.sampled_from(pts)), F(draw(st.integers(0, 4)), 8)
        vec = {p: d[(near, p)] + shift for p in pts}
    else:                               # anything, out of range included
        vec = {p: F(draw(st.integers(-2, 10)), 8) for p in pts}
    return base, vec


@given(one_point_extensions())
@settings(max_examples=300, deadline=None)
def test_with_point_agrees_with_full_validation(case):
    base, vec = case
    points = base.points + (NEW,)
    table = dict(base.dist)
    table[(NEW, NEW)] = F(0)
    for p, v in vec.items():
        table[(p, NEW)] = table[(NEW, p)] = v
    report = validate_table(points, table)
    if report.ok:
        built = RationalMetricSpace.build(
            points, {(p, q): table[(p, q)] for p, q in combinations(points, 2)})
        out = base.with_point(NEW, vec)
        assert out.points == built.points
        assert out.dist == built.dist
    else:
        with pytest.raises(MetricError) as exc:
            base.with_point(NEW, vec)
        assert str(exc.value) == str(report)


def test_with_point_reports_range_then_triangles():
    s = space({("a", "b"): F(1, 2), ("a", "c"): F(1, 2), ("b", "c"): F(1, 2)})
    with pytest.raises(MetricError) as exc:
        s.with_point("z", {"a": F(3, 2), "b": F(1, 8), "c": F(1, 8)})
    assert str(exc.value) == (
        "range a z: 3/2 outside [0,1]; "
        "triangle a b z: d=1/2,1/8,3/2 fails a triangle inequality; "
        "triangle a c z: d=1/2,1/8,3/2 fails a triangle inequality; "
        "triangle b c z: d=1/2,1/8,1/8 fails a triangle inequality")


DENS = (1, 2, 3, 4, 5, 6, 8, 10, 12)


@st.composite
def closed_tables(draw, pts):
    """A metric on pts: random values, shortest-path closed, so exactly
    degenerate triangles (ab == ac + bc) are common."""
    d = {(p, p): F(0) for p in pts}
    for p, q in combinations(pts, 2):
        den = draw(st.sampled_from(DENS))
        d[(p, q)] = d[(q, p)] = F(draw(st.integers(1, den)), den)
    for k in pts:
        for p in pts:
            for q in pts:
                d[(p, q)] = min(d[(p, q)], d[(p, k)] + d[(k, q)])
    return d


@st.composite
def candidate_tables(draw):
    """A closed table with up to two edits (a nudge by 1/den, an
    out-of-range value, an asymmetric entry or a nonzero diagonal), and
    sometimes a missing entry."""
    pts = tuple(f"p{i}" for i in range(draw(st.integers(1, 6))))
    table = draw(closed_tables(pts))
    pairs = list(combinations(pts, 2))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("nudge", "range", "asym", "diag")))
        if kind == "diag" or not pairs:
            table[(draw(st.sampled_from(pts)),) * 2] = F(1, 5)
            continue
        p, q = draw(st.sampled_from(pairs))
        if kind == "nudge":
            v = table[(p, q)] + F(draw(st.sampled_from((-1, 1))), draw(st.sampled_from(DENS)))
            table[(p, q)] = table[(q, p)] = v
        elif kind == "range":
            table[(p, q)] = table[(q, p)] = draw(st.sampled_from((F(-1, 3), F(5, 4), F(3, 2))))
        else:                           # either direction, halved or doubled
            p, q = draw(st.permutations((p, q)))
            table[(p, q)] = table[(q, p)] * draw(st.sampled_from((F(1, 2), 2)))
    if draw(st.integers(0, 5)) == 0:
        del table[draw(st.sampled_from(sorted(table)))]
    return pts, table


@given(candidate_tables())
@settings(max_examples=300, deadline=None)
def test_validate_table_matches_fraction_oracle(case):
    pts, table = case
    assert str(validate_table(pts, table)) == validation_text(pts, table)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_with_point_chain_matches_fraction_oracle(data):
    """A chain of with_point calls whose new denominators grow D by lcm
    rescales; vectors are exact spreads from one point (valid, with
    degenerate triangles), spreads nudged by 1/den, or free values in and
    out of [0,1]."""
    pts = tuple(f"p{i}" for i in range(data.draw(st.integers(1, 4))))
    d = data.draw(closed_tables(pts))
    space = RationalMetricSpace.build(pts, {pq: d[pq] for pq in combinations(pts, 2)})
    for step in range(data.draw(st.integers(1, 4))):
        den = data.draw(st.sampled_from(DENS))
        mode = data.draw(st.sampled_from(("spread", "nudged", "free")))
        if mode == "free":
            vec = {p: F(data.draw(st.integers(-1, den + 1)), den) for p in space.points}
        else:
            a = data.draw(st.sampled_from(space.points))
            t = F(data.draw(st.integers(0, den)), den)
            vec = {p: min(F(1), t + space.d(a, p)) for p in space.points}
            if mode == "nudged":
                p = data.draw(st.sampled_from(space.points))
                vec[p] += F(data.draw(st.sampled_from((-1, 1))), den)
        name = f"n{step}"
        points = space.points + (name,)
        table = dict(space.dist)
        table[(name, name)] = F(0)
        for p, v in vec.items():
            table[(p, name)] = table[(name, p)] = v
        expected = validation_text(points, table)
        assert str(validate_table(points, table)) == expected
        # The same table as int rows over a multiple of its denominator,
        # values below 0 and above den included, through the int constructor.
        den = lcm(*(v.denominator for v in table.values())) * data.draw(st.integers(1, 3))
        rows = [scaled([table[(p, q)] for p in points[:i]], den) for i, q in enumerate(points)]
        if expected != "ok":
            for build in (lambda: space.with_point(name, vec),
                          lambda: _from_int_rows(points, den, rows)):
                with pytest.raises(MetricError) as exc:
                    build()
                assert str(exc.value) == expected
            continue
        fresh = RationalMetricSpace(points, table).int_rows
        from_ints = _from_int_rows(points, den, rows)
        assert from_ints.points == points and from_ints.dist == table
        assert from_ints.int_rows == fresh
        out = space.with_point(name, vec)
        assert out.points == points and out.dist == table
        # the rows handed over equal the rows derived afresh from dist
        assert out.int_rows == fresh
        space = out


def test_with_point_rescales_rows_to_the_new_denominator():
    s = space({("a", "b"): F(1, 2)})
    assert s.int_rows == (2, [[], [1]])
    out = s.with_point("c", {"a": F(1, 3), "b": F(1, 2)})
    assert out.int_rows == (6, [[], [3], [2, 3]])
