import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from metriclogic import vaught
from metriclogic.rational import dot_add, dot_sub
from metriclogic.suite import (check_conjugates, check_duality, check_invariance,
                               check_order, check_set_correspondence,
                               check_translate_closure, random_gspace,
                               random_subgroup_table, random_table, run_suite,
                               SuiteReport)
from metriclogic.vaught import (FiniteGSpace, GSpaceError, characteristic,
                                is_invariant, is_subgroup_table, nice_closure,
                                translate_table, vaught_delta, vaught_sets,
                                vaught_star)

from helpers import vaught_oracle


def swap_space():
    return FiniteGSpace(
        ("x", "y"), {"e": {"x": "x", "y": "y"}, "s": {"x": "y", "y": "x"}})


def trivial_space():
    return FiniteGSpace(("x", "y"), {"e": {"x": "x", "y": "y"}})


def test_gspace_validation():
    with pytest.raises(GSpaceError):
        FiniteGSpace(("x", "y"), {"s": {"x": "y", "y": "x"}})
    with pytest.raises(GSpaceError):
        # not closed: a 3-cycle without its square
        FiniteGSpace(
            ("a", "b", "c"),
            {"e": {"a": "a", "b": "b", "c": "c"},
             "r": {"a": "b", "b": "c", "c": "a"}})


def test_delta_swap_example():
    X = swap_space()
    phi = characteristic(X.points, ["x"])
    J = {g: F(0) for g in X.elements}
    out = vaught_delta(X, phi, J)
    assert out == {"x": F(0), "y": F(0)}


def test_delta_trivial_group():
    X = trivial_space()
    phi = {"x": F(1, 4), "y": F(3, 4)}
    J = {"e": F(1, 8)}
    out = vaught_delta(X, phi, J)
    assert out == {"x": dot_add(F(1, 4), F(1, 8)), "y": dot_add(F(3, 4), F(1, 8))}
    star = vaught_star(X, phi, J)
    assert star == {"x": dot_sub(F(1, 4), F(1, 8)), "y": dot_sub(F(3, 4), F(1, 8))}


def test_delta_saturates_at_one():
    X = swap_space()
    phi = {"x": F(1), "y": F(1)}
    J = random_table(random.Random(0), X.elements)
    out = vaught_delta(X, phi, J)
    assert all(v == 1 for v in out.values())


def test_star_constant_table():
    X = swap_space()
    phi = {"x": F(2, 5), "y": F(2, 5)}
    J = {g: F(0) for g in X.elements}
    assert vaught_star(X, phi, J) == phi


def test_duality_instance():
    X = swap_space()
    phi = {"x": F(1, 8), "y": F(5, 8)}
    J = {"e": F(0), "s": F(1, 4)}
    star = vaught_star(X, phi, J)
    co = vaught_delta(X, {x: 1 - v for x, v in phi.items()}, J)
    assert all(star[x] == 1 - co[x] for x in X.points)


def test_vaught_sets_examples():
    X = swap_space()
    star, delta = vaught_sets(X, ["x"], list(X.elements))
    assert delta == {"x", "y"} and star == frozenset()
    star1, delta1 = vaught_sets(X, ["x"], [X.identity])
    assert star1 == delta1 == {"x"}
    both = vaught_sets(X, ["x", "y"], list(X.elements))
    assert both[0] == both[1] == {"x", "y"}          # invariant set is fixed
    with pytest.raises(GSpaceError):
        vaught_sets(X, ["x"], [])


def test_nice_closure_constants_fixed_point():
    X = swap_space()
    zero = {p: F(0) for p in X.points}
    one = {p: F(1) for p in X.points}
    coset = {g: F(0) for g in X.elements}
    res = nice_closure(X, [zero, one], [coset], budget=500, scales=[F(2)])
    assert res.fixed_point
    assert len(res.family) == 2


def test_nice_closure_contains_transform():
    X = swap_space()
    o_a = characteristic(X.points, ["x"])
    o_g = {g: F(0) for g in X.elements}
    res = nice_closure(X, [o_a], [o_g], budget=2000, scales=[])
    vec = tuple(vaught_delta(X, o_a, o_g)[p] for p in X.points)
    assert vec in res.family


def test_nice_closure_budget_zero():
    X = swap_space()
    o_a = characteristic(X.points, ["x"])
    res = nice_closure(X, [o_a], [], budget=0)
    assert res.family == (tuple(o_a[p] for p in X.points),)
    assert not res.fixed_point


@pytest.mark.parametrize("q", [F(-1), F(0)])
def test_nice_closure_refuses_a_scale_factor_not_positive(q):
    """A factor that is not positive would scale a table out of [0, 1]:
    -1 turned the table of x into [0, -1]."""
    X = swap_space()
    with pytest.raises(GSpaceError, match="scale factor must be a positive rational"):
        nice_closure(X, [characteristic(X.points, ["x"])], [], budget=6, scales=[q])


def test_subgroup_table_repair():
    rng = random.Random(5)
    for _ in range(10):
        X = random_gspace(rng, max_points=6, max_group=12)
        H = random_subgroup_table(rng, X)
        assert is_subgroup_table(X, H)


def test_invariant_table_is_fixed_point():
    rng = random.Random(6)
    X = random_gspace(rng, max_points=6, max_group=12)
    H = random_subgroup_table(rng, X)
    phi = random_table(rng, X.points)
    inv = vaught_delta(X, phi, H)
    assert is_invariant(X, inv, H)
    assert vaught_delta(X, inv, H) == inv
    assert vaught_star(X, inv, H) == inv


def test_lemma_checks_pass_on_random_data():
    rng = random.Random(99)
    report = SuiteReport()
    for _ in range(8):
        X = random_gspace(rng, max_points=8, max_group=12)
        phi = random_table(rng, X.points)
        psi = random_table(rng, X.points)
        J = random_table(rng, X.elements)
        H = random_subgroup_table(rng, X)
        g = rng.choice(X.elements)
        u = sorted(rng.sample(list(X.elements), 1 + rng.randrange(len(X.elements))))
        check_duality(X, phi, J, report)
        check_order(X, phi, H, report)
        check_invariance(X, phi, H, report)
        check_conjugates(X, phi, H, g, report)
        check_set_correspondence(X, phi, u, report)
        check_translate_closure(X, phi, psi, H, report)
    assert report.ok, report.violations


@pytest.mark.parametrize("max_group", [1, 2])
def test_random_gspace_respects_a_small_group_cap(max_group):
    # the identity and the generators count against the cap too
    for seed in range(20):
        X = random_gspace(random.Random(seed), 6, max_group)
        assert len(X.elements) <= max_group


def test_group_closure_order_and_cap():
    from metriclogic.vaught import compose_permutations, group_closure
    pts = (0, 1, 2, 3)
    compose = compose_permutations(pts)
    r, s = (1, 2, 3, 0), (1, 0, 2, 3)           # a 4-cycle and a transposition
    # identity first, then the distinct generators, then breadth first
    assert group_closure(pts, [r, pts, r], compose) == [pts, r, (2, 3, 0, 1), (3, 0, 1, 2)]
    assert len(group_closure(pts, [r, s], compose)) == 24
    assert group_closure(pts, [r, s], compose, cap=24) is not None
    assert group_closure(pts, [r, s], compose, cap=23) is None
    assert group_closure(pts, [r, s], compose, cap=2) is None     # the starting set is 3


def test_run_suite_deterministic():
    a = run_suite(seed=3, instances=4)
    b = run_suite(seed=3, instances=4)
    assert a.checks == b.checks and a.per_lemma == b.per_lemma
    assert a.ok and b.ok


def test_conjugate_and_translate_tables():
    X = swap_space()
    H = {"e": F(0), "s": F(1, 2)}
    coset = translate_table(X, H, "s")
    assert coset == {"e": F(1, 2), "s": F(0)}
    from metriclogic.vaught import conjugate_table
    conj = conjugate_table(X, H, "s")
    assert conj == H                                  # abelian group


def table_of(kind, keys, rng):
    """All 0, all 1, or values whose denominators run over 1..12, so the
    common denominator is not a power of 2."""
    if kind in (0, 1):
        return {k: F(kind) for k in keys}
    out = {}
    for k in keys:
        den = rng.randint(1, 12)
        out[k] = F(rng.randint(0, den), den)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([0, 1, "mixed"]),
       st.sampled_from([0, 1, "mixed"]))
def test_transforms_equal_the_plain_closed_forms(seed, phi_kind, j_kind):
    rng = random.Random(seed)
    X = random_gspace(rng, 6, 12)
    phi = table_of(phi_kind, X.points, rng)
    J = table_of(j_kind, X.elements, rng)
    delta, star = vaught_oracle(X, phi, J)
    assert vaught_delta(X, phi, J) == delta
    assert vaught_star(X, phi, J) == star


@pytest.mark.parametrize("transform, scan, closed", [
    (vaught_delta, "_delta_scan", "5/12"), (vaught_star, "_star_scan", "1/12")])
def test_a_scan_that_disagrees_with_the_closed_form_raises(monkeypatch, transform,
                                                           scan, closed):
    """The closed form is still checked against the threshold scan, value by
    value; the message gives both values in lowest terms."""
    real = getattr(vaught, scan)
    monkeypatch.setattr(vaught, scan, lambda *args: real(*args) + 1)
    X = trivial_space()
    phi, J = {"x": F(1, 4), "y": F(3, 4)}, {"e": F(1, 6)}
    scanned = F(closed) + F(1, 24)           # one step of the common denominator
    with pytest.raises(GSpaceError) as err:
        transform(X, phi, J)
    assert str(err.value) == f"definition scan {scanned} disagrees with closed form {closed} at x"
