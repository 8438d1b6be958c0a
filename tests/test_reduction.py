import random
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from metriclogic.metric import RationalMetricSpace
from metriclogic.reduction import (GroupElement, ReductionError,
                                   ReductionInstance, check_g_invariance,
                                   encode, orbit_equiv, random_instance,
                                   separating_prefix_length)
from metriclogic.textio import parse_instance


def trivial_instance():
    """Trivial group on a 2-point Y and 2-point X; singleton basis."""
    y = RationalMetricSpace.build(("s0", "s1"), {("s0", "s1"): F(1, 2)})
    x = RationalMetricSpace.build(("x0", "x1"), {("x0", "x1"): F(1, 4)})
    ident = GroupElement("e", {"s0": "s0", "s1": "s1"}, {"x0": "x0", "x1": "x1"})
    return ReductionInstance(y, x, (ident,), (("x0",), ("x1",)),
                             ("s0", "s1"), 2)


def swap_instance():
    """Order-2 group acting by swapping both Y and X."""
    y = RationalMetricSpace.build(("s0", "s1"), {("s0", "s1"): F(1, 2)})
    x = RationalMetricSpace.build(("x0", "x1"), {("x0", "x1"): F(1, 4)})
    ident = GroupElement("e", {"s0": "s0", "s1": "s1"}, {"x0": "x0", "x1": "x1"})
    swap = GroupElement("s", {"s0": "s1", "s1": "s0"}, {"x0": "x1", "x1": "x0"})
    return ReductionInstance(y, x, (ident, swap), (("x0",), ("x1",)),
                             ("s0", "s1"), 2)


def test_trivial_group_matching_tuple():
    inst = trivial_instance()
    M = encode(inst, "x0")
    # h = identity, x' = x0 matches everything at the enumeration prefix
    assert M.tables["R_1_0"][("s0",)] == 0
    assert M.tables["R_2_0"][("s0", "s1")] == 0


def test_trivial_group_distance_to_basis():
    inst = trivial_instance()
    M = encode(inst, "x0")
    # A_1 = {x1}: single h gives max(0, d_tau(x0, x1)) at the diagonal tuple
    assert M.tables["R_2_1"][("s0", "s1")] == F(1, 4)


def test_swap_tables_match_hand_computation():
    inst = swap_instance()
    M = encode(inst, "x0")
    # R_1_0 at (s0): min over h in {e,s}, x' in {x0}:
    #   e: max(d(s0,s0), d(x0,x0)) = 0
    assert M.tables["R_1_0"][("s0",)] == 0
    #   at (s1): e gives max(d(s1,s0), 0) = 1/2; s gives max(d(s0,s0), d(x1,x0)) = 1/4
    assert M.tables["R_1_0"][("s1",)] == F(1, 4)
    # R_1_1 (basis {x1}) at (s0): e gives max(0, 1/4); s gives max(1/2, 0)
    assert M.tables["R_1_1"][("s0",)] == F(1, 4)


def test_orbit_equiv_reflexive():
    inst = swap_instance()
    res = orbit_equiv(inst, "x0", "x0")
    assert res.same_orbit and res.isomorphic
    assert res.orbit_witness == "e"
    assert res.iso_witness == {"s0": "s0", "s1": "s1"}


def test_orbit_equiv_swap_orbit():
    inst = swap_instance()
    res = orbit_equiv(inst, "x0", "x1")
    assert res.same_orbit and res.isomorphic
    assert res.orbit_witness == "s"


def test_orbit_equiv_separated():
    inst = trivial_instance()
    res = orbit_equiv(inst, "x0", "x1")
    assert not res.same_orbit and not res.isomorphic
    assert res.iso_witness is None


def test_g_invariance_identity():
    inst = swap_instance()
    for x in inst.x_space.points:
        assert check_g_invariance(inst, x) == []


def test_encode_rejects_unknown_point():
    inst = trivial_instance()
    with pytest.raises(ReductionError):
        encode(inst, "nope")


def test_instance_validation():
    y = RationalMetricSpace.build(("s0", "s1"), {("s0", "s1"): F(1, 2)})
    x = RationalMetricSpace.build(("x0",), {})
    bad = GroupElement("g", {"s0": "s1", "s1": "s0"}, {"x0": "x0"})
    with pytest.raises(ReductionError):
        # no identity element
        ReductionInstance(y, x, (bad,), (("x0",),), ("s0", "s1"), 1)


def _pair_instance(maps):
    """Instance on a 2-point Y and X; maps holds (name, y images, x images),
    the images listed in point order."""
    y = RationalMetricSpace.build(("s0", "s1"), {("s0", "s1"): F(1, 2)})
    x = RationalMetricSpace.build(("x0", "x1"), {("x0", "x1"): F(1, 4)})
    elements = tuple(GroupElement(name, dict(zip(y.points, ys.split())),
                                  dict(zip(x.points, xs.split())))
                     for name, ys, xs in maps)
    return ReductionInstance(y, x, elements, (("x0",), ("x1",)), ("s0", "s1"), 2)


@pytest.mark.parametrize("maps, message", [
    # not faithful on Y: two elements share the identity y-map
    ([("e", "s0 s1", "x0 x1"), ("t", "s0 s1", "x1 x0")], "Y-group: duplicate permutations"),
    # the x-action of e is not the identity, so e.e = e is not kept
    ([("e", "s0 s1", "x1 x0"), ("s", "s1 s0", "x0 x1")], "x-action is not a homomorphism"),
    ([("e", "s0 s1", "x0 x1"), ("c", "s0 s0", "x0 x1")],
     "Y-group: action of c is not a permutation"),
    ([("e", "s0 s1", "x0 x0")], "e: x-part is not a permutation of X")])
def test_instance_refuses_a_bad_group(maps, message):
    with pytest.raises(ReductionError, match=message):
        _pair_instance(maps)


def test_instance_refuses_y_maps_not_closed_under_composition():
    y = RationalMetricSpace.build(
        ("a", "b", "c"),
        {("a", "b"): F(1, 2), ("a", "c"): F(1, 2), ("b", "c"): F(1, 2)})
    x = RationalMetricSpace.build(("x0",), {})
    ident = GroupElement("e", {"a": "a", "b": "b", "c": "c"}, {"x0": "x0"})
    rotate = GroupElement("r", {"a": "b", "b": "c", "c": "a"}, {"x0": "x0"})
    with pytest.raises(ReductionError, match="not closed"):
        ReductionInstance(y, x, (ident, rotate), (("x0",),), ("a", "b", "c"), 2)


def test_separating_prefix():
    y = RationalMetricSpace.build(
        ("a", "b", "c"),
        {("a", "b"): F(1, 2), ("a", "c"): F(1, 2), ("b", "c"): F(1, 2)})
    # equilateral: fixing two points pins the third
    assert separating_prefix_length(y, y.points) == 2
    rigid = RationalMetricSpace.build(
        ("a", "b"), {("a", "b"): F(1, 2)})
    assert separating_prefix_length(rigid, rigid.points) in (1, 2)


def test_random_instances_sound():
    rng = random.Random(17)
    for _ in range(12):
        inst = random_instance(rng, max_y=4, max_x=6)
        xs = inst.x_space.points
        for x, xp in product(xs[:4], xs[:4]):
            res = orbit_equiv(inst, x, xp)
            assert res.same_orbit == res.isomorphic, (x, xp)
        assert check_g_invariance(inst, xs[0]) == []


def test_encode_injective_with_separating_basis():
    rng = random.Random(19)
    for _ in range(8):
        inst = random_instance(rng, max_y=4, max_x=6)
        encodings = [encode(inst, x).tables for x in inst.x_space.points]
        for i, a in enumerate(encodings):
            for b in encodings[i + 1:]:
                assert a != b


@pytest.mark.parametrize("max_group", [1, 2])
def test_random_instance_respects_a_small_group_cap(max_group):
    # the identity and the seed isometries count against the cap too
    for seed in range(300):
        inst = random_instance(random.Random(seed), 4, 4, 2, max_group)
        assert len(inst.elements) <= max_group


def test_random_instance_refuses_a_group_cap_below_one():
    with pytest.raises(ReductionError):
        random_instance(random.Random(0), max_group=0)


@pytest.mark.parametrize("x, xp", [("nope", "x1"), ("x0", "nope")])
def test_orbit_equiv_rejects_an_unknown_point(x, xp):
    # encode's check runs before the orbit scan indexes the group's maps
    inst = parse_instance((Path(__file__).resolve().parent.parent / "data" / "swapx.inst")
                          .read_text())
    with pytest.raises(ReductionError, match="'nope' is not a point of X"):
        orbit_equiv(inst, x, xp)
