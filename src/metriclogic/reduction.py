"""Finite-scale encoding of group actions as metric structures.

Each point x of a finite action space X is encoded as an expansion of a
host metric space Y by predicates

    R_{k,l}(y_1..y_k) = min over h in G, x' in A_l of
        max( max_i d(h(y_i), s_i), d_tau(h.x, x') )

computed exactly by enumerating the finite group and basis sets.  Two
points then lie in one orbit exactly when their encodings are carried to
each other by an isometry of Y, and the brute-force check over all
isometries of Y realizes the equivalence at this scale.  The generator
below always includes every singleton of X in the basis and picks the
relation arities large enough that only the identity isometry fixes the
whole enumeration prefix pointwise, which is what makes the equivalence an
actual theorem for generated instances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .formula import Relation, Signature
from .metric import MetricError, PartialIsometry, RationalMetricSpace
from .record import record
from .structures import FiniteStructure, carries_tables, space_isometries
from .vaught import FiniteGSpace, GSpaceError, compose_permutations, group_closure


class ReductionError(ValueError):
    pass


@record
class GroupElement:
    name: str
    y_map: Mapping[str, str]     # isometry of Y
    x_map: Mapping[str, str]     # permutation of X


@record
class ReductionInstance:
    y_space: RationalMetricSpace
    x_space: RationalMetricSpace           # carries d_tau
    elements: Tuple[GroupElement, ...]
    basis: Tuple[Tuple[str, ...], ...]     # subsets A_l of X
    s_enumeration: Tuple[str, ...]         # enumeration of Y's points
    kmax: int

    def __post_init__(self):
        ypts, xpts = self.y_space.points, self.x_space.points
        if sorted(self.s_enumeration) != sorted(ypts):
            raise ReductionError("s-enumeration must list exactly the Y points")
        if not (1 <= self.kmax <= len(ypts)):
            raise ReductionError(f"kmax must lie in 1..{len(ypts)}")
        names = [g.name for g in self.elements]
        if len(set(names)) != len(names):
            raise ReductionError("duplicate element names")
        try:
            G = FiniteGSpace(ypts, {g.name: g.y_map for g in self.elements})
        except GSpaceError as exc:
            raise ReductionError(f"Y-group: {exc}") from None
        x_map = {g.name: g.x_map for g in self.elements}
        for g in self.elements:
            if sorted(g.x_map) != sorted(xpts) or sorted(g.x_map.values()) != sorted(xpts):
                raise ReductionError(f"{g.name}: x-part is not a permutation of X")
            if not PartialIsometry(self.y_space, self.y_space, g.y_map).check().ok:
                raise ReductionError(f"{g.name} does not act by isometries on Y")
        for (g, h), gh in G.mult.items():
            if any(x_map[g][x_map[h][x]] != x_map[gh][x] for x in xpts):
                raise ReductionError(f"x-action is not a homomorphism at ({g},{h})")
        for subset in self.basis:
            for x in subset:
                if x not in xpts:
                    raise ReductionError(f"basis point {x!r} not in X")


def encoded_signature(inst: ReductionInstance) -> Signature:
    rels = [Relation(f"R_{k}_{l}", k)
            for k in range(1, inst.kmax + 1)
            for l in range(len(inst.basis))]
    return Signature(tuple(rels), ())


def encode(inst: ReductionInstance, x: str) -> FiniteStructure:
    """The encoded structure M(x) with every table entry computed exactly."""
    if x not in inst.x_space.points:
        raise ReductionError(f"{x!r} is not a point of X")
    ypts = inst.y_space.points
    sig = encoded_signature(inst)
    tables: Dict[str, Dict[Tuple[str, ...], Fraction]] = {}
    for k in range(1, inst.kmax + 1):
        prefix = inst.s_enumeration[:k]
        for l, subset in enumerate(inst.basis):
            table: Dict[Tuple[str, ...], Fraction] = {}
            for ys in product(ypts, repeat=k):
                best = None
                for g in inst.elements:
                    ypart = max(inst.y_space.d(g.y_map[y], s)
                                for y, s in zip(ys, prefix))
                    gx = g.x_map[x]
                    for xp in subset:
                        v = max(ypart, inst.x_space.d(gx, xp))
                        if best is None or v < best:
                            best = v
                if best is None:
                    raise ReductionError(f"basis set {l} is empty")
                table[ys] = best
            tables[f"R_{k}_{l}"] = table
    return FiniteStructure(inst.y_space, sig, tables, {})


@record
class OrbitEquivResult:
    same_orbit: bool
    isomorphic: bool
    orbit_witness: Optional[str]               # element name
    iso_witness: Optional[Mapping[str, str]]   # isometry of Y


def orbit_equiv(inst: ReductionInstance, x: str, xp: str) -> OrbitEquivResult:
    """Direct orbit check against brute-force isomorphism of the encodings.

    The two answers agree on every instance the generator produces; a
    disagreement would falsify the finite-scale reduction.
    """
    mx, mxp = encode(inst, x), encode(inst, xp)     # raise on an unknown point
    same, orbit_witness = False, None
    for g in inst.elements:
        if g.x_map[x] == xp:
            same, orbit_witness = True, g.name
            break

    iso_witness = next((iso for iso in space_isometries(inst.y_space)
                        if carries_tables(mx, mxp, iso)), None)
    return OrbitEquivResult(same, iso_witness is not None, orbit_witness, iso_witness)


def check_g_invariance(inst: ReductionInstance, x: str) -> List[str]:
    """R^{M(g.x)}(ys) = R^{M(x)}(g^{-1}(ys)) for every g and tuple."""
    failures = []
    mx = encode(inst, x)
    ypts = inst.y_space.points
    for g in inst.elements:
        mgx = encode(inst, g.x_map[x])
        ginv = {g.y_map[p]: p for p in ypts}
        for rel in mx.sig.relations:
            for tup, value in mgx.tables[rel.name].items():
                back = mx.tables[rel.name][tuple(ginv[p] for p in tup)]
                if back != value:
                    failures.append(
                        f"{rel.name}{tup}: M({g.name}.{x}) = {value} but pullback = {back}")
    return failures


def separating_prefix_length(y_space: RationalMetricSpace,
                             enumeration: Sequence[str]) -> int:
    """Shortest k such that only the identity isometry fixes the first k
    enumeration points pointwise."""
    isos = space_isometries(y_space)
    for k in range(1, len(enumeration) + 1):
        prefix = enumeration[:k]
        fixing = [i for i in isos if all(i[p] == p for p in prefix)]
        if len(fixing) == 1:
            return k
    return len(enumeration)


def _build_or_flatten(pts: Tuple[str, ...], dist: Dict[Tuple[str, str], Fraction],
                      flat: Fraction) -> RationalMetricSpace:
    """The space of dist, or, when dist breaks the triangle inequality, the
    space with every pair at flat (equal distances always close it)."""
    try:
        return RationalMetricSpace.build(pts, dist)
    except MetricError:
        return RationalMetricSpace.build(pts, dict.fromkeys(dist, flat))


def random_instance(rng: random.Random, max_y: int = 4, max_x: int = 6,
                    extra_basis: int = 2, max_group: int = 24) -> ReductionInstance:
    """A random instance with a non-trivial Y-symmetry group when possible.

    The basis always includes every singleton of X and the relation arity
    bound is the separating prefix length, the two conditions under which
    orbit equivalence and encoded isomorphism provably coincide here.  The
    acting group is a subgroup of Iso(Y) of size at most max_group, which
    bounds the cost of the exact table enumerations.
    """
    if max_group < 1:
        raise ReductionError("max_group must be >= 1")
    ny = rng.randint(2, max_y)
    ypts = tuple(f"s{i}" for i in range(ny))
    # two distance values produce symmetric spaces reasonably often
    d1 = Fraction(rng.randint(1, 3), 4)
    d2 = Fraction(rng.randint(1, 4), 4)
    dist = {}
    for p, q in combinations(ypts, 2):
        dist[(p, q)] = d1 if rng.random() < 2 / 3 else d2
    y_space = _build_or_flatten(ypts, dist, max(d1, d2))

    y_isos = [tuple(g[p] for p in ypts) for g in space_isometries(y_space)]
    compose = compose_permutations(ypts)
    group = None
    for n_seeds in (rng.randint(1, 2), 1, 0):
        seeds = rng.sample(y_isos, min(len(y_isos), n_seeds))
        group = group_closure(ypts, seeds, compose, max_group)
        if group is not None:
            break

    nx = rng.randint(2, max_x)
    xpts = tuple(f"x{i}" for i in range(nx))
    x_maps = _random_x_action(rng, group, compose, xpts)

    xdist = {}
    for p, q in combinations(xpts, 2):
        xdist[(p, q)] = Fraction(rng.randint(1, 4), 4)
    x_space = _build_or_flatten(xpts, xdist, Fraction(1, 2))

    elements = tuple(GroupElement(f"g{i}", dict(zip(ypts, g)), x_maps[i])
                     for i, g in enumerate(group))
    basis: List[Tuple[str, ...]] = [(x,) for x in xpts]
    for _ in range(rng.randint(0, extra_basis)):
        size = rng.randint(1, max(1, nx // 2))
        basis.append(tuple(sorted(rng.sample(list(xpts), size))))
    enumeration = ypts
    kmax = separating_prefix_length(y_space, enumeration)
    return ReductionInstance(y_space, x_space, elements, tuple(basis),
                             enumeration, kmax)


def _random_x_action(rng: random.Random, group: List[Tuple[str, ...]], compose,
                     xpts: Tuple[str, ...]):
    """Permutations of X indexed like group (compose(a, b) = a after b),
    forming a homomorphism.

    Acts on the left cosets of a random subgroup K, which is a homomorphism
    for any K; K grows until the coset space fits inside X, and the action
    is the identity on the leftover points.  K = G gives the trivial action
    as the worst case.
    """
    n = len(group)
    index = {g: i for i, g in enumerate(group)}

    def compose_idx(i: int, j: int) -> int:
        return index[compose(group[i], group[j])]

    m = len(xpts)
    gen_idxs = [rng.randrange(n)]
    subgroup = group_closure(0, gen_idxs, compose_idx)
    while n // len(subgroup) > m:
        gen_idxs.append(rng.randrange(n))
        subgroup = group_closure(0, gen_idxs, compose_idx)

    cosets = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        coset = frozenset(compose_idx(i, k) for k in subgroup)
        seen |= coset
        cosets.append(coset)
    coset_of = {i: c for c, coset in enumerate(cosets) for i in coset}

    maps = []
    for i in range(n):
        perm = {x: x for x in xpts}
        for c, coset in enumerate(cosets):
            rep = min(coset)
            target = coset_of[compose_idx(i, rep)]
            perm[xpts[c]] = xpts[target]
        maps.append(perm)
    return maps
