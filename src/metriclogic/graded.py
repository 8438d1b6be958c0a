"""Graded subgroups and cosets evaluated on partial isometries.

A descriptor assigns to a partial isometry g the value q *. max_i
d(g(s_i), s'_i), either as given (linear kind) or under a square root (sqrt
kind); max-combinations take the pointwise maximum.  Internally every value
is carried as its squared form ("radicand"), a rational in [0,1] whose
square root is the value.  Sums, maxima and comparisons of such values
reduce to exact rational arithmetic, so the subgroup axioms are decided
with no rounding even for the sqrt family.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .intervals import (Enclosure, sqrt_enclosure, sqrt_leq_sum,
                        truncated_weighted_sum)
from .metric import PartialIsometry, RationalMetricSpace
from .rational import ONE, ZERO, dot_scale
from .record import record
from .structures import (FiniteStructure, automorphisms, delta_exact, evaluate,
                         guard_tuples, space_isometries, canonical_enumeration)
from .formula import Formula, lipschitz


class GradedError(ValueError):
    pass


@record
class GradedAtomDescriptor:
    kind: str                    # "linear" | "sqrt"
    scale: Fraction
    base: Tuple[str, ...]
    shift: Tuple[str, ...]       # equal to base for a subgroup

    def __post_init__(self):
        if self.kind not in ("linear", "sqrt"):
            raise GradedError(f"kind must be linear or sqrt, got {self.kind!r}")
        if Fraction(self.scale) <= 0:
            raise GradedError("scale must be a positive rational")
        if len(self.base) != len(self.shift):
            raise GradedError("base and shift tuples must have equal length")
        if not self.base:
            raise GradedError("descriptor needs at least one base point")

    @property
    def is_subgroup(self) -> bool:
        return self.base == self.shift

    def leaves(self):
        return (self,)


@record
class GradedMaxDescriptor:
    parts: Tuple[GradedAtomDescriptor, ...]

    def __post_init__(self):
        if not self.parts:
            raise GradedError("max combination needs at least one part")

    @property
    def is_subgroup(self) -> bool:
        return all(p.is_subgroup for p in self.parts)

    def leaves(self):
        return self.parts


GradedDescriptor = Union[GradedAtomDescriptor, GradedMaxDescriptor]


def required_points(D: GradedDescriptor) -> Tuple[str, ...]:
    seen: List[str] = []
    for leaf in D.leaves():
        for p in leaf.base:
            if p not in seen:
                seen.append(p)
    return tuple(seen)


def graded_radicand(D: GradedDescriptor, g: PartialIsometry) -> Fraction:
    """Squared value of D at g: an exact rational in [0,1]."""
    best = ZERO
    for leaf in D.leaves():
        if not g.defined_on(leaf.base):
            raise GradedError(f"isometry undefined on base tuple {leaf.base}")
        for s in leaf.shift:
            if not g.target.has_point(s):
                raise GradedError(f"shift point {s!r} not in the target space")
        move = max(g.target.d(g.apply(s), t) for s, t in zip(leaf.base, leaf.shift))
        q = Fraction(leaf.scale)
        if leaf.kind == "linear":
            rad = dot_scale(q, move) ** 2
        else:
            rad = min(q * q * move, ONE)
        best = max(best, rad)
    return best


def graded_eval(D: GradedDescriptor, g: PartialIsometry) -> Union[Fraction, Enclosure]:
    """Exact value for all-linear descriptors, an enclosure otherwise."""
    rad = graded_radicand(D, g)
    if all(leaf.kind == "linear" for leaf in D.leaves()):
        # radicands of linear leaves are perfect squares by construction
        return _exact_sqrt(rad)
    return sqrt_enclosure(rad)


def _exact_sqrt(rad: Fraction) -> Fraction:
    e = sqrt_enclosure(rad, 2)
    if not e.is_exact:
        raise GradedError(f"radicand {rad} is not a rational square")
    return e.lo


def value_below(D: GradedDescriptor, g: PartialIsometry, eps: Fraction) -> bool:
    """Decide value(D, g) < eps exactly (compare radicands with eps^2)."""
    eps = Fraction(eps)
    return eps > 0 and graded_radicand(D, g) < eps * eps


@record
class AxiomFailure:
    axiom: str
    witness: str


@record
class AxiomReport:
    checked_identity: int
    checked_symmetry: int
    checked_subadditivity: int
    failures: Tuple[AxiomFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_graded_axioms(D: GradedDescriptor, space: RationalMetricSpace,
                        pairs: Sequence[Tuple[PartialIsometry, PartialIsometry]]) -> AxiomReport:
    """Verify H(1) = 0, H(g) = H(g^-1), H(gg') <= H(g) +. H(g') on the data.

    Exact decisions throughout: with radicands r, s, t the subadditivity
    sqrt(r) <= min(sqrt(s) + sqrt(t), 1) holds iff sqrt(s) + sqrt(t) >= 1 or
    (r - s - t)^2 <= 4 s t, both rational tests.  Each radicand is computed
    once per target and tuple of images of the descriptor's points.
    """
    if not D.is_subgroup:
        raise GradedError("axiom check applies to subgroup descriptors (shift = base)")
    pts = required_points(D)
    failures: List[AxiomFailure] = []
    n_id = n_sym = n_sub = 0
    memo: Dict[tuple, Fraction] = {}

    def radicand(target: RationalMetricSpace, images: Mapping[str, str]) -> Fraction:
        # All graded_radicand reads of a map: its target and the images of
        # pts.  One record is built per key, none per inverse or composition.
        key = (target, tuple(images.get(p) for p in pts))
        if key not in memo:
            memo[key] = graded_radicand(D, PartialIsometry(target, target, images))
        return memo[key]

    n_id += 1
    if radicand(space, {p: p for p in pts}) != 0:
        failures.append(AxiomFailure("identity", "H(1) != 0"))

    elements: List[PartialIsometry] = []
    for g, gp in pairs:
        elements.extend((g, gp))
    for g in elements:
        inverse = {v: k for k, v in g.map.items()}
        if not (g.defined_on(pts) and all(p in inverse for p in pts)):
            continue
        n_sym += 1
        if radicand(g.target, g.map) != radicand(g.source, inverse):
            failures.append(AxiomFailure("symmetry", f"H(g) != H(g^-1) for {dict(g.map)}"))

    for g, gp in pairs:
        if not gp.defined_on(pts):
            raise GradedError(f"pair not composable: inner map undefined on {pts}")
        if not all(gp.map[p] in g.map for p in pts):
            raise GradedError("pair not composable: outer map undefined on inner image")
        if g.source.points != gp.target.points:
            raise GradedError("composition spaces do not match")
        n_sub += 1
        r = radicand(g.target, {p: g.map[gp.map[p]] for p in pts})
        s = radicand(g.target, g.map)
        t = radicand(gp.target, gp.map)
        if not (sqrt_leq_sum(ONE, s, t) or sqrt_leq_sum(r, s, t)):
            failures.append(AxiomFailure(
                "subadditivity",
                f"H(gg') > H(g) +. H(g') with radicands {r}, {s}, {t}"))
    return AxiomReport(n_id, n_sym, n_sub, tuple(failures))


@record
class GroupMetricContext:
    """Dense enumeration s_1, s_2, ... of a stored fragment, weights 2^-i."""
    space: RationalMetricSpace
    enumeration: Tuple[str, ...]

    def __post_init__(self):
        if len(set(self.enumeration)) != len(self.enumeration):
            raise GradedError("enumeration must be injective")
        for p in self.enumeration:
            if not self.space.has_point(p):
                raise GradedError(f"enumeration point {p!r} not in the space")


def rho_s(g: PartialIsometry, h: PartialIsometry, ctx: GroupMetricContext,
          k: int) -> Enclosure:
    """Left-invariant metric truncated after k points: tail bound 2^-k."""
    if k < 0 or k > len(ctx.enumeration):
        raise GradedError(f"truncation {k} outside 0..{len(ctx.enumeration)}")
    pts = ctx.enumeration[:k]
    if not all(s in g.map and s in h.map for s in pts):
        raise GradedError(f"isometries must be defined on the first {k} points")
    return truncated_weighted_sum(min(ONE, g.target.d(g.apply(s), h.apply(s)))
                                  for s in pts)


@record
class InvarianceFailure:
    sample: Mapping[str, str]
    gap: Fraction
    bound: Fraction


@record
class InvarianceReport:
    checked: int
    failures: Tuple[InvarianceFailure, ...]
    rejected: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.rejected


def check_formula_invariance(phi: Formula, M: FiniteStructure,
                             params: Mapping[str, str],
                             samples: Sequence[PartialIsometry]) -> InvarianceReport:
    """Graded-stabiliser bound: |phi(M) - phi(g(M))| at fixed parameters is
    at most L *. max_i d(c_i, g(c_i)) with L the linear modulus of phi.

    Samples must extend to automorphisms of M; non-extendable samples are
    reported as rejected.
    """
    coeff = lipschitz(phi, M.sig)
    base = evaluate(phi, M, params)
    autos = automorphisms(M)
    failures: List[InvarianceFailure] = []
    rejected: List[str] = []
    checked = 0
    for sample in samples:
        extensions = [a for a in autos
                      if all(a.get(p) == q for p, q in sample.map.items())]
        if not extensions:
            rejected.append(f"sample {dict(sample.map)} does not extend to an automorphism")
            continue
        for a in extensions:
            checked += 1
            moved = M.transport(a)
            value = evaluate(phi, moved, params)
            stab = dot_scale(coeff, max((M.space.d(p, a[p]) for p in params.values()),
                                        default=ZERO))
            gap = abs(value - base)
            if gap > stab:
                failures.append(InvarianceFailure(dict(a), gap, stab))
    return InvarianceReport(checked, tuple(failures), tuple(rejected))


@record
class ApproxWitness:
    isometry: PartialIsometry
    h_radicand: Fraction
    structure_distance: Fraction


@record
class ApproxFailure:
    examined: int


def approx_search(M: FiniteStructure, N: FiniteStructure, H: GradedDescriptor,
                  eps: Fraction, budget: int):
    """Search the fragment's isometries for g with H(g) < eps moving N
    within eps of M in the structure metric.

    Isometries are enumerated in lexicographic order, so the witness is
    deterministic.  Closeness uses the full weighted sum over the canonical
    enumeration.
    """
    if M.space.points != N.space.points or M.sig != N.sig:
        raise GradedError("structures must share their fragment and signature")
    eps = Fraction(eps)
    enumeration = canonical_enumeration(M.sig, M.space)
    examined = 0
    for iso in space_isometries(M.space):
        if examined >= budget:
            break
        examined += 1
        g = PartialIsometry(M.space, M.space, iso)
        rad = graded_radicand(H, g)
        if not (eps > 0 and rad < eps * eps):
            continue
        moved = N.transport(iso)
        dist = delta_exact(M, moved, enumeration)
        if dist < eps:
            return ApproxWitness(g, rad, dist)
    return ApproxFailure(examined)


class SizeGuardError(GradedError):
    pass


# Guard of `oligo_probe` besides `structures.MAX_TUPLES`: the group it acts by.
MAX_GROUP = 5040


@record
class OligoResult:
    family: Tuple[Tuple[str, ...], ...]
    certificate: Mapping[Tuple[str, ...], Tuple[Tuple[str, ...], Fraction]]
    orbit_count: int
    group_order: int


def oligo_probe(M: FiniteStructure, n: int, eps: Fraction) -> OligoResult:
    """Minimal family F of n-tuples whose orbit closure is eps-dense in M^n.

    Computed by set cover over orbit eps-neighbourhoods; minimality comes
    from exhausting families by size, so the guard caps the combinatorics.
    """
    if n < 1:
        raise GradedError("n must be >= 1")
    eps = Fraction(eps)
    if eps < 0:
        raise GradedError("eps must be >= 0")
    pts = M.space.points
    guard_tuples(pts, n, SizeGuardError)
    autos = automorphisms(M)
    if len(autos) > MAX_GROUP:
        raise SizeGuardError(f"automorphism group of size {len(autos)} exceeds the guard")

    tuples = list(product(pts, repeat=n))

    def orbit(t):
        return frozenset(tuple(a[p] for p in t) for a in autos)

    orbits: List[frozenset] = []
    seen = set()
    for t in tuples:
        if t in seen:
            continue
        o = orbit(t)
        seen |= o
        orbits.append(o)

    # dist[i][t]: the sup distance from tuple t to the nearest tuple of orbit i
    dist = [{t: min(max(M.space.d(x, y) for x, y in zip(t, u)) for u in o) for t in tuples}
            for o in orbits]
    coverage = [frozenset(t for t in tuples if di[t] <= eps) for di in dist]

    universe = frozenset(tuples)
    for size in range(1, len(orbits) + 1):
        for combo in combinations(range(len(orbits)), size):
            if frozenset().union(*(coverage[i] for i in combo)) == universe:
                family = tuple(min(orbits[i]) for i in combo)
                cert: Dict[Tuple[str, ...], Tuple[Tuple[str, ...], Fraction]] = {}
                for t in tuples:
                    best = None
                    for rep, i in zip(family, combo):
                        dd = dist[i][t]
                        if dd <= eps and (best is None or dd < best[1]):
                            best = (rep, dd)
                    cert[t] = best
                return OligoResult(family, cert, len(orbits), len(autos))
    raise GradedError("internal: no family covered the tuple space")
