"""Controlled amalgamation of a perturbed copy of a finite subspace.

Given points a_1..a_n of a host space, a second space B on b_1..b_n whose
pairwise distances deviate from the a-distances by at most eps, and q shared
initial points, this builds one metric space on {a_1..a_n, b_{q+1}..b_n} in
which every displaced copy sits at distance exactly (2*C(n-q,2)+1)*eps from
its original.  Cross distances are filled in pair by pair in ascending order
of min(d(a_i,a_j), d(b_i,b_j)); each pair receives that minimum lowered by a
margin eps_m, eps/2 by default and otherwise inherited from an
already-placed pair that shares an exactly-geodesic triple with the current
one.  The hypotheses below make the procedure always succeed; an internal
triangle failure after a successful hypothesis check is a bug, not a user
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Sequence, Tuple

from .metric import (EmbeddingWitness, MetricError, RationalMetricSpace,
                     Violation, validate_table)
from .rational import ONE


class HypothesisError(MetricError):
    """The inputs violate a stated hypothesis of the construction."""


class ConstructionError(MetricError):
    """Internal failure: a triangle broke although the hypotheses held."""


@dataclass(frozen=True)
class AmalgamResult:
    space: RationalMetricSpace
    witness: EmbeddingWitness          # embeds B into the output
    displacement: Fraction             # (2*C(n-q,2)+1)*eps, exact
    b_names: Tuple[str, ...]           # output names of b_1..b_n in order


def _distances(host: RationalMetricSpace, a_points: Sequence[str],
               b_space: RationalMetricSpace):
    """(da, db): d(a_i, a_j) in the host and d(b_i, b_j) in B, by index."""
    bs = b_space.points
    return (lambda i, j: host.d(a_points[i], a_points[j]),
            lambda i, j: b_space.d(bs[i], bs[j]))


def check_hypotheses(host: RationalMetricSpace, a_points: Sequence[str],
                     b_space: RationalMetricSpace, q: int,
                     eps: Fraction) -> List[Violation]:
    """Report every violated hypothesis; an empty list means all hold.

    Margins that hold with equality are rejected: the construction is only
    claimed for strict inequalities, so boundary instances are refused
    rather than guessed at.
    """
    out: List[Violation] = []
    n = len(a_points)
    eps = Fraction(eps)
    if len(b_space.points) != n:
        return [Violation("missing", tuple(b_space.points),
                          f"B must have exactly {n} points")]
    if not (0 <= q <= n):
        return [Violation("range", (), f"q = {q} outside 0..{n}")]
    if eps <= 0:
        return [Violation("range", (), f"eps = {eps} must be positive")]
    if len(set(a_points)) != n:
        return [Violation("missing", tuple(a_points), "repeated a-points")]
    for p in a_points:
        if not host.has_point(p):
            return [Violation("missing", (p,), "not a point of the host space")]

    disp = (2 * comb(n - q, 2) + 1) * eps
    if disp > ONE:
        out.append(Violation("range", (), f"displacement {disp} exceeds the diameter bound"))

    bs = b_space.points
    da, db = _distances(host, a_points, b_space)
    for i, j in combinations(range(n), 2):
        if disp >= da(i, j):
            out.append(Violation("range", (a_points[i], a_points[j]),
                                 f"(2C+1)eps = {disp} not < d = {da(i, j)}"))
        if abs(db(i, j) - da(i, j)) > eps:
            out.append(Violation("range", (bs[i], bs[j]),
                                 f"|d_B - d_A| = {abs(db(i, j) - da(i, j))} > eps"))
    # Exactly-geodesic triples (margin 0) are refused whenever two or more
    # of their points are displaced.  For such a triple the long side equals
    # the sum of the short ones, while both assigned cross distances under it
    # are strictly below the corresponding short sides, so the displaced copy
    # cannot close the triangle; geodesics with at least two fixed points
    # never meet an assigned cross pair and are harmless.  They are reported
    # after every margin failure.
    geodesic: List[Violation] = []
    for i, j, k in combinations(range(n), 3):
        displaced = sum(1 for t in (i, j, k) if t >= q) >= 2
        for c, u, v in ((i, j, k), (j, i, k), (k, i, j)):
            margin = da(c, u) + da(c, v) - da(u, v)
            if margin != 0 and margin <= disp:
                out.append(Violation(
                    "triangle", (a_points[c], a_points[u], a_points[v]),
                    f"non-geodesic margin {margin} not > {disp}"))
            elif margin == 0 and displaced:
                geodesic.append(Violation(
                    "triangle", (a_points[i], a_points[j], a_points[k]),
                    "geodesic triple with two displaced points"))
    out.extend(geodesic)
    for i, j in combinations(range(q), 2):
        if db(i, j) != da(i, j):
            out.append(Violation("symmetry", (bs[i], bs[j]),
                                 f"B must agree with A on the first {q} points"))
    return out


def amalgamate(host: RationalMetricSpace, a_points: Sequence[str],
               b_space: RationalMetricSpace, q: int, eps: Fraction) -> AmalgamResult:
    """Run the construction; raises HypothesisError with the full report."""
    eps = Fraction(eps)
    bad = check_hypotheses(host, a_points, b_space, q, eps)
    if bad:
        raise HypothesisError("; ".join(str(v) for v in bad))

    n = len(a_points)
    a_points = tuple(a_points)
    disp = (2 * comb(n - q, 2) + 1) * eps

    # Output points: the a-points keep their names; moved b-points get fresh
    # names derived from B's, suffixed until they avoid the a-names.
    taken = set(a_points)
    b_names: List[str] = []
    for i, b in enumerate(b_space.points):
        if i < q:
            b_names.append(a_points[i])
            continue
        name = b
        while name in taken:
            name = name + "'"
        taken.add(name)
        b_names.append(name)

    points = list(a_points) + b_names[q:]
    dist: Dict[Tuple[str, str], Fraction] = {}

    def put(x, y, d):
        dist[(x, y)] = d
        dist[(y, x)] = d

    da, db = _distances(host, a_points, b_space)
    for p in points:
        dist[(p, p)] = Fraction(0)
    for i, j in combinations(range(n), 2):
        put(a_points[i], a_points[j], da(i, j))
        if i >= q or j >= q:
            put(b_names[i], b_names[j], db(i, j))
    for i in range(q, n):
        put(a_points[i], b_names[i], disp)

    def breaks_triangle(i, j, v):
        # Would setting d(a_i, b_j) = d(b_i, a_j) = v violate a triangle with
        # any third point whose distances to both ends are already in the
        # table?  Neither pair is yet, so an end is never that third point.
        for x, y in ((a_points[i], b_names[j]), (b_names[i], a_points[j])):
            for z in points:
                xz, yz = dist.get((x, z)), dist.get((y, z))
                if xz is not None and yz is not None and (v > xz + yz or abs(xz - yz) > v):
                    return True
        return False

    pairs = sorted(combinations(range(q, n), 2),
                   key=lambda ij: (min(da(*ij), db(*ij)), ij))
    eps_used: Dict[Tuple[int, int], Fraction] = {}
    for m, (i, j) in enumerate(pairs, start=1):
        low = min(da(i, j), db(i, j))
        eps_m = eps / 2
        if breaks_triangle(i, j, low - eps_m):
            # Inherit the largest margin of an already-placed pair that forms
            # an exactly-geodesic a-triple with the current one.
            candidates = []
            for k in range(n):
                if k in (i, j):
                    continue
                if da(i, k) + da(j, k) == da(i, j):
                    for pk in (tuple(sorted((i, k))), tuple(sorted((j, k)))):
                        if pk in eps_used:
                            candidates.append(eps_used[pk])
            if candidates:
                eps_m = max(candidates)
            if not (eps / 2 <= eps_m <= m * eps):
                raise ConstructionError(f"margin {eps_m} escaped [eps/2, m*eps] at step {m}")
            if breaks_triangle(i, j, low - eps_m):
                raise ConstructionError(
                    f"triangle violation while placing pair ({a_points[i]},{b_names[j]})")
        v = low - eps_m
        put(a_points[i], b_names[j], v)
        put(b_names[i], a_points[j], v)
        eps_used[(i, j)] = eps_m

    report = validate_table(points, dist)
    if not report.ok:
        raise ConstructionError(f"output failed validation: {report}")
    space = RationalMetricSpace(tuple(points), dist)
    witness = EmbeddingWitness(b_space, space,
                               dict(zip(b_space.points, b_names)))
    wreport = witness.check()
    if not wreport.ok:
        raise ConstructionError(f"B-embedding broke: {wreport}")
    return AmalgamResult(space, witness, disp, tuple(b_names))
