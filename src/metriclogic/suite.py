"""Randomized verification of the graded-transform algebra.

Generates finite discrete group actions with rational value grids and
checks, exactly, the duality, ordering, invariance, conjugate and
set-correspondence laws of the two transforms, plus the translate-closure
implication (closure is the identity in the discrete model, a caveat this
suite inherits by construction).  Every check is an exact rational
comparison; any violation is collected with a witness string.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence

from .rational import ONE, ZERO, dot_add
from .vaught import (FiniteGSpace, GradedTable, characteristic, compose_permutations,
                     conjugate_table, group_closure, is_invariant, is_subgroup_table,
                     translate_table, vaught_delta, vaught_sets, vaught_star,
                     _int_tables)


class SuiteReport:
    def __init__(self):
        self.instances = 0
        self.checks = 0
        self.violations: List[str] = []
        self.per_lemma: Dict[str, int] = {}

    def count(self, lemma: str, n: int = 1):
        self.checks += n
        self.per_lemma[lemma] = self.per_lemma.get(lemma, 0) + n

    @property
    def ok(self) -> bool:
        return not self.violations


def random_gspace(rng: random.Random, max_points: int = 12,
                  max_group: int = 24) -> FiniteGSpace:
    """A random permutation group action, |X| and |G| capped."""
    while True:
        n = rng.randint(2, max_points)
        points = tuple(f"x{i}" for i in range(n))
        gens = []
        for _ in range(rng.randint(1, 2)):
            perm = list(points)
            rng.shuffle(perm)
            gens.append(tuple(perm))
        perms = group_closure(points, gens, compose_permutations(points), max_group)
        if perms is None:
            continue
        named = {f"g{i}": dict(zip(points, perm)) for i, perm in enumerate(perms)}
        return FiniteGSpace(points, named)


def random_table(rng: random.Random, keys: Sequence[str],
                 max_denominator: int = 8) -> Dict[str, Fraction]:
    den = rng.choice([d for d in (1, 2, 4, 8) if d <= max_denominator])
    return {k: Fraction(rng.randint(0, den), den) for k in keys}


def random_subgroup_table(rng: random.Random, X: FiniteGSpace,
                          max_denominator: int = 8) -> Dict[str, Fraction]:
    """Random values repaired into a graded subgroup by downward closure."""
    H = random_table(rng, X.elements, max_denominator)
    H[X.identity] = ZERO
    changed = True
    while changed:
        changed = False
        for g in X.elements:
            v = min(H[g], H[X.inv[g]])
            if H[g] != v:
                H[g] = v
                changed = True
        for g in X.elements:
            for h in X.elements:
                bound = dot_add(H[g], H[h])
                gh = X.mult[(g, h)]
                if H[gh] > bound:
                    H[gh] = bound
                    changed = True
    assert is_subgroup_table(X, H)
    return H


def _cone(table: GradedTable, keys, r, strict=True):
    if strict:
        return frozenset(k for k in keys if table[k] < r)
    return frozenset(k for k in keys if table[k] <= r)


def check_duality(X, phi, J, report: SuiteReport):
    """phi^{*J} = 1 - (1 - phi)^{Delta J} pointwise."""
    star = vaught_star(X, phi, J)
    co = vaught_delta(X, {x: ONE - v for x, v in phi.items()}, J)
    report.count("duality", len(X.points))
    for x in X.points:
        if star[x] != ONE - co[x]:
            report.violations.append(f"duality fails at {x}: {star[x]} vs 1-{co[x]}")


def check_order(X, phi, J, report: SuiteReport):
    """Delta <= star, asserted for J with J(1) = 0 (subgroup-like data)."""
    if J[X.identity] != 0:
        return
    delta = vaught_delta(X, phi, J)
    star = vaught_star(X, phi, J)
    report.count("transform-order", len(X.points))
    for x in X.points:
        if delta[x] > star[x]:
            report.violations.append(f"delta > star at {x}: {delta[x]} > {star[x]}")


def check_invariance(X, phi, H, report: SuiteReport):
    """Transform values move by at most H(h); invariant tables are fixed
    points of both transforms; the delta transform lowers every table."""
    delta = vaught_delta(X, phi, H)
    star = vaught_star(X, phi, H)
    report.count("delta-below-open", len(X.points))
    for x in X.points:
        if delta[x] > phi[x]:
            report.violations.append(f"delta above phi at {x}")
    report.count("invariance-bound", 2 * len(X.points) * len(X.elements))
    for h in X.elements:
        for x in X.points:
            hx = X.act(h, x)
            if abs(star[hx] - star[x]) > H[h]:
                report.violations.append(
                    f"star moves too far at ({h},{x}): {abs(star[hx] - star[x])} > {H[h]}")
            if abs(delta[hx] - delta[x]) > H[h]:
                report.violations.append(
                    f"delta moves too far at ({h},{x}): {abs(delta[hx] - delta[x])} > {H[h]}")
    if is_invariant(X, delta, H):          # delta transform is H-invariant
        d2 = vaught_delta(X, delta, H)
        s2 = vaught_star(X, delta, H)
        report.count("invariant-fixed-point", len(X.points))
        for x in X.points:
            if not (d2[x] == delta[x] == s2[x]):
                report.violations.append(
                    f"invariant table not fixed at {x}: {d2[x]}, {delta[x]}, {s2[x]}")
    else:
        report.violations.append("delta transform failed to be H-invariant")


def check_conjugates(X, phi, H, g, report: SuiteReport):
    """Transforms along the coset Hg are invariant for the conjugate H^g."""
    rho = translate_table(X, H, g)
    hg = conjugate_table(X, H, g)
    delta = vaught_delta(X, phi, rho)
    star = vaught_star(X, phi, rho)
    report.count("conjugate-invariance", 2 * len(X.points) * len(X.elements))
    for h in X.elements:
        for x in X.points:
            hx = X.act(h, x)
            if delta[hx] > dot_add(delta[x], hg[h]):
                report.violations.append(
                    f"coset delta not H^g-invariant at ({h},{x})")
            if star[hx] > dot_add(star[x], hg[h]):
                report.violations.append(
                    f"coset star not H^g-invariant at ({h},{x})")


def check_set_correspondence(X, phi, u, report: SuiteReport):
    """On every grid threshold, cones of graded transforms match set
    transforms of cones."""
    o_u = characteristic(X.elements, u)
    delta_graded = vaught_delta(X, phi, o_u)
    star_graded = vaught_star(X, phi, o_u)
    E, _, _, grid = _int_tables(phi, o_u)
    grid = sorted(Fraction(k, E) for k in grid if k > 0)
    report.count("set-correspondence", 2 * len(grid))
    for r in grid:
        _, delta_set = vaught_sets(X, _cone(phi, X.points, r, strict=True), u)
        if delta_set != _cone(delta_graded, X.points, r, strict=True):
            report.violations.append(f"delta correspondence fails at r={r}")
        star_set, _ = vaught_sets(X, _cone(phi, X.points, r, strict=False), u)
        if star_set != _cone(star_graded, X.points, r, strict=False):
            report.violations.append(f"star correspondence fails at r={r}")


def check_translate_closure(X, phi, psi, H, report: SuiteReport):
    """Translate-closure implication in the discrete model: if phi_{<r} is
    covered by H_{<eps}.psi_{<t} then (phi^{DH})_{<r} is covered by
    H_{<r}.(psi^{DH})_{<t+eps}."""
    delta_phi = vaught_delta(X, phi, H)
    delta_psi = vaught_delta(X, psi, H)
    # value grids only (no midpoints): this check is cubic in the grid
    r_grid = sorted(set(phi.values()) | {ONE})
    t_grid = sorted(set(psi.values()) | {ONE})
    e_grid = sorted(v for v in set(H.values()) | {ONE} if v > 0)
    checked = 0
    for eps in e_grid:
        h_small = [h for h in X.elements if H[h] < eps]
        for t in t_grid:
            if t <= 0:
                continue
            targets = frozenset(X.act(h, y) for h in h_small
                                for y in X.points if psi[y] < t)
            for r in r_grid:
                if r <= 0 or not _cone(phi, X.points, r) <= targets:
                    continue
                checked += 1
                h_r = [h for h in X.elements if H[h] < r]
                cover = frozenset(X.act(h, y) for h in h_r for y in X.points
                                  if delta_psi[y] < t + eps)
                if not _cone(delta_phi, X.points, r) <= cover:
                    report.violations.append(
                        f"translate closure fails at (r,t,eps)=({r},{t},{eps})")
    report.count("translate-closure", checked)


def run_suite(seed: int, instances: int = 50, max_points: int = 12,
              max_group: int = 24, max_denominator: int = 8) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport()
    for _ in range(instances):
        X = random_gspace(rng, max_points, max_group)
        report.instances += 1
        phi = random_table(rng, X.points, max_denominator)
        psi = random_table(rng, X.points, max_denominator)
        J = random_table(rng, X.elements, max_denominator)
        H = random_subgroup_table(rng, X, max_denominator)
        g = rng.choice(X.elements)
        u = sorted(rng.sample(list(X.elements), rng.randint(1, len(X.elements))))

        check_duality(X, phi, J, report)
        check_order(X, phi, J, report)
        check_order(X, phi, H, report)
        check_invariance(X, phi, H, report)
        check_conjugates(X, phi, H, g, report)
        check_set_correspondence(X, phi, u, report)
        check_translate_closure(X, phi, psi, H, report)
    return report
