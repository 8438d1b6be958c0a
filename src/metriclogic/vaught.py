"""Exact Vaught transforms on finite discrete group actions.

Category notions collapse in the discrete topology: a set is meagre in an
open set exactly when the intersection is empty, and comeagre exactly when
it covers it.  Under that reading the graded transforms have closed forms

    delta:  (phi, J) -> x -> min_h (phi(h.x) +. J(h))
    star:   (phi, J) -> x -> max_h (phi(h.x) -. J(h))

and every transform here computes both the closed form and an independent
threshold scan of the definition, asserting equality.  Nothing in this
module is claimed for non-discrete groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from .rational import ONE, ZERO, dot_add, dot_scale, dot_sub, in_unit


class GSpaceError(ValueError):
    pass


GradedTable = Mapping[str, Fraction]   # total map, values in [0,1]


@dataclass(frozen=True)
class FiniteGSpace:
    """A finite group acting on a finite point set.

    elements: group element names; mult/inv/identity give the abstract
    group; action sends each element to a permutation of the points.  All
    axioms are verified on construction.
    """
    points: Tuple[str, ...]
    elements: Tuple[str, ...]
    mult: Mapping[Tuple[str, str], str]
    inv: Mapping[str, str]
    identity: str
    action: Mapping[str, Mapping[str, str]]

    def __post_init__(self):
        els = self.elements
        if self.identity not in els:
            raise GSpaceError("identity not among the elements")
        for g in els:
            for h in els:
                if self.mult.get((g, h)) not in els:
                    raise GSpaceError(f"multiplication not closed at ({g},{h})")
        for g in els:
            if self.mult[(self.identity, g)] != g or self.mult[(g, self.identity)] != g:
                raise GSpaceError(f"identity law fails at {g}")
            gi = self.inv.get(g)
            if gi not in els or self.mult[(g, gi)] != self.identity \
                    or self.mult[(gi, g)] != self.identity:
                raise GSpaceError(f"inverse law fails at {g}")
        for a in els:
            for b in els:
                for c in els:
                    if self.mult[(self.mult[(a, b)], c)] != self.mult[(a, self.mult[(b, c)])]:
                        raise GSpaceError(f"associativity fails at ({a},{b},{c})")
        for g in els:
            perm = self.action.get(g)
            if perm is None or sorted(perm) != sorted(self.points) \
                    or sorted(perm.values()) != sorted(self.points):
                raise GSpaceError(f"action of {g} is not a permutation")
        for g in els:
            for h in els:
                gh = self.mult[(g, h)]
                for x in self.points:
                    if self.action[g][self.action[h][x]] != self.action[gh][x]:
                        raise GSpaceError(f"action is not a homomorphism at ({g},{h})")

    def act(self, g: str, x: str) -> str:
        return self.action[g][x]

    @staticmethod
    def from_permutations(points: Sequence[str],
                          perms: Mapping[str, Mapping[str, str]]) -> "FiniteGSpace":
        """Build the abstract tables from named permutations (must be closed)."""
        points = tuple(points)
        names = tuple(perms)
        key = {name: tuple(perms[name][p] for p in points) for name in names}
        lookup = {v: k for k, v in key.items()}
        if len(lookup) != len(names):
            raise GSpaceError("duplicate permutations")
        ident_tuple = points
        if ident_tuple not in lookup:
            raise GSpaceError("identity permutation missing")
        mult = {}
        for a in names:
            for b in names:
                composed = tuple(perms[a][perms[b][p]] for p in points)
                c = lookup.get(composed)
                if c is None:
                    raise GSpaceError(f"set of permutations not closed at ({a},{b})")
                mult[(a, b)] = c
        inv = {}
        for a in names:
            inv_map = {perms[a][p]: p for p in points}
            c = lookup.get(tuple(inv_map[p] for p in points))
            if c is None:
                raise GSpaceError(f"inverse of {a} missing")
            inv[a] = c
        return FiniteGSpace(points, names, mult, inv, lookup[ident_tuple],
                            {n: dict(perms[n]) for n in names})


def check_table(X: FiniteGSpace, table: GradedTable, on_group: bool) -> None:
    keys = X.elements if on_group else X.points
    for k in keys:
        v = table.get(k)
        if v is None:
            raise GSpaceError(f"table not total: missing {k!r}")
        if not in_unit(v):
            raise GSpaceError(f"table value {v} at {k!r} outside [0,1]")


def characteristic(keys: Sequence[str], inside) -> Dict[str, Fraction]:
    inside = set(inside)
    return {k: (ZERO if k in inside else ONE) for k in keys}


def _value_grid(phi: GradedTable, J: GradedTable) -> List[Fraction]:
    vals = sorted(set(phi.values()) | set(J.values()) | {ZERO, ONE})
    grid = list(vals)
    for a, b in zip(vals, vals[1:]):
        grid.append((a + b) / 2)
    return sorted(set(grid))


def vaught_delta(X: FiniteGSpace, phi: GradedTable, J: GradedTable) -> Dict[str, Fraction]:
    """Graded delta-transform; closed form checked against the threshold scan."""
    check_table(X, phi, on_group=False)
    check_table(X, J, on_group=True)
    grid = _value_grid(phi, J)
    out = {}
    for x in X.points:
        closed = min(dot_add(phi[X.act(h, x)], J[h]) for h in X.elements)
        scanned = _delta_scan(X, phi, J, x, grid)
        if closed != scanned:
            raise GSpaceError(
                f"definition scan {scanned} disagrees with closed form {closed} at {x}")
        out[x] = closed
    return out


def _delta_scan(X, phi, J, x, grid) -> Fraction:
    # inf over threshold pairs (r,s) such that some h has phi(h.x) <= r and
    # J(h) <= s; the infimum of the strict-threshold definition is attained
    # on the closed grid of occurring values.  For fixed r the best s is the
    # least J-value among qualifying h (a grid point), so the inner
    # minimisation is exact.
    pairs = [(phi[X.act(h, x)], J[h]) for h in X.elements]
    best = None
    for r in grid:
        s_min = None
        for pv, jv in pairs:
            if pv <= r and (s_min is None or jv < s_min):
                s_min = jv
        if s_min is None:
            continue
        v = dot_add(r, s_min)
        best = v if best is None else min(best, v)
    if best is None:
        raise GSpaceError("empty group")
    return best


def vaught_star(X: FiniteGSpace, phi: GradedTable, J: GradedTable) -> Dict[str, Fraction]:
    """Graded star-transform; closed form checked against the threshold scan."""
    check_table(X, phi, on_group=False)
    check_table(X, J, on_group=True)
    grid = _value_grid(phi, J)
    out = {}
    for x in X.points:
        closed = max(dot_sub(phi[X.act(h, x)], J[h]) for h in X.elements)
        scanned = _star_scan(X, phi, J, x, grid)
        if closed != scanned:
            raise GSpaceError(
                f"definition scan {scanned} disagrees with closed form {closed} at {x}")
        out[x] = closed
    return out


def _star_scan(X, phi, J, x, grid) -> Fraction:
    pairs = [(phi[X.act(h, x)], J[h]) for h in X.elements]
    best = ZERO
    for r in grid:
        s_min = None
        for pv, jv in pairs:
            if pv >= r and (s_min is None or jv < s_min):
                s_min = jv
        if s_min is not None:
            best = max(best, dot_sub(r, s_min))
    return best


def vaught_sets(X: FiniteGSpace, A: Sequence[str], u: Sequence[str]) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """Set transforms (A^{*u}, A^{Delta u}) in the discrete reading."""
    A = set(A)
    u = list(u)
    if not u:
        raise GSpaceError("u must be a non-empty subset of the group")
    for h in u:
        if h not in X.elements:
            raise GSpaceError(f"{h!r} is not a group element")
    for a in A:
        if a not in X.points:
            raise GSpaceError(f"{a!r} is not a point")
    star = frozenset(x for x in X.points if all(X.act(h, x) in A for h in u))
    delta = frozenset(x for x in X.points if any(X.act(h, x) in A for h in u))
    return star, delta


def translate_table(X: FiniteGSpace, H: GradedTable, g: str) -> Dict[str, Fraction]:
    """Graded coset Hg: h -> H(h g^-1)."""
    gi = X.inv[g]
    return {h: H[X.mult[(h, gi)]] for h in X.elements}


def conjugate_table(X: FiniteGSpace, H: GradedTable, g: str) -> Dict[str, Fraction]:
    """Graded conjugate H^g: h -> H(g h g^-1)."""
    gi = X.inv[g]
    return {h: H[X.mult[(X.mult[(g, h)], gi)]] for h in X.elements}


def is_subgroup_table(X: FiniteGSpace, H: GradedTable) -> bool:
    if H[X.identity] != 0:
        return False
    if any(H[g] != H[X.inv[g]] for g in X.elements):
        return False
    return all(H[X.mult[(g, h)]] <= dot_add(H[g], H[h])
               for g in X.elements for h in X.elements)


def is_invariant(X: FiniteGSpace, phi: GradedTable, H: GradedTable) -> bool:
    """phi(g.x) <= phi(x) +. H(g) for all g, x."""
    return all(phi[X.act(g, x)] <= dot_add(phi[x], H[g])
               for g in X.elements for x in X.points)


@dataclass(frozen=True)
class ClosureResult:
    family: Tuple[Tuple[Fraction, ...], ...]
    fixed_point: bool
    applications: int


def nice_closure(X: FiniteGSpace, family: Sequence[GradedTable],
                 cosets: Sequence[GradedTable], budget: int,
                 scales: Sequence[Fraction] = ()) -> ClosureResult:
    """Close a family of point tables under the connective, scaling and
    transform operations, within a budget of operation applications.

    Tables are deduplicated by their value vectors; the result reports
    whether a full sweep added nothing (a fixed point).  Transforms use the
    supplied group tables, scaling the supplied rational set.
    """
    for t in family:
        check_table(X, t, on_group=False)
    for r in cosets:
        check_table(X, r, on_group=True)

    def vec(table: GradedTable) -> Tuple[Fraction, ...]:
        return tuple(table[p] for p in X.points)

    def tab(v: Tuple[Fraction, ...]) -> Dict[str, Fraction]:
        return dict(zip(X.points, v))

    known: Dict[Tuple[Fraction, ...], None] = {}     # an insertion-ordered set

    def learn(v) -> bool:
        if v in known:
            return False
        known[v] = None
        return True

    for t in family:
        learn(vec(t))

    applications = 0
    fixed_point = not known

    def unary_ops(v):
        yield tuple(ONE - a for a in v)
        for q in scales:
            yield tuple(dot_scale(Fraction(q), a) for a in v)
        for rho in cosets:
            yield vec(vaught_delta(X, tab(v), rho))
            yield vec(vaught_star(X, tab(v), rho))

    def binary_ops(v, w):
        yield tuple(min(a, b) for a, b in zip(v, w))
        yield tuple(max(a, b) for a, b in zip(v, w))
        yield tuple(abs(a - b) for a, b in zip(v, w))
        yield tuple(dot_sub(a, b) for a, b in zip(v, w))
        yield tuple(dot_add(a, b) for a, b in zip(v, w))

    while known:
        added = False
        snapshot = list(known)
        for v in snapshot:
            for out in unary_ops(v):
                applications += 1
                if applications > budget:
                    return ClosureResult(tuple(known), False, applications - 1)
                added |= learn(out)
        for v in snapshot:
            for w in snapshot:
                for out in binary_ops(v, w):
                    applications += 1
                    if applications > budget:
                        return ClosureResult(tuple(known), False, applications - 1)
                    added |= learn(out)
        if not added:
            fixed_point = True
            break
    return ClosureResult(tuple(known), fixed_point, applications)
