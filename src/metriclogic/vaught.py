"""Exact Vaught transforms on finite discrete group actions.

Category notions collapse in the discrete topology: a set is meagre in an
open set exactly when the intersection is empty, and comeagre exactly when
it covers it.  Under that reading the graded transforms have closed forms

    delta:  (phi, J) -> x -> min_h (phi(h.x) +. J(h))
    star:   (phi, J) -> x -> max_h (phi(h.x) -. J(h))

and every transform here computes both the closed form and an independent
threshold scan of the definition, asserting equality.  Nothing in this
module is claimed for non-discrete groups.

Both run on ints: phi and J are scaled once by E, twice the lcm of their
denominators, so every grid midpoint is an int too.  The scan still checks
every value of the closed form, and each value becomes a Fraction once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple

from .rational import ONE, ZERO, dot_add, dot_scale, dot_sub, in_unit, scaled
from .record import field, record


class GSpaceError(ValueError):
    pass


GradedTable = Mapping[str, Fraction]   # total map, values in [0,1]


@record
class FiniteGSpace:
    """A finite group acting on a finite point set, given by its named
    permutations.

    action sends each element name to a permutation of the points.  The
    constructor checks that the maps are distinct permutations, that the
    identity is among them and that the set is closed under composition,
    which makes it a group: a finite set of permutations closed under
    composition holds every inverse.  elements, mult, inv and identity are
    derived from the maps, so the group axioms and the homomorphism law
    hold by construction.
    """
    points: Tuple[str, ...]
    action: Mapping[str, Mapping[str, str]]
    elements: Tuple[str, ...] = field(init=False)
    mult: Mapping[Tuple[str, str], str] = field(init=False)
    inv: Mapping[str, str] = field(init=False)
    identity: str = field(init=False)

    def __post_init__(self):
        points = tuple(self.points)
        names = tuple(self.action)
        want = sorted(points)
        for g in names:
            perm = self.action[g]
            if sorted(perm) != want or sorted(perm.values()) != want:
                raise GSpaceError(f"action of {g} is not a permutation")
        key = {g: tuple(self.action[g][p] for p in points) for g in names}
        lookup = {v: g for g, v in key.items()}
        if len(lookup) != len(names):
            raise GSpaceError("duplicate permutations")
        if points not in lookup:
            raise GSpaceError("identity permutation missing")
        compose = compose_permutations(points)
        mult = {}
        for a in names:
            for b in names:
                c = lookup.get(compose(key[a], key[b]))
                if c is None:
                    raise GSpaceError(f"set of permutations not closed at ({a},{b})")
                mult[(a, b)] = c
        identity = lookup[points]
        inv = {a: b for (a, b), c in mult.items() if c == identity}
        for name, value in (("points", points), ("elements", names),
                            ("mult", mult), ("inv", inv), ("identity", identity),
                            ("action", {g: dict(self.action[g]) for g in names})):
            object.__setattr__(self, name, value)

    def act(self, g: str, x: str) -> str:
        return self.action[g][x]


def group_closure(identity, generators, compose, cap=None):
    """The group generated by generators, in breadth-first order: identity,
    then the distinct generators, then compose(a, b) for each generator a and
    each element b of the last frontier.  Elements must be hashable.  None
    once the group, its starting set included, has more than cap elements."""
    group = dict.fromkeys([identity, *generators])
    if cap is not None and len(group) > cap:
        return None
    gens, frontier = list(group)[1:], list(group)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = compose(a, b)
                if c not in group:
                    group[c] = None
                    new.append(c)
                    if cap is not None and len(group) > cap:
                        return None
        frontier = new
    return list(group)


def compose_permutations(points: Sequence[str]):
    """compose(a, b) = a after b, on permutations of points written as the
    tuple of images of points in order."""
    pos = {p: i for i, p in enumerate(points)}
    return lambda a, b: tuple(a[pos[q]] for q in b)


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


def _int_tables(phi: GradedTable, J: GradedTable):
    """(E, P, Jk, grid): E = 2 * the lcm of both tables' denominators, the
    tables times E as ints, and the threshold grid on those ints: every
    value, 0 and E, and the midpoint of each two neighbours.  Every value is
    an even int, so every midpoint is an int too."""
    E = 2 * lcm(*(v.denominator for t in (phi, J) for v in t.values()))
    P, Jk = dict(zip(phi, scaled(phi.values(), E))), dict(zip(J, scaled(J.values(), E)))
    vals = sorted({*P.values(), *Jk.values(), 0, E})
    return E, P, Jk, vals + [(a + b) // 2 for a, b in zip(vals, vals[1:])]


def vaught_delta(X: FiniteGSpace, phi: GradedTable, J: GradedTable) -> Dict[str, Fraction]:
    """Graded delta-transform; closed form checked against the threshold scan."""
    return _transform(X, phi, J, lambda pairs, E: min(E, min(p + j for p, j in pairs)),
                      _delta_scan)


def vaught_star(X: FiniteGSpace, phi: GradedTable, J: GradedTable) -> Dict[str, Fraction]:
    """Graded star-transform; closed form checked against the threshold scan."""
    return _transform(X, phi, J, lambda pairs, E: max(0, max(p - j for p, j in pairs)),
                      _star_scan)


def _transform(X, phi, J, closed, scan) -> Dict[str, Fraction]:
    """x -> closed(pairs, E) over the pairs (phi(h.x), J(h)) for every h,
    on ints over E; each value is checked against scan, the transform's
    definition, on the same ints."""
    check_table(X, phi, on_group=False)
    check_table(X, J, on_group=True)
    E, P, Jk, grid = _int_tables(phi, J)
    acts = [(X.action[h], Jk[h]) for h in X.elements]
    out = {}
    for x in X.points:
        pairs = [(P[a[x]], j) for a, j in acts]
        value = closed(pairs, E)
        scanned = scan(pairs, grid, E)
        if value != scanned:
            raise GSpaceError(f"definition scan {Fraction(scanned, E)} disagrees with "
                              f"closed form {Fraction(value, E)} at {x}")
        out[x] = Fraction(value, E)
    return out


def _delta_scan(pairs, grid, top):
    # pairs holds (phi(h.x), J(h)) for every h, on ints over top = E.  inf
    # over threshold pairs (r,s) such that some h has phi(h.x) <= r and
    # J(h) <= s, capped at top; the infimum of the strict-threshold
    # definition is attained on the closed grid of occurring values.  For
    # fixed r the best s is the least J-value among qualifying h (a grid
    # point), so the inner minimisation is exact.
    best = top
    for r in grid:
        s_min = min((jv for pv, jv in pairs if pv <= r), default=None)
        if s_min is not None:
            best = min(best, r + s_min)
    return best


def _star_scan(pairs, grid, top):
    best = 0
    for r in grid:
        s_min = min((jv for pv, jv in pairs if pv >= r), default=None)
        if s_min is not None:
            best = max(best, r - s_min)
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


@record
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
    scales = [Fraction(q) for q in scales]
    if any(q <= 0 for q in scales):
        raise GSpaceError("scale factor must be a positive rational")

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

    def sweep(snapshot):
        """Every unary output over the snapshot, then every binary one."""
        for v in snapshot:
            yield tuple(ONE - a for a in v)
            for q in scales:
                yield tuple(dot_scale(q, a) for a in v)
            for rho in cosets:
                yield vec(vaught_delta(X, tab(v), rho))
                yield vec(vaught_star(X, tab(v), rho))
        binary = (min, max, lambda a, b: abs(a - b), dot_sub, dot_add)
        for v in snapshot:
            for w in snapshot:
                for op in binary:
                    yield tuple(map(op, v, w))

    while known:
        added = False
        for out in sweep(list(known)):
            applications += 1
            if applications > budget:
                return ClosureResult(tuple(known), False, applications - 1)
            added |= learn(out)
        if not added:
            fixed_point = True
            break
    return ClosureResult(tuple(known), fixed_point, applications)
