"""Shared oracles and random-instance generators for the test suite.

The oracles here are deliberately independent re-derivations (plain loops,
no calls into the code paths they check).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from metriclogic.formula import (AbsDiff, AtomD, AtomR, Const, ConstName,
                                 DotMinus, DotPlus, DotScale, Half, Inf, Max,
                                 Min, Neg, Relation, Signature, Sup, Var,
                                 is_quantifier_free)
from metriclogic.metric import RationalMetricSpace
from metriclogic.structures import FiniteStructure, evaluate


def triangle_violations(points, d):
    """Independent exhaustive triangle check; d is a callable."""
    bad = []
    for a, b, c in combinations(points, 3):
        ab, bc, ac = d(a, b), d(b, c), d(a, c)
        if ac > ab + bc or ab > ac + bc or bc > ab + ac:
            bad.append((a, b, c))
    return bad


def validation_text(points, table):
    """Independent re-derivation of `validate_table`'s report text.

    Plain loops over a table of Fractions: the diagonal, then each pair
    (missing, asymmetric, out of range), then, when nothing is missing,
    every triple that fails one of its three triangle inequalities.
    """
    out = []
    for p in points:
        if (p, p) not in table:
            out.append(f"missing {p} {p}: no diagonal entry")
        elif table[(p, p)] != 0:
            out.append(f"diagonal {p} {p}: d(p,p) = {table[(p, p)]}")
    for p, q in combinations(points, 2):
        if (p, q) not in table or (q, p) not in table:
            out.append(f"missing {p} {q}: pair not in table")
            continue
        if table[(p, q)] != table[(q, p)]:
            out.append(f"symmetry {p} {q}: {table[(p, q)]} != {table[(q, p)]}")
        if not 0 <= table[(p, q)] <= 1:
            out.append(f"range {p} {q}: {table[(p, q)]} outside [0,1]")
    if any(s.startswith("missing") for s in out):
        return "; ".join(out)
    for a, b, c in triangle_violations(points, lambda p, q: table[(p, q)]):
        out.append(f"triangle {a} {b} {c}: d={table[(a, b)]},{table[(b, c)]},"
                   f"{table[(a, c)]} fails a triangle inequality")
    return "; ".join(out) or "ok"


def partial_isometry_faults(source_points, target_points, d_source, d_target, mapping):
    """Plain-loop re-derivation of `PartialIsometry.check`'s report as
    (kind, points, detail) triples: each domain point outside the source
    and image outside the target, then a repeated image, then, when every
    point lies in its space, each pair whose distance the map moves.  The
    distances are callables; nothing here reads a space record.
    """
    out = []
    for p, q in mapping.items():
        if p not in source_points:
            out.append(("missing", (p,), f"domain point {p!r} not in the source space"))
        if q not in target_points:
            out.append(("missing", (q,), f"image point {q!r} not in the target space"))
    complete = not out
    images = list(mapping.values())
    if any(images.count(q) > 1 for q in images):
        out.append(("isometry", tuple(images), "map is not injective"))
    if complete:
        domain = list(mapping)
        for i, a in enumerate(domain):
            for b in domain[i + 1:]:
                ds, dt = d_source(a, b), d_target(mapping[a], mapping[b])
                if ds != dt:
                    out.append(("isometry", (a, b),
                                f"distance not preserved on ({a},{b}): {ds} vs {dt}"))
    return out


def metric_ok(space: RationalMetricSpace) -> bool:
    for p in space.points:
        if space.d(p, p) != 0:
            return False
    for p, q in combinations(space.points, 2):
        d = space.d(p, q)
        if d != space.d(q, p) or not (0 <= d <= 1):
            return False
    return not triangle_violations(space.points, space.d)


def qu_enumerate_oracle(seed: RationalMetricSpace, bound: int, budget: int):
    """Plain-loop re-derivation of `quenum.qu_enumerate` in Fractions.

    Returns (points, table, tasks), a task being (subset, values,
    realized_by, added_point).  Tasks run over subset size, subset and
    lexicographic vector; a vector's realizer is the first point, in point
    order, at those distances; a new point `q<k>` (the first k free of the
    seed's names) keeps the vector on the subset and sits at
    min(1, min_a v_a + d(a, x)) from every other point x.
    """
    values = sorted({Fraction(a, b) for b in range(1, bound + 1) for a in range(1, b + 1)})
    points = list(seed.points)
    table = {(p, q): seed.d(p, q) for p in points for q in points}
    tasks = []
    k = 0
    for size in range(1, min(budget, len(points)) + 1):
        for subset in combinations(seed.points, size):
            for vec in product(values, repeat=size):
                if any(abs(v - w) > table[(a, b)] or table[(a, b)] > v + w
                       for (a, v), (b, w) in combinations(zip(subset, vec), 2)):
                    continue
                found = [p for p in points
                         if all(table[(p, a)] == v for a, v in zip(subset, vec))]
                if found:
                    tasks.append((subset, vec, found[0], False))
                    continue
                while f"q{k}" in seed.points:
                    k += 1
                name = f"q{k}"
                k += 1
                for x in points:
                    if x in subset:
                        d = vec[subset.index(x)]
                    else:
                        d = min(min(v + table[(a, x)] for a, v in zip(subset, vec)),
                                Fraction(1))
                    table[(x, name)] = table[(name, x)] = d
                table[(name, name)] = Fraction(0)
                points.append(name)
                tasks.append((subset, vec, name, True))
    return points, table, tasks


def graded_axioms_oracle(leaves, d, pairs):
    """Plain-loop re-derivation of `graded.check_graded_axioms`'s report
    (identity, symmetry and subadditivity counts, then the failures as
    (axiom, witness) pairs) for a subgroup descriptor given as leaves
    (kind, scale, base) and pairs of maps defined on every point, from the
    distance callable d alone.
    """
    pts = []
    for _, _, base in leaves:
        pts += [p for p in base if p not in pts]

    def radicand(g):
        out = Fraction(0)
        for kind, q, base in leaves:
            move = max(d(g[s], s) for s in base)
            out = max(out, min(q * move, 1) ** 2 if kind == "linear" else min(q * q * move, 1))
        return out

    failures = []
    if radicand({p: p for p in pts}) != 0:
        failures.append(("identity", "H(1) != 0"))
    n_sym = 0
    for g in [g for pair in pairs for g in pair]:
        n_sym += 1
        if radicand(g) != radicand({v: k for k, v in g.items()}):
            failures.append(("symmetry", f"H(g) != H(g^-1) for {g}"))
    for g, h in pairs:
        r, s, t = radicand({p: g[h[p]] for p in h}), radicand(g), radicand(h)
        # sqrt(r) <= sqrt(s) + sqrt(t), squared: r - s - t <= 2 sqrt(s t)
        if r - s - t > 0 and (r - s - t) ** 2 > 4 * s * t:
            failures.append(("subadditivity",
                             f"H(gg') > H(g) +. H(g') with radicands {r}, {s}, {t}"))
    return 1, n_sym, len(pairs), failures


def random_far_space(rng: random.Random, n: int, lo=Fraction(1, 2)) -> RationalMetricSpace:
    """All distances in [lo, min(2*lo, 1)]: triangles hold for free."""
    dens = (4, 8, 10, 16, 20)
    hi = min(2 * lo, Fraction(1))
    pts = tuple(f"a{i}" for i in range(n))
    dist = {}
    for p, q in combinations(pts, 2):
        den = rng.choice(dens)
        num = rng.randint(-(-lo.numerator * den // lo.denominator),
                          hi.numerator * den // hi.denominator)
        dist[(p, q)] = Fraction(num, den)
    return RationalMetricSpace.build(pts, dist)


def amalgam_instance(rng: random.Random, n: int, q: int, with_geodesic=False):
    """A random instance satisfying the amalgamation hypotheses.

    Returns (host, a_points, b_space, q, eps).  The host distances live in
    [1/2, 1] so triangles cost nothing; eps is sized from the smallest
    positive margin.  With with_geodesic=True and q = 2 an exactly-geodesic
    triple with both endpoints fixed is planted (the one allowed pattern).
    """
    from math import comb

    while True:
        host = random_far_space(rng, n)
        pts = list(host.points)
        dist = {k: v for k, v in host.dist.items()}
        if with_geodesic and q == 2 and n > q:
            half = Fraction(1, 2)
            dist[(pts[0], pts[q])] = dist[(pts[q], pts[0])] = half
            dist[(pts[q], pts[1])] = dist[(pts[1], pts[q])] = half
            dist[(pts[0], pts[1])] = dist[(pts[1], pts[0])] = Fraction(1)
            host = RationalMetricSpace(tuple(pts), dist)
        cbound = 2 * comb(n - q, 2) + 1

        margins = [host.d(p, r) for p, r in combinations(pts, 2)]
        forbidden_geodesic = False
        for a, b, c in combinations(range(n), 3):
            moved = sum(1 for t in (a, b, c) if t >= q)
            for ctr, u, v in ((a, b, c), (b, a, c), (c, a, b)):
                m = host.d(pts[ctr], pts[u]) + host.d(pts[ctr], pts[v]) \
                    - host.d(pts[u], pts[v])
                if m != 0:
                    margins.append(m)
                elif moved >= 2:
                    forbidden_geodesic = True
        if forbidden_geodesic:
            continue
        eps = min(margins) / (cbound * rng.choice((2, 3, 4)))

        bnames = tuple(f"b{i}" for i in range(n))
        for _ in range(20):
            bdist = {}
            ok = True
            for ii, jj in combinations(range(n), 2):
                base = host.d(pts[ii], pts[jj])
                if jj < q:
                    delta = Fraction(0)
                else:
                    delta = rng.choice((-eps, -eps / 2, Fraction(0), eps / 2, eps))
                bdist[(bnames[ii], bnames[jj])] = base + delta
                if not 0 <= base + delta <= 1:
                    ok = False
            if not ok:
                continue
            try:
                b_space = RationalMetricSpace.build(bnames, bdist)
            except Exception:
                continue
            return host, tuple(pts), b_space, q, eps


# ---------------------------------------------------------- group actions

def vaught_oracle(X, phi, J):
    """(delta, star) of the graded transforms by their closed forms, in plain
    Fractions: delta(x) is the least min(1, phi(h.x) + J(h)) and star(x) the
    greatest max(0, phi(h.x) - J(h)) over the group elements h."""
    delta, star = {}, {}
    for x in X.points:
        for h in X.elements:
            p, j = phi[X.action[h][x]], J[h]
            up, down = min(Fraction(1), p + j), max(Fraction(0), p - j)
            if x not in delta or up < delta[x]:
                delta[x] = up
            if x not in star or down > star[x]:
                star[x] = down
    return delta, star


# ---------------------------------------------------------------- formulas

def random_structure(rng: random.Random, n: int, sig: Signature) -> FiniteStructure:
    """Random structure with modulus-compliant tables.

    Tables are built as c/arity-Lipschitz functions of distances to random
    reference points, which satisfies the declared modulus for free.
    """
    space = random_far_space(rng, n, lo=Fraction(1, 4))
    tables = {}
    for rel in sig.relations:
        ref = [rng.choice(space.points) for _ in range(rel.arity)]
        offset = Fraction(rng.randint(0, 4), 8)
        slope = rel.modulus_coefficient / rel.arity
        table = {}
        for tup in product(space.points, repeat=rel.arity):
            raw = offset + slope * min(
                Fraction(1), sum((space.d(t, r) for t, r in zip(tup, ref)),
                                 Fraction(0)) / rel.arity)
            table[tup] = min(Fraction(1), raw)
        tables[rel.name] = table
    constants = {}
    for name in sig.constants:
        constants[name] = rng.choice(space.points)
    return FiniteStructure(space, sig, tables, constants)


def random_formula(rng: random.Random, sig: Signature, variables, depth: int):
    """Random AST of bounded depth over the signature."""
    def atom():
        choices = []
        terms = [Var(v) for v in variables] + [ConstName(c) for c in sig.constants]
        if len(terms) >= 1:
            choices.append(lambda: AtomD(rng.choice(terms), rng.choice(terms)))
        for rel in sig.relations:
            choices.append(lambda rel=rel: AtomR(
                rel.name, tuple(rng.choice(terms) for _ in range(rel.arity))))
        choices.append(lambda: Const(Fraction(rng.randint(0, 8), 8)))
        return rng.choice(choices)()

    def build(d):
        if d <= 0:
            return atom()
        kind = rng.randrange(10)
        if kind == 0:
            return Half(build(d - 1))
        if kind == 1:
            return Neg(build(d - 1))
        if kind == 2:
            return DotScale(Fraction(rng.randint(1, 6), rng.randint(1, 3)), build(d - 1))
        if kind == 3:
            return Min(build(d - 1), build(d - 1))
        if kind == 4:
            return Max(build(d - 1), build(d - 1))
        if kind == 5:
            return AbsDiff(build(d - 1), build(d - 1))
        if kind == 6:
            return DotMinus(build(d - 1), build(d - 1))
        if kind == 7:
            return DotPlus(build(d - 1), build(d - 1))
        if kind == 8 and variables:
            return Sup(rng.choice(list(variables)), build(d - 1))
        if kind == 9 and variables:
            return Inf(rng.choice(list(variables)), build(d - 1))
        return atom()

    return build(depth)


SMALL_SIG = Signature((Relation("P", 1), Relation("E", 2)), ())


def modulus(phi, sig, var=None, bound=frozenset()):
    """Linear modulus coefficient of phi by plain recursion, in the calculus
    of `bench/oracles.modulus`: a distance atom counts its positions that
    hold var (any free variable when var is None), a relation atom gives its
    modulus coefficient once one does, half halves, scale multiplies, min
    and max keep the larger child, the other connectives add, and a
    quantifier binds its variable."""
    if isinstance(phi, Const):
        return Fraction(0)
    if isinstance(phi, (AtomD, AtomR)):
        terms = (phi.left, phi.right) if isinstance(phi, AtomD) else phi.args
        hits = sum(1 for t in terms if isinstance(t, Var) and t.name not in bound
                   and var in (None, t.name))
        if isinstance(phi, AtomD):
            return Fraction(hits)
        return Fraction(sig.relation(phi.name).modulus_coefficient) if hits else Fraction(0)
    if isinstance(phi, (Sup, Inf)):
        return modulus(phi.body, sig, var, bound | {phi.var})
    if isinstance(phi, DotScale):
        return Fraction(phi.factor) * modulus(phi.body, sig, var, bound)
    kids = [modulus(k, sig, var, bound)
            for k in ([phi.body] if hasattr(phi, "body") else [phi.left, phi.right])]
    if isinstance(phi, Half):
        return kids[0] / 2
    if isinstance(phi, (Min, Max)):
        return max(kids)
    return sum(kids, Fraction(0))


# ------------------------------------------------------------ urysohn grid

def snapped_mesh(dists, mesh: Fraction) -> Fraction:
    """The Urysohn search's mesh: 1/(D*2^t) <= mesh, D clearing the distances."""
    den = 1
    for d in dists:
        den = den * d.denominator // gcd(den, d.denominator)
    h = Fraction(1, den)
    while h > mesh:
        h /= 2
    return h


def triangle(steps):
    """A step table's cells (i, j), j < i, laid end to end: the flat lower
    triangle the compiled Urysohn closures read, a new point's row after it."""
    return [row[j] for i, row in enumerate(steps) for j in range(i)]


def admissible_steps(steps, n):
    """Every integer step vector s in [0, n]^m of a new point over m known
    points, steps[p][q] apart in mesh steps, with
    |s_p - s_q| <= steps[p][q] <= s_p + s_q for every pair."""
    m = len(steps)
    for s in product(range(n + 1), repeat=m):
        if all(abs(s[p] - s[q]) <= steps[p][q] <= s[p] + s[q]
               for p, q in combinations(range(m), 2)):
            yield s


def _grid_points(space, h):
    """(space with a new point, its name) for every admissible distance
    vector of a new point over space on the grid h.  A vector with a zero
    coordinate is the point at distance 0 itself."""
    n, pts = h.denominator, space.points
    for s in product(range(n + 1), repeat=len(pts)):
        f = {p: k * h for p, k in zip(pts, s)}
        if any(not abs(f[p] - f[q]) <= space.d(p, q) <= f[p] + f[q]
               for p, q in combinations(pts, 2)):
            continue
        on = [p for p in pts if f[p] == 0]
        if on:
            yield space, on[0]
        else:
            name = f"new{len(pts)}"
            yield space.with_point(name, f), name


def _endpoints(f, kids):
    """A connective's enclosure from its children's (lo, hi), endpoint by
    endpoint, with the truncations of the [0, 1] connectives."""
    one, zero = Fraction(1), Fraction(0)
    if isinstance(f, Half):
        (a, b), = kids
        return a / 2, b / 2
    if isinstance(f, Neg):
        (a, b), = kids
        return one - b, one - a
    if isinstance(f, DotScale):
        (a, b), = kids
        q = Fraction(f.factor)
        return min(one, q * a), min(one, q * b)
    (a, b), (c, d) = kids
    if isinstance(f, Min):
        return min(a, c), min(b, d)
    if isinstance(f, Max):
        return max(a, c), max(b, d)
    if isinstance(f, DotPlus):
        return min(one, a + c), min(one, b + d)
    if isinstance(f, DotMinus):
        return max(zero, a - d), max(zero, b - c)
    if isinstance(f, AbsDiff):
        return max(zero, a - d, c - b), max(b - c, d - a)
    raise TypeError(f"not a connective: {f!r}")


def grid_enclosure(phi, space, env, sig, h, known=None):
    """The Urysohn grid search's (lo, hi) for phi, by plain loops.

    A quantifier-free formula is evaluated exactly with `structures.evaluate`
    on the partial space.  A quantifier visits every admissible grid vector
    of a new point, merges its body's enclosures lo with lo and hi with hi,
    then widens by `modulus` * h on the far side, unless the new point is the
    first point of the partial space (known counts the anchors and the
    enclosing quantifiers).  A connective combines its children's endpoints.
    """
    known = len(sig.constants) if known is None else known
    if is_quantifier_free(phi):
        M = FiniteStructure(space, sig, {}, {p: p for p in sig.constants})
        v = evaluate(phi, M, env)
        return v, v
    if isinstance(phi, (Sup, Inf)):
        pick = max if isinstance(phi, Sup) else min
        es = [grid_enclosure(phi.body, ext, {**env, phi.var: p}, sig, h, known + 1)
              for ext, p in _grid_points(space, h)]
        lo, hi = pick(e[0] for e in es), pick(e[1] for e in es)
        if known == 0:
            return lo, hi
        err = modulus(phi.body, sig, phi.var) * h
        if isinstance(phi, Sup):
            return lo, min(Fraction(1), hi + err)
        return max(Fraction(0), lo - err), hi
    kids = [phi.body] if hasattr(phi, "body") else [phi.left, phi.right]
    return _endpoints(phi, [grid_enclosure(k, space, env, sig, h, known) for k in kids])


def interval_value(phi, dist):
    """Interval arithmetic over a quantifier-free formula: dist(p, q) is the
    (lo, hi) of the distance atom between the terms named p and q, a
    constant is exact and a connective combines its children's endpoints."""
    if isinstance(phi, Const):
        v = Fraction(phi.value)
        return v, v
    if isinstance(phi, AtomD):
        return dist(phi.left.name, phi.right.name)
    kids = [phi.body] if hasattr(phi, "body") else [phi.left, phi.right]
    return _endpoints(phi, [interval_value(k, dist) for k in kids])
