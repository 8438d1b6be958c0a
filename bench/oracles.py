"""Checks of program outputs that do not call the code they check.

Formulas are re-read by a small s-expression reader of our own into nested
lists, and valued, bounded and counted here with plain Fraction arithmetic,
so a bug in metriclogic's parser, evaluator or search cannot hide itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

ZERO, ONE = Fraction(0), Fraction(1)


def read(text: str):
    """Parse prefix syntax into nested lists; leaves stay strings."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            node = stack.pop()
            stack[-1].append(node)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"unbalanced formula {text!r}")
    return stack[0][0]


def show(t) -> str:
    """Canonical text: the program's printer must agree with this one."""
    if isinstance(t, str):
        q = Fraction(t)
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    if t[0] == "d":
        return f"(d {t[1]} {t[2]})"
    if t[0] in ("sup", "inf"):
        return f"({t[0]} {t[1]} {show(t[2])})"
    if t[0] == "scale":
        return f"(scale {show(t[1])} {show(t[2])})"
    return "(" + " ".join([t[0]] + [show(c) for c in t[1:]]) + ")"


def value(t, dist, points=(), env=None) -> Fraction:
    """Exact value; dist(p, q) gives distances, quantifiers range over points."""
    env = env or {}
    if isinstance(t, str):
        return Fraction(t)
    op = t[0]
    if op == "d":
        return dist(env.get(t[1], t[1]), env.get(t[2], t[2]))
    if op in ("sup", "inf"):
        vals = [value(t[2], dist, points, {**env, t[1]: p}) for p in points]
        return max(vals) if op == "sup" else min(vals)
    if op == "scale":
        return min(Fraction(t[1]) * value(t[2], dist, points, env), ONE)
    args = [value(c, dist, points, env) for c in t[1:]]
    if op == "half":
        return args[0] / 2
    if op == "neg":
        return ONE - args[0]
    if op == "min":
        return min(args)
    if op == "max":
        return max(args)
    if op == "absdiff":
        return abs(args[0] - args[1])
    if op == "dotminus":
        return max(args[0] - args[1], ZERO)
    if op == "dotplus":
        return min(args[0] + args[1], ONE)
    raise ValueError(f"unknown connective {op!r}")


def modulus(t, var=None, bound=frozenset()) -> Fraction:
    """Linear modulus of t by the package's documented calculus.

    Counts occurrences of var, or of every free variable when var is None
    (bare terms are variables: no signature constants).
    """
    if isinstance(t, str):
        return ZERO
    op = t[0]
    if op == "d":
        return Fraction(sum(1 for s in t[1:] if s not in bound and var in (None, s)))
    if op in ("sup", "inf"):
        return modulus(t[2], var, bound | {t[1]})
    if op == "scale":
        return Fraction(t[1]) * modulus(t[2], var, bound)
    kids = [modulus(c, var, bound) for c in t[1:]]
    if op == "half":
        return kids[0] / 2
    if op == "neg":
        return kids[0]
    if op in ("min", "max"):
        return max(kids)
    return sum(kids, ZERO)


def triangle_violations(points, d) -> int:
    bad = 0
    for a, b, c in combinations(points, 3):
        ab, bc, ac = d(a, b), d(b, c), d(a, c)
        if ac > ab + bc or ab > ac + bc or bc > ab + ac:
            bad += 1
    return bad


def is_metric(points, d) -> bool:
    for p, q in combinations(points, 2):
        if d(p, q) != d(q, p) or not ZERO < d(p, q) <= ONE:
            return False
    return all(d(p, p) == 0 for p in points) and not triangle_violations(points, d)


def admissible(values, known, d) -> bool:
    """Is values (point -> distance) a one-point extension of the known points?"""
    return all(ZERO <= values[p] <= ONE for p in known) and all(
        abs(values[p] - values[q]) <= d(p, q) <= values[p] + values[q]
        for p, q in combinations(known, 2))


def katetov_samples(known, d, steps: int):
    """Every admissible distance vector to known points on the grid 1/steps."""
    grid = [Fraction(i, steps) for i in range(steps + 1)]
    vectors = [{}]
    for p in known:
        vectors = [{**v, p: g} for v in vectors for g in grid]
    return [v for v in vectors if admissible(v, known, d)]


def realizations(variables, anchors, d, steps: int):
    """Distance functions placing each variable, in turn, at every admissible
    vector of the grid 1/steps over the anchors and the variables before it."""
    frontier = [{}]
    for v in variables:
        frontier = [{**placed, v: vec} for placed in frontier
                    for vec in katetov_samples(list(anchors) + list(placed),
                                               placed_distance(placed, d), steps)]
    return [placed_distance(placed, d) for placed in frontier]


def placed_distance(placed, d):
    def dist(p, q):
        if p == q:
            return ZERO
        if p in placed and q in placed[p]:
            return placed[p][q]
        if q in placed and p in placed[q]:
            return placed[q][p]
        return d(p, q)
    return dist


def lattice_points(dm, n: int, levels: int) -> int:
    """Admissible lattice vectors a grid search visits with no pruning.

    dm is the integer distance matrix (units of the mesh) of the known
    points, n the number of mesh steps in [0, 1]; each of `levels` nested
    quantifiers adds one point at every admissible vector of the level above.
    """
    m = len(dm)
    total = 0

    def assign(row):
        nonlocal total
        k = len(row)
        lo, hi = 0, n
        for j, v in enumerate(row):
            lo = max(lo, abs(dm[k][j] - v))
            hi = min(hi, v + dm[k][j])
        if lo > hi:
            return
        if k == m - 1 and levels == 1:
            total += hi - lo + 1
            return
        for v in range(lo, hi + 1):
            if k < m - 1:
                assign(row + [v])
            else:
                full = row + [v]
                total += 1
                grown = [r + [full[i]] for i, r in enumerate(dm)] + [full + [0]]
                total += lattice_points(grown, n, levels - 1)

    if m == 0:
        raise ValueError("lattice_points needs at least one known point")
    assign([])
    return total


def amalgam_ok(host_d, a_points, b_d, b_points, q, eps, res_space_d, res_points,
               b_names, displacement) -> str | None:
    """Exact displacement, metric output and an isometric copy of B."""
    n = len(a_points)
    disp = (2 * comb(n - q, 2) + 1) * eps
    if displacement != disp:
        return f"displacement {displacement} != {disp}"
    if any(res_space_d(a_points[i], b_names[i]) != disp for i in range(q, n)):
        return "a displaced point is not at the exact displacement"
    if any(res_space_d(a, b) != host_d(a, b) for a, b in combinations(a_points, 2)):
        return "host distances changed"
    if any(res_space_d(b_names[i], b_names[j]) != b_d(b_points[i], b_points[j])
           for i, j in combinations(range(n), 2)):
        return "B does not embed isometrically"
    if triangle_violations(res_points, res_space_d):
        return "triangle violation in the amalgam"
    return None
