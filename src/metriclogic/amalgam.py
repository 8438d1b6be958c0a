"""Controlled amalgamation of a perturbed copy of a finite subspace.

Given points a_1..a_n of a host space, a second space B on b_1..b_n whose
pairwise distances deviate from the a-distances by at most eps, and q shared
initial points, this builds one metric space on {a_1..a_n, b_{q+1}..b_n} in
which every displaced copy sits at distance exactly (2*C(n-q,2)+1)*eps from
its original, and every cross pair (a_i, b_j), i != j both >= q, at
min(d(a_i,a_j), d(b_i,b_j)) lowered by the margin eps/2.  The paper places
the cross pairs in ascending order of that minimum, the order of its
inductive argument; the order changes no value, so the rows are written at
once.  The hypotheses below make the construction always succeed; a broken
output after a successful hypothesis check is a bug, not a user error.

The hypothesis check and the construction share one int table: the a- and
B-distances and eps/2 times E, the lcm of their denominators.  Reports
print lowest-terms Fractions.  The output is built and checked once, by
`metric._from_int_rows`, from its int rows (a failure raises its
MetricError with `validate_table`'s report), and the witness, a
`PartialIsometry` defined on all of B, is checked by its `check`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import List, Sequence, Tuple

from .metric import (MetricError, PartialIsometry, RationalMetricSpace,
                     Violation, _from_int_rows)
from .rational import ONE, scaled
from .record import record


class HypothesisError(MetricError):
    """The inputs violate a stated hypothesis of the construction."""


class ConstructionError(MetricError):
    """Internal failure: B does not embed although the hypotheses held."""


@record
class AmalgamResult:
    space: RationalMetricSpace
    witness: PartialIsometry           # embeds B into the output
    displacement: Fraction             # (2*C(n-q,2)+1)*eps, exact
    b_names: Tuple[str, ...]           # output names of b_1..b_n in order


def _int_table(host: RationalMetricSpace, a_points: Sequence[str],
               b_space: RationalMetricSpace, eps: Fraction):
    """(E, A, B, h): A[i][j] = E * d(a_i, a_j) in the host, B[i][j] =
    E * d(b_i, b_j) in B and h = E * eps/2, all ints over E, the lcm of
    their denominators."""
    bs = b_space.points
    da = [[host.d(p, r) for r in a_points] for p in a_points]
    db = [[b_space.d(p, r) for r in bs] for p in bs]
    half = eps / 2
    E = lcm(half.denominator, *(d.denominator for row in da + db for d in row))
    return (E, [scaled(row, E) for row in da], [scaled(row, E) for row in db],
            scaled((half,), E)[0])


def check_hypotheses(host: RationalMetricSpace, a_points: Sequence[str],
                     b_space: RationalMetricSpace, q: int,
                     eps: Fraction) -> List[Violation]:
    """Report every violated hypothesis; an empty list means all hold.

    Margins that hold with equality are rejected: the construction is only
    claimed for strict inequalities, so boundary instances are refused
    rather than guessed at.
    """
    return _hypotheses(host, a_points, b_space, q, Fraction(eps))[0]


def _hypotheses(host, a_points, b_space, q, eps):
    """(violations, table): the report of `check_hypotheses`, and the
    `_int_table` it was decided on, or None when the inputs stop short of
    one."""
    out: List[Violation] = []
    n = len(a_points)
    if len(b_space.points) != n:
        return [Violation("missing", tuple(b_space.points),
                          f"B must have exactly {n} points")], None
    if not (0 <= q <= n):
        return [Violation("range", (), f"q = {q} outside 0..{n}")], None
    if eps <= 0:
        return [Violation("range", (), f"eps = {eps} must be positive")], None
    if len(set(a_points)) != n:
        return [Violation("missing", tuple(a_points), "repeated a-points")], None
    for p in a_points:
        if not host.has_point(p):
            return [Violation("missing", (p,), "not a point of the host space")], None

    disp = (2 * comb(n - q, 2) + 1) * eps
    if disp > ONE:
        out.append(Violation("range", (), f"displacement {disp} exceeds the diameter bound"))

    bs = b_space.points
    table = E, A, B, h = _int_table(host, a_points, b_space, eps)
    D = (2 * comb(n - q, 2) + 1) * 2 * h        # E * disp
    for i, j in combinations(range(n), 2):
        if D >= A[i][j]:
            out.append(Violation("range", (a_points[i], a_points[j]),
                                 f"(2C+1)eps = {disp} not < d = {Fraction(A[i][j], E)}"))
        if abs(B[i][j] - A[i][j]) > 2 * h:
            out.append(Violation("range", (bs[i], bs[j]),
                                 f"|d_B - d_A| = {Fraction(abs(B[i][j] - A[i][j]), E)} > eps"))
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
            margin = A[c][u] + A[c][v] - A[u][v]
            if margin != 0 and margin <= D:
                out.append(Violation(
                    "triangle", (a_points[c], a_points[u], a_points[v]),
                    f"non-geodesic margin {Fraction(margin, E)} not > {disp}"))
            elif margin == 0 and displaced:
                geodesic.append(Violation(
                    "triangle", (a_points[i], a_points[j], a_points[k]),
                    "geodesic triple with two displaced points"))
    out.extend(geodesic)
    for i, j in combinations(range(q), 2):
        if B[i][j] != A[i][j]:
            out.append(Violation("symmetry", (bs[i], bs[j]),
                                 f"B must agree with A on the first {q} points"))
    return out, table


def amalgamate(host: RationalMetricSpace, a_points: Sequence[str],
               b_space: RationalMetricSpace, q: int, eps: Fraction) -> AmalgamResult:
    """Run the construction; raises HypothesisError with the full report."""
    eps = Fraction(eps)
    bad, table = _hypotheses(host, a_points, b_space, q, eps)
    if bad:
        raise HypothesisError("; ".join(str(v) for v in bad))

    n = len(a_points)
    disp = (2 * comb(n - q, 2) + 1) * eps

    # Output points: the a-points keep their names; moved b-points get fresh
    # names derived from B's, suffixed until they avoid the a-names.
    taken = set(a_points)
    b_names = list(a_points[:q])
    for name in b_space.points[q:]:
        while name in taken:
            name += "'"
        taken.add(name)
        b_names.append(name)

    # Output rows, lower triangle over E: a_i has index i and b_j, j >= q,
    # index n + j - q (b_j is a_j for j < q).  Row b_j holds its distance to
    # each a_i, then to each moved b_i before it.
    E, A, B, h = table
    D = (2 * comb(n - q, 2) + 1) * 2 * h        # E * disp
    rows = [A[i][:i] for i in range(n)]
    for j in range(q, n):
        rows.append([B[i][j] if i < q else D if i == j else min(A[i][j], B[i][j]) - h
                     for i in range(n)] + [B[i][j] for i in range(q, j)])
    space = _from_int_rows(list(a_points) + b_names[q:], E, rows)
    witness = PartialIsometry(b_space, space, dict(zip(b_space.points, b_names)))
    wreport = witness.check()
    if not (wreport.ok and witness.defined_on(b_space.points)):
        raise ConstructionError(f"B-embedding broke: {wreport}")
    return AmalgamResult(space, witness, disp, tuple(b_names))
