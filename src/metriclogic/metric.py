"""Finite metric spaces with exact rational distances in [0,1].

Point identifiers are strings and equality is identifier equality; distance
tables are dense and symmetric.  Validation is an exhaustive check of the
range, symmetry, zero-diagonal and triangle conditions, and every operation
in the package returns spaces that pass it.

Invariant: every space is checked by the constructor that builds it.
`RationalMetricSpace.build` (which `restrict` and `with_point` go through)
and `textio.parse_space` check a Fraction table with `validate_table`;
`_from_int_rows`, which builds `quenum.qu_enumerate`'s and
`amalgam.amalgamate`'s output, checks its int rows with the same kernel.
Either way a refusal raises MetricError with `validate_table`'s report.

Triangle checks run in integers.  A table is scaled by one common
denominator D (the lcm of its denominators) into lower-triangular int rows,
row i holding D * d(p_j, p_i) for j < i, and one kernel (`_extension_breaks`)
tests the triangles that a row closes over the rows before it; `_rows_break`
runs it once per row of one matrix.  `qu_enumerate` also runs it on each
candidate vector over its subset's rows: a vector is Katetov admissible on
a subset exactly when no triangle through the new point breaks.  The kernel
only decides whether a violation exists; when one does, the Fraction
generator `_triangle_violations` writes the report, so reports and values
at the boundary (`d`, `dist`) stay Fractions.  The Katetov spread of a
vector on a subset has one int kernel too (`_spread`).  The same scaling
(`rational.scaled`) runs `amalgam`'s hypothesis check and construction and
`vaught`'s transforms on ints.

A map between spaces is one record, `PartialIsometry` (`graded`'s argument,
`amalgam`'s witness), whose one `check` reports a point outside its space as
"missing" and a repeated image or a moved distance as "isometry".
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import gcd, lcm
from operator import add
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .rational import ZERO, in_unit, scaled
from .record import field, record


class MetricError(ValueError):
    """A candidate distance table violates a metric-space invariant."""


@record
class Violation:
    kind: str            # "range" | "diagonal" | "symmetry" | "triangle" | "missing" | "isometry"
    points: Tuple[str, ...]
    detail: str

    def __str__(self):
        return f"{' '.join((self.kind, *self.points))}: {self.detail}"


@record
class ValidationReport:
    ok: bool
    violations: Tuple[Violation, ...]

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


def validate_table(points: Sequence[str], dist: Mapping[Tuple[str, str], Fraction]) -> ValidationReport:
    """Exhaustively check a candidate distance table.

    Every violation is reported: range failures, asymmetry, nonzero diagonal
    and each violated triangle triple, each in its own category.
    """
    violations = []
    missing = False
    for p in points:
        d = dist.get((p, p))
        if d is None:
            violations.append(Violation("missing", (p, p), "no diagonal entry"))
            missing = True
        elif d != 0:
            violations.append(Violation("diagonal", (p, p), f"d(p,p) = {d}"))
    for p, q in combinations(points, 2):
        dpq, dqp = dist.get((p, q)), dist.get((q, p))
        if dpq is None or dqp is None:
            violations.append(Violation("missing", (p, q), "pair not in table"))
            missing = True
            continue
        if dpq != dqp:
            violations.append(Violation("symmetry", (p, q), f"{dpq} != {dqp}"))
        if not in_unit(dpq):
            violations.append(Violation("range", (p, q), f"{dpq} outside [0,1]"))
    if missing:
        return ValidationReport(False, tuple(violations))
    if _rows_break(_int_rows(points, dist)[1]):
        violations.extend(_triangle_violations(dist, combinations(points, 3)))
    return ValidationReport(not violations, tuple(violations))


Rows = List[List[int]]      # never mutated once a space holds them


def _int_rows(points: Sequence[str],
              dist: Mapping[Tuple[str, str], Fraction]) -> Tuple[int, Rows]:
    """The common denominator D of the pairs (p_j, p_i), j < i, and the
    lower-triangular rows of D * d(p_j, p_i)."""
    fracs = [[dist[(p, q)] for p in points[:i]] for i, q in enumerate(points)]
    den = lcm(*(d.denominator for row in fracs for d in row))
    return den, [scaled(row, den) for row in fracs]


def _extension_breaks(rows: Sequence[Sequence[int]], new: Sequence[int]) -> bool:
    """Whether a triangle (a, b, c), a < b < len(rows), fails, where c is
    the point whose row is `new` and all values share one denominator.
    The test is `_triangle_violations`'s, on ints."""
    for row, bc in zip(rows, new):
        for ab, ac in zip(row, new):
            if abs(ac - bc) > ab or ab > ac + bc:
                return True
    return False


def _rows_break(rows: Sequence[Sequence[int]]) -> bool:
    """Whether some row breaks a triangle over the rows before it."""
    return any(_extension_breaks(rows[:i], row) for i, row in enumerate(rows))


def _spread(cols: Sequence[Sequence[int]], on: Sequence[int], cap: int) -> List[int]:
    """The shortest-path Katetov extension on ints: for each point x,
    min(cap, min_a on[a] + cols[a][x]), where cols[a][x] is the scaled
    d(a, x) and cap the scaled 1."""
    return [min(cap, *map(add, on, ds)) for ds in zip(*cols)]


def _from_int_rows(points: Sequence[str], den: int, rows: Rows) -> "RationalMetricSpace":
    """The space whose pair (p_j, p_i), j < i, lies at rows[i][j] / den.
    Row i must hold i values in [0, den] and break no triangle over the rows
    before it; otherwise MetricError carries `validate_table`'s report on
    the table.  Its `int_rows` are the rows reduced to the table's own
    denominator, as `_int_rows` would derive them."""
    g = gcd(den, *chain.from_iterable(rows))
    if g > 1:
        den, rows = den // g, [[k // g for k in row] for row in rows]
    frac = {k: Fraction(k, den) for k in set(chain.from_iterable(rows))}
    dist: Dict[Tuple[str, str], Fraction] = {(p, p): ZERO for p in points}
    for q, row in zip(points, rows):
        for p, k in zip(points, row):
            dist[(p, q)] = dist[(q, p)] = frac[k]
    if (list(map(len, rows)) != list(range(len(points)))
            or not all(0 <= k <= den for k in frac) or _rows_break(rows)):
        raise MetricError(str(validate_table(points, dist)))
    out = RationalMetricSpace(tuple(points), dist)
    vars(out)["int_rows"] = (den, rows)
    return out


def _triangle_violations(dist: Mapping[Tuple[str, str], Fraction], triples):
    for a, b, c in triples:
        ab, bc, ac = dist[(a, b)], dist[(b, c)], dist[(a, c)]
        if abs(ac - bc) > ab or ab > ac + bc:     # all three inequalities
            yield Violation("triangle", (a, b, c),
                            f"d={ab},{bc},{ac} fails a triangle inequality")


@record
class RationalMetricSpace:
    points: Tuple[str, ...]
    dist: Mapping[Tuple[str, str], Fraction] = field(hash=False)

    @staticmethod
    def build(points: Sequence[str], pair_dists: Mapping[Tuple[str, str], Fraction]) -> "RationalMetricSpace":
        """Assemble a space from distances on unordered pairs and validate it."""
        points = tuple(points)
        if len(set(points)) != len(points):
            raise MetricError("duplicate point identifiers")
        dist: Dict[Tuple[str, str], Fraction] = {(p, p): ZERO for p in points}
        for (p, q), d in pair_dists.items():
            d = Fraction(d)
            dist[(p, q)] = d
            dist[(q, p)] = d
        report = validate_table(points, dist)
        if not report.ok:
            raise MetricError(str(report))
        return RationalMetricSpace(points, dist)

    def d(self, p: str, q: str) -> Fraction:
        return self.dist[(p, q)]

    def has_point(self, p: str) -> bool:
        return p in self.point_index

    @cached_property
    def int_rows(self) -> Tuple[int, Rows]:
        """(D, rows): the distances as ints over one common denominator D,
        row i holding D * d(p_j, p_i) for j < i.  Derived from `dist` on
        first use unless `_from_int_rows` handed it over."""
        return _int_rows(self.points, self.dist)

    @cached_property
    def point_index(self) -> Dict[str, int]:
        """Position of each point, built on first use and kept: the space
        is immutable."""
        return {p: i for i, p in enumerate(self.points)}

    def validate(self) -> ValidationReport:
        return validate_table(self.points, self.dist)

    def restrict(self, subset: Sequence[str]) -> "RationalMetricSpace":
        subset = tuple(subset)
        return RationalMetricSpace.build(
            subset, {(p, q): self.dist[(p, q)] for p, q in combinations(subset, 2)})

    def with_point(self, name: str, dists: Mapping[str, Fraction]) -> "RationalMetricSpace":
        """Extension by one point; admissibility is the caller's business.

        Built by `build`, so a failure raises MetricError with exactly the
        report `validate_table` gives on the whole extended table.
        """
        if name in self.points:
            raise MetricError(f"point {name!r} already present")
        pairs = {**self.dist, **{(p, name): dists[p] for p in self.points}}
        return RationalMetricSpace.build(self.points + (name,), pairs)


@record
class KatetovFunction:
    """Candidate distances from one new point to every point of a base space."""
    base: RationalMetricSpace
    values: Mapping[str, Fraction]

    def admissibility_violations(self) -> Tuple[Violation, ...]:
        out = []
        for p in self.base.points:
            v = self.values.get(p)
            if v is None:
                out.append(Violation("missing", (p,), "no value at point"))
            elif not in_unit(v):
                out.append(Violation("range", (p,), f"{v} outside [0,1]"))
        if out:
            return tuple(out)
        f = [(p, self.values[p]) for p in self.base.points]
        for (p, fp), (q, fq) in combinations(f, 2):
            d = self.base.d(p, q)
            if abs(fp - fq) > d or d > fp + fq:
                out.append(Violation("triangle", (p, q), f"|{fp}-{fq}| <= {d} <= {fp}+{fq} fails"))
        return tuple(out)

    @property
    def admissible(self) -> bool:
        return not self.admissibility_violations()


def one_point_extend(space: RationalMetricSpace, f: KatetovFunction,
                     name: str = "") -> RationalMetricSpace:
    """Adjoin one point at the distances prescribed by an admissible f."""
    if f.base is not space and f.base.points != space.points:
        raise MetricError("Katetov function defined over a different space")
    bad = f.admissibility_violations()
    if bad:
        raise MetricError(f"inadmissible extension: {bad[0]}")
    name = name or fresh_point_name(space.points)
    return space.with_point(name, f.values)


def fresh_point_name(taken: Sequence[str]) -> str:
    used = set(taken)
    k = len(used)
    while f"p{k}" in used:
        k += 1
    return f"p{k}"


@record
class PartialIsometry:
    """A map from part of `source` into `target`, unchecked until `build`
    or `check` tests that it is injective and preserves distances."""
    source: RationalMetricSpace
    target: RationalMetricSpace
    map: Mapping[str, str]

    @staticmethod
    def build(source: RationalMetricSpace, target: RationalMetricSpace,
              mapping: Mapping[str, str]) -> "PartialIsometry":
        """The checked record; raises MetricError with the first fault's text."""
        g = PartialIsometry(source, target, dict(mapping))
        report = g.check()
        if not report.ok:
            raise MetricError(report.violations[0].detail)
        return g

    def check(self) -> ValidationReport:
        """Every fault: points outside their space, then a repeated image and,
        when no point is outside, each moved distance."""
        out = []
        for p, q in self.map.items():
            if not self.source.has_point(p):
                out.append(Violation("missing", (p,),
                                     f"domain point {p!r} not in the source space"))
            if not self.target.has_point(q):
                out.append(Violation("missing", (q,),
                                     f"image point {q!r} not in the target space"))
        missing = bool(out)
        images = list(self.map.values())
        if len(set(images)) != len(images):
            out.append(Violation("isometry", tuple(images), "map is not injective"))
        if not missing:
            for a, b in combinations(self.map, 2):
                ds, dt = self.source.d(a, b), self.target.d(self.map[a], self.map[b])
                if ds != dt:
                    out.append(Violation("isometry", (a, b),
                                         f"distance not preserved on ({a},{b}): {ds} vs {dt}"))
        return ValidationReport(not out, tuple(out))

    @staticmethod
    def identity(space: RationalMetricSpace,
                 points: Optional[Sequence[str]] = None) -> "PartialIsometry":
        pts = tuple(points) if points is not None else space.points
        return PartialIsometry(space, space, {p: p for p in pts})

    def defined_on(self, points: Sequence[str]) -> bool:
        return all(p in self.map for p in points)

    def apply(self, p: str) -> str:
        q = self.map.get(p)
        if q is None:
            raise MetricError(f"isometry undefined on {p!r}")
        return q

    def compose(self, inner: "PartialIsometry") -> "PartialIsometry":
        """self after inner, on the points where the chain is defined."""
        if self.source.points != inner.target.points:
            raise MetricError("composition spaces do not match")
        mapping = {p: self.map[q] for p, q in inner.map.items() if q in self.map}
        return PartialIsometry(inner.source, self.target, mapping)
