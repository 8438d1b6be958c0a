"""Finite metric spaces with exact rational distances in [0,1].

Point identifiers are strings and equality is identifier equality; distance
tables are dense and symmetric.  Validation is an exhaustive check of the
range, symmetry, zero-diagonal and triangle conditions, and every operation
in the package returns spaces that pass it.

Invariant: every `RationalMetricSpace` the package hands out was validated
when it was built (`RationalMetricSpace.build`, `textio.parse_space`,
`amalgam.amalgamate`), or was grown from such a space one checked point at
a time: by `with_point`, or by `quenum.qu_enumerate`, which builds its space
from int rows, each checked by `_extension_breaks` as it is added, and
makes the Fraction table once at the end (`_from_int_rows`).  Both rely on
the invariant: they check only the pairs and triangles through the new
point, which is all a one-point extension of a valid space can break.

Triangle checks run in integers.  A table is scaled by one common
denominator D (the lcm of its denominators) into lower-triangular int rows,
row i holding D * d(p_j, p_i) for j < i, and one kernel (`_extension_breaks`)
tests the triangles that a row closes over the rows before it:
`validate_table` runs it once per row of one matrix, `with_point` and
`qu_enumerate` once for each new row against the rows before it
(`RationalMetricSpace.int_rows`).  The kernel only decides whether a
violation exists; when one does, the Fraction generator
`_triangle_violations` writes the report, so reports and values at the
boundary (`d`, `dist`) stay Fractions.  The Katetov spread of a vector on a
subset has one int kernel too (`_spread`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import gcd, lcm
from operator import add
from typing import Dict, List, Mapping, Sequence, Tuple

from .rational import ZERO, in_unit
from .record import field, record


class MetricError(ValueError):
    """A candidate distance table violates a metric-space invariant."""


@record
class Violation:
    kind: str            # "range" | "diagonal" | "symmetry" | "triangle" | "missing"
    points: Tuple[str, ...]
    detail: str

    def __str__(self):
        return f"{self.kind} {' '.join(self.points)}: {self.detail}"


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
    _, rows = _int_rows(points, dist)
    if any(_extension_breaks(rows[:i], row) for i, row in enumerate(rows)):
        violations.extend(_triangle_violations(dist, combinations(points, 3)))
    return ValidationReport(not violations, tuple(violations))


Rows = List[List[int]]      # never mutated: a space shares them with its extensions


def _int_rows(points: Sequence[str],
              dist: Mapping[Tuple[str, str], Fraction]) -> Tuple[int, Rows]:
    """The common denominator D of the pairs (p_j, p_i), j < i, and the
    lower-triangular rows of D * d(p_j, p_i)."""
    fracs = [[dist[(p, q)] for p in points[:i]] for i, q in enumerate(points)]
    den = lcm(*(d.denominator for row in fracs for d in row))
    return den, [_scaled(row, den) for row in fracs]


def _scaled(row, den: int) -> List[int]:
    return [d.numerator * (den // d.denominator) for d in row]


def _extension_breaks(rows: Sequence[Sequence[int]], new: Sequence[int]) -> bool:
    """Whether a triangle (a, b, c), a < b < len(rows), fails, where c is
    the point whose row is `new` and all values share one denominator.
    The test is `_triangle_violations`'s, on ints."""
    for row, bc in zip(rows, new):
        for ab, ac in zip(row, new):
            if abs(ac - bc) > ab or ab > ac + bc:
                return True
    return False


def _spread(cols: Sequence[Sequence[int]], on: Sequence[int], cap: int) -> List[int]:
    """The shortest-path Katetov extension on ints: for each point x,
    min(cap, min_a on[a] + cols[a][x]), where cols[a][x] is the scaled
    d(a, x) and cap the scaled 1."""
    return [min(cap, *map(add, on, ds)) for ds in zip(*cols)]


def _from_int_rows(points: Sequence[str], den: int, rows: Rows) -> "RationalMetricSpace":
    """The space whose pair (p_j, p_i), j < i, lies at rows[i][j] / den, not
    validated: the caller checked each row as it was added.  Its `int_rows`
    are the rows reduced to the table's own denominator, as `_int_rows`
    would derive them."""
    g = gcd(den, *chain.from_iterable(rows))
    if g > 1:
        den, rows = den // g, [[k // g for k in row] for row in rows]
    frac = {k: Fraction(k, den) for k in set(chain.from_iterable(rows))}
    dist: Dict[Tuple[str, str], Fraction] = {(p, p): ZERO for p in points}
    for q, row in zip(points, rows):
        for p, k in zip(points, row):
            dist[(p, q)] = dist[(q, p)] = frac[k]
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
        first use unless `with_point` handed it over."""
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

        The base was validated when it was built, so only what the new point
        adds is checked: the range of its n distances and the C(n,2)
        triangles (a, b, name), in ints against the base's `int_rows`.  New
        denominators grow D to an lcm and rescale the old rows once; the
        result keeps the old rows plus the new one as its own `int_rows`.
        A failure raises MetricError with exactly the report `validate_table`
        gives on the whole extended table.
        """
        if name in self.points:
            raise MetricError(f"point {name!r} already present")
        dist = dict(self.dist)
        dist[(name, name)] = ZERO
        violations = []
        new: List[Fraction] = []
        for p in self.points:
            d = Fraction(dists[p])
            dist[(p, name)] = dist[(name, p)] = d
            new.append(d)
            if not in_unit(d):
                violations.append(Violation("range", (p, name), f"{d} outside [0,1]"))
        den, rows = self.int_rows
        grown = lcm(den, *(d.denominator for d in new))
        if grown != den:
            k = grown // den
            rows = [[x * k for x in row] for row in rows]
        row = _scaled(new, grown)
        if violations or _extension_breaks(rows, row):
            violations.extend(_triangle_violations(
                dist, ((a, b, name) for a, b in combinations(self.points, 2))))
            raise MetricError(str(ValidationReport(False, tuple(violations))))
        out = RationalMetricSpace(self.points + (name,), dist)
        vars(out)["int_rows"] = (grown, rows + [row])
        return out


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
        f = {p: self.values[p] for p in self.base.points}
        return tuple(Violation("triangle", (p, q), f"|{fp}-{fq}| <= {d} <= {fp}+{fq} fails")
                     for p, q, fp, fq, d in katetov_breaks(self.base, f))

    @property
    def admissible(self) -> bool:
        return not self.admissibility_violations()


def katetov_breaks(space: RationalMetricSpace, f: Mapping[str, Fraction]):
    """The pairs (p, q, f(p), f(q), d(p, q)), in f's order, at which f
    fails the Katetov condition |f(p) - f(q)| <= d(p, q) <= f(p) + f(q)."""
    for (p, fp), (q, fq) in combinations(f.items(), 2):
        d = space.d(p, q)
        if abs(fp - fq) > d or d > fp + fq:
            yield p, q, fp, fq, d


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
class EmbeddingWitness:
    source: RationalMetricSpace
    target: RationalMetricSpace
    map: Mapping[str, str]

    def check(self) -> ValidationReport:
        """Exact distance preservation of the recorded point map."""
        out = []
        for p in self.source.points:
            if p not in self.map or self.map[p] not in self.target.points:
                out.append(Violation("missing", (p,), "unmapped point"))
        if not out:
            images = [self.map[p] for p in self.source.points]
            if len(set(images)) != len(images):
                out.append(Violation("symmetry", tuple(images), "map not injective"))
            for p, q in combinations(self.source.points, 2):
                ds = self.source.d(p, q)
                dt = self.target.d(self.map[p], self.map[q])
                if ds != dt:
                    out.append(Violation("triangle", (p, q), f"{ds} != {dt}"))
        return ValidationReport(not out, tuple(out))


def katetov_spread(space: RationalMetricSpace, on: Mapping[str, Fraction]) -> Dict[str, Fraction]:
    """Extend an admissible vector on a subset to the whole space.

    Uses the shortest-path value min_a (f(a) + d(a, x)) capped at 1, which
    stays admissible because the diameter is at most 1.  Computed by the int
    kernel `_spread` over the common denominator of the space and the vector.
    """
    on = {a: Fraction(v) for a, v in on.items()}
    den = lcm(space.int_rows[0], *(v.denominator for v in on.values()))
    cols = [_scaled([space.d(a, x) for x in space.points], den) for a in on]
    out = {x: Fraction(k, den)
           for x, k in zip(space.points, _spread(cols, _scaled(on.values(), den), den))}
    out.update(on)
    return out
