"""Budgeted one-point-extension closure of a seed space.

Realizes, over every subset of the seed of size up to the budget, every
admissible distance vector whose values are rationals in (0,1] with bounded
denominator.  Tasks run in a fixed order (subset size, then subset position,
then lexicographic vector), so the output is deterministic and the space for
a larger budget extends the space for a smaller one point for point.

The closure runs in integers over one common denominator E, the lcm of the
seed's denominator and 1..bound: a new point sits at a value v on the
subset and at min(1, min_a v_a + d(a, x)) from every other point x (the
Katetov spread, `metric._spread`), so every distance lies on 1/E.  Each new
row is checked against the rows before it by `metric._extension_breaks`,
and the Fraction table is built once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import List, Tuple

from .metric import (MetricError, RationalMetricSpace, _extension_breaks,
                     _from_int_rows, _scaled, _spread, katetov_breaks)
from .record import record


@record
class ExtensionTask:
    subset: Tuple[str, ...]
    values: Tuple[Fraction, ...]
    realized_by: str
    added_point: bool


@record
class EnumeratorCertificate:
    denominator_bound: int
    budget: int
    tasks: Tuple[ExtensionTask, ...]


def farey_values(denominator_bound: int) -> List[Fraction]:
    """Ascending rationals in (0,1] with denominator <= the bound."""
    vals = {Fraction(num, den)
            for den in range(1, denominator_bound + 1)
            for num in range(1, den + 1)}
    return sorted(vals)


def qu_enumerate(seed: RationalMetricSpace, denominator_bound: int,
                 budget: int) -> Tuple[RationalMetricSpace, EnumeratorCertificate]:
    if budget < 0:
        raise MetricError(f"budget must be >= 0, got {budget}")
    if denominator_bound < 1:
        raise MetricError(f"denominator bound must be >= 1, got {denominator_bound}")
    report = seed.validate()
    if not report.ok:
        raise MetricError(f"invalid seed: {report}")

    values = farey_values(denominator_bound)
    D, seed_rows = seed.int_rows
    E = lcm(D, *range(1, denominator_bound + 1))
    scaled = _scaled(values, E)
    rows = [[k * (E // D) for k in row] for row in seed_rows]
    n = len(seed.points)
    # cols[i][x]: E * d(seed point i, point x), grown with every added point
    cols = [[rows[max(i, x)][min(i, x)] if i != x else 0 for x in range(n)]
            for i in range(n)]
    points = list(seed.points)
    tasks: List[ExtensionTask] = []
    counter = 0
    for size in range(1, min(budget, n) + 1):
        for idx in combinations(range(n), size):
            subset = tuple(points[i] for i in idx)
            sub_cols = [cols[i] for i in idx]
            # The first point, in point order, at each distance vector to
            # the subset: the realizer a scan in point order would find.
            realizers = {}
            for p, key in zip(points, zip(*sub_cols)):
                realizers.setdefault(key, p)
            for vec, key in zip(product(values, repeat=size), product(scaled, repeat=size)):
                if any(katetov_breaks(seed, dict(zip(subset, vec)))):
                    continue
                existing = realizers.get(key)
                if existing is not None:
                    tasks.append(ExtensionTask(subset, vec, existing, False))
                    continue
                name = f"q{counter}"
                while name in seed.point_index:
                    counter += 1
                    name = f"q{counter}"
                counter += 1
                row = _spread(sub_cols, key, E)
                if _extension_breaks(rows, row):
                    raise MetricError(str(
                        _from_int_rows(points + [name], E, rows + [row]).validate()))
                rows.append(row)
                points.append(name)
                for col, k in zip(cols, row):
                    col.append(k)
                realizers[key] = name
                tasks.append(ExtensionTask(subset, vec, name, True))
    cert = EnumeratorCertificate(denominator_bound, budget, tuple(tasks))
    return _from_int_rows(points, E, rows), cert
