"""Budgeted one-point-extension closure of a seed space.

Realizes, over every subset of the seed of size up to the budget, every
admissible distance vector whose values are rationals in (0,1] with bounded
denominator.  Tasks run in a fixed order (subset size, then subset position,
then lexicographic vector), so the output is deterministic and the space for
a larger budget extends the space for a smaller one point for point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import List, Tuple

from .metric import MetricError, RationalMetricSpace, katetov_breaks, katetov_spread


@dataclass(frozen=True)
class ExtensionTask:
    subset: Tuple[str, ...]
    values: Tuple[Fraction, ...]
    realized_by: str
    added_point: bool


@dataclass(frozen=True)
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

    space = seed
    values = farey_values(denominator_bound)
    tasks: List[ExtensionTask] = []
    counter = 0
    for size in range(1, min(budget, len(seed.points)) + 1):
        for subset in combinations(seed.points, size):
            # The first point, in point order, at each distance vector to
            # the subset: the realizer a scan in point order would find.
            realizers = {}
            for p in space.points:
                realizers.setdefault(tuple([space.d(p, a) for a in subset]), p)
            for vec in product(values, repeat=size):
                if any(katetov_breaks(seed, dict(zip(subset, vec)))):
                    continue
                existing = realizers.get(vec)
                if existing is not None:
                    tasks.append(ExtensionTask(subset, vec, existing, False))
                    continue
                name = f"q{counter}"
                while name in space.points:
                    counter += 1
                    name = f"q{counter}"
                counter += 1
                full = katetov_spread(space, dict(zip(subset, vec)))
                space = space.with_point(name, full)   # raises if not admissible
                realizers.setdefault(tuple([full[a] for a in subset]), name)
                tasks.append(ExtensionTask(subset, vec, name, True))
    cert = EnumeratorCertificate(denominator_bound, budget, tuple(tasks))
    return space, cert
