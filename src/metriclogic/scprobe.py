"""Finite-scale probe for the covering-plus-extension test of categoricity.

The probe searches for a finite family of conditions phi_i(x) <= delta_i
drawn from a supplied formula pool that covers every n-tuple of a finite
structure, such that whenever a tuple satisfies a condition, every bounded
condition set realized in the structure (and containing that condition)
can be re-realized within eps of the tuple.  A pass is evidence at this
finite scale, never a categoricity proof; the condition sets Delta are drawn
from the same pool, with thresholds anchored at realizing tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from typing import List, Sequence, Tuple

from .formula import Formula, free_variables
from .record import record
from .structures import FiniteStructure, evaluate
from .syntax import print_formula

VAR_STEM = "x"


def tuple_vars(n: int) -> List[str]:
    return [f"{VAR_STEM}{i}" for i in range(1, n + 1)]


@record
class Condition:
    formula: Formula
    threshold: Fraction

    def __str__(self):
        return f"{print_formula(self.formula)} <= {self.threshold}"


@record
class ProbeReport:
    status: str                                   # "witness" | "counterexample" | "inconclusive"
    family: Tuple[Condition, ...] = ()
    failing_tuple: Tuple[str, ...] = ()
    failing_delta: Tuple[Condition, ...] = ()
    families_examined: int = 0

    def __str__(self):
        if self.status == "witness":
            return "witness: " + "; ".join(str(c) for c in self.family)
        if self.status == "counterexample":
            delta = "; ".join(str(c) for c in self.failing_delta)
            return f"counterexample: tuple {self.failing_tuple} with Delta [{delta}]"
        return f"inconclusive after {self.families_examined} families"


def sc_probe(M: FiniteStructure, n: int, eps: Fraction, formula_pool: Sequence[Formula],
             depth: int, max_family_size: int = 4,
             max_families: int = 20000) -> ProbeReport:
    """Search for a witness family; see the module docstring for the reading."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = tuple_vars(n)
    ys = tuple_vars(n + 1)
    pool_n = [f for f in formula_pool if free_variables(f) <= set(xs)]
    pool_ext = [f for f in formula_pool if free_variables(f) <= set(ys)]
    points = M.space.points
    tuples = list(product(points, repeat=n))
    ext_tuples = list(product(points, repeat=n + 1))

    memo = {}

    def value(f: Formula, tup: Tuple[str, ...]) -> Fraction:
        """f at an n- or (n+1)-tuple, evaluated once per probe."""
        key = (id(f), tup)
        if key not in memo:
            memo[key] = evaluate(f, M, dict(zip(ys, tup)))
        return memo[key]

    candidates = [Condition(f, delta) for f in pool_n
                  for delta in sorted({value(f, tup) for tup in tuples})]
    if not candidates:
        return ProbeReport("counterexample", failing_tuple=tuples[0] if tuples else ())

    covers = {c: frozenset(t for t in tuples if value(c.formula, t) <= c.threshold)
              for c in candidates}

    deltas: List[tuple] = [()]
    for size in range(1, min(depth, len(pool_ext)) + 1):
        deltas.extend(combinations(pool_ext, size))

    @cache
    def extension_holds(cond: Condition):
        """None when the clause holds, else the failing (tuple, Delta).

        A pure function of the condition, so each is decided once per probe
        however many families contain it.  The holders are walked in point
        order, so the failing tuple reported is the first one.
        """
        holders = covers[cond]
        held = [c for c in ext_tuples if c[:n] in holders]
        for a in tuples:
            if a not in holders:
                continue
            # The extensions b of holders within eps of a: whether b is near
            # depends on a and b alone, not on c or Delta.
            close = {t for t in holders
                     if max(M.space.d(x, y) for x, y in zip(a, t)) < eps}
            near = [b for b in held if b[:n] in close]
            for delta_formulas in deltas:
                for c in held:
                    bounds = [value(f, c) for f in delta_formulas]
                    if not any(all(value(f, b) <= bd for f, bd in zip(delta_formulas, bounds))
                               for b in near):
                        anchored = tuple(Condition(f, bd)
                                         for f, bd in zip(delta_formulas, bounds))
                        return a, (cond,) + anchored
        return None

    examined = 0
    first_failure = None
    for size in range(1, min(max_family_size, len(candidates)) + 1):
        for family in combinations(candidates, size):
            examined += 1
            if examined > max_families:
                return ProbeReport("inconclusive", families_examined=examined - 1)
            covered = frozenset().union(*(covers[c] for c in family))
            if len(covered) != len(tuples):
                continue
            failure = None
            for cond in family:
                failure = extension_holds(cond)
                if failure is not None:
                    break
            if failure is None:
                return ProbeReport("witness", family=family, families_examined=examined)
            if first_failure is None:
                first_failure = failure
    if first_failure is not None:
        return ProbeReport("counterexample", failing_tuple=first_failure[0],
                           failing_delta=first_failure[1], families_examined=examined)
    return ProbeReport("counterexample",
                       failing_tuple=tuples[0] if tuples else (),
                       families_examined=examined)
