"""Exact evaluation of formulas over finite metric structures.

A FiniteStructure pairs a rational metric space with total rational-valued
relation tables and constant interpretations.  Evaluation of sup/inf ranges
over the finite point set, so every value is an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, List, Mapping, Sequence, Tuple

from .formula import (AbsDiff, AtomD, AtomR, Const, ConstName, DotMinus,
                      DotPlus, DotScale, Formula, Half, Max, Min, Neg,
                      Signature, Sup, Var, check_wellformed, fold)
from .intervals import Enclosure, truncated_weighted_sum
from .metric import RationalMetricSpace
from .rational import ONE, dot_add, dot_scale, dot_sub, in_unit


class StructureError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteStructure:
    space: RationalMetricSpace
    sig: Signature
    tables: Mapping[str, Mapping[Tuple[str, ...], Fraction]] = field(default_factory=dict)
    constants: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        pts = self.space.points
        for rel in self.sig.relations:
            table = self.tables.get(rel.name)
            if table is None:
                raise StructureError(f"no table for relation {rel.name}")
            for tup in product(pts, repeat=rel.arity):
                v = table.get(tup)
                if v is None:
                    raise StructureError(f"table {rel.name} missing entry {tup}")
                if not in_unit(v):
                    raise StructureError(f"{rel.name}{tup} = {v} outside [0,1]")
        for name in self.sig.constants:
            p = self.constants.get(name)
            if p is None or p not in pts:
                raise StructureError(f"constant {name} not interpreted by a point")

    def rel_value(self, name: str, args: Tuple[str, ...]) -> Fraction:
        return self.tables[name][args]

    def modulus_violations(self) -> List[str]:
        """Exhaustive check of |R(x) - R(y)| <= coeff * max_i d(x_i, y_i)."""
        out = []
        pts = self.space.points
        for rel in self.sig.relations:
            table = self.tables[rel.name]
            tuples = list(product(pts, repeat=rel.arity))
            for xs in tuples:
                for ys in tuples:
                    gap = abs(table[xs] - table[ys])
                    spread = max(self.space.d(x, y) for x, y in zip(xs, ys))
                    if gap > rel.modulus_coefficient * spread:
                        out.append(f"{rel.name}{xs} vs {rel.name}{ys}: "
                                   f"{gap} > {rel.modulus_coefficient}*{spread}")
        return out

    def transport(self, iso: Mapping[str, str]) -> "FiniteStructure":
        """Image structure under a bijective self-isometry of the space."""
        inv = {v: k for k, v in iso.items()}
        if len(inv) != len(self.space.points):
            raise StructureError("transport needs a bijection of the point set")
        tables = {
            rel.name: {tup: self.tables[rel.name][tuple(inv[p] for p in tup)]
                       for tup in product(self.space.points, repeat=rel.arity)}
            for rel in self.sig.relations}
        constants = {c: iso[p] for c, p in self.constants.items()}
        return FiniteStructure(self.space, self.sig, tables, constants)


def resolve_term(term, M: FiniteStructure, assignment: Mapping[str, str]) -> str:
    if isinstance(term, Var):
        p = assignment.get(term.name)
        if p is None:
            raise StructureError(f"unbound variable {term.name!r}")
        if p not in M.space.points:
            raise StructureError(f"assignment of {term.name!r} is not a point")
        return p
    if isinstance(term, ConstName):
        return M.constants[term.name]
    raise StructureError(f"bad term {term!r}")


# The exact algebra on [0,1]: each connective's rule is its operation.
_EXACT = {Const: lambda f: Fraction(f.value), Half: lambda v: v / 2,
          Neg: lambda v: ONE - v, DotScale: dot_scale, Min: min, Max: max,
          AbsDiff: lambda a, b: abs(a - b), DotMinus: dot_sub, DotPlus: dot_add}


def evaluate(phi: Formula, M: FiniteStructure,
             assignment: Mapping[str, str] | None = None) -> Fraction:
    """Exact value of phi in M under the assignment."""
    check_wellformed(phi, M.sig)
    env = dict(assignment or {})

    def quantify(f, body):
        pick = max if isinstance(f, Sup) else min
        saved = env.get(f.var)
        best = None
        for p in M.space.points:
            env[f.var] = p
            v = body()
            best = v if best is None else pick(best, v)
        if saved is None:
            del env[f.var]
        else:
            env[f.var] = saved
        if best is None:
            raise StructureError("quantifier over an empty point set")
        return best

    rules = {**_EXACT,
             AtomD: lambda f: M.space.d(resolve_term(f.left, M, env),
                                        resolve_term(f.right, M, env)),
             AtomR: lambda f: M.rel_value(f.name, tuple(resolve_term(t, M, env)
                                                        for t in f.args))}
    return fold(phi, rules, quantify)


TupleEnumeration = Sequence[Tuple[str, Tuple[str, ...]]]


def canonical_enumeration(sig: Signature, space: RationalMetricSpace) -> List[Tuple[str, Tuple[str, ...]]]:
    """Relations in signature order, argument tuples in point order."""
    out = []
    for rel in sig.relations:
        for tup in product(space.points, repeat=rel.arity):
            out.append((rel.name, tup))
    return out


def delta_seq(M: FiniteStructure, N: FiniteStructure,
              enumeration: TupleEnumeration, k: int) -> Enclosure:
    """Weighted structure distance, truncated after k terms.

    Term i carries weight 2^-i; the tail of the series is bounded by 2^-k,
    giving the enclosure [partial sum, partial sum + 2^-k].
    """
    if M.space.points != N.space.points or M.sig != N.sig:
        raise StructureError("structures must share their space and signature")
    if k < 0:
        raise StructureError("truncation must be >= 0")
    if k > len(enumeration):
        raise StructureError(f"truncation {k} exceeds the enumeration length")
    for name, tup in enumeration[:k]:
        if tup not in M.tables.get(name, ()):
            raise StructureError(f"enumeration entry {name}({', '.join(tup)}) "
                                 "is not a tuple of a relation of the signature")
    return truncated_weighted_sum(abs(M.rel_value(name, tup) - N.rel_value(name, tup))
                                  for name, tup in enumeration[:k])


def delta_exact(M: FiniteStructure, N: FiniteStructure,
                enumeration: TupleEnumeration) -> Fraction:
    """Full weighted sum over a finite enumeration (no tail)."""
    return delta_seq(M, N, enumeration, len(enumeration)).lo


def mod_member(M: FiniteStructure, phi: Formula, assignment: Mapping[str, str],
               eps: Fraction, cmp: str) -> bool:
    """Strict membership eval(phi) < eps or > eps, decided exactly."""
    value = evaluate(phi, M, assignment)
    if cmp == "<":
        return value < eps
    if cmp == ">":
        return value > eps
    raise StructureError(f"comparison must be '<' or '>', got {cmp!r}")


def _isometries(space: RationalMetricSpace, fixed=frozenset()) -> List[Dict[str, str]]:
    """Distance-preserving bijections of a finite space in lex order, each
    point of fixed mapped to itself (pinned during the search)."""
    pts = space.points
    free = [q for q in pts if q not in fixed]
    out: List[Dict[str, str]] = []

    def extend(partial: Dict[str, str], used: set, idx: int):
        if idx == len(pts):
            out.append(dict(partial))
            return
        p = pts[idx]
        for q in ((p,) if p in fixed else free):
            if q in used:
                continue
            if any(space.d(p, pts[i]) != space.d(q, partial[pts[i]]) for i in range(idx)):
                continue
            partial[p] = q
            used.add(q)
            extend(partial, used, idx + 1)
            used.discard(q)
            del partial[p]

    extend({}, set(), 0)
    return out


def carries_tables(M: FiniteStructure, N: FiniteStructure, g: Mapping[str, str]) -> bool:
    """Does the bijection g carry every relation table of M exactly onto N's?"""
    for rel in M.sig.relations:
        source, target = M.tables[rel.name], N.tables[rel.name]
        for tup in product(M.space.points, repeat=rel.arity):
            if target[tuple(g[p] for p in tup)] != source[tup]:
                return False
    return True


def automorphisms(M: FiniteStructure) -> List[Dict[str, str]]:
    """All distance-, table- and constant-preserving bijections, lex order."""
    return [g for g in _isometries(M.space, frozenset(M.constants.values()))
            if carries_tables(M, M, g)]


def space_isometries(space: RationalMetricSpace) -> List[Dict[str, str]]:
    """All distance-preserving bijections of a finite space, lex order."""
    return _isometries(space)
