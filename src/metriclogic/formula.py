"""Continuous-logic formulas over relational signatures.

Values live in [0,1].  Connectives are the truncated operations: x/2,
x -. y, min, max, |x - y|, 1 - x, x +. y, capped rational scaling, and the
sup/inf quantifiers.  Signatures are relational; every relation carries a
linear inverse-continuity-modulus coefficient, by default its arity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Tuple

from .rational import in_unit


class FormulaError(ValueError):
    pass


# Parsed text nests at most MAX_DEPTH levels (an atom or a constant is one
# level).  Formulas built in Python are held to 2 * MAX_DEPTH by `atoms`,
# which leaves room for a depth-MAX_DEPTH predicate definition inlined at
# depth MAX_DEPTH; the recursive walkers stay well inside Python's recursion
# limit at that depth.
MAX_DEPTH = 128


@dataclass(frozen=True)
class Relation:
    name: str
    arity: int
    modulus_coefficient: Fraction = None  # default: arity

    def __post_init__(self):
        if self.arity < 1:
            raise FormulaError(f"relation {self.name}: arity must be >= 1")
        coeff = self.modulus_coefficient
        if coeff is None:
            object.__setattr__(self, "modulus_coefficient", Fraction(self.arity))
        elif Fraction(coeff) <= 0:
            raise FormulaError(f"relation {self.name}: modulus coefficient must be positive")


@dataclass(frozen=True)
class Signature:
    relations: Tuple[Relation, ...] = ()
    constants: Tuple[str, ...] = ()

    def __post_init__(self):
        names = [r.name for r in self.relations] + list(self.constants)
        if len(set(names)) != len(names):
            raise FormulaError("duplicate symbol names in signature")

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise FormulaError(f"unknown relation symbol {name!r}")

    def has_relation(self, name: str) -> bool:
        return any(r.name == name for r in self.relations)

    def is_constant(self, name: str) -> bool:
        return name in self.constants


PURE_METRIC = Signature()


# Terms are variables or signature constants.

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ConstName:
    name: str


Term = Var | ConstName


class Formula:
    """Base class; subclasses form the AST."""
    __slots__ = ()

    def children(self) -> Tuple["Formula", ...]:
        return ()


@dataclass(frozen=True)
class Const(Formula):
    value: Fraction

    def __post_init__(self):
        if not in_unit(Fraction(self.value)):
            raise FormulaError(f"constant {self.value} outside [0,1]")


@dataclass(frozen=True)
class AtomD(Formula):
    left: "Var | ConstName"
    right: "Var | ConstName"


@dataclass(frozen=True)
class AtomR(Formula):
    name: str
    args: Tuple["Var | ConstName", ...]


@dataclass(frozen=True)
class Half(Formula):
    body: Formula

    def children(self):
        return (self.body,)


@dataclass(frozen=True)
class Neg(Formula):
    body: Formula

    def children(self):
        return (self.body,)


@dataclass(frozen=True)
class DotScale(Formula):
    factor: Fraction
    body: Formula

    def __post_init__(self):
        if Fraction(self.factor) <= 0:
            raise FormulaError("scale factor must be a positive rational")

    def children(self):
        return (self.body,)


def _binary(cls_name):
    @dataclass(frozen=True)
    class _B(Formula):
        left: Formula
        right: Formula

        def children(self):
            return (self.left, self.right)

    _B.__name__ = _B.__qualname__ = cls_name
    return _B


DotMinus = _binary("DotMinus")
DotPlus = _binary("DotPlus")
Min = _binary("Min")
Max = _binary("Max")
AbsDiff = _binary("AbsDiff")


@dataclass(frozen=True)
class Sup(Formula):
    var: str
    body: Formula

    def children(self):
        return (self.body,)


@dataclass(frozen=True)
class Inf(Formula):
    var: str
    body: Formula

    def children(self):
        return (self.body,)


def atoms(phi: Formula) -> Iterator[Formula]:
    """The atoms of phi in preorder, walked with an explicit stack.

    Raises FormulaError past 2 * MAX_DEPTH levels.  `check_wellformed` (and
    so `lipschitz`) runs this walk before any recursive walker does.
    """
    stack = [(phi, 1)]
    while stack:
        f, depth = stack.pop()
        if depth > 2 * MAX_DEPTH:
            raise FormulaError(f"formula nested deeper than {2 * MAX_DEPTH} levels")
        if isinstance(f, (AtomD, AtomR)):
            yield f
        else:
            for c in f.children()[::-1]:
                stack.append((c, depth + 1))


def check_depth(phi: Formula) -> None:
    """Raise FormulaError if phi nests deeper than 2 * MAX_DEPTH levels."""
    for _ in atoms(phi):
        pass


def free_variables(phi: Formula) -> frozenset:
    if isinstance(phi, (Const,)):
        return frozenset()
    if isinstance(phi, AtomD):
        return frozenset(t.name for t in (phi.left, phi.right) if isinstance(t, Var))
    if isinstance(phi, AtomR):
        return frozenset(t.name for t in phi.args if isinstance(t, Var))
    if isinstance(phi, (Sup, Inf)):
        return free_variables(phi.body) - {phi.var}
    out = frozenset()
    for child in phi.children():
        out |= free_variables(child)
    return out


def is_quantifier_free(phi: Formula) -> bool:
    if isinstance(phi, (Sup, Inf)):
        return False
    return all(is_quantifier_free(c) for c in phi.children())


def check_wellformed(phi: Formula, sig: Signature) -> None:
    """Arity and symbol checks against a signature; raises FormulaError."""
    for atom in atoms(phi):
        if isinstance(atom, AtomR):
            rel = sig.relation(atom.name)
            if len(atom.args) != rel.arity:
                raise FormulaError(
                    f"arity mismatch: {atom.name} takes {rel.arity} arguments, got {len(atom.args)}")
            terms = atom.args
        else:
            terms = (atom.left, atom.right)
        for t in terms:
            if isinstance(t, ConstName) and not sig.is_constant(t.name):
                raise FormulaError(f"unknown constant {t.name!r}")


def lipschitz(phi: Formula, sig: Signature = PURE_METRIC,
              only_var: str | None = None) -> Fraction:
    """A sound linear modulus coefficient L for phi over sig.

    |phi(a) - phi(b)| <= L * max_i d(a_i, b_i) over assignments to the free
    variables (to only_var alone when given, holding the others fixed).  A
    distance atom contributes 1 per argument position occupied by a counted
    variable; a relation atom contributes its full modulus coefficient as
    soon as one counted variable occurs, since its modulus is stated against
    the max displacement.  min and max keep the larger child coefficient;
    the difference-like connectives add; quantifiers drop their variable.
    """
    check_wellformed(phi, sig)

    def counted(t, bound):
        return isinstance(t, Var) and t.name not in bound and \
            (only_var is None or t.name == only_var)

    def go(f: Formula, bound: frozenset) -> Fraction:
        if isinstance(f, Const):
            return Fraction(0)
        if isinstance(f, AtomD):
            return Fraction(sum(1 for t in (f.left, f.right) if counted(t, bound)))
        if isinstance(f, AtomR):
            rel = sig.relation(f.name)
            return rel.modulus_coefficient if any(counted(t, bound) for t in f.args) \
                else Fraction(0)
        if isinstance(f, Half):
            return go(f.body, bound) / 2
        if isinstance(f, Neg):
            return go(f.body, bound)
        if isinstance(f, DotScale):
            return Fraction(f.factor) * go(f.body, bound)
        if isinstance(f, (Min, Max)):
            return max(go(f.left, bound), go(f.right, bound))
        if isinstance(f, (DotMinus, DotPlus, AbsDiff)):
            return go(f.left, bound) + go(f.right, bound)
        if isinstance(f, (Sup, Inf)):
            return go(f.body, bound | {f.var})
        raise FormulaError(f"unknown node {f!r}")

    return go(phi, frozenset())


@dataclass(frozen=True)
class BorelLevel:
    class_kind: str   # "Sigma" | "Pi"
    index: int

    def __post_init__(self):
        if self.class_kind not in ("Sigma", "Pi"):
            raise FormulaError("class kind must be Sigma or Pi")
        if self.index < 1:
            raise FormulaError("Borel index must be >= 1")

    def dual(self) -> "BorelLevel":
        return BorelLevel("Pi" if self.class_kind == "Sigma" else "Sigma", self.index)

    def __str__(self):
        return f"{self.class_kind}_{self.index}"


LESS, GREATER = "<", ">"


def borel_level(phi: Formula, comparison: str) -> BorelLevel:
    """Class of the model sets {phi < eps} (or {phi > eps}).

    Two mutually recursive indices: S(phi) for strict sublevel sets and
    G(phi) for strict superlevel sets.  Negation swaps them; an atomic
    sublevel set is open (index 1) while its superlevel set is obtained by
    complementing a countable intersection, one class up (index 2).  inf
    preserves S as a countable union; sup pays the union-of-intersections
    step.  The remaining connectives take the worst child at the same
    polarity.
    """
    if comparison not in (LESS, GREATER):
        raise FormulaError(f"comparison must be {LESS!r} or {GREATER!r}")

    def s(f: Formula) -> int:
        if isinstance(f, (AtomD, AtomR, Const)):
            return 1
        if isinstance(f, Neg):
            return g(f.body)
        if isinstance(f, (Half, DotScale)):
            return s(f.body)
        if isinstance(f, (Min, Max, DotMinus, DotPlus, AbsDiff)):
            return max(s(f.left), s(f.right))
        if isinstance(f, Inf):
            return s(f.body)
        if isinstance(f, Sup):
            return s(f.body) + 1
        raise FormulaError(f"unknown node {f!r}")

    def g(f: Formula) -> int:
        if isinstance(f, Const):
            return 1
        if isinstance(f, (AtomD, AtomR)):
            return 2
        if isinstance(f, Neg):
            return s(f.body)
        if isinstance(f, (Half, DotScale)):
            return g(f.body)
        if isinstance(f, (Min, Max, DotMinus, DotPlus, AbsDiff)):
            return max(g(f.left), g(f.right))
        if isinstance(f, Inf):
            return g(f.body) + 1
        if isinstance(f, Sup):
            return g(f.body)
        raise FormulaError(f"unknown node {f!r}")

    return BorelLevel("Sigma", s(phi) if comparison == LESS else g(phi))
