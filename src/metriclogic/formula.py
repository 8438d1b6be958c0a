"""Continuous-logic formulas over relational signatures.

Values live in [0,1].  Connectives are the truncated operations: x/2,
x -. y, min, max, |x - y|, 1 - x, x +. y, capped rational scaling, and the
sup/inf quantifiers.  Signatures are relational; every relation carries a
linear inverse-continuity-modulus coefficient, by default its arity.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, and_, or_
from typing import Tuple

from .rational import in_unit
from .record import record


class FormulaError(ValueError):
    pass


# Parsed text nests at most MAX_DEPTH levels (an atom or a constant is one
# level).  Every walker over a formula is a `fold`, which refuses formulas
# built in Python past 2 * MAX_DEPTH: room for a depth-MAX_DEPTH predicate
# definition inlined at depth MAX_DEPTH, and well inside Python's recursion
# limit.
MAX_DEPTH = 128


@record
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


@record
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

@record
class Var:
    name: str


@record
class ConstName:
    name: str


LEAF, UNARY, BINARY, SCALE, QUANTIFIER = "leaf", "unary", "binary", "scale", "quantifier"


class Formula:
    """Base class; subclasses form the AST.  Each class declares its shape,
    which says where its children are (see `fold`); `d` and the connectives
    also declare their syntax keyword."""
    __slots__ = ()
    shape = LEAF


@record
class Const(Formula):
    value: Fraction

    def __post_init__(self):
        if not in_unit(Fraction(self.value)):
            raise FormulaError(f"constant {self.value} outside [0,1]")


@record
class AtomD(Formula):
    keyword = "d"
    left: "Var | ConstName"
    right: "Var | ConstName"


@record
class AtomR(Formula):
    name: str
    args: Tuple["Var | ConstName", ...]


@record
class _Unary(Formula):
    shape = UNARY
    body: Formula


@record
class _Binary(Formula):
    shape = BINARY
    left: Formula
    right: Formula


@record
class _Quantifier(Formula):
    shape = QUANTIFIER
    var: str
    body: Formula


class Half(_Unary):
    keyword = "half"


class Neg(_Unary):
    keyword = "neg"


@record
class DotScale(Formula):
    shape = SCALE
    keyword = "scale"
    factor: Fraction
    body: Formula

    def __post_init__(self):
        if Fraction(self.factor) <= 0:
            raise FormulaError("scale factor must be a positive rational")


class DotMinus(_Binary):
    keyword = "dotminus"


class DotPlus(_Binary):
    keyword = "dotplus"


class Min(_Binary):
    keyword = "min"


class Max(_Binary):
    keyword = "max"


class AbsDiff(_Binary):
    keyword = "absdiff"


class Sup(_Quantifier):
    keyword = "sup"


class Inf(_Quantifier):
    keyword = "inf"


# The node table: syntax keyword -> class, for every connective and
# quantifier (the parser's heads besides `d` and relation names).
CONNECTIVES = {cls.keyword: cls for cls in (Half, Neg, DotScale, DotMinus, DotPlus,
                                            Min, Max, AbsDiff, Sup, Inf)}


def fold(phi: Formula, rules, quantify=None):
    """Evaluate phi bottom-up in the value algebra given by rules.

    rules[type(f)] is applied by shape: to a leaf itself, to the values of a
    connective's children, to (factor, value) for `scale` and (var, value)
    for a quantifier.  quantify, when given, takes the quantifier nodes
    instead, as quantify(f, body), where body() folds f.body: evaluators
    that bind a variable fold it once per binding.  Raises FormulaError past
    2 * MAX_DEPTH levels, before Python's recursion limit.
    """
    return _fold(phi, rules, quantify, 1)


def _fold(f, rules, quantify, depth):
    if depth > 2 * MAX_DEPTH:
        raise FormulaError(f"formula nested deeper than {2 * MAX_DEPTH} levels")
    shape = f.shape
    if shape is LEAF:
        return rules[type(f)](f)
    depth += 1
    if shape is BINARY:
        return rules[type(f)](_fold(f.left, rules, quantify, depth),
                              _fold(f.right, rules, quantify, depth))
    if shape is UNARY:
        return rules[type(f)](_fold(f.body, rules, quantify, depth))
    if shape is SCALE:
        return rules[type(f)](f.factor, _fold(f.body, rules, quantify, depth))
    if quantify is not None:
        return quantify(f, lambda: _fold(f.body, rules, quantify, depth))
    return rules[type(f)](f.var, _fold(f.body, rules, quantify, depth))


def by_shape(**rules) -> dict:
    """A rules table giving every connective of a shape the same rule."""
    return {cls: rules[cls.shape] for cls in CONNECTIVES.values() if cls.shape in rules}


def keep(*args):
    """The rule of a connective whose value is its (last) child's."""
    return args[-1]


def nesting_depth(phi: Formula) -> int:
    """Levels of phi (an atom or a constant is one), walked level by level
    without recursion, so a formula of any depth is measured."""
    depth, level = 0, [phi]
    while level:
        depth += 1
        level = [c for f in level for c in ((f.left, f.right) if f.shape is BINARY
                                           else () if f.shape is LEAF else (f.body,))]
    return depth


_ATOMS = {**by_shape(unary=keep, scale=keep, binary=add, quantifier=keep),
          Const: lambda f: (), AtomD: lambda f: (f,), AtomR: lambda f: (f,)}


def atoms(phi: Formula) -> Tuple[Formula, ...]:
    """The atoms of phi in preorder (left to right)."""
    return fold(phi, _ATOMS)


# The terms a formula reads: its variables and constants, the arguments of
# its relation atoms included (a quantifier drops its variable).
FREE_TERMS = {**by_shape(unary=keep, scale=keep, binary=or_,
                         quantifier=lambda var, terms: terms - {Var(var)}),
              Const: lambda f: frozenset(),
              AtomD: lambda f: frozenset((f.left, f.right)),
              AtomR: lambda f: frozenset(f.args)}


def free_variables(phi: Formula) -> frozenset:
    return frozenset(t.name for t in fold(phi, FREE_TERMS) if isinstance(t, Var))


_QF = {**by_shape(unary=keep, scale=keep, binary=and_,
                  quantifier=lambda var, qf: False),
       Const: lambda f: True, AtomD: lambda f: True, AtomR: lambda f: True}


def is_quantifier_free(phi: Formula) -> bool:
    return fold(phi, _QF)


def _check_atom(atom: Formula, sig: Signature) -> Relation | None:
    """Check one atom against sig (see check_wellformed); its relation, or None."""
    rel = sig.relation(atom.name) if isinstance(atom, AtomR) else None
    terms = (atom.left, atom.right) if rel is None else atom.args
    if rel is not None and len(terms) != rel.arity:
        raise FormulaError(
            f"arity mismatch: {atom.name} takes {rel.arity} arguments, got {len(terms)}")
    for t in terms:
        if isinstance(t, ConstName) and not sig.is_constant(t.name):
            raise FormulaError(f"unknown constant {t.name!r}")
    return rel


def check_wellformed(phi: Formula, sig: Signature) -> None:
    """Arity and symbol checks against a signature; raises FormulaError."""
    for atom in atoms(phi):
        _check_atom(atom, sig)


_LIPSCHITZ = {**by_shape(unary=keep, binary=add),
              Const: lambda f: Fraction(0), Half: lambda c: c / 2,
              DotScale: lambda q, c: Fraction(q) * c, Min: max, Max: max}


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
    The same walk checks each atom against sig as `check_wellformed` does,
    in the same order, so a malformed phi raises the same FormulaError.
    """
    bound = []                          # variables bound above the node, innermost last

    def counted(t):
        return isinstance(t, Var) and t.name not in bound and \
            (only_var is None or t.name == only_var)

    def quantify(f, body):
        bound.append(f.var)
        coeff = body()
        bound.pop()
        return coeff

    def atom(f):
        rel = _check_atom(f, sig)
        if rel is None:
            return Fraction(counted(f.left) + counted(f.right))
        return rel.modulus_coefficient if any(map(counted, f.args)) else Fraction(0)

    return fold(phi, {**_LIPSCHITZ, AtomD: atom, AtomR: atom}, quantify)


@record
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


# (S, G) for each node, bottom-up; binary connectives take the worse child
_BOREL = {**by_shape(unary=keep, scale=keep,
                     binary=lambda a, b: (max(a[0], b[0]), max(a[1], b[1]))),
          Const: lambda f: (1, 1), AtomD: lambda f: (1, 2), AtomR: lambda f: (1, 2),
          Neg: lambda sg: (sg[1], sg[0]),
          Inf: lambda var, sg: (sg[0], sg[1] + 1),
          Sup: lambda var, sg: (sg[0] + 1, sg[1])}


def borel_level(phi: Formula, comparison: str) -> BorelLevel:
    """Class of the model sets {phi < eps} (or {phi > eps}).

    Two indices, computed bottom-up as one pair: S(phi) for strict sublevel
    sets and G(phi) for strict superlevel sets.  Negation swaps them; an atomic
    sublevel set is open (index 1) while its superlevel set is obtained by
    complementing a countable intersection, one class up (index 2).  inf
    preserves S as a countable union; sup pays the union-of-intersections
    step.  The remaining connectives take the worst child at the same
    polarity.
    """
    if comparison not in (LESS, GREATER):
        raise FormulaError(f"comparison must be {LESS!r} or {GREATER!r}")
    s, g = fold(phi, _BOREL)
    return BorelLevel("Sigma", s if comparison == LESS else g)
