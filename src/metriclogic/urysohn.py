"""Certified evaluation of quantified sentences over the universal space.

Quantifiers are compiled into optimization over the polytope of admissible
distance vectors: a new abstract point is described by its distances to the
finite partial space built so far (named anchors plus outer quantified
points), subject to |f(a)-f(b)| <= d(a,b) <= f(a)+f(b) and f in [0,1].
Every admissible rational vector over a finite rational subspace is realized
in the universal space of diameter 1 (universality plus ultrahomogeneity),
so grid optimization under-approximates sup and over-approximates inf; a
Lipschitz error term closes the gap from the other side.

The requested mesh is snapped to h = 1/n, n = D * 2^t, where D clears the
anchor distance denominators.  With every known distance on that grid,
rounding an admissible real vector up coordinatewise stays admissible, which
is what makes the lipschitz * mesh error bound sound.

The grid walk runs over integer step vectors s (the new point lies s[j] * h
from known point j).  A quantifier-free body is compiled once per quantifier
node and mesh round into closures over Python ints scaled by one common
denominator N (n for distances, the constants' denominators, doubled under
each half, times the denominator of each scale factor).  Distances between
known points (anchors and outer quantified points) are read from the step
table when a closure runs, so one compilation serves every outer vector.
No Fraction or enclosure is built per grid point:

* At a full vector the compiled body gives the exact value.
* At a partial vector its compiled interval bound, with [0, N] for the unset
  coordinates, gives N times the endpoints enclosure arithmetic would give,
  and the subtree is skipped when the bound cannot beat the running optimum.

A quantified body (an outer level of a nested sentence) is evaluated through
enclosures, as a whole vector, with no bound.

Pruning only ever drops vectors whose values cannot beat the optimum, so the
result is the exact grid optimum (plus the Lipschitz term) whatever was
pruned: the same rationals as a walk over every grid vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Tuple

from .formula import (AbsDiff, AtomD, AtomR, Const, ConstName, DotMinus,
                      DotPlus, DotScale, Formula, Half, Inf, MAX_DEPTH,
                      Max, Min, Neg, Signature, Sup, Var, check_depth,
                      free_variables, is_quantifier_free, lipschitz)
from .intervals import (Enclosure, as_enclosure, enc_absdiff, enc_dot_add,
                        enc_dot_sub, enc_half, enc_max, enc_min, enc_neg,
                        enc_scale, sqrt_enclosure)
from .metric import RationalMetricSpace
from .rational import ONE, ZERO, dot_scale
from .structures import FiniteStructure, evaluate


class UrysohnError(ValueError):
    pass


@dataclass(frozen=True)
class PredicateDef:
    """A relation symbol defined by a quantifier-free distance formula."""
    params: Tuple[str, ...]
    body: Formula

    def __post_init__(self):
        if not self.params:
            raise UrysohnError("predicate definition needs at least one parameter")
        check_depth(self.body)
        if not is_quantifier_free(self.body):
            raise UrysohnError("predicate definitions must be quantifier free")


@dataclass(frozen=True)
class AnchoredStructure:
    anchors: RationalMetricSpace
    defs: Mapping[str, PredicateDef] = field(default_factory=dict)

    def __post_init__(self):
        for name, d in self.defs.items():
            for atom_name in _relation_names(d.body):
                raise UrysohnError(
                    f"definition of {name} uses relation symbol {atom_name}")
            loose = free_variables(d.body) - set(d.params)
            if loose:
                raise UrysohnError(f"definition of {name} has stray variables {loose}")

    @property
    def signature(self) -> Signature:
        return Signature((), self.anchors.points)


def _relation_names(phi: Formula):
    if isinstance(phi, AtomR):
        yield phi.name
    for c in phi.children():
        yield from _relation_names(c)


def expand_predicates(phi: Formula, anchored: AnchoredStructure) -> Formula:
    """Inline every relation atom through its definition."""
    def sub_term(t, env):
        if isinstance(t, Var) and t.name in env:
            return env[t.name]
        return t

    def sub(f: Formula, env) -> Formula:
        if isinstance(f, Const):
            return f
        if isinstance(f, AtomD):
            return AtomD(sub_term(f.left, env), sub_term(f.right, env))
        if isinstance(f, AtomR):
            raise UrysohnError(f"nested relation symbol {f.name}")
        return _rebuild(f, [sub(c, env) for c in f.children()])

    def go(f: Formula) -> Formula:
        if isinstance(f, AtomR):
            d = anchored.defs.get(f.name)
            if d is None:
                raise UrysohnError(f"no definition for relation symbol {f.name}")
            if len(f.args) != len(d.params):
                raise UrysohnError(f"arity mismatch for {f.name}")
            return sub(d.body, dict(zip(d.params, f.args)))
        if isinstance(f, (Const, AtomD)):
            return f
        return _rebuild(f, [go(c) for c in f.children()])

    return go(phi)


def _rebuild(f: Formula, kids: List[Formula]) -> Formula:
    if isinstance(f, Half):
        return Half(kids[0])
    if isinstance(f, Neg):
        return Neg(kids[0])
    if isinstance(f, DotScale):
        return DotScale(f.factor, kids[0])
    if isinstance(f, (Min, Max, AbsDiff, DotMinus, DotPlus)):
        return type(f)(kids[0], kids[1])
    if isinstance(f, Sup):
        return Sup(f.var, kids[0])
    if isinstance(f, Inf):
        return Inf(f.var, kids[0])
    raise UrysohnError(f"cannot rebuild {f!r}")


@dataclass(frozen=True)
class QuantifierBudget:
    mesh: Fraction
    rounds: int = 0

    def __post_init__(self):
        if Fraction(self.mesh) <= 0:
            raise UrysohnError("mesh must be positive")
        if self.rounds < 0:
            raise UrysohnError("rounds must be >= 0")


def snap_mesh(requested: Fraction, space: RationalMetricSpace) -> Fraction:
    """Largest 1/(D*2^t) <= requested, D clearing the anchor denominators."""
    dens = [space.dist[(p, q)].denominator
            for i, p in enumerate(space.points)
            for q in space.points[i + 1:]]
    d = lcm(*dens) if dens else 1
    h = Fraction(1, d)
    while h > requested:
        h /= 2
    return h


def eval_urysohn(phi: Formula, anchored: AnchoredStructure,
                 params: Optional[Mapping[str, str]] = None,
                 budget: QuantifierBudget = QuantifierBudget(Fraction(1, 16), 2)) -> Enclosure:
    """Enclosure of the value of phi over the universal space.

    params sends the free variables of phi to anchor points; the refined
    enclosures of successive rounds are intersected, so the width never
    grows with extra rounds.
    """
    _check_depth(phi)
    params = dict(params or {})
    body = expand_predicates(phi, anchored)
    sig = anchored.signature
    missing = free_variables(body) - set(params)
    if missing:
        raise UrysohnError(f"unbound variables after substitution: {sorted(missing)}")
    for v, p in params.items():
        if not anchored.anchors.has_point(p):
            raise UrysohnError(f"parameter {v} -> {p!r} is not an anchor")

    h0 = snap_mesh(Fraction(budget.mesh), anchored.anchors)
    coeffs: Dict[int, Fraction] = {}    # lipschitz per quantifier node, by identity
    result = None
    for r in range(budget.rounds + 1):
        e = _eval_at_mesh(body, anchored.anchors, sig, params, h0 / (2 ** r), coeffs)
        result = e if result is None else result.intersect(e)
    return result


def _check_depth(phi: Formula) -> None:
    """Refuse phi nested deeper than MAX_DEPTH, before a recursive walker.

    The parser holds parsed text to that limit; this holds formulas built in
    Python to it too, and walks them with an explicit stack.
    """
    stack = [(phi, 1)]
    while stack:
        f, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise UrysohnError(f"formula nested deeper than {MAX_DEPTH} levels")
        stack.extend((c, depth + 1) for c in f.children())


def _eval_at_mesh(phi: Formula, anchors: RationalMetricSpace, sig: Signature,
                  params: Mapping[str, str], h: Fraction,
                  coeffs: Dict[int, Fraction]) -> Enclosure:
    names = anchors.points
    index = {p: i for i, p in enumerate(names)}
    n = h.denominator               # snap_mesh makes h = 1/n
    # Distances of the partial space in mesh steps (snap_mesh puts every
    # anchor distance on the grid); abstract points append rows.
    steps: List[List[int]] = [[int(anchors.d(p, q) * n) for q in names] for p in names]

    env: Dict[str, int] = {v: index[p] for v, p in params.items()}
    # _compile's closures per quantifier-free body, keyed by everything its
    # atoms resolve through: the node, the new point and the environment.
    compiled: Dict[tuple, tuple] = {}

    def point_of(term) -> int:
        if isinstance(term, ConstName):
            return index[term.name]
        i = env.get(term.name)
        if i is None:
            raise UrysohnError(f"unbound variable {term.name!r}")
        return i

    def dist(i: int, j: int) -> Fraction:
        if i == j:
            return ZERO
        i, j = (i, j) if i > j else (j, i)
        return Fraction(steps[i][j], n)

    def go(f: Formula) -> Enclosure:
        return _enc_eval(f, dist, point_of, quantify)

    def walk(row: List[int], k: int, leaf, pruned) -> None:
        # Integer steps s_k admissible against the known points j < k:
        # |d_kj - s_j| <= s_k <= min(n, s_j + d_kj).
        lo, hi = 0, n
        known = steps[k]
        for j in range(k):
            d, sj = known[j], row[j]
            lo = max(lo, d - sj, sj - d)
            hi = min(hi, sj + d)
        if k == len(row) - 1:
            leaf(lo, hi)
            return
        for s in range(lo, hi + 1):
            row[k] = s
            if not pruned(k + 1):
                walk(row, k + 1, leaf, pruned)

    def quantify(f) -> Enclosure:
        is_sup = isinstance(f, Sup)
        coeff = coeffs.get(id(f))
        if coeff is None:
            coeff = coeffs[id(f)] = lipschitz(f.body, sig, only_var=f.var)
        m = len(steps)

        saved = env.get(f.var)
        env[f.var] = m
        row = [0] * m
        steps.append(row)
        if is_quantifier_free(f.body):
            best = exact_optimum(f.body, m, row, is_sup)
        else:
            best = nested_optimum(f.body, row, is_sup)
        steps.pop()
        if saved is None:
            del env[f.var]
        else:
            env[f.var] = saved

        if best is None:
            raise UrysohnError("empty admissibility polytope; inputs were inconsistent")
        if m == 0:
            # the first abstract point is unconstrained: one exact branch
            return best
        # The optimum over the polytope lies within coeff * h of the grid's,
        # on the far side: best +. [0, err] for sup, best -. [0, err] for inf.
        err = Enclosure(ZERO, min(ONE, coeff * h))
        return enc_dot_add(best, err) if is_sup else enc_dot_sub(best, err)

    def exact_optimum(body: Formula, m: int, row: List[int],
                      is_sup: bool) -> Optional[Enclosure]:
        # Full vectors: the compiled body, exact in integers over N.
        # Partial vectors: its integer interval bound, which skips subtrees
        # that cannot beat the optimum.
        key = (id(body), m, tuple(sorted(env.items())))
        if key not in compiled:
            compiled[key] = _compile(body, point_of, m, steps, n)
        g, bound, N = compiled[key]
        if m == 0:
            return Enclosure.exact(Fraction(g(row), N))
        pick = max if is_sup else min
        best = None                     # the optimum over N

        def values(lo: int, hi: int):
            for s in range(lo, hi + 1):
                row[m - 1] = s
                yield g(row)

        def leaf(lo: int, hi: int) -> None:
            nonlocal best
            v = pick(values(lo, hi), default=None)
            if v is not None and (best is None or pick(v, best) != best):
                best = v

        def pruned(filled: int) -> bool:
            if best is None:
                return False
            lo, hi = bound(row, filled)
            return hi <= best if is_sup else lo >= best

        walk(row, 0, leaf, pruned)
        return None if best is None else Enclosure.exact(Fraction(best, N))

    def nested_optimum(body: Formula, row: List[int],
                       is_sup: bool) -> Optional[Enclosure]:
        # Full vectors only, each through the enclosure of the quantified body.
        if not row:
            return go(body)
        best = None
        merge = enc_max if is_sup else enc_min

        def leaf(lo: int, hi: int) -> None:
            nonlocal best
            for s in range(lo, hi + 1):
                row[-1] = s
                e = go(body)
                best = e if best is None else merge(best, e)

        walk(row, 0, leaf, lambda filled: False)
        return best

    return go(phi)


def _compile(body: Formula, point_of, m: int, steps: List[List[int]], n: int):
    """Compile a quantifier-free body at new point m into integer closures.

    A distance atom between the new point and known point j is coordinate j
    of the new point's step vector s; one between known points i > j is
    steps[i][j], read when a closure runs, so the closures serve every
    placement of the known points.  Returns (g, b, N), where N clears every
    intermediate value and bound: n for distances, the constants'
    denominators, times 2 under each half and times the denominator of each
    scale factor.

    * g(s) / N is the exact value of the body at a full vector s.
    * b(s, filled) = (lo, hi) bounds N times the value when only s[j] for
      j < filled are set, the others ranging over [0, N]: the interval
      extension, connective by connective as in `intervals` (Moore, Kearfott
      & Cloud 2009, ch. 11), so lo / N and hi / N are exactly the endpoints
      that enclosure arithmetic gives.

    Both compute with Python ints only; caps and truncations become
    comparisons with N and 0.
    """
    def points(atom: AtomD) -> Tuple[int, int]:
        i, j = point_of(atom.left), point_of(atom.right)
        return (i, j) if i > j else (j, i)

    def den(f: Formula) -> int:
        if isinstance(f, Const):
            return Fraction(f.value).denominator
        if isinstance(f, AtomD):
            i, j = points(f)
            return 1 if i == j else n
        if isinstance(f, Half):
            return 2 * den(f.body)
        if isinstance(f, DotScale):
            return Fraction(f.factor).denominator * den(f.body)
        if isinstance(f, (Neg, Min, Max, AbsDiff, DotMinus, DotPlus)):
            return lcm(*(den(c) for c in f.children()))
        raise UrysohnError(f"cannot compile {f!r}")

    N = den(body)
    unit = N // n                       # N over n: one mesh step
    unknown = (0, N)

    def constant(c: int):
        pair = (c, c)
        return (lambda s: c), (lambda s, filled: pair)

    def build(f: Formula):
        if isinstance(f, Const):
            return constant(int(Fraction(f.value) * N))
        if isinstance(f, AtomD):
            i, j = points(f)
            if i == j:
                return constant(0)
            if i != m:                  # two known points
                def g(s):
                    return steps[i][j] * unit

                def b(s, filled):
                    v = steps[i][j] * unit
                    return v, v
                return g, b

            def b(s, filled):
                if j < filled:
                    v = s[j] * unit
                    return v, v
                return unknown
            return (itemgetter(j) if unit == 1 else (lambda s: s[j] * unit)), b
        if isinstance(f, Half):
            a, ab = build(f.body)

            def b(s, filled):
                lo, hi = ab(s, filled)
                return lo // 2, hi // 2
            return (lambda s: a(s) // 2), b
        if isinstance(f, Neg):
            a, ab = build(f.body)

            def b(s, filled):
                lo, hi = ab(s, filled)
                return N - hi, N - lo
            return (lambda s: N - a(s)), b
        if isinstance(f, DotScale):
            a, ab = build(f.body)
            q = Fraction(f.factor)
            num, dnm = q.numerator, q.denominator

            def g(s):
                v = a(s) * num // dnm
                return v if v < N else N

            def b(s, filled):
                lo, hi = ab(s, filled)
                lo, hi = lo * num // dnm, hi * num // dnm
                return (lo if lo < N else N), (hi if hi < N else N)
            return g, b
        (a, ab), (c, cb) = build(f.left), build(f.right)
        if isinstance(f, Min):
            def g(s):
                x, y = a(s), c(s)
                return x if x < y else y

            def b(s, filled):
                (xl, xh), (yl, yh) = ab(s, filled), cb(s, filled)
                return (xl if xl < yl else yl), (xh if xh < yh else yh)
        elif isinstance(f, Max):
            def g(s):
                x, y = a(s), c(s)
                return x if x > y else y

            def b(s, filled):
                (xl, xh), (yl, yh) = ab(s, filled), cb(s, filled)
                return (xl if xl > yl else yl), (xh if xh > yh else yh)
        elif isinstance(f, AbsDiff):
            def g(s):
                return abs(a(s) - c(s))

            def b(s, filled):
                (xl, xh), (yl, yh) = ab(s, filled), cb(s, filled)
                hi = max(xh - yl, yh - xl)
                if xh < yl:
                    return yl - xh, hi
                if yh < xl:
                    return xl - yh, hi
                return 0, hi
        elif isinstance(f, DotMinus):
            def g(s):
                v = a(s) - c(s)
                return v if v > 0 else 0

            def b(s, filled):
                (xl, xh), (yl, yh) = ab(s, filled), cb(s, filled)
                lo, hi = xl - yh, xh - yl
                return (lo if lo > 0 else 0), (hi if hi > 0 else 0)
        else:
            def g(s):
                v = a(s) + c(s)
                return v if v < N else N

            def b(s, filled):
                (xl, xh), (yl, yh) = ab(s, filled), cb(s, filled)
                lo, hi = xl + yl, xh + yh
                return (lo if lo < N else N), (hi if hi < N else N)
        return g, b

    g, b = build(body)
    return g, b, N


def _enc_eval(f: Formula, dist, point_of, quantify) -> Enclosure:
    """Enclosure arithmetic over the current partial space.

    dist(i, j) is the distance between points i and j of the partial space,
    a rational or an enclosure; quantify handles the sup/inf nodes and is
    None in quantifier-free contexts.
    """
    def go(f):
        if isinstance(f, (Sup, Inf)):
            if quantify is None:
                raise UrysohnError("quantifier in a quantifier-free context")
            return quantify(f)
        if isinstance(f, Const):
            return Enclosure.exact(f.value)
        if isinstance(f, AtomD):
            return as_enclosure(dist(point_of(f.left), point_of(f.right)))
        if isinstance(f, Half):
            return enc_half(go(f.body))
        if isinstance(f, Neg):
            return enc_neg(go(f.body))
        if isinstance(f, DotScale):
            return enc_scale(f.factor, go(f.body))
        if isinstance(f, Min):
            return enc_min(go(f.left), go(f.right))
        if isinstance(f, Max):
            return enc_max(go(f.left), go(f.right))
        if isinstance(f, AbsDiff):
            return enc_absdiff(go(f.left), go(f.right))
        if isinstance(f, DotMinus):
            return enc_dot_sub(go(f.left), go(f.right))
        if isinstance(f, DotPlus):
            return enc_dot_add(go(f.left), go(f.right))
        raise UrysohnError(f"unknown node {f!r}")

    return go(f)


def qf_decide(phi: Formula, fragment: RationalMetricSpace) -> Fraction:
    """Exact value of a quantifier-free sentence over a stored fragment."""
    if not is_quantifier_free(phi):
        raise UrysohnError("qf_decide needs a quantifier-free formula")
    if free_variables(phi):
        raise UrysohnError("qf_decide needs a sentence (no free variables)")
    sig = Signature((), fragment.points)
    M = FiniteStructure(fragment, sig, {}, {p: p for p in fragment.points})
    return evaluate(phi, M, {})


def qf_threshold(phi: Formula, fragment: RationalMetricSpace,
                 eps: Fraction, cmp: str) -> bool:
    value = qf_decide(phi, fragment)
    if cmp == "<":
        return value < eps
    if cmp == ">":
        return value > eps
    raise UrysohnError(f"comparison must be '<' or '>', got {cmp!r}")


def theta_demo(q: Fraction, tol: Fraction) -> Enclosure:
    """Enclose inf over e in [0,q] of (10 *. (q - e)) +. sqrt(e).

    Adaptive bisection with interval arithmetic; the square root is enclosed
    by outward rounding at a precision well below tol.  Valid for
    1/10 < q < 1/2, where the infimum equals sqrt(q).
    """
    q, tol = Fraction(q), Fraction(tol)
    if not (Fraction(1, 10) < q < Fraction(1, 2)):
        raise UrysohnError(f"q = {q} outside the open interval (1/10, 1/2)")
    if tol <= 0:
        raise UrysohnError("tol must be positive")

    prec = 8
    while Fraction(1, 2 ** prec) > tol / 8:
        prec += 1

    ten = Fraction(10)

    def cell_enclosure(e1: Fraction, e2: Fraction) -> Enclosure:
        lin = Enclosure(dot_scale(ten, max(q - e2, ZERO)),
                        dot_scale(ten, max(q - e1, ZERO)))
        rt = Enclosure(sqrt_enclosure(e1, prec).lo, sqrt_enclosure(e2, prec).hi)
        return enc_dot_add(lin, rt)

    cells = [(ZERO, q)]
    enclosures = {(ZERO, q): cell_enclosure(ZERO, q)}
    while True:
        global_hi = min(enclosures[c].hi for c in cells)
        live = [c for c in cells if enclosures[c].lo < global_hi]
        global_lo = min((enclosures[c].lo for c in live), default=global_hi)
        if global_hi - global_lo <= tol:
            return Enclosure(global_lo, global_hi)
        # split the live cell with the smallest lower bound
        target = min(live, key=lambda c: (enclosures[c].lo, c))
        e1, e2 = target
        mid = (e1 + e2) / 2
        cells.remove(target)
        del enclosures[target]
        for cell in ((e1, mid), (mid, e2)):
            cells.append(cell)
            enclosures[cell] = cell_enclosure(*cell)
