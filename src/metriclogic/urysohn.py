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

Each search runs over the known points its formula reads: the anchors its
atoms name and the outer points its free variables stand for.  A body that
never names a point p cannot tell the new points apart by their distances
to p, and every admissible grid vector over the named points extends to p
by the Katetov extension min(n, min_q s_q + d(q, p)) (Katetov 1988;
Uspenskij 1990), on the grid since n clears every distance, and by the
constant n over no named point.  So the grid minimax over the named points
is the one over all of them, at every level.  The mesh is still snapped
over every anchor, and the first new point is left unwidened only when the
whole partial space, the points left out included, is empty.  A
quantifier under a connective depends only on the distances among the
points it reads, so the compiled body it sits in keeps its widened
enclosure per those distances for the round, and it has one value over
any box that fixes them.

The grid search runs over integer step counts: at mesh h every distance is
s * h.  One flat lower triangle of them, cell (i, j), j < i, at
i * (i - 1) // 2 + j, is both the partial space and the search box: the
box is a pair of triangles L <= s <= H, a known distance (between anchors
and outer quantified points) is the point range L[c] == H[c], and a
distance to a point of the chain being searched is [0, n] until it is set.
At a full vector L holds every distance.  Every formula the search meets
is its prenex run Q1 x1 ... Qk xk (k = 0 when its top is no quantifier)
over a body.  The body is compiled once per node and mesh round into
closures over Python ints scaled by one common denominator N (n for
distances, the constants' denominators, doubled under each half, times
the denominator of each scale factor).  The closures read the triangle
when they run, so one compilation serves every outer vector.  No Fraction
or enclosure is built per grid point:

* At a full vector the compiled body gives the exact value.
* Over a box its compiled interval bound gives N times the endpoints
  enclosure arithmetic would give, and the box is skipped when the bound
  cannot beat the running optimum.  An unset cell is [0, n] or, at the
  top level, the triangle hull of the ranges before it.
* A quantifier under a connective is a leaf of the body.  Over a box that
  fixes every distance among the points it reads (a full vector, and any
  box when it reads at most one point) it is its widened enclosure, found
  by the same search at that partial space (N clears its denominators
  too), and [0, N] over a box that leaves one of them open.  A body with
  leaves has an enclosure at each full vector, and each endpoint is
  searched apart with the same bound.

The run is one integer minimax over its step vectors, a row per point, with
one box over all the rows.  Alpha-beta search (Knuth & Moore 1975) passes a
window down the levels.  Each level first tries its vertex rows: the new
point on known point j (s_j = 0, s_i = d(i, j)), then far from every known
point (all n).  Each is an admissible grid vector (the known table
satisfies the triangle inequality, and no known distance exceeds n) that
the scan visits again, so only the order changes.  Then the top level, with
no window from above, bisects each coordinate but the last and descends
into the half with the better bound first, so the optimum turns up early
and the bound skips the rest (interval branch and bound, Moore, Kearfott &
Cloud 2009, ch. 11); the levels below walk their rows in step order.  The
last coordinate of the last row is scanned when its range is short; a
longer one is a box with a bound on the body's step along it as well (the
monotonicity test, Hansen & Walster 2004): skipped when it cannot beat the
optimum, evaluated at the one end that holds the optimum when the body is
monotone on it, else bisected.  Values lie in [0, N], so a level stops
once its optimum reaches the window's edge or that range's end.
A level's widening is the same for all its vectors and monotone, so the
exact minimax widened level by level is the endpoint-wise merge of the
widened inner enclosures.  An empty run is its body at the point box with
no coordinates.

Pruning and cutoffs only ever drop vectors whose values cannot change the
optimum, so the result is the exact grid optimum (plus the Lipschitz term)
whatever was dropped: the same rationals as a walk over every grid vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter, or_
from typing import Dict, List, Mapping, Optional, Tuple

from .formula import (CONNECTIVES, AbsDiff, AtomD, AtomR, Const, ConstName,
                      DotMinus, DotPlus, DotScale, Formula, Half, Inf, MAX_DEPTH,
                      Max, Min, Neg, Signature, Sup, Var, atoms, by_shape,
                      fold, free_variables, is_quantifier_free, keep, lipschitz,
                      nesting_depth)
from .intervals import Enclosure, enc_dot_add, enc_dot_sub, sqrt_enclosure
from .metric import RationalMetricSpace
from .rational import ONE, ZERO, dot_scale
from .record import field, record
from .structures import FiniteStructure, evaluate


class UrysohnError(ValueError):
    pass


@record
class PredicateDef:
    """A relation symbol defined by a quantifier-free distance formula."""
    params: Tuple[str, ...]
    body: Formula

    def __post_init__(self):
        if not self.params:
            raise UrysohnError("predicate definition needs at least one parameter")
        if not is_quantifier_free(self.body):
            raise UrysohnError("predicate definitions must be quantifier free")


@record
class AnchoredStructure:
    anchors: RationalMetricSpace
    defs: Mapping[str, PredicateDef] = field(default_factory=dict)

    def __post_init__(self):
        for name, d in self.defs.items():
            for atom in atoms(d.body):
                if isinstance(atom, AtomR):
                    raise UrysohnError(
                        f"definition of {name} uses relation symbol {atom.name}")
            clash = set(d.params) & set(self.anchors.points)
            if clash:
                raise UrysohnError(f"parameter {min(clash)} of {name} names an anchor")
            loose = free_variables(d.body) - set(d.params)
            if loose:
                raise UrysohnError(
                    f"definition of {name} has stray variables {', '.join(sorted(loose))}")

    @property
    def signature(self) -> Signature:
        return Signature((), self.anchors.points)


# Rebuilding a formula: each connective's rule is its class constructor.
_REBUILD = {Const: keep, **{cls: cls for cls in CONNECTIVES.values()}}

# The terms a formula reads: its free variables and the anchors it names
# (a quantifier's rule drops its variable).
_READS = {**by_shape(unary=keep, scale=keep, binary=or_),
          Const: lambda f: frozenset(), AtomD: lambda f: frozenset((f.left, f.right))}


def expand_predicates(phi: Formula, anchored: AnchoredStructure, atom=keep) -> Formula:
    """Inline every relation atom through its definition, and rewrite every
    distance atom, those of the definitions too, by atom; phi itself when
    that changes nothing, which one walk over phi's atoms decides."""
    if all(not isinstance(a, AtomR) and atom(a) is a for a in atoms(phi)):
        return phi

    def inline(f: AtomR) -> Formula:
        d = anchored.defs.get(f.name)
        if d is None:
            raise UrysohnError(f"no definition for relation symbol {f.name}")
        if len(f.args) != len(d.params):
            raise UrysohnError(f"arity mismatch for {f.name}")
        env = dict(zip(d.params, f.args))
        return fold(d.body, {**_REBUILD, AtomD: lambda a: atom(AtomD(
            *(env.get(t.name, t) if isinstance(t, Var) else t for t in (a.left, a.right))))})

    return fold(phi, {**_REBUILD, AtomD: atom, AtomR: inline})


@record
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
    d = space.int_rows[0]
    num, den = requested.numerator, requested.denominator
    while d * num < den:                # 1/d > num/den
        d *= 2
    return Fraction(1, d)


def eval_urysohn(phi: Formula, anchored: AnchoredStructure,
                 params: Optional[Mapping[str, str]] = None,
                 budget: QuantifierBudget = QuantifierBudget(Fraction(1, 16), 2)) -> Enclosure:
    """Enclosure of the value of phi over the universal space.

    params sends the free variables of phi to anchor points; the refined
    enclosures of successive rounds are intersected, so the width never
    grows with extra rounds.
    """
    # The parser holds parsed text to MAX_DEPTH; this holds formulas built in
    # Python to it too, measured without recursion.
    if nesting_depth(phi) > MAX_DEPTH:
        raise UrysohnError(f"formula nested deeper than {MAX_DEPTH} levels")
    params = dict(params or {})

    # An atom between two anchors is a constant of the search; as an atom it
    # would make both anchors coordinates of every search it sits in.
    def constant(a: AtomD) -> Formula:
        if isinstance(a.left, ConstName) and isinstance(a.right, ConstName):
            d = anchored.anchors.dist.get((a.left.name, a.right.name))
            if d is not None:
                return Const(d)
        return a

    body = expand_predicates(phi, anchored, constant)
    sig = anchored.signature
    # per formula the search may meet, by identity: the terms it reads
    reads: Dict[int, frozenset] = {}

    def bind(f, inner):
        r = reads[id(f)] = inner() - {Var(f.var)}
        return r

    top = reads[id(body)] = fold(body, _READS, bind)
    unknown = {t.name for t in top if isinstance(t, ConstName)} - set(anchored.anchors.points)
    if unknown:
        raise UrysohnError(f"point {min(unknown)!r} is not an anchor")
    missing = {t.name for t in top if isinstance(t, Var)} - set(params)
    if missing:
        raise UrysohnError(f"unbound variables after substitution: {sorted(missing)}")
    for v, p in params.items():
        if not anchored.anchors.has_point(p):
            raise UrysohnError(f"parameter {v} -> {p!r} is not an anchor")

    h0 = snap_mesh(Fraction(budget.mesh), anchored.anchors)
    # per quantifier node, by identity: its lipschitz coefficient
    nodes: Dict[int, Fraction] = {}
    result = None
    for r in range(budget.rounds + 1):
        e = _eval_at_mesh(body, anchored.anchors, sig, params, h0 / (2 ** r), nodes, reads)
        result = e if result is None else result.intersect(e)
    return result


def _eval_at_mesh(phi: Formula, anchors: RationalMetricSpace, sig: Signature,
                  params: Mapping[str, str], h: Fraction,
                  nodes: Dict[int, Fraction], reads: Dict[int, frozenset]) -> Enclosure:
    index = anchors.point_index
    n = h.denominator               # snap_mesh makes h = 1/n, n = D * 2^t
    # The anchors' distances in mesh steps as a flat lower triangle: cell
    # (i, j), j < i, at i * (i - 1) // 2 + j (the int rows laid end to end).
    D, rows = anchors.int_rows
    table = [x * (n // D) for row in rows for x in row]
    # per searched formula: (quantifier free, _compile's closures for its
    # body), keyed by everything the closures capture: the node, the size of
    # the (cut-down) partial space, the points left out and the point each
    # term the formula reads stands for.  Within one, a leaf's points and
    # widening are fixed: its memo needs only their distances.
    compiled: Dict[tuple, tuple] = {}

    def value(f: Formula, T: List[int], m0: int, point_of: Dict, dropped: int) -> Enclosure:
        # f's prenex run Q1 x1 ... Qk xk (k = 0 when f is no quantifier) and
        # the body below it: one search at the partial space T of m0 points
        # (point_of sends each term to its point; the enclosing searches left
        # `dropped` points out), cut down to the points f reads, which has
        # the same grid minimax (the Katetov extension, see the module
        # docstring).
        full = m0 + dropped             # the unrestricted partial space
        at = {t: point_of[t] for t in reads[id(f)]}
        kept = sorted(set(at.values()))
        if len(kept) < m0:              # renumber the table and the terms
            place = {i: k for k, i in enumerate(kept)}
            T = [T[i * (i - 1) // 2 + j] for k, i in enumerate(kept) for j in kept[:k]]
            at = {t: place[i] for t, i in at.items()}
            dropped += m0 - len(kept)
            m0 = len(kept)
        key = (id(f), m0, dropped, frozenset(at.items()))
        chain = []
        while isinstance(f, (Sup, Inf)):
            at[Var(f.var)] = m0 + len(chain)   # a later binding shadows an earlier one
            chain.append(f)
            f = f.body
        last = m0 + len(chain) - 1
        if key not in compiled:
            compiled[key] = (is_quantifier_free(f), _compile(
                f, at.__getitem__, last, n,
                lambda q, T: value(q, T, last + 1, at, dropped), err, reads))
        best = chain_optimum(chain, T, m0, *compiled[key])
        if best is None:
            raise UrysohnError("empty admissibility polytope; inputs were inconsistent")
        # Widening commutes with the endpoint-wise merge of the level above,
        # so the levels widen from the innermost outward; the first point of
        # an empty partial space (counting the points left out) is
        # unconstrained (one exact branch) and is not widened.
        for i in reversed(range(len(chain))):
            if full + i:
                best = (enc_dot_add if isinstance(chain[i], Sup) else enc_dot_sub)(
                    best, Enclosure(ZERO, err(chain[i])))
        return best

    def err(f) -> Fraction:
        # The optimum over the polytope lies within coeff * h of the grid's,
        # on the far side: best +. [0, err] for sup, best -. [0, err] for
        # inf.  The coefficient is found once per node.
        coeff = nodes.get(id(f))
        if coeff is None:
            coeff = nodes[id(f)] = lipschitz(f.body, sig, only_var=f.var)
        return min(ONE, coeff * h)

    def chain_optimum(chain, T: List[int], m0: int, exact: bool, closures) -> Optional[Enclosure]:
        # The grid minimax over the chain's points m0 ... last, in integers
        # over N: alpha-beta over the levels.  One triangle [L, H] over
        # every point is both the partial space and the box: a known cell
        # is the point range L[c] == H[c], a chain cell [0, n] until it is
        # set.  Each level tries its vertex rows first, then the top level
        # searches best first by bisection and the levels below in step order.
        g, b, d, N = closures
        last = m0 + len(chain) - 1
        size = sum(range(m0, last + 1))
        L, H = T + [0] * size, T + [n] * size   # every chain cell unset
        if not chain:                       # the point box with no coordinates
            lo, hi = b(L, L)
            return Enclosure(Fraction(lo, N), Fraction(hi, N))
        at_point = g                        # the searched value at a full vector

        def search(t: int, alpha: int, beta: int) -> int:
            # Level t's value if it lies in (alpha, beta); otherwise a value
            # on the same side of the window.
            m = m0 + t
            if not m:                   # the first point of an empty space
                return at_point(L) if m == last else search(t + 1, alpha, beta)
            is_sup = isinstance(chain[t], Sup)
            base = m * (m - 1) // 2     # row m's first cell
            k_last = m - 1
            best = alpha if is_sup else beta
            # values lie in [0, N]: the level is done once its optimum
            # reaches the window's edge or the end of that range
            limit = min(beta, N) if is_sup else max(alpha, 0)

            def fill(k: int, lo: int, hi: int) -> None:
                # coordinate k over [lo, hi] in step order, the coordinates
                # after it unset
                nonlocal best
                c = base + k
                if k == k_last and m == last:     # each value completes L
                    if d is not None and hi - lo > _CUT_OVER:
                        # the row as one box: [lo, hi] is its exact range,
                        # so an end can stand for it
                        L[c], H[c] = lo, hi
                        bl, bh, dl, dh = d(L, H)
                        L[c], H[c] = 0, n
                        if bh <= best if is_sup else bl >= best:
                            return          # the row cannot move the optimum
                        if dl < 0 < dh:     # no monotone run: bisect
                            mid = (lo + hi) // 2
                            fill(k, lo, mid)
                            if best < limit if is_sup else best > limit:
                                fill(k, mid + 1, hi)
                            return
                        # monotone: the optimum lies at one end
                        lo = hi = hi if (dl >= 0) == is_sup else lo
                    top = best
                    for x in range(lo, hi + 1):
                        L[c] = x
                        v = at_point(L)
                        if v > top if is_sup else v < top:
                            top = v
                            if v >= limit if is_sup else v <= limit:
                                break
                    L[c] = 0                # unset again for the levels above
                    best = top
                    return
                for x in range(lo, hi + 1):
                    if best >= limit if is_sup else best <= limit:
                        break
                    L[c] = H[c] = x
                    bl, bh = b(L, H)
                    if bh <= best if is_sup else bl >= best:
                        continue            # the box cannot move the optimum
                    if k < k_last:
                        fill(k + 1, *_span(n, m, k + 1, L, H))
                    else:
                        v = search(t + 1, best, beta) if is_sup else search(t + 1, alpha, best)
                        best = max(v, best) if is_sup else min(v, best)
                L[c], H[c] = 0, n

            def split(k: int, lo: int, hi: int) -> None:
                # the top level: coordinate k over [lo, hi], the earlier ones
                # fixed, the box bounded by the caller (or the whole row);
                # the better half of the box first
                while lo == hi and k < k_last:
                    # fixed: the next coordinate's exact range is its hull,
                    # so the box is the one bounded
                    L[base + k] = H[base + k] = lo
                    k += 1
                    lo, hi = _span(n, m, k, L, H)
                if k == k_last:
                    fill(k, lo, hi)
                    return
                mid = (lo + hi) // 2
                halves = []
                for a, z in ((lo, mid), (mid + 1, hi)):
                    L[base + k], H[base + k] = a, z
                    # the triangle hull of the later coordinates over the box
                    for j in range(k + 1, m):
                        c = base + j
                        L[c], H[c] = _span(n, m, j, L, H)
                        if L[c] > H[c]:     # no admissible vector in the box
                            break
                    else:
                        bl, bh = b(L, H)
                        # better first: higher hi under sup, lower lo under
                        # inf, the lower half on ties
                        halves.append((-bh if is_sup else bl, a, z, bl, bh))
                halves.sort()
                for _, a, z, bl, bh in halves:
                    if best >= limit if is_sup else best <= limit:
                        break
                    if bh > best if is_sup else bl < best:
                        split(k, a, z)

            # Vertex rows first: the new point on known point j (s_j = 0,
            # s_i = d(i, j)), then far from every one (all n).  Each is an
            # admissible grid vector, since the known table satisfies the
            # triangle inequality and no known distance exceeds n, and the
            # scan visits it again: only the order changes.
            for j in range(m + 1):
                r = j * (j - 1) // 2
                v = (L[r:r + j] + [0] + [L[i * (i - 1) // 2 + j] for i in range(j + 1, m)]
                     if j < m else [n] * m)
                L[base:base + m] = H[base:base + m] = v
                if m == last:
                    x = at_point(L)
                else:
                    bl, bh = b(L, H)
                    if bh <= best if is_sup else bl >= best:
                        continue            # the row cannot move the optimum
                    x = search(t + 1, best, beta) if is_sup else search(t + 1, alpha, best)
                best = max(x, best) if is_sup else min(x, best)
                if best >= limit if is_sup else best <= limit:
                    break
            # unset again: the scan's boxes and the levels above read them so
            L[base:base + m], H[base:base + m] = [0] * m, [n] * m
            # then the top level best first, the levels below in step order
            if best < limit if is_sup else best > limit:
                (fill if t else split)(0, 0, n)
            return best

        # values lie in [0, N]: an open window
        if exact:
            lo = hi = search(0, -1, N + 1)
        else:
            # The body's enclosure at a full vector L is b(L, L).  Each
            # endpoint is searched apart; b bounds both, and the leaves keep
            # theirs.
            at_point = lambda L: b(L, L)[0]
            lo = search(0, -1, N + 1)
            at_point = lambda L: b(L, L)[1]
            hi = search(0, -1, N + 1)
        if not 0 <= lo <= hi <= N:
            return None
        return Enclosure(Fraction(lo, N), Fraction(hi, N))

    terms = {**{ConstName(p): i for p, i in index.items()},
             **{Var(v): index[p] for v, p in params.items()}}
    return value(phi, table, len(index), terms, 0)


# A row of the last coordinate longer than this many steps is bounded with
# the slope bound and bisected; a shorter one is scanned.
_CUT_OVER = 16


def _span(n: int, m: int, k: int, L, H) -> Tuple[int, int]:
    """Steps admissible for cell (m, k) of the triangle, the new point m's
    distance to point k, when each cell (m, j), j < k, lies in [L, H] and
    point k's cells (k, j) are set: the hull of |d_kj - s_j| <= s_k <=
    min(n, s_j + d_kj) over that box.  With row m's earlier cells set it
    is the exact range."""
    lo, hi = 0, n
    row, known = m * (m - 1) // 2, k * (k - 1) // 2
    for j in range(k):
        d = L[known + j]
        lo = max(lo, d - H[row + j], L[row + j] - d)
        hi = min(hi, H[row + j] + d)
    return lo, hi


def _compile(body: Formula, point_of, m: int, n: int, value=None, err=None, reads=None):
    """Compile a body at new point m into integer closures.

    The closures read one flat lower triangle over points 0 ... m: the
    distance between points i > j, in mesh steps, is cell (i, j) at
    i * (i - 1) // 2 + j, and point_of sends a term to its point.  A box
    [L, H] is two such triangles, L[c] <= s_c <= H[c] for each cell c; a
    known distance is the point range L[c] == H[c].  A quantifier in the
    body is a leaf: value(f, L) is its widened enclosure at the partial
    space L, err(f) the widening of its level, and reads[id(f)] the terms
    it reads; the leaf keeps its enclosure per the distances among the
    points those terms stand for.  Returns (g, b, d, N), where N clears
    every intermediate value and bound: n for distances, the constants'
    denominators, times 2 under each half and times the denominator of
    each scale factor, and for a leaf its body's N and the denominator of
    each of its levels' err.

    * g(L) / N is the exact value of a quantifier-free body at a full
      vector L; g is None for a body with leaves.
    * b(L, H) = (lo, hi) bounds N times the value over the box: the
      interval extension, connective by connective as in `intervals`
      (Moore, Kearfott & Cloud 2009, ch. 11), so lo / N and hi / N are
      exactly the endpoints that enclosure arithmetic gives over
      [L[c] / n, H[c] / n].  A leaf is its enclosure over any box that
      fixes every distance it reads, else [0, N]; so b(L, L) is the body's
      enclosure at a full vector L, and for a quantifier-free body
      (g(L), g(L)).
    * d(L, H) = (lo, hi, dl, dh): (lo, hi) is b(L, H), and [dl, dh] bounds
      N times the change of the value from s to s + e over the box, e one
      step of cell (m, m - 1), the box's last (the new point's distance to
      point m - 1): one unit for that cell, none for the others.  min and
      max take the child that wins over the whole box, absdiff the step
      of x - y where its sign is fixed; a cap or truncation makes the step
      0 where the box lies wholly past it and hulls it with 0 where the box
      straddles it.  d is None for a body with leaves.

    Both compute with Python ints only; caps and truncations become
    comparisons with N and 0.
    """
    N = fold(body, {**_DENOMINATOR, AtomD: lambda f: n},
             lambda f, sub: lcm(sub(), err(f).denominator))
    unit = N // n                       # N over n: one mesh step
    leaves = []

    def leaf(f, _):
        leaves.append(f)
        at = sorted({point_of(t) for t in reads[id(f)]})
        cells = [i * (i - 1) // 2 + j for k, i in enumerate(at) for j in at[:k]]
        memo: Dict[tuple, Tuple[int, int]] = {}

        def b(L, H):
            key = tuple(L[c] for c in cells)
            if L is not H and key != tuple(H[c] for c in cells):
                return 0, N             # a distance it reads is open
            e = memo.get(key)
            if e is None:
                e = value(f, L)
                e = memo[key] = (e.lo.numerator * (N // e.lo.denominator),
                                 e.hi.numerator * (N // e.hi.denominator))
            return e
        return None, b, None

    def constant(c: int):
        pair, flat = (c, c), (c, c, 0, 0)
        return (lambda s: c), (lambda L, H: pair), (lambda L, H: flat)

    def atom(f: AtomD):
        i, j = point_of(f.left), point_of(f.right)
        i, j = (i, j) if i > j else (j, i)
        if i == j:
            return constant(0)
        at = i * (i - 1) // 2 + j       # the cell's place in the triangle
        step = unit if (i, j) == (m, m - 1) else 0  # the box's last cell
        d = lambda L, H: (L[at] * unit, H[at] * unit, step, step)
        if unit == 1:
            return itemgetter(at), (lambda L, H: (L[at], H[at])), d
        return (lambda s: s[at] * unit), (lambda L, H: (L[at] * unit, H[at] * unit)), d

    def half(x):
        a, ab, ad = x

        def b(L, H):
            lo, hi = ab(L, H)
            return lo // 2, hi // 2

        def d(L, H):
            lo, hi, dl, dh = ad(L, H)
            return lo // 2, hi // 2, dl // 2, dh // 2
        return (lambda s: a(s) // 2), b, d

    def neg(x):
        a, ab, ad = x

        def b(L, H):
            lo, hi = ab(L, H)
            return N - hi, N - lo

        def d(L, H):
            lo, hi, dl, dh = ad(L, H)
            return N - hi, N - lo, -dh, -dl
        return (lambda s: N - a(s)), b, d

    def cut(lo, hi, dl, dh):
        # u over the box in [lo, hi], N times its step in [dl, dh]: the
        # same for u cut to [0, N], flat where u lies wholly past a cap and
        # hulled with 0 where it straddles one
        if hi <= 0 or lo >= N:
            dl = dh = 0
        elif lo < 0 or hi > N:
            dl, dh = min(dl, 0), max(dh, 0)
        return min(max(lo, 0), N), min(max(hi, 0), N), dl, dh

    def scale(factor, x):
        a, ab, ad = x
        q = Fraction(factor)
        num, dnm = q.numerator, q.denominator

        def g(s):
            v = a(s) * num // dnm
            return v if v < N else N

        def b(L, H):
            lo, hi = ab(L, H)
            lo, hi = lo * num // dnm, hi * num // dnm
            return (lo if lo < N else N), (hi if hi < N else N)
        return g, b, lambda L, H: cut(*(v * num // dnm for v in ad(L, H)))

    def min_(x, y):
        (a, ab, ad), (c, cb, cd) = x, y

        def g(s):
            x, y = a(s), c(s)
            return x if x < y else y

        def b(L, H):
            (xl, xh), (yl, yh) = ab(L, H), cb(L, H)
            return (xl if xl < yl else yl), (xh if xh < yh else yh)

        def d(L, H):
            # the child lower over the whole box, else the hull of both
            (xl, xh, p, q), (yl, yh, r, t) = ad(L, H), cd(L, H)
            p, q = (p, q) if xh <= yl else (r, t) if yh <= xl else (min(p, r), max(q, t))
            return min(xl, yl), min(xh, yh), p, q
        return g, b, d

    def max_(x, y):
        (a, ab, ad), (c, cb, cd) = x, y

        def g(s):
            x, y = a(s), c(s)
            return x if x > y else y

        def b(L, H):
            (xl, xh), (yl, yh) = ab(L, H), cb(L, H)
            return (xl if xl > yl else yl), (xh if xh > yh else yh)

        def d(L, H):
            (xl, xh, p, q), (yl, yh, r, t) = ad(L, H), cd(L, H)
            p, q = (p, q) if xl >= yh else (r, t) if yl >= xh else (min(p, r), max(q, t))
            return max(xl, yl), max(xh, yh), p, q
        return g, b, d

    def absdiff(x, y):
        (a, ab, ad), (c, cb, cd) = x, y

        def g(s):
            return abs(a(s) - c(s))

        def b(L, H):
            (xl, xh), (yl, yh) = ab(L, H), cb(L, H)
            hi = max(xh - yl, yh - xl)
            if xh < yl:
                return yl - xh, hi
            if yh < xl:
                return xl - yh, hi
            return 0, hi

        def d(L, H):
            # u = x - y: its step where its sign is fixed over the box, else
            # at most the largest size of that step either way
            (xl, xh, p, q), (yl, yh, r, t) = ad(L, H), cd(L, H)
            lo, hi, dl, dh = xl - yh, xh - yl, p - t, q - r
            if lo >= 0:
                return lo, hi, dl, dh
            if hi <= 0:
                return -hi, -lo, -dh, -dl
            w = max(-dl, dh)
            return 0, max(hi, -lo), -w, w
        return g, b, d

    def dot_minus(x, y):
        (a, ab, ad), (c, cb, cd) = x, y

        def g(s):
            v = a(s) - c(s)
            return v if v > 0 else 0

        def b(L, H):
            (xl, xh), (yl, yh) = ab(L, H), cb(L, H)
            lo, hi = xl - yh, xh - yl
            return (lo if lo > 0 else 0), (hi if hi > 0 else 0)

        def d(L, H):
            (xl, xh, p, q), (yl, yh, r, t) = ad(L, H), cd(L, H)
            return cut(xl - yh, xh - yl, p - t, q - r)
        return g, b, d

    def dot_plus(x, y):
        (a, ab, ad), (c, cb, cd) = x, y

        def g(s):
            v = a(s) + c(s)
            return v if v < N else N

        def b(L, H):
            (xl, xh), (yl, yh) = ab(L, H), cb(L, H)
            lo, hi = xl + yl, xh + yh
            return (lo if lo < N else N), (hi if hi < N else N)

        def d(L, H):
            (xl, xh, p, q), (yl, yh, r, t) = ad(L, H), cd(L, H)
            return cut(xl + yl, xh + yh, p + r, q + t)
        return g, b, d

    g, b, d = fold(body, {Const: lambda f: constant(int(Fraction(f.value) * N)),
                          AtomD: atom, Half: half, Neg: neg, DotScale: scale,
                          Min: min_, Max: max_, AbsDiff: absdiff,
                          DotMinus: dot_minus, DotPlus: dot_plus}, leaf)
    return (None, b, None, N) if leaves else (g, b, d, N)


# The common denominator of a compiled body; distance atoms add n.
_DENOMINATOR = {Const: lambda f: Fraction(f.value).denominator, Neg: keep,
                Half: lambda d: 2 * d, DotScale: lambda q, d: Fraction(q).denominator * d,
                **by_shape(binary=lcm)}


def qf_decide(phi: Formula, fragment: RationalMetricSpace) -> Fraction:
    """Exact value of a quantifier-free sentence over a stored fragment."""
    if not is_quantifier_free(phi):
        raise UrysohnError("qf_decide needs a quantifier-free formula")
    if free_variables(phi):
        raise UrysohnError("qf_decide needs a sentence (no free variables)")
    sig = Signature((), fragment.points)
    M = FiniteStructure(fragment, sig, {}, {p: p for p in fragment.points})
    return evaluate(phi, M, {})


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

    enclosures = {(ZERO, q): cell_enclosure(ZERO, q)}
    while True:
        global_hi = min(e.hi for e in enclosures.values())
        live = [c for c, e in enclosures.items() if e.lo < global_hi]
        global_lo = min((enclosures[c].lo for c in live), default=global_hi)
        if global_hi - global_lo <= tol:
            return Enclosure(global_lo, global_hi)
        # split the live cell with the smallest lower bound
        target = min(live, key=lambda c: (enclosures[c].lo, c))
        e1, e2 = target
        mid = (e1 + e2) / 2
        del enclosures[target]
        for cell in ((e1, mid), (mid, e2)):
            enclosures[cell] = cell_enclosure(*cell)
