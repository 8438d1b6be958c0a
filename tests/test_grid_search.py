"""The Urysohn grid search against a brute-force oracle, and its work counts.

The oracle enumerates every admissible integer step vector of the new point
and evaluates the body exactly on the anchors plus that point with
`structures.evaluate`; the search must return exactly that optimum, widened
by lipschitz * h on the far side, however it prunes.  Nested sentences get
the same oracle at each level, the compiled pruning bound is pinned to
interval arithmetic over the box (`helpers.interval_value`), the slope
bound to the exact change of the body per step of the last coordinate, and
the triangle hull that boxes the top level's later coordinates to every
admissible vector it must hold.
"""

from fractions import Fraction as F
from itertools import combinations, product
from math import lcm

from hypothesis import assume, example, given, settings, strategies as st

from helpers import admissible_steps, interval_value, triangle
from metriclogic import formula, urysohn
from metriclogic.formula import Inf, Signature, Sup, lipschitz
from metriclogic.intervals import Enclosure
from metriclogic.metric import RationalMetricSpace
from metriclogic.structures import FiniteStructure, evaluate
from metriclogic.syntax import parse
from metriclogic.urysohn import AnchoredStructure, QuantifierBudget, eval_urysohn

ANCHORS = ("a", "b", "c")
# All distances lie in [1/2, 1], so every triangle holds.
DISTANCES = (F(1, 2), F(2, 3), F(3, 4), F(1))
MESHES = (F(1, 4), F(1, 5), F(1, 8), F(1, 10), F(1, 16), F(1, 32), F(1, 40))


def bodies(atoms, max_leaves=8):
    """Quantifier-free bodies over the distance atoms of `atoms`."""
    leaf = st.one_of(
        st.sampled_from(["1/3", "7/8"]),
        st.builds(lambda p, q: f"(d {p} {q})",
                  st.sampled_from(atoms), st.sampled_from(atoms)))
    return st.recursive(leaf, lambda kids: st.one_of(
        kids.map(lambda f: f"(half {f})"),
        kids.map(lambda f: f"(neg {f})"),
        st.builds(lambda q, f: f"(scale {q} {f})",
                  st.sampled_from(["2/3", "5/7", "3"]), kids),
        st.builds(lambda op, f, g: f"({op} {f} {g})",
                  st.sampled_from(["min", "max", "absdiff", "dotminus", "dotplus"]),
                  kids, kids)), max_leaves=max_leaves)


@st.composite
def instances(draw):
    k = draw(st.integers(1, 3))
    names = ANCHORS[:k]
    dist = {(p, q): draw(st.sampled_from(DISTANCES))
            for i, p in enumerate(names) for q in names[i + 1:]}
    body = draw(bodies(names + ("x",)))
    quantifier = draw(st.sampled_from(["sup", "inf"]))
    return names, dist, f"({quantifier} x {body})", draw(st.sampled_from(MESHES))


def snapped(dist, mesh):
    """The mesh eval_urysohn searches: 1/(D*2^t) <= mesh, D clearing dist."""
    h = F(1, lcm(*(d.denominator for d in dist.values())))
    while h > mesh:
        h /= 2
    return h


def value_at(names, dist, body, sig, f):
    """The exact value of body with x at distance f[p] from each anchor p."""
    on_anchor = [p for p in names if f[p] == 0]
    if on_anchor:                # x is that anchor
        M = FiniteStructure(RationalMetricSpace.build(names, dist), sig, {},
                            {p: p for p in names})
        return evaluate(body, M, {"x": on_anchor[0]})
    ext = dict(dist)
    ext.update({(p, "x"): f[p] for p in names})
    M = FiniteStructure(RationalMetricSpace.build(names + ("x",), ext), sig, {},
                        {p: p for p in names})
    return evaluate(body, M, {"x": "x"})


def brute_force(names, dist, body, sig, h, is_sup):
    """Exact optimum of body over the admissible grid vectors of x."""
    n = int(1 / h)
    values = []
    for s in product(range(n + 1), repeat=len(names)):
        f = dict(zip(names, (k * h for k in s)))
        if any(abs(f[p] - f[q]) > d or d > f[p] + f[q] for (p, q), d in dist.items()):
            continue
        values.append(value_at(names, dist, body, sig, f))
    return max(values) if is_sup else min(values)


@given(instances())
@settings(max_examples=80, deadline=None)
def test_grid_search_equals_brute_force(instance):
    names, dist, text, mesh = instance
    h = snapped(dist, mesh)
    assume(int(1 / h + 1) ** len(names) <= 3000)
    sig = Signature((), names)
    phi = parse(text, sig)
    is_sup = text.startswith("(sup")
    opt = brute_force(names, dist, phi.body, sig, h, is_sup)
    err = lipschitz(phi.body, sig, only_var="x") * h
    expected = (Enclosure(opt, min(F(1), opt + err)) if is_sup
                else Enclosure(max(F(0), opt - err), opt))
    anchored = AnchoredStructure(RationalMetricSpace.build(names, dist))
    assert eval_urysohn(phi, anchored, {}, QuantifierBudget(mesh, 0)) == expected


def step_table(names, dist, n):
    """The anchors' distances in mesh steps, a full row per anchor."""
    return [[int(dist.get((p, q), dist.get((q, p), 0)) * n) for q in names] for p in names]


def boxes(n, m):
    """m step ranges [lo, hi] within [0, n]: points, the whole range or any."""
    return st.lists(st.one_of(st.integers(0, n).map(lambda v: (v, v)), st.just((0, n)),
                              st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted)),
                    min_size=m, max_size=m)


@given(instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_integer_bound_is_the_enclosure_bound(instance, data):
    """Over any box of step ranges L[c] <= s_c <= H[c] the compiled bound is,
    endpoint for endpoint, N times the enclosure of the body with
    [L[c]/n, H[c]/n] for coordinate c, so every pruning decision is the
    enclosure's; on a point box it is the exact value."""
    names, dist, text, mesh = instance
    n = snapped(dist, mesh).denominator
    m = len(names)
    steps = step_table(names, dist, n)
    known = triangle(steps)
    row = data.draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    L, H = (list(ends) for ends in zip(*data.draw(boxes(n, m))))
    steps.append(row)
    index = {p: i for i, p in enumerate(names + ("x",))}
    body = parse(text, Signature((), names)).body

    def point_of(term):
        return index[term.name]

    def dist_at(p, q):
        i, j = max(index[p], index[q]), min(index[p], index[q])
        if i == j:
            return F(0), F(0)
        if i < m:
            return F(steps[i][j], n), F(steps[i][j], n)
        return F(L[j], n), F(H[j], n)

    g, bound, _, N = urysohn._compile(body, point_of, m, n)
    lo, hi = interval_value(body, dist_at)
    L, H, row = known + L, known + H, known + row
    assert bound(L, H) == (N * lo, N * hi)
    assert bound(row, row) == (g(row), g(row))


@st.composite
def sloped_boxes(draw):
    """An instance and a box of its step ranges whose last coordinate is a
    range of more than one step."""
    names, dist, text, mesh = draw(instances())
    n = snapped(dist, mesh).denominator
    box = draw(boxes(n, len(names) - 1)) + [draw(st.one_of(st.just((0, n)), st.integers(
        0, n - 1).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, n)))))]
    return names, dist, text, mesh, [lo for lo, _ in box], [hi for _, hi in box]


AB = ("a", "b"), {("a", "b"): F(1, 2)}


@given(sloped_boxes())
@example((*AB, "(sup x (half (absdiff (d b x) (d b x))))", F(1, 32), [8, 0], [8, 32]))
@example((*AB, "(sup x (absdiff (min (d b x) (d b x)) (max 1/8 (d b x))))", F(1, 32),
          [16, 0], [16, 32]))
@example((*AB, "(sup x (dotplus (d a x) (d b x)))", F(1, 32), [16, 0], [16, 32]))
@example((*AB, "(sup x (dotplus (d a x) (d b x)))", F(1, 32), [24, 8], [24, 32]))
@settings(max_examples=100, deadline=None)
def test_slope_bound_holds_every_step_of_the_last_coordinate(instance):
    """Over a box whose last coordinate is a range, the compiled slope bound
    gives the compiled bound's (lo, hi) and bounds N times the change of the
    body's exact value (`structures.evaluate`) between every two admissible
    grid vectors in the box one step apart in the last coordinate.  The
    examples: a body the interval bound cannot see is constant, a kink at
    1/8, a dotplus that straddles its cap and one wholly past it."""
    names, dist, text, mesh, L, H = instance
    n = snapped(dist, mesh).denominator
    m = len(names)
    assume((n + 1) ** m <= 3000)
    sig = Signature((), names)
    body = parse(text, sig).body
    steps = step_table(names, dist, n)
    index = {p: i for i, p in enumerate(names + ("x",))}
    _, bound, slope, N = urysohn._compile(body, lambda t: index[t.name], m, n)
    known = triangle(steps)
    lo, hi, dl, dh = slope(known + L, known + H)
    assert (lo, hi) == bound(known + L, known + H)
    inside = [s for s in admissible_steps(steps, n)
              if all(L[c] <= s[c] <= H[c] for c in range(m))]
    value = {s: value_at(names, dist, body, sig, {p: F(k, n) for p, k in zip(names, s)})
             for s in inside}
    for s in inside:
        after = s[:-1] + (s[-1] + 1,)
        if after in value:
            assert dl <= N * (value[after] - value[s]) <= dh, s


@given(instances(), st.data())
@settings(max_examples=100, deadline=None)
def test_triangle_hull_holds_every_admissible_vector(instance, data):
    """Box the first k coordinates of a new point's step vector and give
    each later one, in order, `_span` over the coordinates before it: every
    admissible grid vector in the box lies in those hulls."""
    names, dist, _, mesh = instance
    n = snapped(dist, mesh).denominator
    m = len(names)
    assume((n + 1) ** m <= 3000)
    steps = step_table(names, dist, n)
    k = data.draw(st.integers(0, m))
    known = triangle(steps)
    L, H = known[:], known[:]
    for lo, hi in data.draw(boxes(n, k)):
        L.append(lo)
        H.append(hi)
    for c in range(k, m):
        lo, hi = urysohn._span(n, m, c, L, H)
        L.append(lo)
        H.append(hi)
    L, H = L[len(known):], H[len(known):]
    for s in admissible_steps(steps, n):
        if all(L[c] <= s[c] <= H[c] for c in range(k)):
            assert all(L[c] <= s[c] <= H[c] for c in range(k, m)), s


NESTED_DISTANCES = (F(1, 2), F(3, 4), F(1))
NESTED_MESHES = (F(1, 2), F(1, 3), F(1, 4))
BOUND = ("x", "y", "z")


@st.composite
def nested_instances(draw):
    """Q x Q' y over one or two anchors, or Q x Q' y Q'' z over one anchor
    at mesh 1/2, where the middle point's row is rebuilt per outer vector."""
    levels = draw(st.integers(2, 3))
    k = draw(st.integers(1, 2)) if levels == 2 else 1
    names = ANCHORS[:k]
    dist = {(p, q): draw(st.sampled_from(NESTED_DISTANCES))
            for i, p in enumerate(names) for q in names[i + 1:]}
    text = draw(bodies(names + BOUND[:levels], max_leaves=6))
    for v in reversed(BOUND[:levels]):
        text = f"({draw(st.sampled_from(['sup', 'inf']))} {v} {text})"
    mesh = draw(st.sampled_from(NESTED_MESHES)) if levels == 2 else F(1, 2)
    return names, dist, text, mesh


def grid_vectors(space, h):
    """Every admissible distance vector of a new point over space on the grid."""
    n = h.denominator
    for s in product(range(n + 1), repeat=len(space.points)):
        f = {p: k * h for p, k in zip(space.points, s)}
        if all(abs(f[p] - f[q]) <= space.d(p, q) <= f[p] + f[q]
               for p, q in combinations(space.points, 2)):
            yield f


def place(space, f, name):
    """space with a point at distances f: the point at distance 0, if any."""
    on = [p for p in space.points if f[p] == 0]
    if on:
        return space, on[0]
    return space.with_point(name, f), name


def nested_brute_force(phi, space, env, sig, h):
    """Q v body over space: the body's enclosure at every admissible grid
    vector of v (exact when quantifier-free), merged lo with lo and hi with
    hi, then widened by lipschitz * h on the far side."""
    if not isinstance(phi, (Sup, Inf)):
        M = FiniteStructure(space, sig, {}, {p: p for p in sig.constants})
        v = evaluate(phi, M, env)
        return Enclosure(v, v)
    pick = max if isinstance(phi, Sup) else min
    es = []
    for f in grid_vectors(space, h):
        ext, p = place(space, f, phi.var)
        es.append(nested_brute_force(phi.body, ext, {**env, phi.var: p}, sig, h))
    lo, hi = pick(e.lo for e in es), pick(e.hi for e in es)
    err = lipschitz(phi.body, sig, only_var=phi.var) * h
    if isinstance(phi, Sup):
        return Enclosure(lo, min(F(1), hi + err))
    return Enclosure(max(F(0), lo - err), hi)


@given(nested_instances())
@example((("a",), {}, "(inf x (sup y (inf z (neg (d a y)))))", F(1, 2)))
@settings(max_examples=60, deadline=None)
def test_nested_search_equals_brute_force(instance):
    """Each inner body is compiled once per round and reads the outer
    points' distances from the step table as the outer walk refills them;
    the example's innermost body reads the middle point, whose row is a new
    list for every outer vector."""
    names, dist, text, mesh = instance
    h = snapped(dist, mesh)
    assume((h.denominator + 1) ** (2 * len(names) + 1) <= 3200)
    sig = Signature((), names)
    phi = parse(text, sig)
    anchors = RationalMetricSpace.build(names, dist)
    assert (eval_urysohn(phi, AnchoredStructure(anchors), {}, QuantifierBudget(mesh, 0))
            == nested_brute_force(phi, anchors, {}, sig, h))


def counting(monkeypatch, name, wrap=lambda result: result):
    """Count the calls of urysohn.<name>; wrap may count inside its result."""
    calls = [0]
    real = getattr(urysohn, name)

    def counted(*args):
        calls[0] += 1
        return wrap(real(*args))

    monkeypatch.setattr(urysohn, name, counted)
    return calls


def test_interval_bound_only_at_partial_vectors(monkeypatch):
    """W1 at 1/160: the compiled bound runs once per partial vector at most.

    The top level bisects the first coordinate's range, bounding both halves
    of each split, and scans the second coordinate with the compiled body;
    a walk in step order would bound each of the first coordinate's 161
    values.
    """
    bound_calls = [0]

    def count_bound(compiled):
        g, bound, slope, N = compiled

        def counted(L, H):
            bound_calls[0] += 1
            return bound(L, H)
        return g, counted, slope, N

    counting(monkeypatch, "_compile", count_bound)
    space = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(3, 5)})
    phi = parse("(inf x (max (d a x) (d b x)))", Signature((), ("a", "b")))
    e = eval_urysohn(phi, AnchoredStructure(space), {}, QuantifierBudget(F(1, 160), 0))
    assert e == Enclosure(F(47, 160), F(3, 10))
    assert 0 < bound_calls[0] <= 161


def test_compile_once_per_body_per_round(monkeypatch):
    """W2 at 1/8, two rounds: the one quantifier-free body (under sup z) is
    compiled once per round, not once per outer grid vector (the search that
    baked outer distances into the closures compiled it 2834 times)."""
    calls = counting(monkeypatch, "_compile")
    space = RationalMetricSpace.build(("s",), {})
    phi = parse("(sup x (inf y (sup z (dotminus (d x z) (d y z)))))",
                Signature((), ("s",)))
    e = eval_urysohn(phi, AnchoredStructure(space), {}, QuantifierBudget(F(1, 8), 1))
    assert e == Enclosure(F(0), F(3, 16))
    assert calls[0] == 2


def test_lipschitz_once_per_quantifier(monkeypatch):
    """W2, two rounds: each of the three quantifier nodes computes its
    coefficient once, not once per outer grid point and round."""
    calls = []
    real = urysohn.lipschitz

    def counted(phi, sig, only_var=None):
        calls.append(only_var)
        return real(phi, sig, only_var=only_var)

    monkeypatch.setattr(urysohn, "lipschitz", counted)
    space = RationalMetricSpace.build(("s",), {})
    phi = parse("(sup x (inf y (sup z (dotminus (d x z) (d y z)))))",
                Signature((), ("s",)))
    e = eval_urysohn(phi, AnchoredStructure(space), {}, QuantifierBudget(F(1, 4), 1))
    assert e.contains(F(0))
    assert sorted(calls) == ["x", "y", "z"]


def test_atoms_walked_once_and_no_wellformed_pass(monkeypatch):
    """W2 over a, b at 1/8, no refinement: `expand_predicates` walks the
    atoms once, and `lipschitz` checks each atom as its one walk of a
    node's body reaches it.  A separate `check_wellformed` pass per
    quantifier node made 4 atoms walks and 3 checks, and 10 folds in all."""
    counts = {"atoms": 0, "check_wellformed": 0, "fold": 0}
    for name in counts:
        real = getattr(formula, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        for module in (formula, urysohn):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    anchored = AnchoredStructure(PAIR)
    phi = parse("(sup x (inf y (sup z (dotminus (d x z) (d y z)))))", Signature((), ("a", "b")))
    e = eval_urysohn(phi, anchored, {}, QuantifierBudget(F(1, 8), 0))
    assert e.contains(F(0))
    assert counts == {"atoms": 1, "check_wellformed": 0, "fold": 7}


def counting_work(monkeypatch):
    """Count the compiled bodies' evaluations and their bound's calls."""
    evals, bounds = [0], [0]

    def wrap(compiled):
        g, bound, slope, N = compiled

        def g_counted(s):
            evals[0] += 1
            return g(s)

        def bound_counted(L, H):
            bounds[0] += 1
            return bound(L, H)
        return g and g_counted, bound_counted, slope, N

    counting(monkeypatch, "_compile", wrap)
    return evals, bounds


PAIR = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(3, 5)})


def test_w1_at_fine_mesh_scans_one_row(monkeypatch):
    """W1 over a, b at 3/5, mesh 1/5120: the step-order walk evaluated the
    body 2362369 times and bounded 5121 partial vectors.  Best-first
    bisection reaches d(a, x) = 1536 first; scanning its 3073 values of
    d(b, x) took 3073 evaluations, but the slope bound finds the body
    nondecreasing along that row and evaluates its low end alone.  Every
    other box's bound then falls short."""
    evals, bounds = counting_work(monkeypatch)
    phi = parse("(inf x (max (d a x) (d b x)))", Signature((), ("a", "b")))
    e = eval_urysohn(phi, AnchoredStructure(PAIR), {}, QuantifierBudget(F(1, 5120), 0))
    assert e == Enclosure(F(307, 1024), F(3, 10))
    assert evals[0] <= 10
    assert bounds[0] <= 100


def test_a_flat_row_is_evaluated_once(monkeypatch):
    """sup x half(|d(b, x) - d(b, x)|) over a, b at 13/20, mesh 1/160: the
    interval bound cannot see that the body is 0, so scanning every row
    evaluated it 17268 times.  The slope bound finds each row flat, and one
    end stands for it."""
    evals, _ = counting_work(monkeypatch)
    space = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(13, 20)})
    phi = parse("(sup x (half (absdiff (d b x) (d b x))))", Signature((), ("a", "b")))
    e = eval_urysohn(phi, AnchoredStructure(space), {}, QuantifierBudget(F(1, 160), 0))
    assert e == Enclosure(F(0), F(1, 160))
    assert evals[0] <= 500


def test_search_stops_at_the_range_end(monkeypatch):
    """sup x d(a, x) over a, b at 3/5, mesh 1/160: the walk evaluated the
    body 17105 times.  The better half first leads to d(a, x) = 1, and the
    first value there is N, which no other vector can beat."""
    evals, _ = counting_work(monkeypatch)
    phi = parse("(sup x (d a x))", Signature((), ("a", "b")))
    e = eval_urysohn(phi, AnchoredStructure(PAIR), {}, QuantifierBudget(F(1, 160), 0))
    assert e == Enclosure(F(1), F(1))
    assert evals[0] <= 5


def test_quantifier_under_a_connective_is_a_bounded_leaf(monkeypatch):
    """W3 over a, b at 3/5, mesh 1/4: (sup x (inf y (max (d a y) (sup z
    ...)))) searches its chain sup x inf y over the body max(d a y, leaf).
    Walking every y vector through enclosures, with no bound, evaluated the
    innermost body 6381 times; with the leaf bounded by [0, N] and the
    chain's cutoffs the search makes 1343 evaluations."""
    evals, _ = counting_work(monkeypatch)
    phi = parse("(sup x (inf y (max (d a y) (sup z (dotminus (d x z) (d y z))))))",
                Signature((), ("a", "b")))
    e = eval_urysohn(phi, AnchoredStructure(PAIR), {}, QuantifierBudget(F(1, 4), 0))
    assert e == Enclosure(F(2, 5), F(1))
    assert evals[0] <= 3000


def test_a_leaf_body_evaluates_each_vector_once(monkeypatch):
    """(neg (sup x (min (d a x) (inf y ...)))) at 1/4: the body of sup x has
    a leaf, so its two endpoints are searched apart.  The leaf keeps its
    enclosure per the distances it reads for the second search: 6
    evaluations of the innermost body.  With the enclosure kept per x
    vector and every search over both anchors it made 9425; evaluating the
    leaf again in each search made 17222 and a walk over every x vector
    9449."""
    evals, _ = counting_work(monkeypatch)
    phi = parse("(neg (sup x (min (d a x) (inf y (sup z (dotminus (d x z) (d y z)))))))",
                Signature((), ("a", "b")))
    e = eval_urysohn(phi, AnchoredStructure(PAIR), {}, QuantifierBudget(F(1, 4), 0))
    assert e == Enclosure(F(2, 5), F(1))
    assert evals[0] <= 9448
