"""Nested sentences as one integer minimax, against a plain-loop oracle.

Every sentence is searched as its prenex run (possibly empty) over a body,
one alpha-beta minimax with the compiled bound at every level; a quantifier
under a connective is a leaf of that body, exact at a full vector.  Chains,
quantifiers under connectives and sentences whose top is no quantifier must
all return exactly what `helpers.grid_enclosure` gets by visiting every
admissible grid vector at every level, and the chain search must visit far
fewer leaves.  Each search runs over the known points its formula reads, so
an anchor that nothing names changes no enclosure, while the oracle keeps
searching every anchor.
"""

from fractions import Fraction as F
from math import lcm
from pathlib import Path
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import grid_enclosure, snapped_mesh
from metriclogic import textio, urysohn
from metriclogic.formula import Inf, Signature, Sup
from metriclogic.intervals import Enclosure
from metriclogic.metric import RationalMetricSpace
from metriclogic.syntax import parse
from metriclogic.urysohn import AnchoredStructure, QuantifierBudget, eval_urysohn

DATA = Path(__file__).resolve().parent.parent / "data"
ANCHORS = ("a", "b", "c")
MESHES = (F(1, 2), F(1, 3), F(1, 4))
W2 = "(sup x (inf y (sup z (dotminus (d x z) (d y z)))))"
W3 = "(sup x (inf y (max (d a y) (sup z (dotminus (d x z) (d y z))))))"
W5 = "(sup x (inf y (sup z (min (dotminus (d x z) (d y z)) (max (d a x) (d b y))))))"
L = "(sup x (sup y (min (inf z (d x z)) (min (d a y) (d b x)))))"
# Leaves the oracle visits at most, summed over the rounds: it builds and
# evaluates a finite structure per leaf.
ORACLE_LEAVES = 6000


def bodies(terms, max_leaves=5):
    """Quantifier-free bodies over the distance atoms of terms."""
    leaf = st.one_of(
        st.sampled_from(["1/3", "3/4"]),
        st.builds(lambda p, q: f"(d {p} {q})", st.sampled_from(terms), st.sampled_from(terms)))
    return st.recursive(leaf, lambda kids: st.one_of(
        kids.map(lambda f: f"(half {f})"),
        kids.map(lambda f: f"(neg {f})"),
        st.builds(lambda q, f: f"(scale {q} {f})", st.sampled_from(["2/3", "3"]), kids),
        st.builds(lambda op, f, g: f"({op} {f} {g})",
                  st.sampled_from(["min", "max", "absdiff", "dotminus", "dotplus"]),
                  kids, kids)), max_leaves=max_leaves)


def anchor_spaces(draw, k):
    """k anchors whose distances share one denominator d <= 4 and lie in
    [1/2, 1], so every triangle holds."""
    d = draw(st.sampled_from([2, 3, 4]))
    choices = [F(j, d) for j in range(-(-d // 2), d + 1)]
    names = ANCHORS[:k]
    dist = {(p, q): draw(st.sampled_from(choices))
            for i, p in enumerate(names) for q in names[i + 1:]}
    return names, dist


def oracle_cost(dist, mesh, rounds, rows):
    """Grid vectors the oracle enumerates, at most: (n + 1) per coordinate."""
    h = snapped_mesh(dist.values(), mesh)
    return sum((h.denominator * 2 ** r + 1) ** rows for r in range(rounds + 1))


def check(names, dist, text, params, mesh, rounds, expected=None):
    """The search's enclosure is the plain loops' (and expected, when
    given)."""
    sig = Signature((), names)
    phi = parse(text, sig)
    anchors = RationalMetricSpace.build(names, dist)
    h = snapped_mesh(dist.values(), mesh)
    lo, hi = F(0), F(1)
    for r in range(rounds + 1):
        e = grid_enclosure(phi, anchors, dict(params), sig, h / 2 ** r)
        lo, hi = max(lo, e[0]), min(hi, e[1])
    got = eval_urysohn(phi, AnchoredStructure(anchors), params, QuantifierBudget(mesh, rounds))
    assert got == Enclosure(lo, hi)
    assert expected is None or got == expected


@st.composite
def prenex_chains(draw):
    """Q1 v1 ... Qk vk body, k = 2 or 3, over 0-3 anchors.  The chain's
    variables repeat (a later binding shadows an earlier one) and may
    shadow u, a free variable sent to an anchor."""
    levels = draw(st.integers(2, 3))
    k = draw(st.integers(0, 3 if levels == 2 else 2))
    names, dist = anchor_spaces(draw, k)
    params = {"u": draw(st.sampled_from(names))} if names and draw(st.booleans()) else {}
    chain = [draw(st.sampled_from(["x", "y", "u"] if params else ["x", "y"]))
             for _ in range(levels)]
    text = draw(bodies(names + tuple(sorted(set(chain) | set(params)))))
    for v in reversed(chain):
        text = f"({draw(st.sampled_from(['sup', 'inf']))} {v} {text})"
    mesh, rounds = draw(st.sampled_from(MESHES)), draw(st.integers(0, 1))
    rows = levels * k + levels * (levels - 1) // 2
    assume(oracle_cost(dist, mesh, rounds, rows) <= ORACLE_LEAVES)
    return names, dist, text, params, mesh, rounds


@given(prenex_chains())
@example(((), {}, "(sup x (inf y (dotminus (d x y) (half (d x y)))))", {}, F(1, 4), 1))
@example((("a", "b"), {("a", "b"): F(1, 2)}, "(sup x (inf x (d a x)))", {}, F(1, 4), 0))
@example((("a", "b"), {("a", "b"): F(1, 2)}, "(inf x (sup y (neg (d b x))))", {}, F(1, 4), 0))
@example((("a",), {}, "(inf u (sup x (dotminus (d u x) (d a x))))", {"u": "a"}, F(1, 2), 1))
@example((("a", "b"), {("a", "b"): F(3, 5)},
          "(inf x (sup y (min (max (d a y) (d b y)) (d x y))))", {}, F(1, 4), 0))
@example((("a", "b"), {("a", "b"): F(3, 5)},
          "(inf x (inf y (absdiff (d a x) (dotplus (d b y) (d x y)))))", {}, F(1, 4), 0))
@settings(max_examples=80, deadline=None)
def test_prenex_chain_equals_plain_loops(instance):
    check(*instance)


@st.composite
def connective_bodies(draw):
    """Q x (op T (Q' y ...)): a quantifier, or a chain of two, under a
    connective, beside a quantifier-free side T over the anchors and x."""
    k = draw(st.integers(1, 2))
    names, dist = anchor_spaces(draw, k)
    inner_vars = ["y"] if k == 2 else draw(st.sampled_from([["y"], ["y", "z"]]))
    inner = draw(bodies(names + ("x",) + tuple(inner_vars), max_leaves=4))
    for v in reversed(inner_vars):
        inner = f"({draw(st.sampled_from(['sup', 'inf']))} {v} {inner})"
    inner = draw(st.sampled_from([inner, f"(neg {inner})", f"(half {inner})"]))
    side = draw(bodies(names + ("x",), max_leaves=3))
    op = draw(st.sampled_from(["min", "max", "absdiff", "dotminus", "dotplus"]))
    pair = (side, inner) if draw(st.booleans()) else (inner, side)
    text = f"({draw(st.sampled_from(['sup', 'inf']))} x ({op} {pair[0]} {pair[1]}))"
    mesh, rounds = draw(st.sampled_from(MESHES)), draw(st.integers(0, 1))
    rows = k + sum(k + 1 + i for i in range(len(inner_vars)))
    assume(oracle_cost(dist, mesh, rounds, rows) <= ORACLE_LEAVES)
    return names, dist, text, {}, mesh, rounds


@given(connective_bodies())
@example((("a",), {}, "(sup x (min (d a x) (inf y (sup z (dotminus (d x z) (d y z))))))",
          {}, F(1, 2), 0))
@example((("a",), {},
          "(sup x (min (inf y (d x y)) (max (sup z (min (d a z) (d x z))) (half (d a x)))))",
          {}, F(1, 4), 1))
@example((("a",), {},
          "(inf x (max (d a x) (sup y (min (d x y) (inf z (absdiff (d y z) (d a z)))))))",
          {}, F(1, 2), 1))
@example((("a", "b"), {("a", "b"): F(1, 2)},
          "(inf x (max (sup y (min (d x y) 3/4)) (dotplus (d a x) (d b x))))", {}, F(1, 4), 0))
@example((("a", "b"), {("a", "b"): F(1, 2)},
          "(sup x (dotminus (max (d a x) (d b x)) (inf y 1/4)))", {}, F(1, 2), 1))
@settings(max_examples=60, deadline=None)
def test_quantifier_under_a_connective_equals_plain_loops(instance):
    check(*instance)


@st.composite
def top_connectives(draw):
    """A sentence whose top is no quantifier, with u a free variable sent to
    an anchor: a connective over two quantified sides, neg or half of one,
    or no quantifier at all."""
    k = draw(st.integers(1, 2))
    names, dist = anchor_spaces(draw, k)
    params = {"u": draw(st.sampled_from(names))}
    terms = names + ("u",)

    def quantified(v):
        body = draw(bodies(terms + (v,), max_leaves=4))
        return f"({draw(st.sampled_from(['sup', 'inf']))} {v} {body})"

    shape = draw(st.sampled_from(["binary", "unary", "none"]))
    if shape == "binary":
        op = draw(st.sampled_from(["min", "max", "absdiff", "dotminus", "dotplus"]))
        text = f"({op} {quantified('x')} {quantified('y')})"
    elif shape == "unary":
        text = f"({draw(st.sampled_from(['neg', 'half']))} {quantified('x')})"
    else:
        text = draw(bodies(terms, max_leaves=6))
    mesh, rounds = draw(st.sampled_from(MESHES)), draw(st.integers(0, 1))
    assume(oracle_cost(dist, mesh, rounds, k) <= ORACLE_LEAVES)
    return names, dist, text, params, mesh, rounds


@given(top_connectives())
@example((("a", "b"), {("a", "b"): F(1, 2)},
          "(max (sup x (d a x)) (inf y (absdiff (d a y) (d b y))))", {"u": "a"}, F(1, 4), 1))
@example((("a",), {}, "(neg (sup x (dotminus (d u x) (half (d a x)))))", {"u": "a"},
          F(1, 4), 0))
@example((("a", "b"), {("a", "b"): F(3, 4)}, "(dotminus (d u b) (d a u))", {"u": "b"},
          F(1, 2), 0))
@settings(max_examples=60, deadline=None)
def test_top_level_connective_equals_plain_loops(instance):
    check(*instance)


@st.composite
def connectives_below_a_chain(draw):
    """Q x Q' y (op T (Q'' z ...)), W3's shape: a quantifier under a
    connective below a chain of two, over no anchor or one."""
    k = draw(st.integers(0, 1))
    names, dist = anchor_spaces(draw, k)
    quantifier = st.sampled_from(["sup", "inf"])
    inner = f"({draw(quantifier)} z {draw(bodies(names + ('x', 'y', 'z'), max_leaves=4))})"
    side = draw(bodies(names + ("x", "y"), max_leaves=3))
    op = draw(st.sampled_from(["min", "max", "absdiff", "dotminus", "dotplus"]))
    pair = (side, inner) if draw(st.booleans()) else (inner, side)
    text = f"({draw(quantifier)} x ({draw(quantifier)} y ({op} {pair[0]} {pair[1]})))"
    mesh, rounds = draw(st.sampled_from(MESHES)), draw(st.integers(0, 1))
    assume(oracle_cost(dist, mesh, rounds, 3 * k + 3) <= ORACLE_LEAVES)
    return names, dist, text, {}, mesh, rounds


@given(connectives_below_a_chain())
@example((("a",), {}, "(sup x (inf y (max (d a y) (sup z (dotminus (d x z) (d y z))))))",
          {}, F(1, 2), 0))
@settings(max_examples=40, deadline=None)
def test_quantifier_under_a_connective_below_a_chain_equals_plain_loops(instance):
    check(*instance)


def oracle_vectors(f, known, n):
    """Grid vectors the oracle enumerates for f over known points at mesh
    1/n, at most: (n + 1) per coordinate at each quantifier."""
    if isinstance(f, (Sup, Inf)):
        return (n + 1) ** known * (1 + oracle_vectors(f.body, known + 1, n))
    kids = (f.body,) if hasattr(f, "body") else (f.left, f.right) if hasattr(f, "left") else ()
    return sum(oracle_vectors(c, known, n) for c in kids)


@given(st.one_of(prenex_chains(), connective_bodies(), top_connectives(),
                 connectives_below_a_chain()).filter(lambda instance: instance[0]),
       st.integers(0, 4))
@example((("a",), {}, "(neg (sup x (d x x)))", {"u": "a"}, F(1, 2), 0), 0)
@example((("a",), {}, "(sup x (inf y (max (d a y) (sup z (dotminus (d x z) (d y z))))))",
          {}, F(1, 2), 0), 1)
@settings(max_examples=60, deadline=None)
def test_an_anchor_no_atom_names_changes_nothing(instance, far):
    """A body cannot tell apart points that differ only in their distance
    to a point it never names.  Add an anchor e that no atom and no param
    names, at distances on the anchors' denominator (so the snapped mesh
    stays), far picking them: every enclosure stays the same, and it is
    still what the plain loops find over the larger space, every
    coordinate included."""
    names, dist, text, params, mesh, rounds = instance
    den = lcm(*(q.denominator for q in dist.values()))
    choices = [F(j, den) for j in range(-(-den // 2), den + 1)]
    wider = {**dist, **{(p, "e"): choices[(far + i) % len(choices)]
                        for i, p in enumerate(names)}}
    phi = parse(text, Signature((), names + ("e",)))
    h = snapped_mesh(dist.values(), mesh)
    assume(sum(oracle_vectors(phi, len(names) + 1, h.denominator * 2 ** r)
               for r in range(rounds + 1)) <= ORACLE_LEAVES)
    anchors = RationalMetricSpace.build(names, dist)
    got = eval_urysohn(parse(text, Signature((), names)), AnchoredStructure(anchors), params,
                       QuantifierBudget(mesh, rounds))
    check(names + ("e",), wider, text, params, mesh, rounds, expected=got)


def counted_leaves(monkeypatch):
    """Count the compiled bodies' evaluations at full vectors."""
    calls = [0]
    real = urysohn._compile

    def counted(*args):
        g, bound, slope, N = real(*args)

        def g_counted(s):
            calls[0] += 1
            return g(s)
        return g and g_counted, bound, slope, N

    monkeypatch.setattr(urysohn, "_compile", counted)
    return calls


def pair_search(monkeypatch, text, mesh):
    """(enclosure, compiled-body evaluations) of text over data/pair.space
    at mesh with no refinement rounds."""
    calls = counted_leaves(monkeypatch)
    space = textio.parse_space((DATA / "pair.space").read_text())
    phi = parse(text, Signature((), space.points))
    e = eval_urysohn(phi, AnchoredStructure(space), {}, QuantifierBudget(mesh, 0))
    return e, calls[0]


def test_w2_over_one_anchor_visits_few_leaves(monkeypatch):
    """W2 at 1/8 names no anchor, so its search runs over its own three
    points alone: 9 evaluations of the compiled body, where the search
    with the anchor's coordinates made 3892."""
    calls = counted_leaves(monkeypatch)
    space = RationalMetricSpace.build(("s",), {})
    phi = parse(W2, Signature((), ("s",)))
    e = eval_urysohn(phi, AnchoredStructure(space), {}, QuantifierBudget(F(1, 8), 0))
    assert e == Enclosure(F(0), F(3, 8))
    assert calls[0] <= 50


def test_w2_over_pair_space(monkeypatch):
    """W2 over two anchors it never names: 6 evaluations at 1/4 and 11 at
    1/8, where the search over both anchors' coordinates made 9449 and
    530687."""
    for mesh, hi in ((F(1, 4), F(3, 5)), (F(1, 8), F(3, 10))):
        e, calls = pair_search(monkeypatch, W2, mesh)
        assert e == Enclosure(F(0), hi)
        assert calls <= 50


def test_w3_searches_its_leaf_once_per_distance(monkeypatch):
    """W3 at 1/8: its leaf sup z reads d(x, y) alone, so it is searched once
    per value of that distance (n + 1 searches at most) and not once per
    outer vector: 79 evaluations where the search at every vector over both
    anchors made 32703."""
    e, calls = pair_search(monkeypatch, W3, F(1, 8))
    assert e == Enclosure(F(2, 5), F(7, 10))
    assert calls <= 500


def test_an_anchor_the_inner_level_reads_alone(monkeypatch):
    """(inf x (sup y (min (d a y) (d x y)))) at 1/64: b is dropped, so x
    has one coordinate and y two; 18081 evaluations where the search over
    both anchors made 6668521."""
    e, calls = pair_search(monkeypatch, "(inf x (sup y (min (d a y) (d x y))))", F(1, 64))
    assert e == Enclosure(F(79, 80), F(1))
    assert calls <= 40000


def test_w5_cuts_off_at_every_level(monkeypatch):
    """W5 names both anchors, so its search keeps every coordinate: 9178
    evaluations at 1/4 with cutoffs and the bound at every level.  A level
    that cut off only past its window rather than on reaching it made
    31367, and levels below the top that skipped no box by the bound made
    12460."""
    e, calls = pair_search(monkeypatch, W5, F(1, 4))
    assert e == Enclosure(F(0), F(3, 5))
    assert calls <= 9178


def test_w4_tries_vertex_rows_first(monkeypatch):
    """W4 at 1/32: y far from a, b and x makes the body 1, the top of its
    range, so y's level stops at its far row, tried before the step-order
    scan: 4448 evaluations, where the scan alone made 864440."""
    e, calls = pair_search(monkeypatch, "(inf x (sup y (min (max (d a y) (d b y)) (d x y))))",
                           F(1, 32))
    assert e == Enclosure(F(39, 40), F(1))
    assert calls <= 10000


def test_a_run_of_infs_tries_vertex_rows_first(monkeypatch):
    """S at 1/64 is 0 at x far from both anchors and y on b, two vertex
    rows: 2677 evaluations with vertex rows first, where the scan alone
    made 3151267."""
    e, calls = pair_search(monkeypatch,
                           "(inf x (inf y (absdiff (d a x) (dotplus (d b y) (d x y)))))", F(1, 64))
    assert e == Enclosure(F(0), F(0))
    assert calls <= 10000


def test_w5_tries_vertex_rows_first(monkeypatch):
    """W5 at 1/8: 56199 evaluations with vertex rows first at every level,
    where the scan alone made 525137."""
    e, calls = pair_search(monkeypatch, W5, F(1, 8))
    assert e == Enclosure(F(0), F(3, 10))
    assert calls <= 100000


def test_an_atom_between_two_anchors_is_a_constant(monkeypatch):
    """(d b a) is 3/5 at every vector, so the search runs over y and z
    alone: as many evaluations at 1/6 as with 3/5 written out, where the
    search that kept both anchors as coordinates made 521721."""
    e, calls = pair_search(monkeypatch, "(inf y (inf z (sup z (dotminus (d b a) (d z y)))))",
                           F(1, 6))
    assert e == Enclosure(F(1, 2), F(7, 10))
    assert calls <= 50


def test_a_leaf_keeps_its_enclosure_per_the_distances_it_reads():
    """inf z (d x z) reads d(x, z) alone, so its enclosure is kept per
    value of that distance, not per vector of x and y: the search at 1/8
    peaks under 0.1 MB where a memo per vector visited peaked near 6 MB."""
    space = textio.parse_space((DATA / "pair.space").read_text())
    phi = parse(L, Signature((), space.points))
    tracemalloc.start()
    try:
        e = eval_urysohn(phi, AnchoredStructure(space), {}, QuantifierBudget(F(1, 8), 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e == Enclosure(F(0), F(1, 5))
    assert peak < 2 ** 20


def capped_bounds(monkeypatch, cap):
    """Count the compiled bounds' calls, failing at once past cap: a search
    that cannot prune runs for minutes before it would fail a count."""
    calls = [0]
    real = urysohn._compile

    def counted(*args):
        g, bound, slope, N = real(*args)

        def bound_counted(L, H):
            calls[0] += 1
            assert calls[0] <= cap, f"more than {cap} bound calls"
            return bound(L, H)
        return g, bound_counted, slope, N

    monkeypatch.setattr(urysohn, "_compile", counted)
    return calls


ABC = RationalMetricSpace.build(ANCHORS, {("a", "b"): F(3, 5), ("a", "c"): F(1, 2),
                                        ("b", "c"): F(1, 2)})


@pytest.mark.parametrize("space, text, mesh, rounds, expected, cap", [
    ("pair.space", L, F(1, 32), 0, Enclosure(F(0), F(1, 20)), 1000),
    (ABC, "(inf y (inf x (dotplus (inf z 1/2) (max (d y x) (d c x)))))", F(1, 6), 0,
     Enclosure(F(3, 10), F(1, 2)), 200),
    ("eq3.space", "(inf z (inf y (inf x (dotplus (dotplus (inf z 1/2) (max (d y x) (d c x)))"
     " (min (neg (d x x)) (max (d a z) 1/4))))))", F(1, 6), 1, Enclosure(F(7, 16), F(3, 4)),
     2000)])
def test_a_leaf_bounds_every_box_that_fixes_what_it_reads(monkeypatch, space, text, mesh,
                                                          rounds, expected, cap):
    """A leaf is its enclosure over any box that fixes the distances among
    the points it reads, so over every box when it reads at most one.
    L's leaf inf z (d x z) reads x alone: 100 bound calls at 1/32, where
    the leaf that was [0, N] over every box wider than a point made
    52077998 (about 100 s).  (inf z 1/2) reads no point: 54 bound calls at
    1/6, where that leaf made 860; three levels down over data/eq3.space
    with one round, 776, where that leaf did not finish within 60 s."""
    calls = capped_bounds(monkeypatch, cap)
    if isinstance(space, str):
        space = textio.parse_space((DATA / space).read_text())
    phi = parse(text, Signature((), space.points))
    e = eval_urysohn(phi, AnchoredStructure(space), {}, QuantifierBudget(mesh, rounds))
    assert e == expected
    assert calls[0] > 0


def test_a_level_below_the_top_resets_its_row():
    """A three-level chain over one anchor that every level keeps (x reads
    it): once the middle level returns, its last coordinate d(x, y) must
    read as unset again in the box.  Left at its last fixed value, it made
    the top level's bound skip the optimum.  The same holds for a last
    level's row of more than 16 steps, which the search bounds as one box
    at mesh 1/20."""
    check(("a",), {}, "(inf x (sup y (inf z (max (d x y) (dotminus (d a x) (d a x))))))",
          {}, F(1, 2), 0)
    check(("a",), {}, "(inf x (sup y (max (d x y) (dotminus (d a x) (d a x)))))", {},
          F(1, 20), 0)
