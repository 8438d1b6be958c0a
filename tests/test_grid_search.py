"""The Urysohn grid search against a brute-force oracle, and its work counts.

The oracle enumerates every admissible integer step vector of the new point
and evaluates the body exactly on the anchors plus that point with
`structures.evaluate`; the search must return exactly that optimum, widened
by lipschitz * h on the far side, however it prunes.
"""

from fractions import Fraction as F
from itertools import product
from math import lcm

from hypothesis import assume, given, settings, strategies as st

from metriclogic import urysohn
from metriclogic.formula import Signature, lipschitz
from metriclogic.intervals import Enclosure
from metriclogic.metric import RationalMetricSpace
from metriclogic.structures import FiniteStructure, evaluate
from metriclogic.syntax import parse
from metriclogic.urysohn import AnchoredStructure, QuantifierBudget, eval_urysohn

ANCHORS = ("a", "b", "c")
# All distances lie in [1/2, 1], so every triangle holds.
DISTANCES = (F(1, 2), F(2, 3), F(3, 4), F(1))
MESHES = (F(1, 4), F(1, 5), F(1, 8), F(1, 10), F(1, 16))


@st.composite
def instances(draw):
    k = draw(st.integers(1, 3))
    names = ANCHORS[:k]
    dist = {(p, q): draw(st.sampled_from(DISTANCES))
            for i, p in enumerate(names) for q in names[i + 1:]}
    atoms = names + ("x",)
    leaf = st.one_of(
        st.sampled_from(["1/3", "7/8"]),
        st.builds(lambda p, q: f"(d {p} {q})",
                  st.sampled_from(atoms), st.sampled_from(atoms)))
    body = draw(st.recursive(leaf, lambda kids: st.one_of(
        kids.map(lambda f: f"(half {f})"),
        kids.map(lambda f: f"(neg {f})"),
        st.builds(lambda q, f: f"(scale {q} {f})",
                  st.sampled_from(["2/3", "5/7", "3"]), kids),
        st.builds(lambda op, f, g: f"({op} {f} {g})",
                  st.sampled_from(["min", "max", "absdiff", "dotminus", "dotplus"]),
                  kids, kids)), max_leaves=8))
    quantifier = draw(st.sampled_from(["sup", "inf"]))
    return names, dist, f"({quantifier} x {body})", draw(st.sampled_from(MESHES))


def brute_force(names, dist, body, sig, h, is_sup):
    """Exact optimum of body over the admissible grid vectors of x."""
    space = RationalMetricSpace.build(names, dist)
    n = int(1 / h)
    values = []
    for s in product(range(n + 1), repeat=len(names)):
        f = dict(zip(names, (k * h for k in s)))
        if any(abs(f[p] - f[q]) > d or d > f[p] + f[q] for (p, q), d in dist.items()):
            continue
        on_anchor = [p for p in names if f[p] == 0]
        if on_anchor:            # x is that anchor
            M = FiniteStructure(space, sig, {}, {p: p for p in names})
            values.append(evaluate(body, M, {"x": on_anchor[0]}))
            continue
        ext = dict(dist)
        ext.update({(p, "x"): f[p] for p in names})
        M = FiniteStructure(RationalMetricSpace.build(names + ("x",), ext), sig, {},
                            {p: p for p in names})
        values.append(evaluate(body, M, {"x": "x"}))
    return max(values) if is_sup else min(values)


@given(instances())
@settings(max_examples=80, deadline=None)
def test_grid_search_equals_brute_force(instance):
    names, dist, text, mesh = instance
    h = F(1, lcm(*(d.denominator for d in dist.values())))
    while h > mesh:
        h /= 2
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


def test_interval_bound_only_at_partial_vectors(monkeypatch):
    """W1 at 1/160: one interval evaluation per partial vector at most.

    The 161 values of the first coordinate are the partial vectors; the
    second coordinate completes a vector, which the compiled body evaluates
    exactly.  One more call is the sentence itself.
    """
    calls = [0]
    enc_eval = urysohn._enc_eval

    def counted(*args):
        calls[0] += 1
        return enc_eval(*args)

    monkeypatch.setattr(urysohn, "_enc_eval", counted)
    space = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(3, 5)})
    phi = parse("(inf x (max (d a x) (d b x)))", Signature((), ("a", "b")))
    e = eval_urysohn(phi, AnchoredStructure(space), {}, QuantifierBudget(F(1, 160), 0))
    assert e == Enclosure(F(47, 160), F(3, 10))
    assert 1 < calls[0] <= 162


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
