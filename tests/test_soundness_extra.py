"""Cross-checks of the certified evaluator and the interval arithmetic.

The evaluator promises that its enclosure contains the true quantified
value.  Sampling many admissible rational vectors gives one-sided bounds on
the truth (every sample is realized), so: every sampled sup estimate must
sit at or below the certified hi, every sampled inf estimate at or above
the certified lo, and samples on a finer grid than the evaluator's must
land inside the certified range on the witnessing side.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from metriclogic import urysohn
from metriclogic.formula import Signature, is_quantifier_free
from metriclogic.intervals import Enclosure, enc_dot_add, enc_dot_sub, sqrt_enclosure
from metriclogic.metric import RationalMetricSpace
from metriclogic.rational import dot_add, dot_sub
from metriclogic.structures import FiniteStructure, evaluate
from metriclogic.syntax import parse
from metriclogic.urysohn import AnchoredStructure, QuantifierBudget, eval_urysohn

from helpers import admissible_steps, random_far_space, random_formula, triangle


def admissible_samples(rng, space, count, den=64):
    """Random admissible vectors over the space, rejection-sampled by
    shrinking toward the all-ones vector, which is always admissible."""
    pts = space.points
    out = []
    while len(out) < count:
        f = {p: F(rng.randint(0, den), den) for p in pts}
        lam = F(rng.randint(0, den), den)
        g = {p: lam * f[p] + (1 - lam) for p in pts}   # blend toward 1
        ok = all(abs(g[p] - g[q]) <= space.d(p, q) <= g[p] + g[q]
                 for i, p in enumerate(pts) for q in pts[i + 1:])
        if ok:
            out.append(g)
    return out


def test_sup_certified_bound_dominates_samples():
    rng = random.Random(90)
    for _ in range(6):
        space = random_far_space(rng, rng.randint(1, 3), lo=F(1, 4))
        sig = Signature((), space.points)
        anchored = AnchoredStructure(space)
        p0 = space.points[0]
        texts = [f"(sup x (d {p0} x))",
                 f"(sup x (neg (d {p0} x)))",
                 f"(inf x (d {p0} x))"]
        if len(space.points) >= 2:
            p1 = space.points[1]
            texts += [f"(sup x (dotminus (d {p0} x) (d {p1} x)))",
                      f"(inf x (max (d {p0} x) (d {p1} x)))"]
        for text in texts:
            phi = parse(text, sig)
            enc = eval_urysohn(phi, anchored, {}, QuantifierBudget(F(1, 8), 1))

            def value_at(sample):
                # the sample's point, or the anchor at distance 0 from it
                on = [p for p in space.points if sample[p] == 0]
                ext, x = (space, on[0]) if on else (space.with_point(phi.var, sample),
                                                    phi.var)
                M = FiniteStructure(ext, sig, {}, {p: p for p in space.points})
                return evaluate(phi.body, M, {phi.var: x})

            samples = admissible_samples(rng, space, 40)
            values = [value_at(s) for s in samples]
            if text.startswith("(sup"):
                assert max(values) <= enc.hi
            else:
                assert min(values) >= enc.lo


@st.composite
def enclosure_pairs(draw):
    def enc():
        a = F(draw(st.integers(0, 16)), 16)
        b = F(draw(st.integers(0, 16)), 16)
        lo, hi = min(a, b), max(a, b)
        inner = F(draw(st.integers(0, 8)), 8)
        point = lo + (hi - lo) * inner
        return Enclosure(lo, hi), point
    return enc(), enc()


@given(enclosure_pairs())
@settings(max_examples=300, deadline=None)
def test_interval_ops_contain_pointwise_ops(pairs):
    (ea, a), (eb, b) = pairs
    assert enc_dot_add(ea, eb).contains(dot_add(a, b))
    assert enc_dot_sub(ea, eb).contains(dot_sub(a, b))


def test_compiled_bound_contains_its_box():
    """Over random boxes of step ranges, the compiled body's value at every
    admissible grid vector in the box lies within the compiled bound."""
    rng = random.Random(23)
    for _ in range(80):
        names = ("a", "b", "c")[:rng.randint(1, 3)]
        dist = {(p, q): F(rng.randint(2, 4), 4) for i, p in enumerate(names)
                for q in names[i + 1:]}
        sig = Signature((), names)
        body = random_formula(rng, sig, ["x"], rng.randint(1, 4))
        if not is_quantifier_free(body):
            continue
        n = rng.choice((4, 8))
        steps = [[int(dist.get((p, q), dist.get((q, p), 0)) * n) for q in names]
                 for p in names]
        index = {p: i for i, p in enumerate(names + ("x",))}
        g, bound, _, _ = urysohn._compile(body, lambda t: index[t.name], len(names), n)
        known = triangle(steps)
        L, H = [], []
        for _ in names:
            lo, hi = sorted((rng.randint(0, n), rng.randint(0, n)))
            L.append(lo)
            H.append(hi)
        lo, hi = bound(known + L, known + H)
        for s in admissible_steps(steps, n):
            if all(L[c] <= s[c] <= H[c] for c in range(len(names))):
                assert lo <= g(known + list(s)) <= hi, (body, L, H, s)


@given(st.integers(0, 2 ** 20), st.integers(1, 2 ** 10))
@settings(max_examples=200, deadline=None)
def test_sqrt_enclosure_sound(num, den):
    x = F(num % (den + 1), den)
    e = sqrt_enclosure(x, 48)
    assert e.lo * e.lo <= x <= e.hi * e.hi
    assert e.width <= F(1, 2 ** 48)
