#!/usr/bin/env python3
"""Build the sentence catalogs that the urysohn_* workloads sample from.

Run from the repository root:

    python3 bench/calibrate.py

It generates random quantifier-free bodies from a fixed generator seed,
evaluates every sentence once at its workload mesh, counts the interval
operations the evaluation performs (a deterministic cost measure), and writes
bench/data/flat.json and bench/data/nested.json with each class sorted by
that count.  A run of the benchmark then picks one sentence from each of
`picks` equal slices of a sorted class, so every seed gets a different pool
with the same cost profile.  Without that stratification the cost of a
randomly drawn pool varies by about +-20% between seeds, which is wider than
any regression bound the benchmark could hold.

The catalogs are data: a change that claims a gain must not regenerate them.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from metriclogic import urysohn  # noqa: E402
from metriclogic.formula import Signature  # noqa: E402
from metriclogic.metric import RationalMetricSpace  # noqa: E402
from metriclogic.syntax import parse, print_formula  # noqa: E402

GENERATOR_SEED = 1304
BINARY = ("min", "max", "dotminus", "dotplus", "absdiff")
UNARY = ("half", "neg", "scale 3/2")
# Anchor distances k/20 with k prime to 5, so the snapped mesh of a two-anchor
# space is exactly the requested 1/160; k >= 7 keeps the polytope area within
# 0.57..0.64 of the unit square.
FLAT_K = (7, 9, 11, 13)
# class name -> (quantifier prefix, anchor count, catalog size, picks per run)
# Catalogs are large against the picks so that each slice spans a narrow cost
# range: the top slices of a heavy-tailed class set p90.
FLAT_CLASSES = {
    "1d_sup": ("sup", 1, 120, 30), "1d_inf": ("inf", 1, 120, 30),
    "2d_sup": ("sup", 2, 600, 30), "2d_inf": ("inf", 2, 600, 30),
}
# Inner sup sentences cost about twice the inner inf ones (pruning finds the
# inner inf optimum early); 35/15 keeps p50 and p90 off the seam between them.
NESTED_CLASSES = {
    "sup_sup": (("sup", "sup"), 400, 35), "sup_inf": (("sup", "inf"), 400, 15),
    "inf_sup": (("inf", "sup"), 400, 35), "inf_inf": (("inf", "inf"), 400, 15),
}
FLAT_MESH = {1: Fraction(1, 128), 2: Fraction(1, 160)}
NESTED_MESH = Fraction(1, 16)


def random_body(rng: random.Random, atoms, depth: int) -> str:
    if depth == 0:
        if rng.random() < 0.2:
            return f"{rng.randint(1, 7)}/8"
        return rng.choice(atoms)
    if rng.random() < 0.2:
        return f"({rng.choice(UNARY)} {random_body(rng, atoms, depth - 1)})"
    return (f"({rng.choice(BINARY)} {random_body(rng, atoms, depth - 1)} "
            f"{random_body(rng, atoms, depth - 1)})")


def body_mentioning(rng, atoms, needed) -> str:
    while True:
        text = random_body(rng, atoms, 2)
        if all(f" {v})" in text for v in needed):
            return text


def anchor_space(k: int | None) -> RationalMetricSpace:
    if k is None:
        return RationalMetricSpace.build(("a",), {})
    return RationalMetricSpace.build(("a", "b"), {("a", "b"): Fraction(k, 20)})


def interval_ops(text: str, space: RationalMetricSpace, mesh: Fraction) -> int:
    """Interval operations one evaluation performs at this commit."""
    counter = [0]
    saved = {}
    for name in dir(urysohn):
        if name.startswith("enc_"):
            fn = saved[name] = getattr(urysohn, name)

            def counted(*args, _fn=fn):
                counter[0] += 1
                return _fn(*args)
            setattr(urysohn, name, counted)
    try:
        phi = parse(text, Signature((), space.points))
        urysohn.eval_urysohn(phi, urysohn.AnchoredStructure(space), {},
                             urysohn.QuantifierBudget(mesh, 0))
    finally:
        for name, fn in saved.items():
            setattr(urysohn, name, fn)
    return counter[0]


def canonical(text: str, points) -> str:
    return print_formula(parse(text, Signature((), tuple(points))))


def flat_catalog(rng: random.Random) -> dict:
    out = {}
    for cls, (quant, anchors, size, picks) in FLAT_CLASSES.items():
        entries = []
        for _ in range(size):
            k = rng.choice(FLAT_K) if anchors == 2 else None
            space = anchor_space(k)
            atoms = ["(d a x)", "(d b x)"] if anchors == 2 else ["(d a x)"]
            text = canonical(f"({quant} x {body_mentioning(rng, atoms, ['x'])})",
                             space.points)
            cost = interval_ops(text, space, FLAT_MESH[anchors])
            entries.append({"k": k, "text": text, "cost": cost})
            print(cls, cost, text, file=sys.stderr)
        entries.sort(key=lambda e: (e["cost"], e["text"]))
        out[cls] = {"picks": picks, "mesh": str(FLAT_MESH[anchors]),
                    "sentences": entries}
    return out


def nested_catalog(rng: random.Random) -> dict:
    out = {}
    space = RationalMetricSpace.build(("s",), {})
    atoms = ["(d s x)", "(d s y)", "(d x y)", "(d x y)"]
    for cls, ((q1, q2), size, picks) in NESTED_CLASSES.items():
        entries = []
        for _ in range(size):
            body = body_mentioning(rng, atoms, ["x", "y"])
            text = canonical(f"({q1} x ({q2} y {body}))", space.points)
            cost = interval_ops(text, space, NESTED_MESH)
            entries.append({"text": text, "cost": cost})
            print(cls, cost, text, file=sys.stderr)
        entries.sort(key=lambda e: (e["cost"], e["text"]))
        out[cls] = {"picks": picks, "mesh": str(NESTED_MESH), "sentences": entries}
    return out


def main():
    data = Path(__file__).resolve().parent / "data"
    data.mkdir(exist_ok=True)
    rng = random.Random(GENERATOR_SEED)
    for name, build in (("nested", nested_catalog), ("flat", flat_catalog)):
        catalog = {"generator_seed": GENERATOR_SEED, "cost_unit": "interval operations",
                   "classes": build(rng)}
        (data / f"{name}.json").write_text(json.dumps(catalog, indent=1) + "\n")


if __name__ == "__main__":
    main()
