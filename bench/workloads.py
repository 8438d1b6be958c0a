"""The four seeded workloads, each a pool of operations on metriclogic.

An operation is one closed-loop call into the program.  Each carries a
render of its result (what the reference file records at the default
seed) and an independent check (what every other seed is held to).  Calls
go through module attributes looked up at call time, so the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

import oracles as orc

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
WORK = ROOT / ".bench_work"


@dataclass
class Op:
    id: str
    desc: str                                   # the generated input, for the digest
    call: Callable[[int], object]               # argument: repetition number
    render: Callable[[object], str]
    check: Callable[[object], Optional[str]]    # None when the output is right
    counts: Callable[[object], Dict[str, float]] = lambda result: {}
    enclosure: bool = False                     # reference may be a wider enclosure


@dataclass
class Workload:
    name: str
    ops: List[Op]
    layers: List[str]                           # trace layers every run must call
    probes: Dict[str, Callable[[], float]] = field(default_factory=dict)   # traced run
    known_defects: Dict[str, Callable[[], float]] = field(default_factory=dict)
    workdir: Optional[Path] = None
    runner: Optional["CliCall"] = None

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for op in sorted(self.ops, key=lambda o: o.id):
            h.update(f"{op.id}\t{op.desc}\n".encode())
        return h.hexdigest()[:16]

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def fr(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def snapped_mesh(requested: Fraction, dists) -> Fraction:
    h = Fraction(1, lcm(*(Fraction(d).denominator for d in dists)) if dists else 1)
    while h > requested:
        h /= 2
    return h


def per_kind(ops, limit):
    """The first `limit` operations of each kind (the id before its last dash)."""
    if limit is None:
        return ops
    seen = {}
    kept = []
    for op in ops:
        kind = op.id.rsplit("-", 1)[0]
        seen[kind] = seen.get(kind, 0) + 1
        if seen[kind] <= limit:
            kept.append(op)
    return kept


def stratified(entries, picks: int, rng: random.Random, near: int = 3):
    """One of the `near` entries at the middle of each of `picks` equal slices
    of a cost-sorted class: seeds draw different sentences of the same cost."""
    n = len(entries)
    out = []
    for i in range(picks):
        lo, hi = i * n // picks, (i + 1) * n // picks
        start = max(lo, (lo + hi) // 2 - near // 2)
        out.append(rng.choice(entries[start:min(hi, start + near)]))
    return out


# ------------------------------------------------------------ urysohn_*

def prefix(tree):
    """(quantifiers, their variables, quantifier-free body) of a prenex tree."""
    quants, variables = [], []
    while not isinstance(tree, str) and tree[0] in ("sup", "inf"):
        quants.append(tree[0])
        variables.append(tree[1])
        tree = tree[2]
    return quants, variables, tree


def enclosure_check(tree, known, dists, h, steps) -> Callable:
    """Bounds any grid search at mesh h must meet, from our own evaluator.

    Width is at most the sum of the per-variable moduli times h.  When every
    quantifier is a sup (inf), the grid optimum is at least (at most) the
    body's value at each admissible vector of the coarser grid 1/steps, which
    lies on the search grid, and the enclosure's near end is that optimum.
    """
    quants, variables, body = prefix(tree)
    width = sum((orc.modulus(body, v) for v in variables), Fraction(0)) * h

    def grid_optimum_bound():
        values = [orc.value(body, dist)
                  for dist in orc.realizations(variables, known, pair_d(dict(dists)), steps)]
        return max(values) if quants[0] == "sup" else min(values)

    def check(e) -> Optional[str]:
        if not (0 <= e.lo <= e.hi <= 1):
            return f"not an enclosure: [{e.lo}, {e.hi}]"
        if e.hi - e.lo > width:
            return f"width {e.hi - e.lo} exceeds the modulus bound {width}"
        if len(set(quants)) == 1:
            bound = grid_optimum_bound()
            if quants[0] == "sup" and e.lo < bound:
                return f"sup enclosure lo {e.lo} below a grid value {bound}"
            if quants[0] == "inf" and e.hi > bound:
                return f"inf enclosure hi {e.hi} above a grid value {bound}"
        return None
    return check


def urysohn_op(m, op_id, text, anchors, mesh, steps, grid) -> Op:
    """anchors: (points, {(p, q): distance}); grid: lazily counted lattice size."""
    points, dists = anchors
    space = m.metric.RationalMetricSpace.build(points, dists)
    anchored = m.urysohn.AnchoredStructure(space)
    phi = m.syntax.parse(text, m.formula.Signature((), space.points))
    budget = m.urysohn.QuantifierBudget(mesh, 0)
    tree = orc.read(text)
    levels = len(prefix(tree)[0])
    h = snapped_mesh(mesh, list(dists.values()))
    check = enclosure_check(tree, points, dists, h, steps)
    n = h.denominator
    dm = [[int(Fraction(dists.get((p, q), dists.get((q, p), 0))) * n) for q in points]
          for p in points]
    cached = []

    def counts(_):
        if not cached:
            cached.append(grid(tuple(map(tuple, dm)), n, levels))
        return {"urysohn.grid_points": cached[0]}

    return Op(op_id, f"{text} anchors={sorted(dists.items())} mesh={mesh}",
              lambda rep: m.urysohn.eval_urysohn(phi, anchored, {}, budget),
              lambda e: f"{fr(e.lo)} {fr(e.hi)}", check, counts, enclosure=True)


def lattice_counter():
    memo = {}

    def grid(dm, n, levels):
        key = (dm, n, levels)
        if key not in memo:
            memo[key] = orc.lattice_points([list(r) for r in dm], n, levels)
        return memo[key]
    return grid


W1 = "(inf x (max (d a x) (d b x)))"
W2 = "(sup x (inf y (sup z (dotminus (d x z) (d y z)))))"
W1_ANCHORS = (("a", "b"), {("a", "b"): Fraction(3, 5)})
W2_ANCHORS = (("s",), {})


def halving_ratio(m, text, anchors, fine, coarse) -> float:
    """t(fine) / t(coarse) for one sentence, medians of three interleaved runs."""
    phi = m.syntax.parse(text, m.formula.Signature((), anchors[0]))
    anchored = m.urysohn.AnchoredStructure(m.metric.RationalMetricSpace.build(*anchors))
    times = {fine: [], coarse: []}
    for _ in range(3):
        for mesh in times:
            start = time.perf_counter()
            m.urysohn.eval_urysohn(phi, anchored, {}, m.urysohn.QuantifierBudget(mesh, 0))
            times[mesh].append(time.perf_counter() - start)
    return statistics.median(times[fine]) / statistics.median(times[coarse])


def urysohn_flat(m, rng, limit=None) -> Workload:
    catalog = json.loads((DATA / "flat.json").read_text())
    grid = lattice_counter()
    ops = []
    for cls, spec in catalog["classes"].items():
        mesh = Fraction(spec["mesh"])
        for i, entry in enumerate(stratified(spec["sentences"], spec["picks"], rng)):
            if entry["k"] is None:
                anchors, steps = (("a",), {}), 32
            else:
                anchors, steps = (("a", "b"), {("a", "b"): Fraction(entry["k"], 20)}), 20
            ops.append(urysohn_op(m, f"{cls}-{i:02d}", entry["text"], anchors, mesh,
                                  steps, grid))
    ops = per_kind(ops, limit)
    rng.shuffle(ops)

    probes = {"urysohn.mesh_halving_x": lambda: halving_ratio(
        m, W1, W1_ANCHORS, Fraction(1, 640), Fraction(1, 320))}
    return Workload("urysohn_flat", ops,
                    ["intervals", "urysohn.eval", "urysohn.expand", "formula.lipschitz"],
                    probes)


def urysohn_nested(m, rng, limit=None) -> Workload:
    catalog = json.loads((DATA / "nested.json").read_text())
    grid = lattice_counter()
    ops = []
    for cls, spec in catalog["classes"].items():
        mesh = Fraction(spec["mesh"])
        for i, entry in enumerate(stratified(spec["sentences"], spec["picks"], rng)):
            ops.append(urysohn_op(m, f"{cls}-{i:02d}", entry["text"], (("s",), {}),
                                  mesh, 8, grid))
    ops = per_kind(ops, limit)
    w2 = urysohn_op(m, "w2-mesh8", W2, W2_ANCHORS, Fraction(1, 8), 8, grid)
    base = w2.check
    w2.check = lambda e: base(e) or (None if e.lo == 0 else f"W2 excludes 0: {e}")
    ops.append(w2)
    rng.shuffle(ops)

    probes = {"urysohn.nested_halving_x": lambda: halving_ratio(
        m, W2, W2_ANCHORS, Fraction(1, 8), Fraction(1, 4))}
    return Workload("urysohn_nested", ops,
                    ["intervals", "urysohn.eval", "urysohn.expand", "formula.lipschitz"],
                    probes)


# ------------------------------------------------------------ finite_exact

def far_dists(rng, points, dens=(4, 8, 10, 16, 20)):
    """Distances in [1/2, 1]: every triangle holds without checking."""
    out = {}
    for p, q in combinations(points, 2):
        den = rng.choice(dens)
        out[(p, q)] = Fraction(rng.randint(den // 2, den), den)
    return out


def pair_d(dists):
    def d(p, q):
        if p == q:
            return Fraction(0)
        return dists[(p, q)] if (p, q) in dists else dists[(q, p)]
    return d


def random_tree(rng, atoms, depth, quantify=()):
    """Random formula tree; quantify lists variables to bind at the top."""
    def go(k):
        if k == 0:
            return f"{rng.randint(1, 7)}/8" if rng.random() < 0.2 else rng.choice(atoms)
        r = rng.random()
        if r < 0.1:
            return ["half", go(k - 1)]
        if r < 0.2:
            return ["neg", go(k - 1)]
        if r < 0.25:
            return ["scale", "3/2", go(k - 1)]
        return [rng.choice(("min", "max", "dotminus", "dotplus", "absdiff")),
                go(k - 1), go(k - 1)]
    tree = go(depth)
    for q, v in reversed(quantify):
        tree = [q, v, tree]
    return tree


def amalgam_instance(rng, n, q):
    """Hypotheses of the construction with strict margins, n points, q shared."""
    while True:
        pts = tuple(f"a{i}" for i in range(n))
        hd = far_dists(rng, pts)
        d = pair_d(hd)
        margins = [d(p, r) for p, r in combinations(pts, 2)]
        geodesic = False
        for i, j, k in combinations(range(n), 3):
            moved = sum(1 for t in (i, j, k) if t >= q)
            for c, u, v in ((i, j, k), (j, i, k), (k, i, j)):
                gap = d(pts[c], pts[u]) + d(pts[c], pts[v]) - d(pts[u], pts[v])
                if gap != 0:
                    margins.append(gap)
                elif moved >= 2:
                    geodesic = True
        if geodesic:
            continue
        eps = min(margins) / ((2 * comb(n - q, 2) + 1) * rng.choice((2, 3, 4)))
        bpts = tuple(f"b{i}" for i in range(n))
        bd = {}
        for i, j in combinations(range(n), 2):
            delta = Fraction(0) if j < q else rng.choice(
                (-eps, -eps / 2, Fraction(0), eps / 2, eps))
            bd[(bpts[i], bpts[j])] = d(pts[i], pts[j]) + delta
        if all(0 < v <= 1 for v in bd.values()) and orc.is_metric(bpts, pair_d(bd)):
            return pts, hd, bpts, bd, q, eps


def finite_exact(m, rng, limit=None) -> Workload:
    Space = m.metric.RationalMetricSpace
    ops: List[Op] = []

    def add(kind, i, desc, call, render, check, counts=lambda r: {}):
        ops.append(Op(f"{kind}-{i:02d}", desc, call, render, check, counts))

    # qu_enumerate: the write side of metric, quartic in the grown size.
    # Seed distances k/20 are drawn from sets on which the grown space has the
    # same size (18, 35 and 38 points), so a pass costs the same at every seed.
    # The sixteen 18-point runs are the slowest tenth but four: p90 falls there.
    small, mid = [range(7, 14)], [(12, 13)]
    triple = [(10, 12), (15, 16), (15, 16)]
    for i, (size, bound, ks) in enumerate([(2, 3, small)] * 16 + [(2, 4, mid)] * 2
                                          + [(3, 3, triple)] * 2):
        pts = tuple(f"s{j}" for j in range(size))
        sd = {pq: Fraction(rng.choice(k), 20) for pq, k in zip(combinations(pts, 2), ks)}
        seed = Space.build(pts, sd)

        def check(res, pts=pts, sd=sd, bound=bound):
            out, _ = res
            d = out.d
            if not orc.is_metric(out.points, d):
                return "enumerated space is not a metric space"
            if any(d(p, q) != v for (p, q), v in sd.items()):
                return "seed distances changed"
            vals = sorted({Fraction(a, b) for b in range(1, bound + 1)
                           for a in range(1, b + 1)})
            for k in (1, 2):
                for sub in combinations(pts, k):
                    for vec in product(vals, repeat=k):
                        f = dict(zip(sub, vec))
                        if orc.admissible(f, sub, d) and not any(
                                all(d(x, a) == f[a] for a in sub) for x in out.points):
                            return f"vector {f} over {sub} not realized"
            return None

        add("qu", i, f"{sorted(sd.items())} bound={bound}",
            lambda rep, seed=seed, bound=bound: m.quenum.qu_enumerate(seed, bound, 2),
            lambda res: m.textio.serialize_space(res[0]) + f"tasks {len(res[1].tasks)}",
            check,
            lambda res, size=size: {"quenum.points_added": len(res[0].points) - size})

    # amalgamate on acceptance-1-shaped instances.  Thirty of one shape (4
    # points, 1 shared) form the middle of the pool, where p50 falls; ten more
    # cover 2 to 6 points.
    for i in range(40):
        n, q = (4, 1) if i < 30 else (2 + i % 5, i % 3 if i % 5 else 0)
        pts, hd, bpts, bd, q, eps = amalgam_instance(rng, n, q)
        host, bsp = Space.build(pts, hd), Space.build(bpts, bd)

        def check(res, pts=pts, hd=hd, bpts=bpts, bd=bd, q=q, eps=eps):
            return orc.amalgam_ok(pair_d(hd), pts, pair_d(bd), bpts, q, eps,
                                  res.space.d, res.space.points, res.b_names,
                                  res.displacement)

        add("amalgam", i, f"{sorted(hd.items())} {sorted(bd.items())} q={q} eps={eps}",
            lambda rep, host=host, pts=pts, bsp=bsp, q=q, eps=eps:
                m.amalgam.amalgamate(host, pts, bsp, q, eps),
            lambda res: m.textio.serialize_space(res.space) + " ".join(res.b_names),
            check)

    # qf_decide over a grown fragment.
    frag, _ = m.quenum.qu_enumerate(Space.build(("a", "b"), {("a", "b"): Fraction(1, 2)}), 3, 2)
    for i in range(25):
        atoms = [["d", *rng.sample(frag.points, 2)] for _ in range(6)]
        tree = random_tree(rng, atoms, rng.randint(2, 3))
        text = orc.show(tree)
        phi = m.syntax.parse(text, m.formula.Signature((), frag.points))
        want = orc.value(tree, frag.d)
        add("qf", i, text, lambda rep, phi=phi: m.urysohn.qf_decide(phi, frag), fr,
            lambda v, want=want: None if v == want else f"value {v} != {want}")

    def structure(points, dists):
        space = Space.build(points, dists)
        sig = m.formula.Signature((), space.points)
        return m.structures.FiniteStructure(space, sig, {}, {p: p for p in points})

    # sc_probe: covering-plus-extension search over distance conditions.
    for i in range(8):
        pts = tuple(f"p{j}" for j in range(3))
        dists = far_dists(rng, pts, dens=(10,))
        if rng.random() < 0.5:                       # a near pair, like the tests'
            dists[pts[:2]] = Fraction(rng.randint(1, 3), 10)
            dists[(pts[0], pts[2])] = dists[(pts[1], pts[2])]
        M = structure(pts, dists)
        pool = [m.syntax.parse(f"(d x1 {p})", M.sig) for p in pts]
        eps = Fraction(rng.choice((1, 2)), 4)

        def check(rep, dists=dists, pts=pts):
            if rep.status not in ("witness", "counterexample"):
                return f"status {rep.status}"
            if rep.status == "witness":
                conds = [str(c).split(" <= ") for c in rep.family]
                d = pair_d(dists)
                for t in pts:
                    if not any(orc.value(orc.read(f), d, env={"x1": t}) <= Fraction(b)
                               for f, b in conds):
                        return f"witness family does not cover {t}"
            return None

        add("scprobe", i, f"{sorted(dists.items())} eps={eps}",
            lambda rep, M=M, pool=pool, eps=eps: m.scprobe.sc_probe(M, 1, eps, pool, 1),
            lambda rep: f"{rep} examined {rep.families_examined}", check,
            lambda rep: {"scprobe.families_examined": rep.families_examined})

    # oligo_probe: orbit covers under the automorphism group.
    for i in range(10):
        pts = tuple(f"p{j}" for j in range(3 + i // 2 % 2))
        dists = {pq: Fraction(rng.choice((1, 2)), 2) for pq in combinations(pts, 2)}
        M = m.structures.FiniteStructure(Space.build(pts, dists), m.formula.Signature())
        n, eps = 1 + i % 2, Fraction(rng.randint(0, 2), 4)

        def check(res, eps=eps, pts=pts, n=n):
            if len(res.certificate) != len(pts) ** n or len(res.family) > res.orbit_count:
                return "certificate misses tuples"
            for t, (u, dist) in res.certificate.items():
                if u not in res.family or not 0 <= dist <= eps:
                    return f"bad certificate entry for {t}"
            return None

        add("oligo", i, f"{sorted(dists.items())} n={n} eps={eps}",
            lambda rep, M=M, n=n, eps=eps: m.graded.oligo_probe(M, n, eps),
            lambda res: f"{res.family} {res.orbit_count} {res.group_order}", check)

    # approx_search: N is M moved by an isometry, so a witness exists.
    for i in range(10):
        pts = tuple(f"p{j}" for j in range(4))
        dists = {pq: Fraction(1, 2) for pq in combinations(pts, 2)}
        space = Space.build(pts, dists)
        rel = m.formula.Relation("R", 1)
        sig = m.formula.Signature((rel,), ())
        table = {(p,): Fraction(rng.randint(0, 4), 4) for p in pts}
        M = m.structures.FiniteStructure(space, sig, {"R": table}, {})
        perm = list(pts)
        rng.shuffle(perm)
        N = M.transport(dict(zip(pts, perm)))
        H = m.graded.GradedAtomDescriptor("linear", Fraction(1), (pts[0],), (pts[0],))
        eps = Fraction(rng.choice((3, 5)), 4)

        def check(res, d=pair_d(dists), eps=eps):
            if not hasattr(res, "isometry"):
                return "no witness although N is an isometric copy of M"
            g = res.isometry.map
            if sorted(g.values()) != sorted(g) or any(
                    d(a, b) != d(g[a], g[b]) for a, b in combinations(g, 2)):
                return "witness is not an isometry"
            if not (res.structure_distance < eps and res.h_radicand < eps * eps):
                return "witness not within eps"
            return None

        add("approx", i, f"{sorted(table.items())} perm={perm} eps={eps}",
            lambda rep, M=M, N=N, H=H, eps=eps: m.graded.approx_search(M, N, H, eps, 100),
            lambda res: f"{sorted(res.isometry.map.items())} {res.h_radicand} "
                        f"{res.structure_distance}" if hasattr(res, "isometry") else str(res),
            check)

    # Graded subgroup axioms and the left-invariant group metric.
    PI = m.graded.PartialIsometry
    for i in range(10):
        # Equilateral triangles: six isometries, 36 pairs, whatever the seed.
        pts = ("p0", "p1", "p2")
        side = Fraction(rng.randint(1, 3), 4)
        dists = {pq: side for pq in combinations(pts, 2)}
        space = Space.build(pts, dists)
        isos = [PI(space, space, g) for g in m.structures.space_isometries(space)]
        pairs = [(g, h) for g in isos for h in isos]
        kind = rng.choice(("linear", "sqrt"))
        D = m.graded.GradedAtomDescriptor(kind, Fraction(rng.randint(1, 3), 2),
                                          pts[:2], pts[:2])

        def check(rep, npairs=len(pairs)):
            if not rep.ok or rep.checked_identity != 1 or rep.checked_subadditivity != npairs:
                return f"axioms: ok={rep.ok} counts {rep.checked_identity}/" \
                       f"{rep.checked_subadditivity}"
            return None

        add("axioms", i, f"{sorted(dists.items())} {kind} {D.scale}",
            lambda rep, D=D, space=space, pairs=pairs:
                m.graded.check_graded_axioms(D, space, pairs),
            lambda rep: f"{rep.checked_identity} {rep.checked_symmetry} "
                        f"{rep.checked_subadditivity} {rep.failures}", check)

        for j in range(2 if i < 5 else 1):
            g, h = rng.choice(isos), rng.choice(isos)
            k = rng.randint(0, len(pts))
            ctx = m.graded.GroupMetricContext(space, pts)
            total = sum((Fraction(1, 2 ** (t + 1)) * pair_d(dists)(g.map[s], h.map[s])
                         for t, s in enumerate(pts[:k])), Fraction(0))
            want = (total, min(total + Fraction(1, 2 ** k), Fraction(1)))
            add("rho", 2 * i + j, f"{sorted(dists.items())} {g.map} {h.map} k={k}",
                lambda rep, g=g, h=h, ctx=ctx, k=k: m.graded.rho_s(g, h, ctx, k),
                lambda e: f"{fr(e.lo)} {fr(e.hi)}",
                lambda e, want=want: None if (e.lo, e.hi) == want else f"rho {e} != {want}")

    # Vaught transform algebra suite, at a few instances.
    for i in range(3):
        s = rng.randrange(10 ** 6)
        add("suite", i, f"seed={s}",
            lambda rep, s=s: m.suite.run_suite(s, 3, 6, 12, 8),
            lambda r: f"{r.instances} {r.checks} {sorted(r.per_lemma.items())} {r.violations}",
            lambda r: None if r.ok and r.instances == 3 else f"suite: {r.violations[:1]}",
            lambda r: {"suite.checks": r.checks})

    # Orbit equivalence against encoded isomorphism on random instances.
    for i in range(9):
        inst = m.reduction.random_instance(random.Random(rng.randrange(10 ** 6)), 4, 4, 2, 8)
        x, xp = rng.choice(inst.x_space.points), rng.choice(inst.x_space.points)
        same = any(g.x_map[x] == xp for g in inst.elements)

        def check(res, same=same):
            if res.same_orbit != same or res.isomorphic != same:
                return f"orbit {res.same_orbit} iso {res.isomorphic} expected {same}"
            return None

        add("orbit", i, m.textio.serialize_instance(inst) + f"{x} {xp}",
            lambda rep, inst=inst, x=x, xp=xp: m.reduction.orbit_equiv(inst, x, xp),
            lambda r: f"{r.same_orbit} {r.isomorphic} {r.orbit_witness} "
                      f"{sorted(r.iso_witness.items()) if r.iso_witness else None}",
            check)

    ops = per_kind(ops, limit)
    rng.shuffle(ops)
    return Workload("finite_exact", ops,
                    ["metric.validate", "quenum.enumerate", "amalgam.amalgamate",
                     "structures.evaluate", "formula.wellformed",
                     "structures.isometry_search", "scprobe.probe", "graded.oligo",
                     "graded.approx", "graded.axioms", "vaught.suite",
                     "reduction.orbit_equiv"])


# ------------------------------------------------------------ cli_cold

def space_text(points, dists) -> str:
    d = pair_d(dists)
    lines = ["points: " + " ".join(points)]
    lines += [f"d {p} {q} {fr(d(p, q))}" for p, q in combinations(points, 2)]
    return "\n".join(lines) + "\n"


def read_space(text: str):
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    points = tuple(lines[0][1:])
    dists = {(p, q): Fraction(v) for _, p, q, v in lines[1:]}
    return points, dists


def text_result(stdout: str) -> dict:
    """The result block of a text report, one string per top-level key."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("result: lo "):
            _, _, lo, _, hi = line.split()
            return {"lo": lo, "hi": hi}
        if line.startswith("  ") and not line.startswith("   ") and ": " in line:
            key, _, val = line.strip().partition(": ")
            out[key] = val
    return out


def as_list(v):
    if isinstance(v, list):
        return [str(x) for x in v]
    inner = v.strip()[1:-1]
    return [x for x in inner.split(", ") if x]


def strip_timing(stdout: str, fmt: str) -> str:
    if fmt == "json":
        report = json.loads(stdout)
        report.pop("timing_ms", None)
        return json.dumps(report, sort_keys=True)
    return "\n".join(ln for ln in stdout.splitlines() if not ln.startswith("timing_ms:"))


class CliCall:
    """One argv; run as a child process, or in process for the traced run."""

    def __init__(self, m, env):
        self.m, self.env = m, env
        self.in_process = False

    def __call__(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.m.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "metriclogic.cli", *argv],
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=120)
        return proc.returncode, proc.stdout, proc.stderr


def cli_cold(m, rng, limit=None) -> Workload:
    workdir = WORK / f"cli-{os.getpid()}-{rng.randrange(10 ** 9)}"
    workdir.mkdir(parents=True)
    rel = workdir.relative_to(ROOT)
    catalog_dir = rel / "catalog"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    env.pop("METRICLOGIC_CATALOG", None)
    runner = CliCall(m, env)
    ops: List[Op] = []
    counter = [0]

    def write(name, text):
        (workdir / name).write_text(text)
        return str(rel / name)

    def add(kind, i, argv, fmt, check, fresh=False):
        """check(result dict) -> error; fresh: a new name in argv[1] per call (puts)."""
        glob = ["--catalog", str(catalog_dir)] + (["--format", "json"] if fmt == "json" else [])
        last = {}

        def call(rep):
            args = list(argv)
            if fresh:
                counter[0] += 1
                last["name"] = args[1] = f"{argv[1]}n{counter[0]}"
            return runner(glob + args)

        def render(out):
            code, stdout, stderr = out
            text = strip_timing(stdout, fmt) if code == 0 else stderr.strip()
            if "name" in last:
                text = text.replace(last["name"], "NAME")
            return f"exit {code}\n{text}"

        def full_check(out):
            code, stdout, stderr = out
            if code != 0:
                return f"exit {code}: {stderr.strip()[:200]}"
            result = json.loads(stdout)["result"] if fmt == "json" else text_result(stdout)
            if fresh and result.get("stored") != last["name"]:
                return f"stored {result.get('stored')} not {last['name']}"
            return check(result)

        desc = " ".join([kind, fmt] + argv).replace(str(rel), "WORK")
        ops.append(Op(f"{kind}-{i:02d}", desc, call, render, full_check))

    fmts = lambda i: "json" if i % 2 else "text"  # noqa: E731

    spaces = []
    for i in range(6):
        pts = tuple(f"p{j}" for j in range(rng.randint(3, 6)))
        dists = far_dists(rng, pts)
        if i % 3 == 2:                                 # break one triangle on purpose
            a, b, c = pts[:3]
            dists[(a, b)], dists[(b, c)], dists[(a, c)] = \
                Fraction(1, 5), Fraction(1, 5), Fraction(1)
        spaces.append((pts, dists))
        ok = orc.is_metric(pts, pair_d(dists))
        bad = orc.triangle_violations(pts, pair_d(dists))
        add("validate", i, ["validate", write(f"v{i}.space", space_text(pts, dists))], fmts(i),
            lambda r, ok=ok, bad=bad: None if str(r["ok"]) == str(ok) and
            len(as_list(r["violations"])) == bad else f"validate says {r}")

    for i in range(6):
        tree = random_tree(rng, [["d", "x", "y"], ["d", "x", "z"], ["d", "y", "z"]],
                           rng.randint(1, 3), [("sup", "z")] if i % 2 else ())
        text, coeff = orc.show(tree), orc.modulus(tree, None)
        add("parse", i, ["parse", text], fmts(i),
            lambda r, text=text: None if r["canonical"] == text else f"canonical {r}")
        add("lipschitz", i, ["lipschitz", text], fmts(i + 1),
            lambda r, coeff=coeff: None if Fraction(r["coefficient"]) == coeff
            else f"coefficient {r} != {coeff}")

    for i in range(6):
        pts = tuple(f"p{j}" for j in range(rng.randint(3, 5)))
        dists = far_dists(rng, pts)
        consts = {f"c{j}": rng.choice(pts) for j in range(2)}
        struct = space_text(pts, dists) + "".join(f"const {c} {p}\n" for c, p in consts.items())
        tree = random_tree(rng, [["d", "c0", "x"], ["d", "c1", "x"], ["d", "c0", "c1"]],
                           2, [(rng.choice(("sup", "inf")), "x")])
        d = pair_d(dists)
        want = orc.value(tree, lambda p, q: d(consts.get(p, p), consts.get(q, q)), pts)
        add("eval", i, ["eval", write(f"e{i}.struct", struct), orc.show(tree)], fmts(i),
            lambda r, want=want: None if Fraction(r["value"]) == want else f"eval {r} != {want}")

        fpts, fd = spaces[i if i % 3 != 2 else 0]
        qtree = random_tree(rng, [["d", *rng.sample(fpts, 2)] for _ in range(4)], 2)
        qwant = orc.value(qtree, pair_d(fd))
        add("qfdecide", i, ["qf-decide", write(f"f{i}.space", space_text(fpts, fd)),
                            orc.show(qtree)], fmts(i + 1),
            lambda r, qwant=qwant: None if Fraction(r["value"]) == qwant
            else f"qf {r} != {qwant}")

    anchor_files = []
    for i in range(6):
        k = rng.choice((7, 9, 11, 13))
        dists = {("a", "b"): Fraction(k, 20)}
        path = write(f"anchors{i}.space", space_text(("a", "b"), dists))
        anchor_files.append(path)
        tree = random_tree(rng, [["d", "a", "x"], ["d", "b", "x"]], 1,
                           [(rng.choice(("sup", "inf")), "x")])
        check = enclosure_check(tree, ("a", "b"), dists, Fraction(1, 40), 20)
        add("urysohn", i, ["eval-urysohn", orc.show(tree), "--anchors", path,
                           "--mesh", "1/40", "--rounds", "0"], fmts(i),
            lambda r, check=check: check(SimpleNamespace(lo=Fraction(r["lo"]),
                                                         hi=Fraction(r["hi"]))))

    for i in range(4):
        q = Fraction(rng.randint(11, 49), 100)
        add("theta", i, ["theta-demo", "--q", fr(q), "--tol", "1/1000"], fmts(i),
            lambda r, q=q: None if Fraction(r["lo"]) ** 2 <= q <= Fraction(r["hi"]) ** 2
            and Fraction(r["hi"]) - Fraction(r["lo"]) <= Fraction(1, 1000)
            else f"theta {r} misses sqrt({q})")

    for i in range(6):
        n = rng.randint(2, 5)
        pts, hd, bpts, bd, q, eps = amalgam_instance(rng, n, rng.randint(0, min(2, n - 1)))
        h = write(f"host{i}.space", space_text(pts, hd))
        b = write(f"b{i}.space", space_text(bpts, bd))

        def check(r, pts=pts, hd=hd, bpts=bpts, bd=bd, q=q, eps=eps):
            opts, od = read_space(r["space"])
            names = [r["witness"][b] for b in bpts]
            return orc.amalgam_ok(pair_d(hd), pts, pair_d(bd), bpts, q, eps, pair_d(od),
                                  opts, names, Fraction(r["displacement"]))

        add("amalgamate", i, ["amalgamate", h, b, "--a-points", " ".join(pts),
                              "--q", str(q), "--eps", fr(eps)], "json", check)

    # Twenty 18-point enumerations, the heaviest calls of this pool: p90 falls
    # among them (see finite_exact for the choice of distances).
    for i in range(20):
        sd = {("s0", "s1"): Fraction(rng.choice(range(7, 14)), 20)}
        path = write(f"seed{i}.space", space_text(("s0", "s1"), sd))

        def check(r, sd=sd):
            pts, od = read_space(r["space"])
            if not orc.is_metric(pts, pair_d(od)) or od[("s0", "s1")] != sd[("s0", "s1")]:
                return "enumerated space is not a metric extension of the seed"
            return None

        add("enumerate", i, ["enumerate-qu", path, "--denominator-bound", "3",
                             "--budget", "2"], "json", check)

    for i in range(4):
        X = m.suite.random_gspace(random.Random(rng.randrange(10 ** 6)), 6, 12)
        path = write(f"g{i}.gspace", m.textio.serialize_gspace(X))
        A = sorted(rng.sample(X.points, rng.randint(1, len(X.points))))
        u = sorted(rng.sample(X.elements, rng.randint(1, len(X.elements))))
        act = {g: X.action[g] for g in X.elements}
        star = sorted(x for x in X.points if all(act[h][x] in A for h in u))
        delta = sorted(x for x in X.points if any(act[h][x] in A for h in u))
        add("vaughtsets", i, ["vaught-sets", path, "--set", " ".join(A), "--u", " ".join(u)],
            fmts(i), lambda r, star=star, delta=delta: None
            if as_list(r["star"]) == star and as_list(r["delta"]) == delta
            else f"vaught-sets {r}")

    for i in range(4):
        inst = m.reduction.random_instance(random.Random(rng.randrange(10 ** 6)), 4, 4, 2, 8)
        path = write(f"i{i}.inst", m.textio.serialize_instance(inst))
        x, xp = rng.choice(inst.x_space.points), rng.choice(inst.x_space.points)
        same = any(g.x_map[x] == xp for g in inst.elements)
        add("orbit", i, ["orbit-equiv", path, "--x", x, "--xp", xp], "json",
            lambda r, same=same: None if r["same_orbit"] == same == r["isomorphic"]
            and not r["g_invariance_failures"] else f"orbit-equiv {r}")

    for i in range(4):
        add("suite", i, ["lemma-suite", "--seed", str(rng.randrange(10 ** 6)),
                         "--instances", "2", "--max-points", "4"], fmts(i),
            lambda r: None if str(r["ok"]) == "True" and str(r["instances"]) == "2"
            else f"lemma-suite {r}")

    # The temp catalog: stored names that read calls resolve.
    catalog = m.catalog.Catalog(ROOT / catalog_dir)
    stored = []
    for i in range(4):
        pts, dists = spaces[i if i % 3 != 2 else 0]
        catalog.put(f"sp{i}", "space", space_text(pts, dists))
        catalog.put(f"anch{i}", "space", (ROOT / anchor_files[i]).read_text())
        stored.append((f"sp{i}", pts, dists))

    kinds = [("space", "v0.space"), ("space", "anchors0.space"), ("structure", "e0.struct")]
    for i in range(8):
        kind, fname = kinds[i % 3]
        add("put", i, ["catalog-put", f"w{i}", kind, str(rel / fname)], fmts(i),
            lambda r, kind=kind: None if r["kind"] == kind else f"put {r}", fresh=True)

    for i in range(6):
        name, pts, dists = stored[i % 4]

        def check(r, pts=pts, dists=dists):
            got_pts, got = read_space(r["text"])
            d = pair_d(dists)
            if got_pts != pts or any(v != d(p, q) for (p, q), v in got.items()):
                return "catalog text differs from the stored space"
            return None
        add("get", i, ["catalog-get", name], "json", check)

    for i in range(4):
        name, pts, dists = stored[i]
        ok = orc.is_metric(pts, pair_d(dists))
        add("validatename", i, ["validate", name], fmts(i),
            lambda r, ok=ok: None if str(r["ok"]) == str(ok) else f"validate {r}")
        tree = random_tree(rng, [["d", "a", "x"], ["d", "b", "x"]], 1, [("inf", "x")])
        k20 = read_space((ROOT / anchor_files[i]).read_text())[1]
        check = enclosure_check(tree, ("a", "b"), k20, Fraction(1, 40), 20)
        add("urysohnname", i, ["eval-urysohn", orc.show(tree), "--anchors", f"anch{i}",
                               "--mesh", "1/40", "--rounds", "0"], fmts(i + 1),
            lambda r, check=check: check(SimpleNamespace(lo=Fraction(r["lo"]),
                                                         hi=Fraction(r["hi"]))))

    ops = per_kind(ops, limit)
    rng.shuffle(ops)

    # ROADMAP item 5: an inline formula over 255 characters is probed for a
    # file first and fails with ENAMETOOLONG.  It is a known defect, kept out
    # of the measured loop (no operation there may fail) and reported apart.
    long_formula = "(max (d a x) " * 20 + "(d b x)" + ")" * 20

    def long_formula_defect() -> float:
        code, stdout, stderr = runner(["--format", "json", "lipschitz", long_formula])
        if code == 0 and json.loads(stdout)["result"]["coefficient"] == "2":
            return 0.0
        if code == 1 and "File name too long" in stderr:
            return 1.0
        raise RuntimeError(f"long inline formula: exit {code}, {stderr.strip()[:200]}")

    return Workload("cli_cold", ops, ["cli.main", "textio.parse", "catalog.put",
                                      "catalog.get"],
                    known_defects={"cli.long_formula_defect": long_formula_defect},
                    workdir=workdir, runner=runner)


WORKLOADS = {"urysohn_flat": urysohn_flat, "urysohn_nested": urysohn_nested,
             "finite_exact": finite_exact, "cli_cold": cli_cold}
