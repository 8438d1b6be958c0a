#!/usr/bin/env python3
"""Benchmark of metriclogic: four seeded closed-loop workloads.

    python3 bench/run.py --workload urysohn_flat --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ./src.  One
client runs one operation at a time in one process (cli_cold adds one
child process at a time).  Operations repeat in passes over the seeded pool
until --seconds have passed and at least one whole pass is done.  Every
output goes through the output gate: at the default seed it must match the
reference recorded in bench/reference/, and at every seed it must pass
checks computed by bench/oracles.py without calling the code under test.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (bench/tracing.py).  Timings are rescaled to a reference speed
by a yardstick timed next to every operation (bench/speed.py); the raw wall
figures are printed too.  The last line of standard output is one JSON
object with correct, attempted, failed and metrics.

--record writes the reference outputs of the default seed; --limit N keeps
at most N operations of each kind (the self-test's tiny sizes).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from math import exp, lgamma, log
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import Y_REF_CHILD, Speed, child_yardstick  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 20260
SETUP_REPEATS = 5
CLI_PROBES = 5
PROGRAM = ("amalgam", "catalog", "cli", "formula", "graded", "intervals", "metric",
           "quenum", "rational", "reduction", "scprobe", "structures", "suite",
           "syntax", "textio", "urysohn", "vaught")

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "ok_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "intervals.calls": "count/op", "intervals.self_s": "s/op",
    "urysohn.eval_s": "s/op", "urysohn.self_s": "s/op", "urysohn.expand_ms": "ms/op",
    "urysohn.grid_points": "count/op", "urysohn.us_per_grid_point": "us",
    "formula.lipschitz_calls": "count/op", "formula.lipschitz_s": "s/op",
    "urysohn.mesh_halving_x": "x", "urysohn.nested_halving_x": "x",
    "metric.validate_calls": "count/op", "metric.validate_s": "s/op",
    "metric.validate_triples": "count/op",
    "quenum.enumerate_s": "s/op", "quenum.points_added": "count/op",
    "amalgam.amalgamate_s": "s/op",
    "structures.evaluate_calls": "count/op", "structures.evaluate_s": "s/op",
    "formula.wellformed_calls": "count/op", "formula.wellformed_s": "s/op",
    "structures.isometry_search_s": "s/op",
    "scprobe.probe_s": "s/op", "scprobe.families_examined": "count/op",
    "graded.oligo_s": "s/op", "graded.approx_s": "s/op", "graded.axioms_s": "s/op",
    "vaught.suite_s": "s/op", "suite.checks": "count/op",
    "reduction.orbit_equiv_s": "s/op",
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
    "textio.parse_ms": "ms/op", "catalog.put_ms": "ms", "catalog.get_ms": "ms",
    "cli.long_formula_defect": "count",
    "trace.overhead_pct": "%",
}


class SetupError(SystemExit):
    """Exit without a result line: the benchmark cannot run here."""

    def __init__(self, message):
        print(f"bench: {message}", file=sys.stderr)
        super().__init__(2)


def load_program() -> SimpleNamespace:
    """Import metriclogic afresh from ./src (a set-up cost every run pays)."""
    src = ROOT / "src"
    if not (src / "metriclogic" / "__init__.py").is_file():
        raise SetupError(f"no metriclogic sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n.split(".")[0] == "metriclogic"]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"metriclogic.{name}") for name in PROGRAM}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src):
        raise SetupError(f"metriclogic imported from outside {src}")
    return SimpleNamespace(**mods)


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def nested_enclosure(rendered: str, ref: str) -> bool:
    lo, hi = map(Fraction, rendered.split())
    rlo, rhi = map(Fraction, ref.split())
    return rlo <= lo <= hi <= rhi


class Gate:
    """Checks each output once; a repetition must reproduce the first output
    and shares its verdict, so a wrong operation fails every time it runs."""

    def __init__(self, reference):
        self.reference = reference         # op id -> render, or None
        self.first = {}                    # op id -> (render, problem)
        self.problems = []

    def verdict(self, op, out) -> str | None:
        rendered = op.render(out)
        if op.id in self.first:
            first, problem = self.first[op.id]
            return problem if rendered == first else "output changed between repetitions"
        problem = op.check(out)
        if problem is None and self.reference is not None:
            ref = self.reference.get(op.id)
            if ref is None:
                problem = "no reference output recorded"
            elif rendered != ref and not (op.enclosure and nested_enclosure(rendered, ref)):
                problem = f"differs from the reference: {rendered[:120]!r} vs {ref[:120]!r}"
        self.first[op.id] = (rendered, problem)
        return problem

    def run(self, op, rep, tracer=None):
        """One timed operation: (start, seconds, output or None, problem or None)."""
        if tracer is not None:
            tracer.begin_op(op.id)
        start = time.perf_counter()
        try:
            out, problem = op.call(rep), None
        except Exception as exc:  # a failed operation is counted, never dropped
            out, problem = None, f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        if problem is None:
            problem = self.verdict(op, out)
        if problem is not None:
            self.problems.append(f"{op.id}: {problem}")
            if len(self.problems) <= 5:
                print(f"bench: FAILED {op.id}: {problem}", file=sys.stderr)
        return start, took, out, problem


def setup(name, seed, limit, record, speed):
    """Import, generate inputs, load the reference, create temp catalogs.

    Repeated SETUP_REPEATS times; returns the median time, raw and rescaled.
    """
    m = workloads.WORKLOADS[name]
    raw, wl = [], None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        speed.sample()
        start = time.perf_counter()
        program = load_program()
        wl = m(program, random.Random(seed), limit)
        reference = None
        if seed == DEFAULT_SEED and not record:
            path = reference_path(name)
            if not path.is_file():
                raise SetupError(f"missing reference outputs {path}")
            stored = json.loads(path.read_text())
            if limit is None and stored["digest"] != wl.digest:
                raise SetupError(f"inputs digest {wl.digest} differs from the "
                                 f"reference's {stored['digest']}")
            reference = stored["outputs"]
        raw.append((start, time.perf_counter() - start))
    speed.sample()
    return (wl, reference, statistics.median(t for _, t in raw),
            statistics.median(speed.scaled(*r) for r in raw))


def closed_loop(wl, seconds, step, speed):
    """Passes over the pool until `seconds` are up and one whole pass is done.

    step(op, rep) runs one operation and returns whether it failed; the
    yardstick is sampled between operations.
    """
    attempted = failed = rep = 0
    start = time.perf_counter()
    try:
        while True:
            for op in wl.ops:
                speed.sample()
                attempted += 1
                failed += step(op, rep)
                if rep > 0 and time.perf_counter() - start >= seconds:
                    return attempted, failed
            rep += 1
            if time.perf_counter() - start >= seconds:
                return attempted, failed
    finally:
        speed.sample()


def percentile(values, q, steps=64):
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, the weights being the Beta((n+1)q,
    (n+1)(1-q)) mass of each rank's interval, integrated by Simpson's rule.
    It uses the ranks near q instead of one or two of them, so the estimate
    moves less with the noise of single operations.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)

    def pdf(t):
        return exp(log_norm + (a - 1) * log(t) + (b - 1) * log(1 - t)) if 0 < t < 1 else 0.0

    weights = []
    for i in range(n):
        lo, width = i / n, 1 / (n * steps)
        grid = [pdf(lo + k * width) for k in range(steps + 1)]
        weights.append(width / 3 * (grid[0] + grid[-1] + 4 * sum(grid[1:-1:2])
                                    + 2 * sum(grid[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def timing_metrics(per_op):
    return {"ops_per_s": len(per_op) / sum(per_op),
            "op_p50_ms": percentile(per_op, 0.5) * 1000,
            "op_p90_ms": percentile(per_op, 0.9) * 1000}


def measure(wl, gate, seconds, speed):
    samples = defaultdict(list)

    def step(op, rep):
        start, took, _, problem = gate.run(op, rep)
        samples[op.id].append((start, took))
        return problem is not None

    attempted, failed = closed_loop(wl, seconds, step, speed)
    raw = [statistics.median(t for _, t in samples[op.id]) for op in wl.ops]
    per_op = [statistics.median(speed.scaled(*s) for s in samples[op.id]) for op in wl.ops]
    kinds = defaultdict(list)
    for op, took in zip(wl.ops, per_op):
        kinds[op.id.rsplit("-", 1)[0]].append(took)
    print("per kind, sum of median op times: " + ", ".join(
        f"{kind} {sum(t) * 1000:.0f} ms/{len(t)}" for kind, t in sorted(kinds.items())))
    metrics = timing_metrics(per_op)
    beyond = sum(1 for t in per_op if t * 1000 > metrics["op_p90_ms"])
    print(f"{len(per_op)} operations timed over {attempted} runs; each operation's median "
          f"time is one sample, {beyond} samples lie beyond p90")
    print("raw wall time, not rescaled: " + ", ".join(
        f"{k} {v:.4g}" for k, v in timing_metrics(raw).items())
        + f"; yardstick speed ratio median {speed.overall():.3f}")
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    metrics.update({"ok_share": (attempted - failed) / attempted,
                    "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024})
    return attempted, failed, metrics


def subprocess_ms(argv) -> float:
    times = []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def traced(wl, gate, seconds, seed, speed):
    """Each operation once untraced, then once traced, until time is up."""
    tracer = tracing.Tracer()
    tracer.prepare(tracing.LAYERS)
    if wl.runner is not None:
        wl.runner.in_process = True
    plain, wrapped, ops = [], [], [0]
    counts = defaultdict(float)

    def step(op, rep):
        _, took, _, problem = gate.run(op, 2 * rep)
        plain.append(took)
        tracer.enable()
        try:
            _, took, out, problem2 = gate.run(op, 2 * rep + 1, tracer)
        finally:
            tracer.disable()
        wrapped.append(took)
        ops[0] += 1
        if out is not None:
            for key, val in op.counts(out).items():
                counts[key] += val
        return (problem or problem2) is not None

    attempted, failed = closed_loop(wl, seconds, step, speed)
    quiet = [layer for layer in wl.layers if tracer.calls[layer] == 0]
    if quiet:
        raise tracing.TraceError(
            f"{wl.name}: no calls recorded into {', '.join(quiet)}; a renamed or "
            f"bypassed function must not read as a gain")
    tracer.write(workloads.WORK / "traces" / f"{wl.name}-seed{seed}-{os.getpid()}.jsonl")

    n = ops[0]
    calls, busy, own = tracer.calls, tracer.busy, tracer.self_time
    counts.update(tracer.counts)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "intervals.calls": calls["intervals"] / n,
        "intervals.self_s": own["intervals"] / n,
        "urysohn.eval_s": busy["urysohn.eval"] / n,
        "urysohn.self_s": own["urysohn.eval"] / n,
        "urysohn.expand_ms": busy["urysohn.expand"] * 1000 / n,
        "urysohn.grid_points": counts["urysohn.grid_points"] / n,
        "urysohn.us_per_grid_point": busy["urysohn.eval"] * 1e6 / counts["urysohn.grid_points"]
        if counts["urysohn.grid_points"] else 0.0,
        "formula.lipschitz_calls": calls["formula.lipschitz"] / n,
        "formula.lipschitz_s": busy["formula.lipschitz"] / n,
        "metric.validate_calls": calls["metric.validate"] / n,
        "metric.validate_s": busy["metric.validate"] / n,
        "metric.validate_triples": counts["metric.validate_triples"] / n,
        "quenum.enumerate_s": busy["quenum.enumerate"] / n,
        "quenum.points_added": counts["quenum.points_added"] / n,
        "amalgam.amalgamate_s": busy["amalgam.amalgamate"] / n,
        "structures.evaluate_calls": calls["structures.evaluate"] / n,
        "structures.evaluate_s": busy["structures.evaluate"] / n,
        "formula.wellformed_calls": calls["formula.wellformed"] / n,
        "formula.wellformed_s": busy["formula.wellformed"] / n,
        "structures.isometry_search_s": busy["structures.isometry_search"] / n,
        "scprobe.probe_s": busy["scprobe.probe"] / n,
        "scprobe.families_examined": counts["scprobe.families_examined"] / n,
        "graded.oligo_s": busy["graded.oligo"] / n,
        "graded.approx_s": busy["graded.approx"] / n,
        "graded.axioms_s": busy["graded.axioms"] / n,
        "vaught.suite_s": busy["vaught.suite"] / n,
        "suite.checks": counts["suite.checks"] / n,
        "reduction.orbit_equiv_s": busy["reduction.orbit_equiv"] / n,
        "textio.parse_ms": busy["textio.parse"] * 1000 / n,
        "trace.overhead_pct": (sum(wrapped) / sum(plain) - 1) * 100,
    })
    for layer, name in (("cli.main", "cli.main_ms"), ("catalog.put", "catalog.put_ms"),
                        ("catalog.get", "catalog.get_ms")):
        if calls[layer]:
            metrics[name] = busy[layer] * 1000 / calls[layer]
    if wl.name == "cli_cold":
        interp = subprocess_ms(["-c", "pass"])
        metrics["cli.interp_ms"] = interp
        metrics["cli.import_ms"] = subprocess_ms(["-c", "import metriclogic.cli"]) - interp
    scale = speed.overall()                       # one ratio for the whole traced run
    for name, unit in PER_LAYER.items():
        if unit in ("s/op", "ms/op", "ms", "us"):
            metrics[name] *= scale
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write the reference outputs (default seed only)")
    ap.add_argument("--limit", type=int, help="at most this many operations per kind")
    args = ap.parse_args(argv)
    if args.record and (args.seed != DEFAULT_SEED or args.limit is not None):
        ap.error(f"references are recorded at the default seed {DEFAULT_SEED}, in full")
    os.chdir(ROOT)

    speed = Speed()
    wl, reference, setup_raw, setup_s = setup(args.workload, args.seed, args.limit,
                                              args.record, speed)
    try:
        print(f"workload {wl.name} seed {args.seed}: {len(wl.ops)} operations, "
              f"inputs digest {wl.digest}, set-up {setup_raw:.3f} s raw, "
              f"{setup_s:.3f} s rescaled (median of {SETUP_REPEATS})")
        gate = Gate(reference)
        if args.trace:
            attempted, failed, metrics = traced(wl, gate, args.seconds, args.seed, speed)
        else:
            if wl.runner is not None:       # operations are child processes
                speed = Speed(child_yardstick, Y_REF_CHILD)
            attempted, failed, metrics = measure(wl, gate, args.seconds, speed)
            metrics["setup_s"] = setup_s
        if args.trace:
            for name, probe in wl.probes.items():
                metrics[name] = probe()
        for name, probe in wl.known_defects.items():
            try:
                metrics[name] = probe()
                print(f"known defect {name}: {metrics[name]:g}")
            except RuntimeError as exc:
                gate.problems.append(f"{name}: {exc}")
                print(f"bench: FAILED {name}: {exc}", file=sys.stderr)
        if args.record:
            if gate.problems:
                raise SetupError("not recording outputs that fail the gate")
            path = reference_path(wl.name)
            path.write_text(json.dumps({"seed": DEFAULT_SEED, "digest": wl.digest,
                                        "outputs": {k: r for k, (r, _) in
                                                    sorted(gate.first.items())}},
                                       indent=1) + "\n")
            print(f"recorded {len(gate.first)} reference outputs in {path}")
    finally:
        wl.close()

    units = PER_LAYER if args.trace else END_TO_END
    for name in units:
        print(f"  {name:32s} {metrics[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not gate.problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except tracing.TraceError as exc:
        print(f"bench: trace failed: {exc}", file=sys.stderr)
        sys.exit(3)
