#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (one operation of each kind).

    python3 bench/selftest.py

1. Every workload, untraced and traced, ends its output with one JSON line
   that carries exactly the metrics BENCHMARK.json names, with their units,
   and passes the output gate.
2. The gate is live: an output corrupted on purpose is counted as failed,
   at the default seed and at another seed (the independent checks alone),
   and a corruption only the reference outputs can see fails at the default
   seed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def check_printed_metrics():
    end_to_end, per_layer, names = declared_metrics()
    assert sorted(names) == sorted(run.workloads.WORKLOADS), names
    for name in names:
        for trace, want in ((0, end_to_end), (1, per_layer)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(run.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace),
                 "--limit", "1"], cwd=ROOT, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, (name, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, (name, trace, proc.stderr)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, got)
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())
            for metric in want:                           # printed by name, with unit
                assert f" {metric} " in proc.stdout, (name, metric)
            print(f"ok   {name} --trace {trace}: {len(got)} metrics with units")


def corrupt_flat(op):
    """The widest enclosure: sound, but wider than the grid search allows."""
    enclosure = sys.modules["metriclogic.intervals"].Enclosure
    return lambda rep: enclosure(Fraction(0), Fraction(1))


def corrupt_finite(op):
    call = op.call
    return lambda rep: (call(rep) + Fraction(1, 8)) % 1


def corrupt_cli(op):
    call = op.call

    def wrong(rep):
        code, stdout, stderr = call(rep)
        if stdout.lstrip().startswith("{"):
            report = json.loads(stdout)
            report["result"]["coefficient"] += "1"
            return code, json.dumps(report), stderr
        return code, stdout.replace("  coefficient: ", "  coefficient: 1"), stderr
    return wrong


def corrupt_digest(op):
    """A wrong input digest: only the reference outputs can notice it."""
    call = op.call

    def wrong(rep):
        code, stdout, stderr = call(rep)
        return code, re.sub(r"[0-9a-f]{16}", "0" * 16, stdout), stderr
    return wrong


def check_gate_is_live():
    both = (run.DEFAULT_SEED, run.HELD_OUT_SEED)
    for name, kind, corrupt, seeds in (
            ("urysohn_flat", "2d_sup", corrupt_flat, both),
            ("finite_exact", "qf", corrupt_finite, both),
            ("cli_cold", "lipschitz", corrupt_cli, both),
            ("cli_cold", "validate", corrupt_digest, (run.DEFAULT_SEED,))):
        for seed in seeds:
            speed = run.Speed()
            wl, reference, _, _ = run.setup(name, seed, 1, False, speed)
            try:
                target = next(op for op in wl.ops if op.id.startswith(kind + "-"))
                target.call = corrupt(target)
                gate = run.Gate(reference)
                attempted, failed, _ = run.measure(wl, gate, 0, speed)
            finally:
                wl.close()
            assert failed == 1 and len(gate.problems) == 1, (name, seed, gate.problems)
            print(f"ok   {name} seed {seed}: corrupted {target.id} counted as failed "
                  f"({failed}/{attempted}): {gate.problems[0][:90]}")


if __name__ == "__main__":
    check_printed_metrics()
    check_gate_is_live()
    print("self-test passed")
