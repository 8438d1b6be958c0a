"""Spans around calls into metriclogic's layers, recorded from outside.

Only the traced run installs the wrappers.  A wrapper replaces a function in
every metriclogic module namespace that holds it (or only in the consumer
modules named, for "as called from urysohn"), so calls bound by
`from .x import f` are seen too.  Calls made outside an operation (set-up,
the output gate) pass straight through.

Coarse layers keep one span each (name, start, end, parent, operation id).
Hot leaves, called up to a million times a run, keep per-layer call counts
and busy and self times only.  Self time is a call's duration minus the
time its wrapped children took.
"""

from __future__ import annotations

import fnmatch
import json
import sys
import time
from collections import defaultdict
from math import comb

# layer -> (defining module, function names or patterns, consumer modules, hot)
LAYERS = {
    "intervals": ("intervals", ["enc_*"], ["urysohn"], True),
    "urysohn.eval": ("urysohn", ["eval_urysohn"], None, False),
    "urysohn.expand": ("urysohn", ["expand_predicates"], ["urysohn"], False),
    "formula.lipschitz": ("formula", ["lipschitz"], ["urysohn"], True),
    "metric.validate": ("metric", ["validate_table"], None, True),
    "quenum.enumerate": ("quenum", ["qu_enumerate"], None, False),
    "amalgam.amalgamate": ("amalgam", ["amalgamate"], None, False),
    "structures.evaluate": ("structures", ["evaluate"], None, True),
    "formula.wellformed": ("formula", ["check_wellformed"], None, True),
    "structures.isometry_search": ("structures", ["space_isometries", "automorphisms"],
                                   None, False),
    "scprobe.probe": ("scprobe", ["sc_probe"], None, False),
    "graded.oligo": ("graded", ["oligo_probe"], None, False),
    "graded.approx": ("graded", ["approx_search"], None, False),
    "graded.axioms": ("graded", ["check_graded_axioms"], None, False),
    "vaught.suite": ("suite", ["run_suite"], None, False),
    "reduction.orbit_equiv": ("reduction", ["orbit_equiv"], None, False),
    "cli.main": ("cli", ["main"], None, False),
    "textio.parse": ("textio", ["parse_*"], None, True),
    "catalog.put": ("catalog", ["Catalog.put"], None, False),
    "catalog.get": ("catalog", ["Catalog.get"], None, False),
}


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans = []                    # [name, start, end, parent, op]
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)   # work measured from call arguments
        self.op = None
        self._stack = []                   # [child time, span index or None]
        self._patches = []                 # (owner, name, original, wrapper)

    # ----------------------------------------------------------- recording
    def begin_op(self, op_id):
        self.op = op_id
        self.spans.append(["op", time.perf_counter(), None, None, op_id])
        self._stack = [[0.0, len(self.spans) - 1]]

    def end_op(self):
        self.spans[self._stack[0][1]][2] = time.perf_counter()
        self.op, self._stack = None, []

    def _wrap(self, layer, fn, hot):
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = next(f[1] for f in reversed(stack) if f[1] is not None)
            index = None
            if not hot:
                index = len(self.spans)
                self.spans.append([layer, None, None, parent, self.op])
            frame = [0.0, index]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                took = end - start
                stack[-1][0] += took
                self.calls[layer] += 1
                self.busy[layer] += took
                self.self_time[layer] += took - frame[0]
                if index is not None:
                    self.spans[index][1:3] = [start, end]
                if layer == "metric.validate":
                    self.counts["metric.validate_triples"] += comb(len(args[0]), 3)
        return wrapper

    # ------------------------------------------------------------- install
    def prepare(self, layers):
        """Build the wrappers; enable() and disable() swap them in and out."""
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("metriclogic.") and mod is not None}
        for layer in layers:
            home, names, consumers, hot = LAYERS[layer]
            module = mods[home]
            for pattern in names:
                if "." in pattern:                     # a method: Class.name
                    cls_name, meth = pattern.split(".")
                    cls = getattr(module, cls_name)
                    fn = getattr(cls, meth)
                    self._patches.append((cls, meth, fn, self._wrap(layer, fn, hot)))
                    continue
                found = [n for n, v in vars(module).items()
                         if fnmatch.fnmatchcase(n, pattern) and callable(v)
                         and getattr(v, "__module__", "") == module.__name__]
                if not found:
                    raise TraceError(f"layer {layer}: no function {home}.{pattern}")
                for n in found:
                    fn = getattr(module, n)
                    wrapped = self._wrap(layer, fn, hot)
                    holders = [mods[c] for c in consumers] if consumers else \
                        [mod for mod in mods.values()
                         if any(v is fn for v in vars(mod).values())]
                    for mod in holders:
                        for key, val in list(vars(mod).items()):
                            if val is fn:
                                self._patches.append((mod, key, fn, wrapped))

    def enable(self):
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def disable(self):
        for owner, key, fn, _ in self._patches:
            setattr(owner, key, fn)

    # -------------------------------------------------------------- output
    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({"calls": self.calls, "busy_s": self.busy,
                                  "self_s": self.self_time, "counts": self.counts}) + "\n")
