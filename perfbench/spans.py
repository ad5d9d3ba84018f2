"""Span tracing of txaccel's layers from outside the package.

`Tracer.install` wraps the public functions of each layer in the module
that looks them up (`txaccel.transport.gauss_legendre`,
`txaccel.evolution.evaluate_program`, ...), so a call is traced only where
that module makes it and the package's own code is untouched.  Each call
records a span: id, name, start, end, parent span id (-1 for none) and
thread id.  Spans stay in memory until `write` puts them in a CSV file;
`summary` reduces them to calls, total time and self time per name, where
self time is a span's duration minus the part of it that its child spans
cover.

`generate` and `evaluate` fan out over a thread pool.  A span opened on a
worker thread with nothing open on that thread takes the innermost span
open on the main thread as its parent, which is the call that is waiting
for the pool.  Spans on different threads overlap in wall time, so a self
time summed over threads can exceed the op's wall time.

A name the program no longer has, or no longer calls, yields no spans; its
per-layer metrics read 0 and it is listed under `absent`.

`layer_metrics` maps a summary to the benchmark's per-layer metrics.  This
module imports nothing from txaccel at import time.
"""

import functools
import importlib
import itertools
import threading
import time
import types
from collections import defaultdict

#: (module that looks the name up, attribute path, span name).
TARGETS = (
    ("txaccel.cli", "generate_grid", "transport.generate_grid"),
    ("txaccel.cli", "write_dataset", "sequences.write_dataset"),
    ("txaccel.cli", "load_dataset", "sequences.load_dataset"),
    ("txaccel.cli", "run_benchmark", "benchmark.run_benchmark"),
    ("txaccel.cli", "evolve", "evolution.evolve"),
    ("txaccel.transport", "gauss_legendre", "quadrature.gauss_legendre"),
    ("txaccel.transport", "solve_sn", "transport.solve_sn"),
    ("txaccel.transport", "np.linalg.eig", "transport.eig"),
    ("txaccel.transport", "np.linalg.cond", "transport.cond"),
    ("txaccel.transport", "np.linalg.solve", "transport.boundary_solve"),
    ("txaccel.benchmark", "apply_accelerator", "accelerators.apply_accelerator"),
    ("txaccel.evolution", "evaluate_program", "kernels.evaluate_program"),
    ("txaccel.evolution", "compile_formula", "kernels.compile_formula"),
    ("txaccel.evolution", "crossover", "trees.crossover"),
    ("txaccel.evolution", "mutate", "trees.mutate"),
    ("txaccel.evolution", "random_tree", "trees.random_tree"),
    ("txaccel.evolution", "minimize", "evolution.optimizer"),
    ("txaccel.evolution", "FitnessEvaluator.fitness_program",
     "evolution.fitness_program"),
)

ROOT = "cli.main"
VARIATION = ("trees.crossover", "trees.mutate", "trees.random_tree")


class _Overlay:
    """Stands in for a module inside one importer: names set on the overlay
    shadow the module's, every other name resolves in the module."""

    def __init__(self, module):
        self.__dict__.update(vars(module))
        self._module = module

    def __getattr__(self, name):  # names the module creates lazily
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        # One (id, name, start, end, parent id, thread id) tuple per finished
        # call.  Tuples of atomic values leave the cyclic garbage collector's
        # tracking, so a long run's spans do not slow its collections.
        self.spans = []
        self.absent = []
        # Per-call values that the metrics need besides time.
        self.orders = []      # gauss_legendre order argument
        self.conditions = []  # cond return value
        self.windows = []     # rows of the evaluate_program window matrix
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._local.stack = []

    def wrap(self, name, fn, note=None):
        spans, local, main_stack = self.spans, self._local, self._main_stack
        clock, thread_id, new_id = time.perf_counter, threading.get_ident, self._ids.__next__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            span_id = new_id()
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, thread_id()))
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every TARGETS entry that the imported package still has."""
        notes = {
            "quadrature.gauss_legendre": lambda a, k, r: self.orders.append(
                int(_argument(a, k, 0, "order"))),
            "transport.cond": lambda a, k, r: self.conditions.append(float(r)),
            "kernels.evaluate_program": lambda a, k, r: self.windows.append(
                len(_argument(a, k, 1, "windows"))),
        }
        for module_name, path, name in TARGETS:
            holder = importlib.import_module(module_name)
            *parents, leaf = path.split(".")
            for part in parents:
                child = getattr(holder, part, None)
                if isinstance(child, types.ModuleType):
                    child = _Overlay(child)
                    setattr(holder, part, child)
                holder = child
            fn = getattr(holder, leaf, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            setattr(holder, leaf, self.wrap(name, fn, notes.get(name)))

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,thread\n")
            for span_id, name, start, end, parent, thread in sorted(self.spans):
                fh.write(f"{span_id},{name},{start!r},{end!r},{parent},{thread}\n")

    def summary(self):
        """Calls, total seconds and self seconds per span name."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[4]].append((span[2], span[3]))
        names = {}
        for span_id, name, start, end, _, _ in self.spans:
            covered = _union(sorted((max(a, start), min(b, end))
                                    for a, b in children.get(span_id, ())))
            entry = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return {
            "names": names,
            "absent": self.absent,
            "distinct_orders": len(set(self.orders)),
            "max_condition": max(self.conditions, default=0.0),
            "windows": sum(self.windows),
        }


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _union(intervals):
    """Length covered by sorted (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in intervals:
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(summary):
    """The benchmark's per-layer metrics from one traced op's summary.

    Times are seconds per op unless the name ends in `.us` (mean
    microseconds per call) or `.ns_per_window`.  A layer that the op does
    not reach reads 0.
    """
    names = summary["names"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0)

    def mean_us(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    formulas = calls("kernels.compile_formula")
    windows = summary["windows"]
    return {
        "quadrature.gauss_legendre.calls": calls("quadrature.gauss_legendre"),
        "quadrature.gauss_legendre.distinct_orders": summary["distinct_orders"],
        "quadrature.gauss_legendre.self_s": self_s("quadrature.gauss_legendre"),
        "transport.solve_sn.calls": calls("transport.solve_sn"),
        "transport.solve_sn.us": mean_us("transport.solve_sn"),
        "transport.solve_sn.self_s": self_s("transport.solve_sn"),
        "transport.eig.self_s": self_s("transport.eig"),
        "transport.cond.self_s": self_s("transport.cond"),
        "transport.boundary_solve.self_s": self_s("transport.boundary_solve"),
        "transport.boundary_cond.max": summary["max_condition"],
        "transport.generate_grid.self_s": self_s("transport.generate_grid"),
        "sequences.write_dataset.s": total("sequences.write_dataset"),
        "sequences.load_dataset.s": total("sequences.load_dataset"),
        "accelerators.apply_accelerator.calls": calls("accelerators.apply_accelerator"),
        "accelerators.apply_accelerator.us": mean_us("accelerators.apply_accelerator"),
        "benchmark.run_benchmark.self_s": self_s("benchmark.run_benchmark"),
        "kernels.evaluate_program.calls": calls("kernels.evaluate_program"),
        "kernels.evaluate_program.us": mean_us("kernels.evaluate_program"),
        "kernels.ns_per_window": (1e9 * total("kernels.evaluate_program") / windows
                                  if windows else 0.0),
        "kernels.compile_formula.calls": formulas,
        "trees.variation.self_s": sum(self_s(name) for name in VARIATION),
        "evolution.fitness_program.calls": calls("evolution.fitness_program"),
        "evolution.fitness_program.us": mean_us("evolution.fitness_program"),
        "evolution.fitness_calls_per_formula": (
            calls("evolution.fitness_program") / formulas if formulas else 0.0),
        "evolution.optimizer.self_s": self_s("evolution.optimizer"),
        "evolution.evolve.self_s": self_s("evolution.evolve"),
        "cli.self_s": self_s(ROOT),
    }
