#!/usr/bin/env python3
"""Pipeline benchmark of txaccel: one `txaccel` command per op, each op in
a fresh process, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Workloads:

  generate-grid  `txaccel generate` on the paper's default grid
                 (240 sequences x 13 orders = 3120 S_N solves).
  evaluate-grid  `txaccel evaluate` with aitken, wynn and evolved on the
                 input dataset (3600 comparisons per op).
  evolve-fixed   `txaccel evolve --target 1.0 --gens 2 --seed 1` on the
                 input dataset (2 generations per op).

Set-up writes the stored reference dataset (reference/dataset.csv and its
dataset.meta sidecar, made by `txaccel generate --seed 0` on the default
grid) as the input of evaluate-grid and evolve-fixed, so that their counts
do not move when transport changes in the last digits.  It runs
SETUP_REPEATS times and `setup_s` is its median.  Then ops run until S seconds have passed.  Every
op's outputs are checked (checks.py); an op fails on a non-zero exit, an
exception or a failed check.  With --trace 1 every second op is traced
(spans.py) and the per-layer metrics come from the traced ops.  The
metrics and their units are those listed in BENCHMARK.json.  The last line
of output is one JSON object with the keys correct, attempted, failed and
metrics; a fuller record, with the machine block, goes to
.perfbench/results/, next to the spans of the last traced op.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import selftest
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RESULTS = WORK / "results"
CHILD = HERE / "child.py"

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
IMPORTTIME_REPEATS = 3

#: Per-layer metrics that count work.  They must repeat exactly from one
#: traced op to the next, so the first traced op's value is reported.
COUNTS = (".calls", ".distinct_orders")

GRID_SOLVES = checks.GRID_SEQUENCES * checks.GRID_ORDERS
EVALUATE_COMPARISONS = checks.COMPARISONS_PER_METHOD * len(checks.EXPECTED_WINS)

# The search's cost depends on its seed: over seeds 1..10, five generations
# took 3.8 to 8.0 s (2 cores, Python 3.11, numpy 2.4).  Every run searches
# with the same seed, so an op does the same work whatever the workload
# seed, and its counts repeat exactly.  Two generations keep an op near 4 s,
# so that a run holds enough ops for a steady median.
EVOLVE_SEED = 1
EVOLVE_GENERATIONS = 2


class SetupError(Exception):
    """Set-up could not start the program."""


class Workload:
    def setup(self, bench):
        """Writes the stored reference dataset and its metadata sidecar where
        the ops read their input and starts the program once, so that the
        ops find its bytecode compiled.  Returns that start's import time,
        one more import_s sample."""
        text = checks.REFERENCE_DATASET.read_text()
        self.reference = checks.load_reference(text)
        self.dataset = bench.work / "input" / "dataset.csv"
        self.dataset.parent.mkdir(exist_ok=True)
        self.dataset.write_text(text)
        shutil.copyfile(checks.REFERENCE_DATASET.with_suffix(".meta"),
                        self.dataset.with_suffix(".meta"))
        return bench.start_program()


class GenerateGrid(Workload):
    """Quadrature and transport do the work; sequences writes the result."""

    work_per_op = GRID_SOLVES
    work_name = "solves_per_s"

    def argv(self, bench, out):
        return ["generate", "--out", str(out / "dataset.csv"), "--seed", str(bench.seed)]

    def check(self, out):
        return checks.check_dataset((out / "dataset.csv").read_text(), self.reference)


class EvaluateGrid(Workload):
    """Sequences reads; accelerators and benchmark score in Python loops."""

    work_per_op = EVALUATE_COMPARISONS
    work_name = "comparisons_per_s"

    def argv(self, bench, out):
        return ["evaluate", "--data", str(self.dataset), "--out", str(out)]

    def check(self, out):
        return checks.check_report((out / "report.csv").read_text())


class EvolveFixed(Workload):
    """Kernels, the p-optimiser and trees do the work; transport is idle."""

    work_per_op = EVOLVE_GENERATIONS
    work_name = "generations_per_s"
    first = None

    def argv(self, bench, out):
        return ["evolve", "--data", str(self.dataset), "--target", "1.0",
                "--gens", str(EVOLVE_GENERATIONS), "--seed", str(EVOLVE_SEED),
                "--out", str(out)]

    def check(self, out):
        files = {name: (out / name).read_text() for name in ("formula.txt", "runlog.csv")}
        problems = checks.check_runlog(files["runlog.csv"], EVOLVE_GENERATIONS)
        if self.first is None:
            self.first = files
        return problems + checks.check_identical(self.first, files)


WORKLOADS = {"generate-grid": GenerateGrid, "evaluate-grid": EvaluateGrid,
             "evolve-fixed": EvolveFixed}


class Bench:
    """One run: the work directory, the child processes and their results."""

    def __init__(self, workload, seed):
        self.seed = seed
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        RESULTS.mkdir(parents=True, exist_ok=True)
        self.spans_path = RESULTS / f"{workload}-spans.csv"
        # The program reads TXACCEL_* settings (backend, default seed); the
        # ops run with its defaults whatever the caller's environment says.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("TXACCEL_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.children = 0

    def _spawn(self, cmd):
        return subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)

    def run_child(self, cli_args, spans_path=None):
        """The child's result dict, or a string saying why there is none."""
        self.children += 1
        result_path = self.work / f"child-{self.children}.json"
        cmd = [sys.executable, str(CHILD), str(result_path)]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        try:
            proc = self._spawn(cmd + ["--"] + cli_args)
        except subprocess.TimeoutExpired:
            return f"no result within {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return f"child exited with {proc.returncode}: {tail[0]}"
        result = json.loads(result_path.read_text())
        result_path.unlink()
        return result

    def start_program(self):
        """Imports txaccel.cli in a child, which must succeed."""
        result = self.run_child([])
        if isinstance(result, str):
            raise SetupError(result)
        return result["import_s"]

    def importtime(self, module):
        """Cumulative import time of `module` in seconds, from -X importtime."""
        proc = self._spawn([sys.executable, "-X", "importtime", "-c", "import txaccel.cli"])
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == module:
                return int(fields[1]) * 1e-6
        return 0.0


def run_op(bench, workload, index, traced):
    out = bench.work / "ops" / str(index)
    out.mkdir(parents=True)
    result = bench.run_child(workload.argv(bench, out),
                             bench.spans_path if traced else None)
    if isinstance(result, str):
        result = {"problems": [result], "main_s": None}
    elif result["error"]:
        result["problems"] = [result["error"].strip().splitlines()[-1]]
    elif result["exit_code"] != 0:
        result["problems"] = [f"exit code {result['exit_code']}"]
    else:
        try:
            result["problems"] = workload.check(out)
        except OSError as exc:
            result["problems"] = [f"missing output: {exc}"]
    shutil.rmtree(out)
    result["traced"] = traced
    return result


def tail(values):
    """(value, percentile) at the highest nearest-rank percentile with at
    least 10 samples above it, but never below p75: a run of fewer than 40
    ops has fewer than 10 samples above its p75."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, math.ceil(0.75 * n))
    return ordered[rank - 1], 100.0 * rank / n


def cpu_ticks():
    """The host's summed CPU ticks and its steal ticks (time the hypervisor
    gave this guest's CPUs to others), or None where /proc/stat is missing."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


def steal_share(start, end):
    if start is None or end is None or end[0] == start[0]:
        return None
    return (end[1] - start[1]) / (end[0] - start[0])


def machine():
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "txaccel").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    numba = subprocess.run([sys.executable, "-c", "import numba"], capture_output=True)
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_imports": numba.returncode == 0,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
        "cpu_ticks_start": cpu_ticks(),
    }


def measure(name, seed, seconds, trace):
    workload = WORKLOADS[name]()
    bench = Bench(name, seed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine()}

    setup_s, setup_import_s = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        setup_import_s.append(workload.setup(bench))
        setup_s.append(time.perf_counter() - started)

    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline or (trace and len(ops) < 2):
        ops.append(run_op(bench, workload, len(ops), traced=trace and len(ops) % 2 == 1))
    failed = sum(1 for op in ops if op["problems"])
    correct = failed == 0

    plain = [op for op in ops if not op["traced"] and not op["problems"]]
    metrics = {}
    if not trace:
        if plain:
            main_s = [op["main_s"] for op in plain]
            metrics["op_s.p50"] = statistics.median(main_s)
            metrics["op_s.tail"], record["tail_percentile"] = tail(main_s)
            metrics["import_s"] = statistics.median(
                setup_import_s + [op["import_s"] for op in plain])
            metrics["work_per_s"] = workload.work_per_op * len(plain) / sum(main_s)
            metrics["peak_rss_mb"] = statistics.median(op["peak_rss_mb"] for op in plain)
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["success_rate"] = (len(ops) - failed) / len(ops)
    else:
        traced = [op for op in ops if op["traced"] and not op["problems"]]
        layers = [spans.layer_metrics(op["trace"]) for op in traced]
        for key in (layers[0] if layers else {}):
            values = [layer[key] for layer in layers]
            metrics[key] = values[0] if key.endswith(COUNTS) else statistics.median(values)
        record["counts_repeat"] = all(
            layer[key] == layers[0][key] for layer in layers for key in layer
            if key.endswith(COUNTS))
        correct = correct and record["counts_repeat"]
        record["absent"] = traced[0]["trace"]["absent"] if traced else []
        metrics["evolution.import_s"] = statistics.median(
            bench.importtime("txaccel.evolution") for _ in range(IMPORTTIME_REPEATS))
        if traced and plain:
            metrics["trace.overhead"] = (
                statistics.median(op["main_s"] for op in traced)
                / statistics.median(op["main_s"] for op in plain))

    record["machine"]["loadavg_end"] = os.getloadavg()
    record["machine"]["steal_share"] = steal_share(
        record["machine"].pop("cpu_ticks_start"), cpu_ticks())
    record.update(setup_s=setup_s, ops=[
        {k: v for k, v in op.items() if k != "trace"} for op in ops])
    shutil.rmtree(bench.work, ignore_errors=True)
    return record, metrics, correct, len(ops), failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "txaccel" / "cli.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'txaccel'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    wrong = selftest.run()
    if wrong:
        sys.exit(f"error: output checks misjudge their self-test cases: {wrong}")

    try:
        record, metrics, correct, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        sys.exit(f"error: set-up failed: {exc}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"error: no value for {missing}")

    record["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"machine: {m['cores']} cores, Python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, numba imports: {m['numba_imports']}, "
          f"load {m['loadavg_start'][0]:.2f} -> {m['loadavg_end'][0]:.2f}, "
          f"steal share {m['steal_share'] or 0:.3f}, "
          f"commit {m['commit']}, source {m['source_sha256'][:12]}")
    print(f"{args.workload}: {attempted} ops, {failed} failed, set-up "
          + ", ".join(f"{s:.3f}" for s in record["setup_s"]) + " s")
    for i, op in enumerate(record["ops"]):
        for problem in op["problems"]:
            print(f"  op {i}: {problem}")
    for name, entry in record["metrics"].items():
        alias = f" ({WORKLOADS[args.workload].work_name})" if name == "work_per_s" else ""
        print(f"  {name}{alias} = {entry['value']:.6g} {entry['unit']}")
    if "tail_percentile" in record:
        plain = sum(1 for op in record["ops"] if not op["traced"])
        print(f"  op_s.tail is the p{record['tail_percentile']:.1f} of {plain} ops; "
              f"error_rate = {failed}/{attempted}")
    if args.trace:
        print(f"  counts repeat across traced ops: {record['counts_repeat']}; "
              f"absent names: {record['absent'] or 'none'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
