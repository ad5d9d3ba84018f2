"""The pipeline benchmark's traced op (perfbench/child.py with --spans) on
small inputs: every traced layer's notes must accept what the program now
returns, or the benchmark's traced runs fail."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def traced_op(tmp_path, name, *cli_args):
    result_path = tmp_path / f"{name}.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(result_path),
         "--spans", str(tmp_path / f"{name}-spans.csv"), "--", *cli_args],
        cwd=PERFBENCH, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result_path.read_text())


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    data = tmp / "dataset.csv"
    formula = tmp / "formula.txt"
    formula.write_text("(formula :p 0.5 :num (sub (mul Sn (d2)) (sq (sub Sn Snm1)))"
                       " :den (d2))\n")
    return {
        "generate": traced_op(tmp, "generate", "generate", "--out", str(data),
                              "--c-count", "4", "--widths", "1,5"),
        "evaluate": traced_op(tmp, "evaluate", "evaluate", "--data", str(data),
                              "--positions", "20,28", "--out", str(tmp / "eval")),
        "evaluate-formula": traced_op(tmp, "evaluate-formula", "evaluate", "--data",
                                      str(data), "--formula", str(formula),
                                      "--positions", "20,28",
                                      "--out", str(tmp / "eval-formula")),
        "evolve": traced_op(tmp, "evolve", "evolve", "--data", str(data),
                            "--gens", "1", "--pop", "6", "--target", "1.0",
                            "--positions", "20,28", "--out", str(tmp / "evolve")),
    }


@pytest.mark.parametrize("command", ["generate", "evaluate", "evaluate-formula",
                                     "evolve"])
def test_traced_op_succeeds(traced_runs, command):
    result = traced_runs[command]
    assert result["error"] is None
    assert result["exit_code"] == 0
    assert result["trace"]["names"]


def test_formula_evaluate_runs_the_traced_kernel(traced_runs):
    # A --formula method is scored on the kernel, so its calls reach the
    # kernels.evaluate_program note, which reads the window argument.
    names = traced_runs["evaluate-formula"]["trace"]["names"]
    assert names["kernels.evaluate_program"]["calls"] == 1
    assert traced_runs["evaluate-formula"]["trace"]["windows"] > 0
