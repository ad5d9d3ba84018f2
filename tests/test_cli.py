import hashlib
from pathlib import Path

import numpy as np
import pytest

from test_api import SUBCOMMAND_FLAGS
from txaccel import __version__
from txaccel.cli import main
from txaccel.sequences import load_dataset
from txaccel.trees import parse


def run(*argv):
    return main(list(argv))


def read_pairs(path):
    """The key=value lines of a manifest or a .meta sidecar, in file order."""
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def manifest_times(directory):
    """The manifest's stage timings and its duration, in file order."""
    pairs = read_pairs(directory / "manifest.txt")
    return {key: float(value) for key, value in pairs.items()
            if key.endswith("_s")}


def check_stage_times(directory, stages):
    times = manifest_times(directory)
    assert list(times) == [*stages, "duration_s"]
    assert all(seconds >= 0.0 for seconds in times.values())
    # Each figure is rounded to 1 ms; the stages lie within the duration.
    assert sum(times[stage] for stage in stages) <= times["duration_s"] + 0.002


@pytest.fixture()
def tiny_dataset(tmp_path):
    out = tmp_path / "data" / "tiny.csv"
    code = run("generate", "--out", str(out), "--seed", "1",
               "--c-count", "4", "--widths", "1,2")
    assert code == 0
    return out


class TestGenerate:
    def test_writes_dataset_meta_and_manifest(self, tiny_dataset):
        seqs = load_dataset(tiny_dataset)
        assert len(seqs) == 8
        assert all(len(s.values) == 13 for s in seqs)
        meta = read_pairs(tiny_dataset.with_suffix(".meta"))
        assert meta["seed"] == "1"
        assert meta["sequence_count"] == "8"
        manifest = (tiny_dataset.parent / "manifest.txt").read_text()
        assert "command=generate" in manifest
        assert "seed=1" in manifest
        check_stage_times(tiny_dataset.parent, ["solve_s", "write_s"])

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("generate", "--out", str(out), "--seed", "7",
                       "--c-count", "3", "--widths", "1") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_golden_dataset_bytes(self, tmp_path):
        # Pins the transport's values and the writer's formatting together.
        out = tmp_path / "dataset.csv"
        assert run("generate", "--out", str(out), "--seed", "3",
                   "--c-count", "7", "--widths", "0.5,3,30", "--n-step", "2",
                   "--n-max", "64") == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3e73bef0b4d77edd6e44b8235476fb7ae1cf0e33de1f4c10ce06edc5b1c07e5f")

    def test_golden_default_dataset(self, tmp_path):
        # The default grid byte for byte; the reference check compares the
        # same values only to 1e-12.
        out = tmp_path / "dataset.csv"
        assert run("generate", "--out", str(out), "--seed", "0") == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "50707bea706aeb162591735f2236cacdc63c00f69ce036e8d9c5195ebb9c5a10")

    def test_row_count_of_default_shape(self, tiny_dataset):
        lines = tiny_dataset.read_text().splitlines()
        assert len(lines) == 1 + 8 * 13

    def test_invalid_grid_is_usage_error(self, tmp_path):
        assert run("generate", "--out", str(tmp_path / "x.csv"),
                   "--c-count", "0", "--widths", "1") == 2

    def test_nan_width_is_usage_error(self, tmp_path, capsys):
        assert run("generate", "--out", str(tmp_path / "x.csv"),
                   "--c-count", "2", "--widths", "1,nan") == 2
        assert "widths must be positive" in capsys.readouterr().err

    def test_infinite_width_is_the_infinite_medium(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run("generate", "--out", str(out), "--c-count", "2",
                   "--widths", "inf") == 0
        for seq in load_dataset(out):
            np.testing.assert_allclose(seq.values, 1.0 / (1.0 - seq.c),
                                       rtol=1e-12)

    @pytest.mark.parametrize("step", ["0", "-4"])
    def test_step_below_one_is_usage_error(self, tmp_path, capsys, step):
        assert run("generate", "--out", str(tmp_path / "x.csv"),
                   "--n-step", step) == 2
        assert "--n-step must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("orders", [
        ["--n-min", "3"], ["--n-min", "2"], ["--n-max", "66", "--n-step", "2"]])
    def test_unsupported_order_is_usage_error(self, tmp_path, capsys, orders):
        assert run("generate", "--out", str(tmp_path / "x.csv"),
                   "--c-count", "2", "--widths", "1", *orders) == 2
        assert "order must be even" in capsys.readouterr().err

    def test_numerical_failure_prints_diagnostics(self, tmp_path, capsys,
                                                  monkeypatch):
        import txaccel.transport as transport_module

        monkeypatch.setattr(transport_module, "MAX_BOUNDARY_CONDITION", 1.0)
        assert run("generate", "--out", str(tmp_path / "x.csv"),
                   "--c-count", "2", "--widths", "1") == 4
        err = capsys.readouterr().err
        assert "condition=" in err and "width=" in err

    def test_thin_near_critical_slab_prints_the_readme_example(
            self, tmp_path, capsys):
        # README's example of exit code 4, byte for byte: the SVD decides
        # the check and the reported condition number.
        assert run("generate", "--out", str(tmp_path / "x.csv"),
                   "--c-min", "0.999999", "--c-max", "0.999999",
                   "--c-count", "1", "--widths", "0.05") == 4
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("--c-count 1 --widths 0.05` prints\n\n```\n",
                               1)[1].split("```", 1)[0]
        assert capsys.readouterr().err == example

    def test_widths_are_recorded_exactly(self, tmp_path):
        # The manifest and the sidecar spell each width as the CSV reads
        # it back; 6 significant digits (1.23457) would not.
        out = tmp_path / "dataset.csv"
        assert run("generate", "--out", str(out), "--c-count", "2",
                   "--widths", "1.23456789,2,0.5", "--n-max", "8") == 0
        text = "1.23456789,2,0.5"
        assert read_pairs(tmp_path / "manifest.txt")["widths"] == text
        assert read_pairs(out.with_suffix(".meta"))["widths_mfp"] == text
        assert [s.width_mfp for s in load_dataset(out)] == 2 * [
            float(w) for w in text.split(",")]

    def test_golden_sidecar(self, tmp_path):
        # Every key in order: the grid is the unit problem on a log c grid,
        # and the seed is recorded only.
        out = tmp_path / "dataset.csv"
        assert run("generate", "--out", str(out), "--seed", "1",
                   "--c-count", "2", "--widths", "1") == 0
        assert out.with_suffix(".meta").read_text() == (
            "c_min=0.001\n"
            "c_max=0.999\n"
            "c_count=2\n"
            "c_spacing=log\n"
            "widths_mfp=1\n"
            "orders=4,8,12,16,20,24,28,32,36,40,44,48,52\n"
            "sigma_t=1.0\n"
            "source=1.0\n"
            "seed=1\n"
            "sequence_count=2\n"
            f"artifact_version={__version__}\n")


class TestEvolve:
    def test_small_run_outputs(self, tiny_dataset, tmp_path):
        out = tmp_path / "run1"
        code = run("evolve", "--data", str(tiny_dataset), "--pop", "6",
                   "--gens", "2", "--seed", "3", "--out", str(out))
        assert code == 0
        formula = parse((out / "formula.txt").read_text())
        assert formula is not None
        runlog = (out / "runlog.csv").read_text().splitlines()
        assert runlog[0] == "generation,best_fitness,mean_fitness,evals"
        best = [float(line.split(",")[1]) for line in runlog[1:]]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
        check_stage_times(out, ["load_s", "search_s", "write_s"])
        assert (out / "summary.txt").exists()

    def test_identical_seed_identical_formula_bytes(self, tiny_dataset, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run("evolve", "--data", str(tiny_dataset), "--pop", "6",
                       "--gens", "2", "--seed", "9", "--out", str(out)) == 0
        assert (outs[0] / "formula.txt").read_bytes() == \
            (outs[1] / "formula.txt").read_bytes()
        assert (outs[0] / "runlog.csv").read_bytes() == \
            (outs[1] / "runlog.csv").read_bytes()

    def test_short_sequences_are_a_data_error(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        assert run("generate", "--out", str(short), "--c-count", "2",
                   "--widths", "1", "--n-max", "12") == 0
        code = run("evolve", "--data", str(short), "--pop", "4", "--gens", "1",
                   "--seed", "0", "--out", str(tmp_path / "r"))
        assert code == 3
        assert "insufficient window" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["0.0", "1.0"])
    def test_split_outside_unit_interval_is_usage_error(self, tiny_dataset,
                                                       tmp_path, split):
        assert run("evolve", "--data", str(tiny_dataset), "--pop", "4",
                   "--gens", "1", "--split", split,
                   "--out", str(tmp_path / "r")) == 2

    def test_split_leaving_no_validation_is_usage_error(self, tmp_path, capsys):
        # round(0.9 * 3) = 3 training sequences would leave none to validate.
        data = tmp_path / "three.csv"
        assert run("generate", "--out", str(data), "--c-count", "3",
                   "--widths", "1") == 0
        out = tmp_path / "r"
        assert run("evolve", "--data", str(data), "--pop", "4", "--gens", "1",
                   "--split", "0.9", "--out", str(out)) == 2
        assert "3 training and 0 validation" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_generations_is_usage_error(self, tiny_dataset, tmp_path,
                                                 capsys):
        out = tmp_path / "r"
        assert run("evolve", "--data", str(tiny_dataset), "--pop", "4",
                   "--gens", "-3", "--out", str(out)) == 2
        assert "max_generations must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_is_a_data_error(self, tmp_path):
        assert run("evolve", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "r")) == 3

    @pytest.mark.parametrize("positions", ["", "20,20", "28,20"])
    def test_bad_positions_are_usage_errors(self, tiny_dataset, tmp_path, capsys,
                                            positions):
        out = tmp_path / "r"
        assert run("evolve", "--data", str(tiny_dataset), "--pop", "4",
                   "--gens", "1", "--positions", positions, "--out", str(out)) == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    def test_reports_written(self, tiny_dataset, tmp_path):
        out = tmp_path / "eval"
        code = run("evaluate", "--data", str(tiny_dataset), "--out", str(out))
        assert code == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "method,wins,losses,invalids,success_rate"
        names = {line.split(",")[0] for line in report[1:]}
        assert names == {"aitken", "wynn", "evolved"}
        assert (out / "grid.csv").exists()
        assert "reference" in (out / "compare.txt").read_text()
        check_stage_times(out, ["load_s", "score_s", "write_s"])

    def test_method_filter(self, tiny_dataset, tmp_path):
        out = tmp_path / "only"
        assert run("evaluate", "--data", str(tiny_dataset),
                   "--methods", "aitken", "--out", str(out)) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("aitken,")

    def test_unknown_method_is_usage_error(self, tiny_dataset, tmp_path):
        assert run("evaluate", "--data", str(tiny_dataset),
                   "--methods", "shanks", "--out", str(tmp_path / "x")) == 2

    def test_formula_file_used(self, tiny_dataset, tmp_path):
        formula = tmp_path / "f.txt"
        formula.write_text("(formula :p 0.0 :num (sub (mul Sn (d2)) "
                           "(sq (sub Sn Snm1))) :den (d2))\n")
        out = tmp_path / "withf"
        assert run("evaluate", "--data", str(tiny_dataset),
                   "--formula", str(formula), "--methods", "aitken,evolved",
                   "--out", str(out)) == 0

    def test_formula_without_evolved_method_is_usage_error(self, tiny_dataset,
                                                           tmp_path, capsys):
        out = tmp_path / "x"
        assert run("evaluate", "--data", str(tiny_dataset),
                   "--formula", str(tmp_path / "missing.txt"),
                   "--methods", "aitken", "--out", str(out)) == 2
        assert "--formula replaces the evolved method" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("positions", ["", "20,20", "28,20"])
    def test_bad_positions_are_usage_errors(self, tiny_dataset, tmp_path, capsys,
                                            positions):
        out = tmp_path / "x"
        assert run("evaluate", "--data", str(tiny_dataset),
                   "--positions", positions, "--out", str(out)) == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_formula_file_is_data_error(self, tiny_dataset, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("(formula :p 0 :num (add Sn) :den Sn)")
        code = run("evaluate", "--data", str(tiny_dataset),
                   "--formula", str(bad), "--out", str(tmp_path / "x"))
        assert code == 3
        assert "offset" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["-0.2", "1.5", "nan"])
    def test_out_of_range_c_is_usage_error(self, tiny_dataset, tmp_path, capsys, c):
        lines = tiny_dataset.read_text().splitlines()
        first = lines[1].split(",")[0]
        for k, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            if fields[0] == first:
                fields[1] = c
                lines[k] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x"
        assert run("evaluate", "--data", str(bad), "--out", str(out)) == 2
        assert f"sequence {first!r}: c must be in [0, 1]" in capsys.readouterr().err
        assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize("row, message", [
        ("a,0.5,1", "line 2: expected 5 fields, got 3"),
        ("a,0.5,1,x8,0.25", "line 2: invalid literal for int() with base 10: 'x8'"),
        ("a,0.5,1,4,0.25\na,0.75,1,8,0.5", "line 3: sequence 'a' has c=0.75"),
    ])
    def test_malformed_row_is_usage_error(self, tmp_path, capsys, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"sequence_id,c,width_mfp,order,center_flux\n{row}\n")
        out = tmp_path / "x"
        assert run("evaluate", "--data", str(bad), "--out", str(out)) == 2
        assert f"error: {bad}, {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_header_only_dataset_is_usage_error(self, tmp_path, capsys):
        # No comparison to score: a success rate would be 0/0.
        empty = tmp_path / "empty.csv"
        empty.write_text("sequence_id,c,width_mfp,order,center_flux\n")
        out = tmp_path / "x"
        assert run("evaluate", "--data", str(empty), "--out", str(out)) == 2
        assert "sequence set must be non-empty" in capsys.readouterr().err
        assert not out.exists()

    def test_single_bin(self, tiny_dataset, tmp_path):
        out = tmp_path / "b1"
        assert run("evaluate", "--data", str(tiny_dataset), "--bins", "1",
                   "--methods", "aitken", "--out", str(out)) == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert len(lines) == 1 + 5

    def test_zero_bins_is_usage_error(self, tiny_dataset, tmp_path, capsys):
        assert run("evaluate", "--data", str(tiny_dataset), "--bins", "0",
                   "--out", str(tmp_path / "b0")) == 2
        assert "bins must be >= 1" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tiny_dataset, tmp_path):
        outs = [tmp_path / "e1", tmp_path / "e2"]
        for out in outs:
            assert run("evaluate", "--data", str(tiny_dataset),
                       "--out", str(out)) == 0
        for name in ("report.csv", "grid.csv", "compare.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_manifest_records_every_flag(tiny_dataset, tmp_path):
    evolved, evaluated = tmp_path / "evolve", tmp_path / "evaluate"
    assert run("evolve", "--data", str(tiny_dataset), "--pop", "4",
               "--gens", "0", "--out", str(evolved)) == 0
    assert run("evaluate", "--data", str(tiny_dataset), "--methods", "aitken",
               "--out", str(evaluated)) == 0
    manifests = {"generate": read_pairs(tiny_dataset.parent / "manifest.txt"),
                 "evolve": read_pairs(evolved / "manifest.txt"),
                 "evaluate": read_pairs(evaluated / "manifest.txt")}
    for command, manifest in manifests.items():
        assert manifest["command"] == command
        for flag in SUBCOMMAND_FLAGS[command]:
            assert flag[2:].replace("-", "_") in manifest, (command, flag)
    assert manifests["generate"]["widths"] == "1,2"
    assert manifests["generate"]["sequences"] == "8"
    assert manifests["evolve"]["positions"] == "20,28,36,44,52"
    assert manifests["evolve"]["train_sequences"] == "6"
    assert manifests["evolve"]["validation_sequences"] == "2"
    assert manifests["evaluate"]["formula"] == "builtin"


class TestHelp:
    @pytest.mark.parametrize("sub", ["generate", "evolve", "evaluate"])
    def test_subcommand_help(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--seed" in out or "--data" in out

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate"])  # missing required --out
        assert exc.value.code == 2
