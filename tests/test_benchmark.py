import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import SCALAR_METHODS, Window, eval_formula, scalar_benchmark
from txaccel.accelerators import METHODS, aitken, wynn
from txaccel.benchmark import (
    compare_to_reference,
    run_benchmark,
    write_grid_csv,
    write_totals_csv,
)
from txaccel.cli import main
from txaccel.errors import InvalidArgumentError
from txaccel.evolution import FitnessEvaluator, formula_method
from txaccel.sequences import Sequence, write_dataset
from txaccel.trees import aitken_seed, parse, serialize

ORDERS = (20, 28, 36, 44, 52)
REFERENCE_DATASET = (Path(__file__).resolve().parents[1]
                     / "perfbench" / "reference" / "dataset.csv")

#: A formula whose protected division fires where the second difference
#: vanishes.
PROTECTED = parse("(formula :p 0.5 :num (sub (mul Sn (d2)) (sq (sub Sn Snm1)))"
                  " :den (d2))")


def geometric_sequences(n=10, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        a = rng.uniform(1.0, 5.0)
        b = rng.uniform(0.5, 2.0)
        r = rng.uniform(0.4, 0.6)
        values = a + b * r ** np.arange(1, 14)
        out.append(Sequence(id=f"g{i}", c=float(rng.uniform(0.01, 0.99)),
                            width_mfp=1.0, orders=tuple(range(4, 53, 4)),
                            values=values))
    return out


class TestRunBenchmark:
    def test_raw_method_never_succeeds(self, mini24):
        report = run_benchmark(mini24, {"raw": lambda w: w[:, 0]}, ORDERS)
        entry = report.methods["raw"]
        assert entry.wins == 0
        assert entry.success_rate == 0.0
        assert entry.losses == len(mini24) * len(ORDERS)

    def test_everywhere_better_method_scores_one(self):
        seqs = geometric_sequences()
        # The delta-squared rule is exact on geometric sequences, so its
        # consecutive error is 0 at every position while raw errors are
        # positive: it must win everywhere.
        report = run_benchmark(seqs, {"aitken": aitken}, ORDERS)
        assert report.methods["aitken"].success_rate == 1.0

    def test_aitken_and_wynn_reports_are_identical(self, dataset240):
        report = run_benchmark(
            dataset240, {"aitken": aitken, "wynn": wynn}, ORDERS)
        a, w = report.methods["aitken"], report.methods["wynn"]
        assert (a.wins, a.losses, a.invalids) == (w.wins, w.losses, w.invalids)
        assert np.array_equal(a.grid_wins, w.grid_wins)
        assert np.array_equal(a.grid_counts, w.grid_counts)

    def test_wins_plus_losses_and_invalid_subset(self, mini24):
        report = run_benchmark(
            mini24,
            METHODS,
            ORDERS)
        total = len(mini24) * len(ORDERS)
        for entry in report.methods.values():
            assert entry.wins + entry.losses == total
            assert entry.invalids <= entry.losses

    def test_grid_weighted_mean_matches_total(self, dataset240):
        report = run_benchmark(dataset240, {"evolved": METHODS["evolved"]}, ORDERS)
        entry = report.methods["evolved"]
        weighted = entry.grid_wins.sum() / entry.grid_counts.sum()
        assert abs(weighted - entry.success_rate) < 1e-12
        rates = entry.grid_rates()
        assert np.all(rates >= 0.0) and np.all(rates <= 1.0)

    def test_single_bin_degenerates_to_per_order_rates(self, mini24):
        report = run_benchmark(mini24, {"aitken": aitken}, ORDERS, bins=1)
        entry = report.methods["aitken"]
        assert entry.grid_counts.shape == (len(ORDERS), 1)
        assert entry.grid_counts.sum() == len(mini24) * len(ORDERS)

    @pytest.mark.parametrize("bins", [0, -1])
    def test_bins_below_one_rejected(self, bins):
        with pytest.raises(InvalidArgumentError, match="bins must be >= 1"):
            run_benchmark(geometric_sequences(2), {"aitken": aitken},
                          ORDERS, bins=bins)


class TestReportFiles:
    def test_csvs_are_deterministic(self, mini24, tmp_path):
        report = run_benchmark(mini24, {"aitken": aitken}, ORDERS)
        write_totals_csv(report, tmp_path / "a.csv")
        write_totals_csv(report, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        write_grid_csv(report, tmp_path / "g.csv")
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == "method,order,c_bin_low,c_bin_high,success_rate,count"
        assert len(lines) == 1 + len(ORDERS) * 10

    def test_totals_header(self, mini24, tmp_path):
        report = run_benchmark(mini24, {"aitken": aitken}, ORDERS)
        write_totals_csv(report, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "method,wins,losses,invalids,success_rate"
        assert len(lines) == 2


class TestCompareToReference:
    def test_lists_all_reference_methods(self, mini24):
        report = run_benchmark(
            mini24,
            METHODS,
            ORDERS)
        text = compare_to_reference(report)
        for name, rate in (("aitken", "39"), ("wynn", "32"), ("evolved", "78")):
            assert name in text and rate in text

    def test_flags_large_deviation(self):
        # A method winning everywhere sits far outside every reference
        # band and must carry the parameterization caveat.
        seqs = geometric_sequences()
        report = run_benchmark(seqs, {"aitken": aitken}, ORDERS)
        text = compare_to_reference(report)
        assert "dataset-parameterization difference" in text


#: Terms of the guard sequences; each replaces some of terms 2..4, so
#: that its window ending at term 4 (order 20) trips one guard while the
#: window before it or after it is valid.  A dropped guard then turns an
#: invalid comparison into a valid one at order 20 or order 24.
GUARD_BASE = (0.3, 0.7, 1.0, 1.5, 2.0, 2.6, 3.5, 3.9, 4.6, 5.2, 5.5, 6.1, 6.4)
GUARD_TERMS = {
    "flat": {4: 2.0 + 2.0 ** -40},           # second difference 2**-40
    "wynn-older": {2: 1.5},                  # S_{n-1} - S_{n-2} = 0
    "wynn-newer": {4: 1.5},                  # S_n - S_{n-1} = 0
    "wynn-inverse": {2: 0.0, 3: 2e300, 4: 3e300},  # 1/1e300 - 1/2e300 < 1e-300
    "evolved-previous": {3: 0.0},            # S_{n-1} = 0
    "evolved-stretched": {4: 2.5 + 2.0 ** -41},  # 2 S_n - 4 S_{n-1} + S_{n-2} = 2**-40
    "evolved-ratio": {4: 1e-12},             # S_n / S_{n-1} < 1e-10
}


def guard_sequences():
    """Sequences on whose windows every accelerator guard fires, and two
    whose terms fall below the relative error's 1e-300 denominator,
    always or from the fifth term on."""
    orders = tuple(range(4, 53, 4))
    out = []
    for k, (name, terms) in enumerate(GUARD_TERMS.items()):
        values = np.array(GUARD_BASE)
        values[list(terms)] = list(terms.values())
        out.append(Sequence(id=name, c=k / 7, width_mfp=1.0, orders=orders,
                            values=values))
    return out + [
        Sequence(id="tiny", c=1.0, width_mfp=1.0, orders=orders,
                 values=2.0 ** -1010 * (1.0 + np.arange(13))),
        Sequence(id="crossing", c=0.95, width_mfp=1.0, orders=orders,
                 values=1e-299 * 0.5 ** np.arange(13)),
    ]


def formula_transform(f):
    return lambda w: eval_formula(f, Window(*w))


class TestMatchesScalarRoute:
    """run_benchmark against the per-window scalar route of oracles.py."""

    def check(self, sequences, orders):
        methods = dict(METHODS, protected=formula_method(PROTECTED))
        transforms = dict(SCALAR_METHODS, protected=formula_transform(PROTECTED))
        report = run_benchmark(sequences, methods, orders)
        expected = scalar_benchmark(sequences, transforms, orders)
        for name, (wins, losses, invalids, grid_wins, grid_counts) in expected.items():
            entry = report.methods[name]
            assert (entry.wins, entry.losses, entry.invalids) == \
                (wins, losses, invalids), name
            assert np.array_equal(entry.grid_wins, grid_wins), name
            assert np.array_equal(entry.grid_counts, grid_counts), name
        return report

    def test_mini24(self, mini24):
        self.check(mini24, ORDERS)

    def test_adjacent_orders(self, mini24):
        self.check(list(mini24) + guard_sequences(), (20, 24, 28))

    def test_guard_sequences(self):
        report = self.check(guard_sequences(), ORDERS)
        for name in METHODS:
            assert report.methods[name].invalids > 0


class TestGoldenEvaluate:
    def test_reference_dataset_outputs(self, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", "--data", str(REFERENCE_DATASET),
                     "--out", str(out)]) == 0
        assert (out / "report.csv").read_text() == (
            "method,wins,losses,invalids,success_rate\n"
            "aitken,367,833,398,0.30583333333333335\n"
            "wynn,367,833,398,0.30583333333333335\n"
            "evolved,735,465,0,0.61250000000000004\n")
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("grid.csv", "compare.txt")}
        assert digests == {
            "grid.csv": "ee20fc2d0085e46286f5701f77c403704feb7812e4114decccbcbdfc9dcc702b",
            "compare.txt": "dec0be1e8e7cb120742762d76e7a5d8f814b82b1a7b60add3a4fd7c379076c09",
        }


def test_evaluate_raises_no_runtime_warning(dataset240, tmp_path):
    data = tmp_path / "dataset.csv"
    write_dataset(data, dataset240)
    formula = tmp_path / "formula.txt"
    formula.write_text(serialize(PROTECTED) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evaluate", "--data", str(data), "--out", str(tmp_path / "a")]) == 0
        assert main(["evaluate", "--data", str(data), "--formula", str(formula),
                     "--out", str(tmp_path / "b")]) == 0


def test_fitness_raises_no_runtime_warning():
    # The wynn-inverse guard sequence's terms near 1e300 overflow the
    # kernel's products, which it clamps without a warning.
    evaluator = FitnessEvaluator(guard_sequences(), (20, 24, 28))
    squares = parse("(formula :p 1.0 :num (mul Sn Sn) :den (add Snm1 p))")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluator.fitness(squares)
        evaluator.fitness(aitken_seed())
