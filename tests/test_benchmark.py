import numpy as np
import pytest

from txaccel.accelerators import (
    Accelerator,
    aitken_accelerator,
    evolved_accelerator,
    identity_accelerator,
    wynn_accelerator,
)
from txaccel.benchmark import (
    compare_to_reference,
    run_benchmark,
    write_grid_csv,
    write_totals_csv,
)
from txaccel.errors import InvalidArgumentError
from txaccel.sequences import Sequence

ORDERS = (20, 28, 36, 44, 52)


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
        report = run_benchmark(mini24, [identity_accelerator()], ORDERS)
        entry = report.methods["raw"]
        assert entry.wins == 0
        assert entry.success_rate == 0.0
        assert entry.losses == len(mini24) * len(ORDERS)

    def test_everywhere_better_method_scores_one(self):
        seqs = geometric_sequences()
        # The delta-squared rule is exact on geometric sequences, so its
        # consecutive error is 0 at every position while raw errors are
        # positive: it must win everywhere.
        report = run_benchmark(seqs, [aitken_accelerator()], ORDERS)
        assert report.methods["aitken"].success_rate == 1.0

    def test_aitken_and_wynn_reports_are_identical(self, dataset240):
        report = run_benchmark(
            dataset240, [aitken_accelerator(), wynn_accelerator()], ORDERS)
        a, w = report.methods["aitken"], report.methods["wynn"]
        assert (a.wins, a.losses, a.invalids) == (w.wins, w.losses, w.invalids)
        assert np.array_equal(a.grid_wins, w.grid_wins)
        assert np.array_equal(a.grid_counts, w.grid_counts)

    def test_wins_plus_losses_and_invalid_subset(self, mini24):
        report = run_benchmark(
            mini24,
            [aitken_accelerator(), wynn_accelerator(), evolved_accelerator()],
            ORDERS)
        total = len(mini24) * len(ORDERS)
        for entry in report.methods.values():
            assert entry.wins + entry.losses == total
            assert entry.invalids <= entry.losses

    def test_grid_weighted_mean_matches_total(self, dataset240):
        report = run_benchmark(dataset240, [evolved_accelerator()], ORDERS)
        entry = report.methods["evolved"]
        weighted = entry.grid_wins.sum() / entry.grid_counts.sum()
        assert abs(weighted - entry.success_rate) < 1e-12
        rates = entry.grid_rates()
        assert np.all(rates >= 0.0) and np.all(rates <= 1.0)

    def test_single_bin_degenerates_to_per_order_rates(self, mini24):
        report = run_benchmark(mini24, [aitken_accelerator()], ORDERS, bins=1)
        entry = report.methods["aitken"]
        assert entry.grid_counts.shape == (len(ORDERS), 1)
        assert entry.grid_counts.sum() == len(mini24) * len(ORDERS)

    @pytest.mark.parametrize("bins", [0, -1])
    def test_bins_below_one_rejected(self, bins):
        with pytest.raises(InvalidArgumentError, match="bins must be >= 1"):
            run_benchmark(geometric_sequences(2), [aitken_accelerator()],
                          ORDERS, bins=bins)


class TestReportFiles:
    def test_csvs_are_deterministic(self, mini24, tmp_path):
        report = run_benchmark(mini24, [aitken_accelerator()], ORDERS)
        write_totals_csv(report, tmp_path / "a.csv")
        write_totals_csv(report, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        write_grid_csv(report, tmp_path / "g.csv")
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == "method,order,c_bin_low,c_bin_high,success_rate,count"
        assert len(lines) == 1 + len(ORDERS) * 10

    def test_totals_header(self, mini24, tmp_path):
        report = run_benchmark(mini24, [aitken_accelerator()], ORDERS)
        write_totals_csv(report, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "method,wins,losses,invalids,success_rate"
        assert len(lines) == 2


class TestCompareToReference:
    def test_lists_all_reference_methods(self, mini24):
        report = run_benchmark(
            mini24,
            [aitken_accelerator(), wynn_accelerator(), evolved_accelerator()],
            ORDERS)
        text = compare_to_reference(report)
        for name, rate in (("aitken", "39"), ("wynn", "32"), ("evolved", "78")):
            assert name in text and rate in text

    def test_flags_large_deviation(self):
        # A method winning everywhere sits far outside every reference
        # band and must carry the parameterization caveat.
        seqs = geometric_sequences()
        acc = Accelerator("aitken", aitken_accelerator().transform)
        report = run_benchmark(seqs, [acc], ORDERS)
        text = compare_to_reference(report)
        assert "dataset-parameterization difference" in text
