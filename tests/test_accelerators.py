import numpy as np
import pytest

from oracles import relative_error, wynn_epsilon
from txaccel.accelerators import INVALID, METHODS, aitken, evolved, wynn
from txaccel.sequences import ComparisonMatrix, Sequence, relative_errors
from txaccel.transport import DatasetConfig, generate_grid

EVAL_ORDERS = (20, 28, 36, 44, 52)


def window(s_n, s_nm1, s_nm2, s_nm3=0.0):
    return np.array([s_n, s_nm1, s_nm2, s_nm3])


def geometric_sequence(a=1.0, b=-1.0, r=0.5, n=13):
    values = a + b * r ** np.arange(1, n + 1)
    return Sequence(id="geo", c=0.5, width_mfp=1.0,
                    orders=tuple(range(4, 4 * n + 1, 4)), values=values)


class TestAitken:
    def test_exact_on_geometric_window(self):
        assert aitken(window(0.75, 0.5, 0.0)) == 1.0

    def test_constant_window_is_invalid(self):
        assert aitken(window(3.0, 3.0, 3.0)) == INVALID

    def test_alternating_series_partial_sums(self):
        # Hand-traceable: second difference 0.8333..., squared first
        # difference 0.1111...
        s_n, s_nm1, s_nm2 = 0.8333333333, 0.5, 1.0
        expected = s_n - (s_n - s_nm1) ** 2 / (s_n - 2 * s_nm1 + s_nm2)
        value = aitken(window(s_n, s_nm1, s_nm2))
        assert value == expected
        assert value == pytest.approx(0.7, abs=1e-9)

    def test_exactness_property(self):
        # S_n = a + b r^n is mapped to a for every valid window.
        rng = np.random.default_rng(8)
        for _ in range(300):
            a = rng.uniform(-10, 10)
            b = rng.uniform(0.1, 5) * rng.choice([-1, 1])
            r = rng.uniform(-0.9, 0.9)
            if abs(r) < 1e-3:
                continue
            n = rng.integers(2, 30)
            terms = a + b * r ** np.arange(n, n + 3)[::-1]
            value = aitken(window(*terms))
            if value == INVALID:
                continue
            assert value == pytest.approx(a, rel=1e-12, abs=1e-12)

    def test_affine_covariance(self):
        rng = np.random.default_rng(9)
        w = np.column_stack((rng.uniform(-5, 5, (300, 3)), np.zeros(300)))
        alpha = rng.uniform(0.5, 2.0, (300, 1))
        beta = rng.uniform(-3, 3, (300, 1))
        base = aitken(w)
        mapped = aitken(alpha * w + beta)
        valid = (base != INVALID) & (mapped != INVALID)
        assert valid.sum() > 250
        np.testing.assert_allclose(mapped[valid], (alpha[:, 0] * base + beta[:, 0])[valid],
                                   rtol=1e-12, atol=1e-10)


class TestWynnEpsilon:
    """Column 2 of the package, and the general table of the scalar route."""

    def test_traced_three_term_table(self):
        # eps_1 = (-2, 3.0000...), eps_2 = 0.5 + 1/5 = 0.7
        assert wynn_epsilon([1.0, 0.5, 0.8333333333], 2) == pytest.approx(0.7, abs=1e-9)
        assert wynn(window(0.8333333333, 0.5, 1.0)) == pytest.approx(0.7, abs=1e-9)

    def test_column_zero_is_last_term(self):
        assert wynn_epsilon([3.0, 1.0, 4.0, 1.5], 0) == 1.5

    def test_column_two_equals_aitken(self):
        rng = np.random.default_rng(10)
        w = np.column_stack((rng.uniform(-10, 10, (1000, 3)), np.zeros(1000)))
        a = aitken(w)
        e = wynn(w)
        sentinels = (a == INVALID) | (e == INVALID)
        np.testing.assert_allclose(e[~sentinels], a[~sentinels], rtol=1e-12, atol=1e-12)
        assert sentinels.sum() < 100
        assert np.array_equal(a == INVALID, e == INVALID)

    def test_odd_column_rejected(self):
        with pytest.raises(ValueError):
            wynn_epsilon([1.0, 2.0, 3.0], 1)

    def test_column_needs_enough_terms(self):
        with pytest.raises(ValueError):
            wynn_epsilon([1.0, 2.0], 2)

    def test_exact_zero_difference_is_sentinel(self):
        assert wynn_epsilon([5.0, 5.0, 7.0], 2) == INVALID
        # The second difference 7 - 10 + 5 passes the flat guard, so only
        # the table's own guard on S_{n-1} - S_{n-2} = 0 can flag it.
        assert wynn(window(7.0, 5.0, 5.0)) == INVALID


class TestEvolvedFormula:
    def test_reference_window(self):
        # numerator -0.8125, denominator (-0.5)*(1.5) = -0.75
        value = evolved(window(0.75, 0.5, 0.0, 0.0))
        assert value == pytest.approx(1.0833333333333333, rel=1e-15)

    def test_zero_previous_term_is_invalid(self):
        assert evolved(window(1.0, 0.0, 2.0, 3.0)) == INVALID

    def test_vanishing_stretched_difference_is_invalid(self):
        # 2*1 - 4*1 + 2 = 0
        assert evolved(window(1.0, 1.0, 2.0, 0.0)) == INVALID

    def test_matches_direct_substitution(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(0.2, 5.0, (400, 4))
        d = 2 * s[:, 0] - 4 * s[:, 1] + s[:, 2]
        s = s[(np.abs(s[:, 1]) >= 1e-6) & (np.abs(d) >= 1e-6)][:200]
        d = 2 * s[:, 0] - 4 * s[:, 1] + s[:, 2]
        expected = (s[:, 0] * s[:, 2] - s[:, 0] ** 2 - s[:, 1] ** 2) / (d * (s[:, 0] / s[:, 1]))
        assert len(s) == 200
        np.testing.assert_allclose(evolved(s), expected, rtol=1e-12)


class TestApplyAccelerator:
    """Methods applied over the windows of a comparison matrix."""

    def test_identity_matches_raw_errors(self):
        [seq] = generate_grid(DatasetConfig(c_min=0.7, c_max=0.7, c_count=1,
                                            widths=(5.0,)))
        matrix = ComparisonMatrix([seq], EVAL_ORDERS)
        errors = relative_errors(matrix.windows[:, 0].copy())
        for j, order in enumerate(EVAL_ORDERS):
            i = seq.orders.index(order)
            raw = relative_error(seq.values[i], seq.values[i - 1])
            assert errors[j] == raw
            assert matrix.raw_errors[j] == raw
        assert not matrix.score(matrix.windows[:, 0].copy()).any()

    def test_aitken_is_flat_on_geometric(self):
        matrix = ComparisonMatrix([geometric_sequence()], EVAL_ORDERS)
        values = aitken(matrix.windows)
        wins, invalid = matrix.score(values.copy(), invalid=True)
        assert not invalid.any()
        assert wins.all()
        np.testing.assert_allclose(relative_errors(values), 0.0, atol=1e-9)

    def test_wynn_equals_aitken_on_transport_data(self):
        [seq] = generate_grid(DatasetConfig(c_min=0.9, c_max=0.9, c_count=1,
                                            widths=(10.0,)))
        matrix = ComparisonMatrix([seq], EVAL_ORDERS)
        a, w = aitken(matrix.windows), wynn(matrix.windows)
        _, invalid_a = matrix.score(a.copy(), invalid=True)
        _, invalid_w = matrix.score(w.copy(), invalid=True)
        assert np.array_equal(invalid_a, invalid_w)
        finite = np.isfinite(a) | np.isfinite(w)
        np.testing.assert_allclose(w[finite], a[finite], rtol=1e-12)

    def test_outputs_are_finite_or_sentinel(self):
        rng = np.random.default_rng(12)
        sequences = [Sequence(id=f"r{k}", c=0.5, width_mfp=1.0,
                              orders=tuple(range(4, 53, 4)),
                              values=rng.uniform(-100, 100, 13))
                     for k in range(50)]
        matrix = ComparisonMatrix(sequences, EVAL_ORDERS)
        m = matrix.comparisons
        for method in METHODS.values():
            values = method(matrix.windows)
            assert np.all(np.isfinite(values) | (values == INVALID))
            wins, invalid = matrix.score(values.copy(), invalid=True)
            expected = ((values[:m] == INVALID) | (values[m:] == INVALID)
                        | (np.abs(values[m:]) < 1e-300))
            assert np.array_equal(invalid, expected)
            assert not (wins & invalid).any()
