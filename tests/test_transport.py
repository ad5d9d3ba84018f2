import numpy as np
import pytest

import txaccel.transport as transport_module
from oracles import mesh_refined_center_flux, pure_absorber_center_flux
from txaccel.errors import (
    InvalidArgumentError,
    InvalidConfigError,
    NumericalFailureError,
    UnsupportedProblemError,
)
from txaccel.transport import (
    DatasetConfig,
    SlabProblem,
    generate_dataset,
    generate_grid,
    generate_sequence,
    solve_sn,
)


class TestInfiniteMediumLimits:
    @pytest.mark.parametrize("c,expected", [(0.0, 1.0), (0.5, 2.0), (0.9, 10.0)])
    def test_thick_slab_reaches_balance_flux(self, c, expected):
        problem = SlabProblem(scattering_ratio=c, width=200.0)
        flux = solve_sn(problem, 16).center_scalar_flux
        assert abs(flux - expected) < 1e-6

    def test_pure_absorber_thick_slab(self):
        flux = solve_sn(SlabProblem(scattering_ratio=0.0, width=200.0),
                        8).center_scalar_flux
        assert abs(flux - 1.0) < 1e-10


class TestPureAbsorberClosedForm:
    @pytest.mark.parametrize("order", list(range(4, 53, 4)))
    def test_matches_per_ordinate_quadrature(self, order):
        for width in (1.0, 2.0, 10.0):
            got = solve_sn(SlabProblem(scattering_ratio=0.0, width=width),
                           order).center_scalar_flux
            want = pure_absorber_center_flux(width, order)
            assert got == pytest.approx(want, rel=1e-12)

    def test_documented_n4_example(self):
        # Width 2 mfp evaluated at the midplane, one exponential per
        # direction.
        mu = np.array([0.3399810435848563, 0.8611363115940526])
        w = np.array([0.6521451548625461, 0.3478548451374538])
        expected = np.sum(2 * w * 0.5 * (1.0 - np.exp(-1.0 / mu)))
        got = solve_sn(SlabProblem(scattering_ratio=0.0, width=2.0),
                       4).center_scalar_flux
        assert got == pytest.approx(expected, rel=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("c,width,order", [
        (0.5, 5.0, 16),
        (0.95, 2.0, 8),
        (0.2, 20.0, 12),
    ])
    def test_matches_mesh_refined_solution(self, c, width, order):
        analytic = solve_sn(SlabProblem(scattering_ratio=c, width=width),
                            order).center_scalar_flux
        oracle, spread = mesh_refined_center_flux(c, width, order)
        assert spread < 1e-8 * abs(oracle)
        assert analytic == pytest.approx(oracle, rel=1e-7)


class TestPhysicalInvariants:
    def test_balance_bound_is_strict(self):
        for c in (0.1, 0.9, 0.999):
            problem_limit = 1.0 / (1.0 - c)
            for width in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
                flux = solve_sn(SlabProblem(scattering_ratio=c, width=width),
                                8).center_scalar_flux
                assert 0.0 < flux < problem_limit

    def test_flux_grows_with_width(self):
        for c in (0.0, 0.8):
            fluxes = [solve_sn(SlabProblem(scattering_ratio=c, width=w),
                               12).center_scalar_flux
                      for w in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)]
            assert all(b > a for a, b in zip(fluxes, fluxes[1:]))


class TestErrors:
    def test_unit_scattering_unsupported(self):
        with pytest.raises(UnsupportedProblemError):
            SlabProblem(scattering_ratio=1.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SlabProblem(scattering_ratio=-0.1)
        with pytest.raises(InvalidArgumentError):
            SlabProblem(width=0.0)
        with pytest.raises(InvalidArgumentError):
            SlabProblem(sigma_t=-1.0)
        with pytest.raises(InvalidArgumentError):
            SlabProblem(source=-1.0)

    @pytest.mark.parametrize("order", [2, 3, 5, 66, 0])
    def test_bad_orders_rejected(self, order):
        with pytest.raises(InvalidArgumentError):
            solve_sn(SlabProblem(scattering_ratio=0.5, width=1.0), order)

    def test_numerical_failure_carries_diagnostics(self, monkeypatch):
        def complex_eig(matrix):
            n = matrix.shape[0]
            return (np.full(n, 1.0 + 1e-3j), np.eye(n, dtype=complex))

        # An earlier test may have cached these eigenmodes, which would
        # skip the patched eig.
        transport_module._eigenmodes.cache_clear()
        monkeypatch.setattr(transport_module.np.linalg, "eig", complex_eig)
        with pytest.raises(NumericalFailureError) as err:
            solve_sn(SlabProblem(scattering_ratio=0.5, width=1.0), 4)
        assert err.value.diagnostics["order"] == 4
        assert err.value.diagnostics["width"] == 1.0
        assert "imag" in str(err.value)

        # Sequence generation annotates the failing order.
        with pytest.raises(NumericalFailureError, match="order 4"):
            generate_sequence(SlabProblem(scattering_ratio=0.5, width=1.0), [4])


class TestGenerateSequence:
    def test_thirteen_terms_on_default_orders(self):
        seq = generate_sequence(SlabProblem(scattering_ratio=0.3, width=2.0),
                                range(4, 53, 4))
        assert len(seq.values) == 13
        assert seq.orders == tuple(range(4, 53, 4))

    def test_single_order(self):
        seq = generate_sequence(SlabProblem(scattering_ratio=0.3, width=2.0),
                                [4])
        assert len(seq.values) == 1

    def test_orders_must_increase(self):
        with pytest.raises(InvalidArgumentError):
            generate_sequence(SlabProblem(), [4, 4, 8])

    def test_pure_absorber_sequence_converges(self):
        # Successive differences decay steeply but not monotonically (the
        # quadrature error oscillates), so assert the decreasing envelope
        # over 3-term blocks plus a converged tail.  Values themselves
        # match the closed form to 1e-12 (see TestPureAbsorberClosedForm).
        seq = generate_sequence(SlabProblem(scattering_ratio=0.0, width=2.0),
                                range(4, 53, 4))
        diffs = np.abs(np.diff(seq.values))
        blocks = [max(diffs[k:k + 3]) for k in range(0, 12, 3)]
        assert all(b < a for a, b in zip(blocks, blocks[1:]))
        assert diffs[-1] < 1e-7


class TestDataset:
    def test_default_grid_has_240_sequences(self, dataset240):
        assert len(dataset240) == 240
        assert all(len(s.values) == 13 for s in dataset240)

    def test_c_endpoints_are_exact(self, dataset240):
        cs = sorted({s.c for s in dataset240})
        assert cs[0] == 0.001
        assert cs[-1] == 0.999
        assert len(cs) == 40

    def test_wrong_grid_product_rejected(self):
        with pytest.raises(InvalidConfigError):
            generate_dataset(DatasetConfig(c_count=10), rng_seed=0)

    def test_generation_is_deterministic(self):
        config = DatasetConfig(c_count=3, widths=(1.0, 5.0))
        a = generate_grid(config, rng_seed=1)
        b = generate_grid(config, rng_seed=1)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.values, s2.values)

    def test_jitter_uses_seed(self):
        config = DatasetConfig(c_count=6, widths=(1.0,), jitter=True)
        a = generate_grid(config, rng_seed=1)
        b = generate_grid(config, rng_seed=1)
        c = generate_grid(config, rng_seed=2)
        assert [s.c for s in a] == [s.c for s in b]
        assert [s.c for s in a] != [s.c for s in c]
        assert a[0].c == 0.001 and a[-1].c == 0.999

    def test_eigenmode_cache_does_not_change_values(self):
        config = DatasetConfig(c_count=3, widths=(1.0, 10.0, 50.0),
                               orders=(4, 8, 16))
        reverse = DatasetConfig(c_count=3, widths=config.widths[::-1],
                                orders=config.orders)

        def by_case(sequences):
            return {(s.c, s.width_mfp): s.values for s in sequences}

        # Reference: every sequence solved from an empty cache, so no two
        # widths share eigenmodes.
        unshared = {}
        for c in config.c_values():
            for width in config.widths:
                transport_module._eigenmodes.cache_clear()
                problem = SlabProblem(scattering_ratio=float(c), width=width)
                unshared[float(c), width] = generate_sequence(
                    problem, config.orders).values

        transport_module._eigenmodes.cache_clear()
        fresh = by_case(generate_grid(config))
        warm = by_case(generate_grid(config))
        transport_module._eigenmodes.cache_clear()
        cleared = by_case(generate_grid(config))
        reversed_widths = by_case(generate_grid(reverse))
        for grid in (fresh, warm, cleared, reversed_widths):
            assert grid.keys() == unshared.keys()
            for case, values in unshared.items():
                assert np.array_equal(grid[case], values), case

    def test_eigenmodes_are_read_only(self):
        *_, lam, vecs = transport_module._eigenmodes(8, 1.0, 0.5)
        with pytest.raises(ValueError):
            lam[0] = 0.0
        with pytest.raises(ValueError):
            vecs[0, 0] = 0.0
