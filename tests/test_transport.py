from pathlib import Path

import numpy as np
import pytest

import txaccel.transport as transport_module
from oracles import mesh_refined_center_flux, pure_absorber_center_flux
from txaccel.errors import (
    InvalidArgumentError,
    InvalidConfigError,
    NumericalFailureError,
)
from txaccel.quadrature import gauss_legendre
from txaccel.sequences import load_dataset
from txaccel.transport import DatasetConfig, generate_grid, solve_sn

REFERENCE_DATASET = (Path(__file__).parents[1] / "perfbench" / "reference"
                     / "dataset.csv")


class TestInfiniteMediumLimits:
    @pytest.mark.parametrize("c,expected", [(0.0, 1.0), (0.5, 2.0), (0.9, 10.0)])
    def test_thick_slab_reaches_balance_flux(self, c, expected):
        flux = solve_sn(c, 200.0, 16)
        assert abs(flux - expected) < 1e-6

    def test_pure_absorber_thick_slab(self):
        flux = solve_sn(0.0, 200.0, 8)
        assert abs(flux - 1.0) < 1e-10


class TestPureAbsorberClosedForm:
    @pytest.mark.parametrize("order", list(range(4, 53, 4)))
    def test_matches_per_ordinate_quadrature(self, order):
        for width in (1.0, 2.0, 10.0):
            got = solve_sn(0.0, width, order)
            want = pure_absorber_center_flux(width, order)
            assert got == pytest.approx(want, rel=1e-12)

    def test_documented_n4_example(self):
        # Width 2 mfp evaluated at the midplane, one exponential per
        # direction.
        mu = np.array([0.3399810435848563, 0.8611363115940526])
        w = np.array([0.6521451548625461, 0.3478548451374538])
        expected = np.sum(2 * w * 0.5 * (1.0 - np.exp(-1.0 / mu)))
        got = solve_sn(0.0, 2.0, 4)
        assert got == pytest.approx(expected, rel=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("c,width,order", [
        (0.5, 5.0, 16),
        (0.95, 2.0, 8),
        (0.2, 20.0, 12),
    ])
    def test_matches_mesh_refined_solution(self, c, width, order):
        analytic = solve_sn(c, width, order)
        oracle, spread = mesh_refined_center_flux(c, width, order)
        assert spread < 1e-8 * abs(oracle)
        assert analytic == pytest.approx(oracle, rel=1e-7)


class TestPhysicalInvariants:
    def test_balance_bound_is_strict(self):
        for c in (0.1, 0.9, 0.999):
            problem_limit = 1.0 / (1.0 - c)
            for width in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
                flux = solve_sn(c, width, 8)
                assert 0.0 < flux < problem_limit

    def test_flux_grows_with_width(self):
        for c in (0.0, 0.8):
            fluxes = [solve_sn(c, w, 12)
                      for w in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)]
            assert all(b > a for a, b in zip(fluxes, fluxes[1:]))


class TestErrors:
    @pytest.mark.parametrize("c,width,match", [
        (1.0, 1.0, "c must be in"),  # no bounded particular solution
        (1.5, 1.0, "c must be in"),
        (-0.1, 1.0, "c must be in"),
        (float("nan"), 1.0, "c must be in"),
        (0.5, 0.0, "width must be > 0"),
        (0.5, -1.0, "width must be > 0"),
        (0.5, float("nan"), "width must be > 0"),
    ])
    def test_bad_inputs_rejected(self, c, width, match):
        with pytest.raises(InvalidArgumentError, match=match):
            solve_sn(c, width, 4)

    @pytest.mark.parametrize("order", [2, 3, 5, 66, 0])
    def test_bad_orders_rejected(self, order):
        with pytest.raises(InvalidArgumentError):
            solve_sn(0.5, 1.0, order)

    def test_numerical_failure_carries_diagnostics(self, monkeypatch):
        def nonpositive_eigh(stack):
            n = stack.shape[-1]
            return np.zeros(stack.shape[:-1]), np.zeros(stack.shape) + np.eye(n)

        monkeypatch.setattr(transport_module.np.linalg, "eigh",
                            nonpositive_eigh)
        with pytest.raises(NumericalFailureError) as err:
            solve_sn(0.5, 1.0, 4)
        assert err.value.diagnostics["order"] == 4
        assert err.value.diagnostics["c"] == 0.5
        assert err.value.diagnostics["width"] == 1.0
        assert err.value.diagnostics["eta_min"] == 0.0
        assert "not positive" in str(err.value)

        # Sequence generation annotates the failing order.
        with pytest.raises(NumericalFailureError, match="order 4"):
            generate_grid(one_problem(c=0.5, width=1.0, orders=(4,)))

    def test_rounding_bound_rejects_thin_near_critical_slab(self):
        # 2 psi_p = 1e6 cancels to a center flux near 0.1, so the boundary
        # solve's rounding (cond * eps * 2 psi_p) is about 5e-8 of it.
        with pytest.raises(NumericalFailureError, match="rounding") as err:
            solve_sn(0.999999, 0.05, 64)
        diagnostics = err.value.diagnostics
        assert 1e-8 < diagnostics["error_bound"] < 1e-7
        assert 1.0 < diagnostics["condition"] < 100.0
        assert (diagnostics["order"], diagnostics["c"],
                diagnostics["width"]) == (64, 0.999999, 0.05)

    def test_grid_reports_first_failure_by_order_then_width_then_c(self):
        # Error bounds grow with order and c and shrink with width.  The
        # failing solves include (c0, 0.1, 64), (c0, 0.02, 4) and
        # (c1, 0.1, 4); the lowest order comes first, then the first width.
        c0, c1 = 0.9999, 0.999999
        config = DatasetConfig(c_min=c0, c_max=c1, c_count=2,
                               widths=(0.1, 0.02), orders=(4, 64))
        with pytest.raises(NumericalFailureError) as err:
            generate_grid(config)
        diagnostics = err.value.diagnostics
        assert str(err.value).startswith("order 4: rounding error bound")
        assert (diagnostics["failing_order"], diagnostics["order"],
                diagnostics["c"], diagnostics["width"]) == (4, 4, c1, 0.1)
        assert 1e-9 < diagnostics["error_bound"] < 1e-8
        assert 1.0 < diagnostics["condition"] < 100.0
        # Each of those solves fails on its own too.
        for c, width, order in ((c0, 0.1, 64), (c0, 0.02, 4), (c1, 0.1, 4)):
            with pytest.raises(NumericalFailureError, match="rounding"):
                solve_sn(c, width, order)
        solve_sn(c0, 0.1, 4)

        # Both c values fail at (4, 0.1) here; the first c is reported.
        both = DatasetConfig(c_min=0.99999, c_max=c1, c_count=2,
                             widths=(0.1,), orders=(4,))
        with pytest.raises(NumericalFailureError) as err:
            generate_grid(both)
        assert err.value.diagnostics["c"] == 0.99999

    def test_rounding_failure_reports_the_svd_condition(self, monkeypatch):
        # At order 4 and width 10 the boundary condition number is about
        # 1.81 for c = 0.5 and 2.01 for c = 0.9.  Under a tolerance of 0
        # both c fail and the first is reported.  The closed-form bound
        # there is 3.43, so reporting it instead of the SVD value fails
        # the last check.
        monkeypatch.setattr(transport_module, "_ROUNDING_TOL", 0.0)
        config = DatasetConfig(c_min=0.5, c_max=0.9, c_count=2,
                               widths=(10.0,), orders=(4,))
        with pytest.raises(NumericalFailureError, match="rounding") as err:
            generate_grid(config)
        assert err.value.diagnostics["c"] == 0.5
        assert 1.8 < err.value.diagnostics["condition"] < 1.9


def boundary_failures():
    """Message and diagnostics of each failing solve of the tests above,
    the last under a rounding tolerance of 0."""
    tol = transport_module._ROUNDING_TOL
    cases = [
        (tol, lambda: solve_sn(0.999999, 0.05, 64)),
        (tol, lambda: generate_grid(DatasetConfig(
            c_min=0.9999, c_max=0.999999, c_count=2, widths=(0.1, 0.02),
            orders=(4, 64)))),
        (tol, lambda: generate_grid(DatasetConfig(
            c_min=0.99999, c_max=0.999999, c_count=2, widths=(0.1,),
            orders=(4,)))),
        (0.0, lambda: generate_grid(DatasetConfig(
            c_min=0.5, c_max=0.9, c_count=2, widths=(10.0,), orders=(4,)))),
    ]
    failures = []
    for tol, solve in cases:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transport_module, "_ROUNDING_TOL", tol)
            with pytest.raises(NumericalFailureError) as err:
                solve()
        failures.append((str(err.value), err.value.diagnostics))
    return failures


@pytest.fixture()
def svd_calls(monkeypatch):
    """Shapes of the stacks passed to np.linalg.svd during the test."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(stack, *args, **kwargs):
        calls.append(stack.shape)
        return svd(stack, *args, **kwargs)

    monkeypatch.setattr(transport_module.np.linalg, "svd", counting_svd)
    return calls


def positive_half(order):
    """The positive nodes and weights of the rule of ``order``."""
    nodes, weights = gauss_legendre(order)
    return nodes[order // 2:], weights[order // 2:]


def screened_stacks(order, cs, widths):
    """nu, the eigenvectors, and each width's boundary stack and condition
    bound, of one `_center_fluxes` call on the rule of ``order`` with the
    rounding check switched off, so that the screen clears every c."""
    eigh, solve = np.linalg.eigh, np.linalg.solve
    condition_bound = transport_module._condition_bound
    modes, stacks, bounds = [], [], []

    def recording_eigh(matrix):
        eta, vectors = eigh(matrix)
        modes.append((np.sqrt(eta), vectors.copy()))
        return eta, vectors

    def recording_solve(a, b):
        stacks.append(a.copy())
        return solve(a, b)

    def recording_bound(*args):
        bound = condition_bound(*args)
        bounds.append(bound.copy())
        return bound

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport_module, "_ROUNDING_TOL", np.inf)
        patch.setattr(transport_module.np.linalg, "eigh", recording_eigh)
        patch.setattr(transport_module.np.linalg, "solve", recording_solve)
        patch.setattr(transport_module, "_condition_bound", recording_bound)
        transport_module._center_fluxes(*positive_half(order), cs, widths)
    [(nu, vectors)] = modes
    return nu, vectors, stacks, bounds


SWEEP_CS = np.geomspace(1e-6, 0.99999, 25)
SWEEP_WIDTHS = (0.01, 0.1, 1.0, 10.0, 100.0, np.inf)


class TestConditionScreen:
    """The closed-form bound clears c values without an SVD; the SVD
    decides whatever it does not clear."""

    def test_default_grid_runs_no_svd(self, svd_calls, monkeypatch,
                                      dataset240):
        inv_calls = []
        monkeypatch.setattr(transport_module.np.linalg, "inv",
                            lambda *args: inv_calls.append(args))
        grid = generate_grid(DatasetConfig())
        assert svd_calls == [] and inv_calls == []
        for got, want in zip(grid, dataset240):
            assert np.array_equal(got.values, want.values), got.id
        # A stack the bound cannot clear goes to the SVD.
        with pytest.raises(NumericalFailureError):
            solve_sn(0.999999, 0.05, 64)
        assert svd_calls == [(1, 32, 32)]

    def test_margin_sends_near_limit_stacks_to_svd(self, svd_calls,
                                                   monkeypatch):
        # At order 4 and width 10, cond_2 is 1.81 and 2.01 and the bound
        # 3.43 and 4.09, giving rounding bounds of 7.7e-16 and 1.01e-15.
        # Under a tolerance of 1.1e-15 the bound passes for both c, and the
        # bound times the margin of 1.25 passes for c = 0.5 (9.6e-16) but
        # not for c = 0.9 (1.26e-15), which alone goes to the SVD and
        # passes there.
        monkeypatch.setattr(transport_module, "_ROUNDING_TOL", 1.1e-15)
        generate_grid(DatasetConfig(c_min=0.5, c_max=0.9, c_count=2,
                                    widths=(10.0,), orders=(4,)))
        assert svd_calls == [(1, 2, 2)]

    def test_svd_sees_only_the_c_values_the_screen_cannot_clear(
            self, svd_calls):
        # The grid of the golden dataset: at N = 34 to 64 the bound clears
        # all but one of the 7 c values of the width-0.5 stack.
        generate_grid(DatasetConfig(c_count=7, widths=(0.5, 3.0, 30.0),
                                    orders=tuple(range(4, 65, 2))))
        assert len(svd_calls) == 16
        assert all(shape[0] == 1 for shape in svd_calls), svd_calls

    def test_svd_on_every_stack_changes_no_result(self, svd_calls,
                                                  monkeypatch, dataset240):
        expected = boundary_failures()
        svd_calls.clear()
        monkeypatch.setattr(transport_module, "_condition_bound",
                            lambda mu, w, nu, width, decay:
                            np.full(len(nu), np.inf))
        grid = generate_grid(DatasetConfig())
        assert len(svd_calls) == 13 * 6
        for got, want in zip(grid, dataset240):
            assert np.array_equal(got.values, want.values), got.id
        assert boundary_failures() == expected

    def test_infinite_width_is_the_infinite_medium_at_every_order(
            self, svd_calls):
        # No mode reaches the center (e = 0, tanh = 1), so the center flux
        # is the particular flux 2 psi_p = 1 / (1 - c) exactly.
        orders = tuple(range(4, 65, 2))
        [seq] = generate_grid(one_problem(c=0.999, width=np.inf,
                                          orders=orders))
        assert np.all(seq.values == 1.0 / (1.0 - 0.999))
        assert svd_calls == []

    def test_boundary_matrices_stay_far_from_singular(self):
        # h = tanh(L / 2 nu) / nu <= 1 / mu_min, as nu >= mu_min by Weyl, so
        # in exact arithmetic the bound is at most
        # 4 sqrt(w_max / w_min) mu_max / mu_min (858 at N = 64) for every c
        # and width.  Hence no separate limit on the condition number: at
        # every order, and every c whose eigenvalue check passes, the
        # boundary matrices stay far from singular.
        cs = np.concatenate(([0.0, 1e-6, 0.5], 1.0 - np.geomspace(0.1, 1e-15,
                                                                  15)))
        widths = tuple(np.geomspace(1e-12, 1e4, 9)) + (np.inf,)
        for order in range(transport_module.MIN_SN_ORDER,
                           transport_module.MAX_SN_ORDER + 1, 2):
            mu, w = positive_half(order)
            solvable = []
            for c in cs:
                try:
                    transport_module._center_fluxes(mu, w, [c], [np.inf])
                    solvable.append(c)
                except NumericalFailureError as exc:
                    assert "not positive" in str(exc)
            # Only c within 1e-12 of 1 can fail the eigenvalue check.
            assert solvable[:15] == list(cs[:15]), order
            # The thinnest and most nearly critical slabs have phi = 0.
            with np.errstate(divide="ignore"):
                _, _, stacks, bounds = screened_stacks(order, solvable,
                                                       widths)
            for width, stack, bound in zip(widths, stacks, bounds):
                assert np.linalg.cond(stack).max() < 100.0, (order, width)
                assert bound.max() < 2e3, (order, width)

    @pytest.mark.parametrize("n", range(2, 33))
    def test_frobenius_bound_exceeds_2_norm_condition(self, n):
        # n x n boundary matrices, order 2n.  The largest cond_2 / bound
        # over the sweep and every n is 0.53.  The name is that of the
        # Frobenius bound the closed form replaced; the cases n = 2..26
        # keep their ids.
        _, _, stacks, bounds = screened_stacks(2 * n, SWEEP_CS, SWEEP_WIDTHS)
        for width, stack, bound in zip(SWEEP_WIDTHS, stacks, bounds):
            assert np.all(np.linalg.cond(stack) <= bound), width

    @pytest.mark.parametrize("order", [4, 16, 52, 64])
    def test_bound_is_weyls_on_the_factored_boundary_matrix(self, order):
        # B = 1/2 D^-1 Y (G + H) (I + E): D = diag(sqrt w), Y the
        # eigenvectors, G = Y^T M^-1 Y, H = diag(tanh(L / 2 nu) / nu) and
        # E = diag(exp(-L / nu)).  Weyl's inequality bounds the spectrum
        # of G + H by those of G (from eigvalsh here) and H.
        mu, w = positive_half(order)
        nu, y, stacks, bounds = screened_stacks(order, SWEEP_CS,
                                                SWEEP_WIDTHS)
        g = np.swapaxes(y, 1, 2) @ (y / mu[:, None])
        g_spectrum = np.linalg.eigvalsh(g)
        for width, stack, bound in zip(SWEEP_WIDTHS, stacks, bounds):
            h = np.tanh(0.5 * width / nu) / nu
            one_plus_e = 1.0 + np.exp(-width / nu)
            factored = 0.5 / np.sqrt(w)[:, None] * (
                y @ (g + h[:, :, None] * np.eye(len(mu)))
                * one_plus_e[:, None, :])
            gap = (np.linalg.norm(factored - stack, axis=(1, 2))
                   / np.linalg.norm(stack, axis=(1, 2)))
            assert gap.max() < 1e-13, width
            weyl = (np.sqrt(w.max() / w.min())
                    * (g_spectrum.max(axis=1) + h.max(axis=1))
                    / (g_spectrum.min(axis=1) + h.min(axis=1))
                    * one_plus_e.max(axis=1) / one_plus_e.min(axis=1))
            np.testing.assert_allclose(bound, weyl, rtol=1e-10,
                                       err_msg=str(width))


class TestAccuracy:
    def test_matches_forty_digit_solution(self):
        # The same half-range solve at 40 significant digits with mpmath:
        # Gauss-Legendre nodes refined by findroot on P_32 from the double
        # nodes, weights 2 / ((1 - mu^2) P_32'(mu)^2), eigsy on the
        # symmetric matrix, lu_solve on the boundary system.
        exact = 15.12881379408760057926833
        got = solve_sn(0.999, 5.0, 32)
        assert abs(got - exact) < 2e-13 * exact

    def test_default_grid_matches_stored_reference(self, dataset240):
        # The pipeline benchmark rejects values more than 1e-12 relative
        # from this file; it was made by an earlier version of the solver.
        rows = load_dataset(REFERENCE_DATASET)
        assert [(s.id, s.c, s.width_mfp, s.orders) for s in rows] == [
            (s.id, s.c, s.width_mfp, s.orders) for s in dataset240]
        for got, want in zip(dataset240, rows):
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12,
                                       atol=0.0, err_msg=got.id)


def one_problem(c, width, orders):
    """The grid of a single (c, width) problem over ``orders``."""
    return DatasetConfig(c_min=c, c_max=c, c_count=1, widths=(width,),
                         orders=orders)


class TestGenerateSequence:
    def test_thirteen_terms_on_default_orders(self):
        [seq] = generate_grid(one_problem(c=0.3, width=2.0,
                                          orders=range(4, 53, 4)))
        assert len(seq.values) == 13
        assert seq.orders == tuple(range(4, 53, 4))

    def test_single_order(self):
        [seq] = generate_grid(one_problem(c=0.3, width=2.0, orders=(4,)))
        assert len(seq.values) == 1

    def test_orders_must_increase(self):
        with pytest.raises(InvalidConfigError):
            one_problem(c=0.3, width=2.0, orders=(4, 4, 8))

    def test_pure_absorber_sequence_converges(self):
        # Successive differences decay steeply but not monotonically (the
        # quadrature error oscillates), so assert the decreasing envelope
        # over 3-term blocks plus a converged tail.  Values themselves
        # match the closed form to 1e-12 (see TestPureAbsorberClosedForm).
        # The grid needs c > 0, so the c = 0 sequence is solved per order.
        values = [solve_sn(0.0, 2.0, n) for n in range(4, 53, 4)]
        diffs = np.abs(np.diff(values))
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

    def test_generation_is_deterministic(self):
        config = DatasetConfig(c_count=3, widths=(1.0, 5.0))
        a = generate_grid(config)
        b = generate_grid(config)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.values, s2.values)

    @pytest.mark.parametrize("widths", [(1.0, 10.0, 50.0), (50.0, 10.0, 1.0)])
    def test_grid_values_equal_solve_sn(self, widths):
        config = DatasetConfig(c_count=4, widths=widths, orders=(4, 6, 10, 64))
        grid = generate_grid(config)
        cs = config.c_values()
        cases = [(c, w) for c in cs for w in widths]
        assert [(s.c, s.width_mfp) for s in grid] == cases
        assert [s.id for s in grid] == [f"s{k:03d}" for k in range(len(cases))]
        for seq in grid:
            alone = [solve_sn(seq.c, seq.width_mfp, n) for n in config.orders]
            assert np.array_equal(seq.values, alone), seq.id

    @pytest.mark.parametrize("changes,match", [
        ({"orders": (4, 5)}, "even"),
        ({"orders": (2, 4)}, "even"),
        ({"orders": (4, 66)}, "even"),
        ({"orders": (8, 4)}, "strictly increasing"),
        ({"orders": (4, 4)}, "strictly increasing"),
        ({"widths": (1.0, 0.0)}, "widths must be positive"),
        ({"widths": (float("nan"),)}, "widths must be positive"),
    ])
    def test_config_rejects_bad_grid_inputs(self, changes, match):
        # Every bad field fails the config, an order with solve_sn's message.
        with pytest.raises(InvalidConfigError, match=match):
            DatasetConfig(**{"c_count": 2, "widths": (1.0,), **changes})
