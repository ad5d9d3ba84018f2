from dataclasses import replace

import numpy as np
import pytest

from txaccel import kernels
from txaccel.errors import InvalidArgumentError
from txaccel.evolution import EvolutionConfig, evolve, split_dataset
from oracles import Window, eval_formula, random_formula
from txaccel.kernels import compile_formula, evaluate_program
from txaccel.trees import (
    CLAMP,
    DIV_GUARD,
    DIV_PROTECTED_VALUE,
    Formula,
    Node,
    parse,
)


def random_windows(rng, n, lo=1e-8, hi=1e8):
    mags = np.exp(rng.uniform(np.log(lo), np.log(hi), (n, 4)))
    return mags * rng.choice([-1.0, 1.0], (n, 4))


def test_numpy_backend_matches_scalar_reference_bitwise():
    rng = np.random.default_rng(40)
    for trial in range(200):
        f = random_formula(4, "grow" if trial % 2 else "full", rng,
                           p=float(rng.uniform(-2, 2)))
        windows = random_windows(rng, 9)
        program = compile_formula(f)
        batch = evaluate_program(program, windows, f.p)
        assert batch.shape == (9,)
        for i in range(windows.shape[0]):
            assert batch[i] == eval_formula(f, Window(*windows[i]))

        # A vector of p-values gives one row per p, each bitwise equal to
        # the scalar reference at that p.
        ps = np.concatenate(([f.p, 0.0, -1e6], rng.uniform(-2, 2, 3),
                             rng.choice([-1.0, 1.0], 3) * np.logspace(-4, 6, 3)))
        rows = evaluate_program(program, windows, ps)
        assert rows.shape == (len(ps), 9) and rows.flags.writeable
        for j, p in enumerate(ps):
            g = replace(f, p=float(p))
            for i in range(windows.shape[0]):
                assert rows[j, i] == eval_formula(g, Window(*windows[i]))
    windows = random_windows(rng, 9)
    windows[::4, 1] = 0.0
    ps = np.concatenate(([0.0, -0.0, 1.5], rng.uniform(-2, 2, 3)))
    for text in ORDER_FORMULAS:
        assert_bitwise_rows(parse(text), windows, ps)


def extreme_windows(rng, n):
    """Windows whose terms are exact zeros, below DIV_GUARD, near 1 or near
    the top of the float range, with random signs."""
    scales = rng.choice([0.0, 1e-300, 3e-11, 1.0, 1e150, 1e300, 1.7e308], (n, 4))
    return scales * rng.uniform(0.5, 1.0, (n, 4)) * rng.choice([-1.0, 1.0], (n, 4))


def assert_bitwise_rows(f, windows, ps):
    """Every kernel row equals eval_formula bit for bit, for f.p and ps."""
    def scalar(g):
        return np.array([eval_formula(g, Window(*w)) for w in windows])

    program = compile_formula(f)
    single = evaluate_program(program, windows, f.p)
    assert np.array_equal(single.view(np.uint64), scalar(f).view(np.uint64))
    rows = evaluate_program(program, windows, ps)
    expected = np.array([scalar(replace(f, p=float(p))) for p in ps])
    assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))


# One formula per rare branch: overflowing add, sub, div and d2, clamped
# mul and sq, and the protected div.
BRANCH_FORMULAS = (
    "(formula :p 1.5 :num (add Sn Snm1) :den (add Snm2 p))",
    "(formula :p 1.5 :num (sub Sn Snm1) :den (sub p Snm3))",
    "(formula :p 1.5 :num (div Sn Snm1) :den (div Snm2 p))",
    "(formula :p 1.5 :num (mul Sn Snm1) :den (mul p Snm3))",
    "(formula :p 1.5 :num (sq Sn) :den (sq (sub Snm1 p)))",
    "(formula :p 1.5 :num (add (sq Sn) (mul Snm2 p)) :den (d2))",
    "(formula :p 1.5 :num (sub (d2) (d2)) :den (add (d2) p))",
)

# Formulas whose evaluation order differs from the tree's: the right
# operand needs more block buffers, so it is computed first, at a sub or a
# div, at the root and deeper.  Some divide by a block: a product with p
# is guarded wherever p or the window term is 0.
ORDER_FORMULAS = (
    "(formula :p 1.5 :num (sub Sn Snm1) :den (add Snm2 p))",
    "(formula :p 1.5 :num (div Sn Snm1) :den (mul p Snm1))",
    "(formula :p 1.5 :num (sub Sn (mul p Snm1)) :den 2.0)",
    "(formula :p 1.5 :num (div Snm3 (sub Snm1 p)) :den (sq (add Sn Snm2)))",
    "(formula :p 1.5 :num (sub (mul Sn p) (mul (add Snm1 p) (sub Snm2 p)))"
    " :den (d2))",
    "(formula :p 1.5 :num (div (add Sn p) (mul (sub Snm1 p) (add Snm2 p)))"
    " :den (sub p (div Snm3 (mul p Sn))))",
    "(formula :p 1.5 :num (mul (div (d2) (mul p Snm1)) (sq (sub Sn p)))"
    " :den (div (add Snm2 p) (sub (mul p Sn) (div Snm1 (add p Snm3)))))",
)

EXTREME_PS = np.array([1.5, 0.0, -0.0, 1e-12, -1e-300, 2.0, -1e160, 1e300,
                       -1.7e308])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extreme_windows_match_scalar_reference_bitwise():
    rng = np.random.default_rng(46)
    windows = extreme_windows(rng, 400)
    sn, snm1, snm2 = windows[:, 0], windows[:, 1], windows[:, 2]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # The windows reach every rare branch of the kernel.
        assert np.isinf(sn + snm1).any() and np.isinf(sn - snm1).any()
        assert np.isinf(sn - 2.0 * snm1 + snm2).any()
        assert np.isinf(sn / snm1).any()
        big_sums = np.abs(sn + snm1)
        assert ((big_sums > CLAMP) & np.isfinite(big_sums)).any()
        assert (np.abs(sn * snm1) > CLAMP).any()
        assert (snm1 == 0.0).any()
        assert ((np.abs(snm1) < DIV_GUARD) & (snm1 != 0.0)).any()
    for text in BRANCH_FORMULAS:
        assert_bitwise_rows(parse(text), windows, EXTREME_PS)
    for trial in range(100):
        f = random_formula(4, "grow" if trial % 2 else "full", rng,
                           p=float(rng.choice(EXTREME_PS)))
        assert_bitwise_rows(f, extreme_windows(rng, 24), EXTREME_PS)
    for text in ORDER_FORMULAS:
        assert_bitwise_rows(parse(text), windows, EXTREME_PS)
    # NaN and +-inf windows and p.  The NaNs carry the sign bit of the NaN
    # that inf - inf or 0 * inf makes: where NaNs of both signs meet at an
    # add or a mul, numpy keeps the first operand's and a Python float the
    # second's, so the two would differ in any evaluation order.
    special = extreme_windows(rng, 60)
    special.flat[rng.choice(special.size, 40, replace=False)] = np.resize(
        [-np.nan, np.inf, -np.inf], 40)
    special_ps = np.concatenate((EXTREME_PS, [-np.nan, np.inf, -np.inf]))
    for text in BRANCH_FORMULAS + ORDER_FORMULAS:
        assert_bitwise_rows(parse(text), special, special_ps)


def signed_uniform(rng, shape, lo, hi):
    return rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape)


def edge_windows(rng, n, lo, hi, newest=None):
    """Windows with terms of magnitude in [lo, hi), random signs; the
    newest term in ``newest`` = (lo, hi) instead when given."""
    windows = signed_uniform(rng, (n, 4), lo, hi)
    if newest is not None:
        windows[:, 0] = signed_uniform(rng, n, *newest)
    return windows


# Each case sets the windows so that a pass's bound sits past its limit
# and the results fall on both sides of it: products and squares of terms
# near 1e75 either side of CLAMP, sums of terms near 0.9e308 and second
# differences of terms near 0.5e308 either side of the float max, and
# quotients of terms near 1e298 by divisors just above DIV_GUARD the same.
# A bound that undershoots (add's as max(A, B), say) skips a pass these
# need; a result in the denominator shows the skip, as 1 / inf = 0 where
# 1 / CLAMP is not.
BOUND_EDGE_CASES = {
    "products": ((0.5e75, 2e75), None, lambda w: w[:, 0] * w[:, 1], CLAMP, (
        "(formula :p 1.5 :num (mul Sn Snm1) :den 1.0)",
        "(formula :p 1.5 :num 1.0 :den (sq Snm2))",
        "(formula :p 1.5 :num 1.0 :den (mul (sub Sn Snm1) Snm2))",
    )),
    "sums": ((0.8e308, 1e308), None, lambda w: w[:, 0] + w[:, 1],
             kernels.FLOAT_MAX, (
        "(formula :p 1.5 :num (add Sn Snm1) :den 1.0)",
        "(formula :p 1.5 :num 1.0 :den (add Sn Snm1))",
        "(formula :p 1.5 :num 1.0 :den (sub Snm2 Snm3))",
    )),
    "second differences": ((0.4e308, 0.6e308), None,
                           lambda w: w[:, 0] - 2.0 * w[:, 1] + w[:, 2],
                           kernels.FLOAT_MAX, (
        "(formula :p 1.5 :num (d2) :den 1.0)",
        "(formula :p 1.5 :num 1.0 :den (d2))",
    )),
    "quotients": ((1e-10, 3e-10), (0.5e298, 3e298), lambda w: w[:, 0] / w[:, 1],
                  kernels.FLOAT_MAX, (
        "(formula :p 1.5 :num (div Sn Snm1) :den 1.0)",
        "(formula :p 1.5 :num 1.0 :den (div Sn Snm1))",
        "(formula :p 1.5 :num Sn :den Snm2)",
    )),
    # A / DIV_GUARD < 1e6 here, yet a guarded entry reads 1e6, which five
    # squarings take past CLAMP.
    "protected quotients": ((0.5e-10, 2e-10), (1e-12, 1e-11),
                            lambda w: np.where(np.abs(w[:, 1]) < DIV_GUARD,
                                               DIV_PROTECTED_VALUE,
                                               w[:, 0] / w[:, 1]) ** 32, CLAMP, (
        "(formula :p 1.5 :num (sq (sq (sq (sq (sq (div Sn Snm1)))))) :den 1.0)",
    )),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(BOUND_EDGE_CASES))
def test_passes_at_the_edge_of_their_bounds(case):
    rng = np.random.default_rng(50)
    terms, newest, raw, limit, texts = BOUND_EDGE_CASES[case]
    windows = edge_windows(rng, 200, *terms, newest=newest)
    with np.errstate(over="ignore"):
        magnitudes = np.abs(raw(windows))
    assert (magnitudes > limit).any() and (magnitudes < limit).any()
    for text in texts:
        assert_bitwise_rows(parse(text), windows, np.array([1.5, -2.0]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_bounds_keep_every_pass():
    # A NaN in p or in the windows makes a NaN bound, which must not read
    # as small: the rows without NaN still need their clamps.
    windows = edge_windows(np.random.default_rng(51), 20, 0.8e308, 1e308)
    windows[3, 1] = np.nan
    ps = np.array([np.nan, 1e100, -1.7e308, 1.5])
    for text in ("(formula :p 1.5 :num (sq p) :den 1.0)",
                 "(formula :p 1.5 :num (mul p p) :den 1e-30)",
                 "(formula :p 1.5 :num (add p p) :den 1.0)",
                 "(formula :p 1.5 :num (add Sn Snm1) :den (sub p Snm2))",
                 "(formula :p 1.5 :num (div Snm1 1.5e-10) :den (d2))"):
        assert_bitwise_rows(parse(text), windows, ps)
        assert_bitwise_rows(parse(text), windows[:3], ps)


def test_no_clamp_runs_on_center_flux_windows(dataset240, monkeypatch):
    # Center fluxes are at most 1 / (1 - c) = 1000 and the p-scan's |p| at
    # most about 1.8e6, so on a 2-generation search over the default grid
    # every bound shows the overflow and product clamps idle.
    calls = {"overflow": 0, "clip": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels, "_clamp_overflow",
                        counted("overflow", kernels._clamp_overflow))
    monkeypatch.setattr(np, "clip", counted("clip", np.clip))
    train, validation = split_dataset(dataset240, 0.70, 1)
    config = EvolutionConfig(max_generations=2, target_fitness=1.0, rng_seed=1)
    report = evolve(config, train, validation)
    assert report.generations == 2 and report.evals > 10000
    assert calls == {"overflow": 0, "clip": 0}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_d2_is_clamped():
    # d2 = 1e308 + 2e308 + 1e308 overflows; unguarded, inf - inf is nan.
    f = parse("(formula :p 0 :num (sub (d2) (d2)) :den 1.0)")
    window = (1e308, -1e308, 1e308, 0.0)
    assert eval_formula(f, Window(*window)) == 0.0
    assert evaluate_program(compile_formula(f), np.array([window]), f.p)[0] == 0.0


def test_outputs_always_finite():
    rng = np.random.default_rng(42)
    for _ in range(200):
        f = random_formula(4, "grow", rng, p=float(rng.uniform(-1e6, 1e6)))
        out = evaluate_program(compile_formula(f), random_windows(rng, 17), f.p)
        assert np.all(np.isfinite(out))


def test_window_shape_validated():
    f = random_formula(2, "grow", np.random.default_rng(43))
    with pytest.raises(InvalidArgumentError):
        evaluate_program(compile_formula(f), np.ones((4, 3)), f.p)


def test_p_must_be_scalar_or_vector():
    f = random_formula(2, "grow", np.random.default_rng(45))
    with pytest.raises(InvalidArgumentError):
        evaluate_program(compile_formula(f), np.ones((4, 4)), np.zeros((2, 2)))


def test_formula_without_window_terms_fills_every_row():
    # p / p and constants never touch a window column, yet each p-value
    # still gets one value per window.
    f = Formula(Node("p"), Node("add", children=(Node("p"), Node("const", value=1.0))))
    out = evaluate_program(compile_formula(f), np.ones((5, 4)), np.array([1.0, 3.0]))
    assert out.shape == (2, 5) and out.flags.writeable
    assert np.array_equal(out, np.array([[0.5] * 5, [0.75] * 5]))


def test_result_without_workspace_is_fresh_and_writable():
    # A p-free program (shape (n,) before broadcasting), a p-only one
    # (shape (P, 1)) and a mixed one, at a float p and a vector of p.
    windows = random_windows(np.random.default_rng(47), 6)
    for text in ("(formula :p 0.5 :num (sub Sn Snm1) :den (d2))",
                 "(formula :p 0.5 :num p :den 2.0)",
                 "(formula :p 0.5 :num (add Sn p) :den (d2))"):
        program = compile_formula(parse(text))
        for p in (0.5, np.array([0.5, -1.0, 3.0])):
            first = kernels.evaluate_program(program, windows, p)
            second = kernels.evaluate_program(program, windows, p)
            assert first.shape == np.shape(p) + (6,) and first.flags.writeable
            assert not np.shares_memory(first, second)
            assert not np.shares_memory(first, windows)
            first[...] = 0.0
            assert np.array_equal(second, kernels.evaluate_program(program, windows, p))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reused_workspace_matches_fresh_sweeps_bitwise():
    # One workspace serves programs of every shape and p-vectors of every
    # length up to its rows, in any order, and leaves no stale values.
    rng = np.random.default_rng(48)
    windows = extreme_windows(rng, 60)
    workspace = kernels.Workspace(windows, rows=7)
    texts = BRANCH_FORMULAS + ORDER_FORMULAS + (
        "(formula :p 0.5 :num p :den 2.0)",
        "(formula :p 0.5 :num (sub Sn Snm1) :den (d2))",
        "(formula :p 0.5 :num (add 1.0 (sq 3.0)) :den p)")
    programs = [compile_formula(parse(text)) for text in texts]
    programs += [compile_formula(random_formula(4, "grow", rng)) for _ in range(40)]
    for program in programs + programs[::-1]:
        size = int(rng.integers(1, 8))
        ps = rng.choice(EXTREME_PS, size)
        for p in (ps, ps[0]):
            reused = kernels.evaluate_program(program, windows, p, workspace)
            fresh = kernels.evaluate_program(program, windows, p)
            assert np.array_equal(reused.view(np.uint64), fresh.view(np.uint64))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grouped_workspace_lays_out_contiguous_groups():
    # groups=2 gives the values of the first and the second half of the
    # window rows as two contiguous (P, n/2) blocks, bitwise those of the
    # ungrouped (P, n) result.
    rng = np.random.default_rng(49)
    windows = extreme_windows(rng, 60)
    workspace = kernels.Workspace(windows, rows=7, groups=2)
    texts = BRANCH_FORMULAS + ("(formula :p 0.5 :num p :den 2.0)",
                               "(formula :p 0.5 :num (sub Sn Snm1) :den (d2))")
    for text in texts:
        program = compile_formula(parse(text))
        for p in (rng.choice(EXTREME_PS, 7), rng.choice(EXTREME_PS, 1)[0]):
            grouped = kernels.evaluate_program(program, windows, p, workspace)
            fresh = kernels.evaluate_program(program, windows, p)
            assert grouped.shape == (2,) + np.shape(p) + (30,)
            assert grouped[0].flags.c_contiguous and grouped[1].flags.c_contiguous
            halves = np.stack((fresh[..., :30], fresh[..., 30:]))
            assert np.array_equal(grouped.view(np.uint64), halves.view(np.uint64))


def test_groups_must_split_the_windows():
    with pytest.raises(InvalidArgumentError, match="equal groups"):
        kernels.Workspace(np.ones((5, 4)), rows=2, groups=2)


def test_workspace_must_fit_the_call():
    windows = np.ones((5, 4))
    workspace = kernels.Workspace(windows, rows=2)
    program = compile_formula(parse("(formula :p 0.5 :num (add Sn p) :den 2.0)"))
    with pytest.raises(InvalidArgumentError, match="workspace"):
        kernels.evaluate_program(program, windows, np.zeros(3), workspace)
    with pytest.raises(InvalidArgumentError, match="workspace"):
        kernels.evaluate_program(program, windows.copy(), np.zeros(2), workspace)


def test_compiled_program_shape():
    f = random_formula(4, "full", np.random.default_rng(44))
    prog = compile_formula(f)
    assert prog.code.shape == prog.consts.shape
    assert prog.code[-1] == kernels.OP_DIV
