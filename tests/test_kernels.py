from dataclasses import replace

import numpy as np
import pytest

from txaccel import kernels
from txaccel.errors import InvalidArgumentError
from txaccel.kernels import compile_formula, evaluate_formula_batch
from txaccel.sequences import Window
from txaccel.trees import Formula, Node, eval_formula, random_formula


def random_windows(rng, n, lo=1e-8, hi=1e8):
    mags = np.exp(rng.uniform(np.log(lo), np.log(hi), (n, 4)))
    return mags * rng.choice([-1.0, 1.0], (n, 4))


def test_numpy_backend_matches_scalar_reference_bitwise():
    rng = np.random.default_rng(40)
    for trial in range(200):
        f = random_formula(4, "grow" if trial % 2 else "full", rng,
                           p=float(rng.uniform(-2, 2)))
        windows = random_windows(rng, 9)
        batch = evaluate_formula_batch(f, windows)
        assert batch.shape == (9,)
        for i in range(windows.shape[0]):
            assert batch[i] == eval_formula(f, Window(*windows[i]))

        # A vector of p-values gives one row per p, each bitwise equal to
        # the scalar reference at that p.
        ps = np.concatenate(([f.p, 0.0, -1e6], rng.uniform(-2, 2, 3),
                             rng.choice([-1.0, 1.0], 3) * np.logspace(-4, 6, 3)))
        rows = evaluate_formula_batch(f, windows, ps)
        assert rows.shape == (len(ps), 9) and rows.flags.writeable
        for j, p in enumerate(ps):
            g = replace(f, p=float(p))
            for i in range(windows.shape[0]):
                assert rows[j, i] == eval_formula(g, Window(*windows[i]))


def test_outputs_always_finite():
    rng = np.random.default_rng(42)
    for _ in range(200):
        f = random_formula(4, "grow", rng, p=float(rng.uniform(-1e6, 1e6)))
        out = evaluate_formula_batch(f, random_windows(rng, 17))
        assert np.all(np.isfinite(out))


def test_window_shape_validated():
    f = random_formula(2, "grow", np.random.default_rng(43))
    with pytest.raises(InvalidArgumentError):
        evaluate_formula_batch(f, np.ones((4, 3)))


def test_p_must_be_scalar_or_vector():
    f = random_formula(2, "grow", np.random.default_rng(45))
    with pytest.raises(InvalidArgumentError):
        evaluate_formula_batch(f, np.ones((4, 4)), np.zeros((2, 2)))


def test_formula_without_window_terms_fills_every_row():
    # p / p and constants never touch a window column, yet each p-value
    # still gets one value per window.
    f = Formula(Node("p"), Node("add", children=(Node("p"), Node("const", value=1.0))))
    out = evaluate_formula_batch(f, np.ones((5, 4)), np.array([1.0, 3.0]))
    assert out.shape == (2, 5) and out.flags.writeable
    assert np.array_equal(out, np.array([[0.5] * 5, [0.75] * 5]))


def test_compiled_program_shape():
    f = random_formula(4, "full", np.random.default_rng(44))
    prog = compile_formula(f)
    assert prog.code.shape == prog.consts.shape
    assert prog.code[-1] == kernels.OP_DIV
