"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with pytest -s or in captured output).

Quantitative bands acknowledge that the reference dataset's exact slab
parameterization is unpublished, so published rates are approximable on
this artifact's documented grid rather than exactly matchable; hard
properties (exactness, closure, determinism, monotonicity) are strict.
"""

import functools
import time

import numpy as np
import pytest

from oracles import Window, mesh_refined_center_flux, pure_absorber_center_flux
from txaccel.accelerators import INVALID, METHODS, aitken, evolved, wynn
from txaccel.benchmark import compare_to_reference, run_benchmark
from txaccel.evolution import (
    EvolutionConfig,
    FitnessEvaluator,
    _initial_population,
    evolve,
    split_dataset,
)
from txaccel.kernels import compile_formula, evaluate_program
from txaccel.quadrature import gauss_legendre
from txaccel.transport import solve_sn
from txaccel.trees import Formula, Node, random_tree, serialize

EVAL_ORDERS = (20, 28, 36, 44, 52)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {title}")
                raise
            print(f"criterion {number:2d} PASS  {title} "
                  f"[{time.perf_counter() - started:.1f}s]")
        return run
    return wrap


@criterion(1, "quadrature moment exactness, N=4..52")
def test_criterion_01_quadrature_exactness():
    for order in range(4, 53, 4):
        nodes, weights = gauss_legendre(order)
        for k in range(0, 2 * order - 1):
            moment = float(np.sum(weights * nodes ** k))
            expected = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(moment - expected) < 1e-12, (order, k)


@criterion(2, "transport matches mesh-refined oracle (1e-7) and c=0 closed "
              "form (1e-12)")
def test_criterion_02_transport_oracle_equivalence():
    rng = np.random.default_rng(2025)
    for _ in range(20):
        c = float(rng.uniform(0.001, 0.999))
        width = float(rng.choice([1.0, 2.0, 5.0, 10.0, 20.0, 50.0]))
        order = int(rng.choice(range(4, 53, 4)))
        analytic = solve_sn(c, width, order)
        oracle, spread = mesh_refined_center_flux(c, width, order)
        assert spread < 1e-8 * abs(oracle), (c, width, order)
        assert abs(analytic - oracle) < 1e-7 * abs(oracle), (c, width, order)

    for order in range(4, 53, 4):
        for width in (1.0, 5.0, 20.0):
            analytic = solve_sn(0.0, width, order)
            closed = pure_absorber_center_flux(width, order)
            assert abs(analytic - closed) < 1e-12 * abs(closed)


@criterion(3, "infinite-medium limit at width 200 mfp")
def test_criterion_03_infinite_medium_limits():
    for c in (0.0, 0.5, 0.9):
        expected = 1.0 / (1.0 - c)
        flux = solve_sn(c, 200.0, 16)
        assert abs(flux - expected) < 1e-6


@criterion(4, "classical accelerator identities (geometric exactness, "
              "eps2 == delta-squared)")
def test_criterion_04_classical_identities():
    rng = np.random.default_rng(404)
    for _ in range(500):
        a = rng.uniform(-10.0, 10.0)
        b = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        r = rng.uniform(-0.85, 0.85)
        if abs(r) < 0.05:
            continue
        n = int(rng.integers(2, 20))
        s = a + b * r ** np.arange(n - 1, n + 3)[::-1]
        value = aitken(s)
        if value == INVALID:
            continue
        assert abs(value - a) < 1e-12 * max(1.0, abs(a))

    sentinels = 0
    for _ in range(1000):
        window = np.append(rng.uniform(-10.0, 10.0, 3)[::-1], 0.0)
        via_aitken = aitken(window)
        via_table = wynn(window)
        if via_aitken == INVALID or via_table == INVALID:
            sentinels += 1
            continue
        assert via_table == pytest.approx(via_aitken, rel=1e-12, abs=1e-12)
    assert sentinels < 1000
    print(f"  (epsilon/delta-squared sentinel cases excluded: {sentinels})")


@criterion(5, "built-in evolved accelerator matches direct substitution, "
              "both protection branches")
def test_criterion_05_evolved_formula_fidelity():
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 100:
        s = rng.uniform(0.1, 10.0, 4) * rng.choice([1.0, 1.0, 1.0, -1.0], 4)
        s_n, s_nm1, s_nm2 = s[0], s[1], s[2]
        stretched = 2.0 * s_n - 4.0 * s_nm1 + s_nm2
        if abs(s_nm1) < 1e-6 or abs(stretched) < 1e-6:
            continue
        expected = ((s_n * s_nm2 - s_n ** 2 - s_nm1 ** 2)
                    / (stretched * (s_n / s_nm1)))
        got = evolved(s)
        assert got == pytest.approx(expected, rel=1e-12)
        checked += 1

    assert evolved(Window(1.0, 5e-11, 2.0, 0.0)) == INVALID
    assert evolved(Window(1.0, 1.0, 2.0, 0.0)) == INVALID


def random_magnitudes(rng, low, high, shape):
    """Log-uniform magnitudes in [low, high] with random signs."""
    values = np.exp(rng.uniform(np.log(low), np.log(high), shape))
    return values * rng.choice([-1.0, 1.0], shape)


@criterion(6, "closure: random trees on the kernel, 50,000 evaluations at "
              "window scale and 50,000 across the float range, all finite")
def test_criterion_06_closure():
    # Each tree is the numerator over the constant 1, so the program's
    # final division returns the tree's value.  Every tree runs on its own
    # 5 windows at its own 5 p-values: 25 (tree, window, p) evaluations.
    rng = np.random.default_rng(606)
    trees, k = 2_000, 5
    one = Node("const", value=1.0)
    scales = (
        # Window terms up to 1e8 in magnitude and p uniform on +-1e8.
        (random_magnitudes(rng, 1e-8, 1e8, (trees, k, 4)),
         rng.uniform(-1e8, 1e8, (trees, k))),
        # Terms and p across the float range, where products overflow and
        # only the clamps keep values finite.
        (random_magnitudes(rng, 1e-300, 1e300, (trees, k, 4)),
         random_magnitudes(rng, 1e-300, 1e300, (trees, k))),
    )
    with np.errstate(over="ignore"):
        assert np.isinf(scales[1][0][..., 0] * scales[1][0][..., 1]).any()
    for windows, ps in scales:
        for i in range(trees):
            tree = random_tree(4, "grow" if i % 2 else "full", rng)
            program = compile_formula(Formula(tree, one))
            values = evaluate_program(program, windows[i], ps[i])
            assert values.shape == (k, k)
            assert np.isfinite(values).all(), serialize(Formula(tree, one))


@criterion(7, "evolution hard invariants on a seeded mini run")
def test_criterion_07_evolution_invariants(mini24):
    training, validation = split_dataset(mini24, 0.70, 77)
    config = EvolutionConfig(population_size=12, max_generations=20,
                             rng_seed=42, target_fitness=1.0)
    report = evolve(config, training, validation)

    bests = [h.best_fitness for h in report.history]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    assert all(h.population_size == 12 for h in report.history)
    assert report.generations == 20

    seed_formula = _initial_population(config, np.random.default_rng(42))[0]
    seed_fitness = FitnessEvaluator(
        training, config.evaluation_orders).fitness(seed_formula)
    assert report.history[0].best_fitness >= seed_fitness

    rerun = evolve(config, training, validation)
    assert serialize(rerun.best_formula) == serialize(report.best_formula)
    assert [h.best_fitness for h in rerun.history] == bests
    assert rerun.evals == report.evals


@criterion(8, "published-band reproduction on the default 240-sequence "
              "dataset")
def test_criterion_08_reference_bands(dataset240):
    report = run_benchmark(
        dataset240,
        METHODS,
        EVAL_ORDERS)
    rates = {name: entry.success_rate
             for name, entry in report.methods.items()}
    print(f"  (rates: aitken {rates['aitken']:.3f}, wynn {rates['wynn']:.3f}, "
          f"evolved {rates['evolved']:.3f})")

    assert rates["evolved"] > rates["aitken"]
    assert rates["evolved"] > rates["wynn"]
    assert 0.15 <= rates["aitken"] <= 0.60
    assert 0.15 <= rates["wynn"] <= 0.60
    assert 0.55 <= rates["evolved"] <= 0.95

    text = compare_to_reference(report)
    for name, ref in (("aitken", 0.39), ("wynn", 0.32), ("evolved", 0.78)):
        if abs(rates[name] - ref) > 0.15:
            assert "dataset-parameterization difference" in text


@criterion(9, "discoverability: seeded full runs reach the fitness bar and "
              "generalize; reduced-scale variant is quick")
def test_criterion_09_discoverability(dataset240):
    training, validation = split_dataset(dataset240, 0.70, 9)
    assert len(training) == 168 and len(validation) == 72

    qualifying = []
    for seed in (101, 202, 303):
        config = EvolutionConfig(population_size=40, max_generations=200,
                                 rng_seed=seed)
        report = evolve(config, training, validation)
        if report.train_fitness >= 0.60:
            qualifying.append(report)
    assert qualifying, "no run reached training fitness 0.60"
    for report in qualifying:
        assert abs(report.validation_fitness - report.train_fitness) <= 0.10

    started = time.perf_counter()
    reduced = EvolutionConfig(population_size=20, max_generations=50,
                              rng_seed=7, target_fitness=1.0)
    small_train, small_val = split_dataset(dataset240[:60], 0.70, 7)
    evolve(reduced, small_train, small_val)
    assert time.perf_counter() - started < 600


@criterion(10, "split arithmetic and fitness denominator")
def test_criterion_10_split_arithmetic(dataset240):
    training, validation = split_dataset(dataset240, 0.70, 1)
    assert len(training) == 168
    assert len(validation) == 72
    evaluator = FitnessEvaluator(training, EVAL_ORDERS)
    assert evaluator.comparisons == 840
