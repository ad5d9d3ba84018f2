"""The package's public names: the pipeline's entry points and nothing that
only the tests use.  A helper that only a test needs belongs in the test or
in oracles.py."""

import txaccel

PUBLIC_NAMES = {
    # submodules
    "accelerators", "benchmark", "errors", "evolution", "kernels",
    "quadrature", "sequences", "transport", "trees",
    # generate
    "DatasetConfig", "SlabProblem", "generate_grid", "solve_sn",
    "QuadratureSet", "gauss_legendre",
    # datasets and the comparison matrix
    "Sequence", "load_dataset", "write_dataset", "ComparisonMatrix",
    "relative_errors",
    # evaluate
    "METHODS", "aitken", "wynn", "evolved", "BenchmarkReport",
    "run_benchmark", "compare_to_reference",
    # evolve and the formula language
    "EvolutionConfig", "EvolutionReport", "FitnessEvaluator", "evolve",
    "formula_method", "split_dataset", "Formula", "Node", "parse",
    "serialize",
}


def test_public_names_are_pinned():
    assert set(txaccel.__all__) == PUBLIC_NAMES
