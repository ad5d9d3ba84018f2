"""The package's public names and settings: the pipeline's entry points and
nothing that only the tests use.  A helper that only a test needs belongs in
the test or in oracles.py, and a config field or flag needs a caller in the
pipeline."""

import argparse
import dataclasses

import txaccel
from txaccel.cli import build_parser

PUBLIC_NAMES = {
    # submodules
    "accelerators", "benchmark", "errors", "evolution", "kernels",
    "quadrature", "sequences", "transport", "trees",
    # generate
    "DatasetConfig", "generate_grid", "solve_sn", "gauss_legendre",
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


# Every setting has a caller: a new config field or flag shows up here as a
# test diff, to be justified by the pipeline step that reads it.
CONFIG_FIELDS = {
    "DatasetConfig": ["c_min", "c_max", "c_count", "widths", "orders"],
    "EvolutionConfig": [
        "population_size", "max_generations", "crossover_rate",
        "mutation_rate", "elite_count", "tournament_size", "max_depth",
        "target_fitness", "evaluation_orders", "rng_seed",
    ],
}

SUBCOMMAND_FLAGS = {
    "generate": ["--out", "--seed", "--c-min", "--c-max", "--c-count",
                 "--widths", "--n-min", "--n-max", "--n-step"],
    "evolve": ["--data", "--pop", "--gens", "--cx", "--mut", "--elite",
               "--tourn", "--depth", "--target", "--split", "--positions",
               "--seed", "--out"],
    "evaluate": ["--data", "--formula", "--methods", "--positions", "--bins",
                 "--out"],
}


def test_config_fields_are_pinned():
    for name, fields in CONFIG_FIELDS.items():
        got = [f.name for f in dataclasses.fields(getattr(txaccel, name))]
        assert got == fields, name


def test_subcommand_flags_are_pinned():
    [subparsers] = [action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    got = {name: [flag for action in sub._actions
                  for flag in action.option_strings
                  if flag not in ("-h", "--help")]
           for name, sub in subparsers.choices.items()}
    assert got == SUBCOMMAND_FLAGS
