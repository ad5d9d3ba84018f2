"""txaccel: convergence acceleration for discrete-ordinates slab transport.

Generates exact S_N center-flux convergence sequences, applies classical
and evolved sequence accelerators, discovers new acceleration formulas by
genetic programming, and benchmarks everything against the raw sequences.
"""

__version__ = "0.1.0"

from .accelerators import METHODS, aitken, evolved, wynn
from .benchmark import BenchmarkReport, compare_to_reference, run_benchmark
from .evolution import (
    EvolutionConfig,
    EvolutionReport,
    FitnessEvaluator,
    evolve,
    formula_method,
    split_dataset,
)
from .quadrature import gauss_legendre
from .sequences import (
    ComparisonMatrix,
    Sequence,
    load_dataset,
    relative_errors,
    write_dataset,
)
from .transport import DatasetConfig, generate_grid, solve_sn
from .trees import Formula, Node, parse, serialize

__all__ = [name for name in dir() if not name.startswith("_")]
