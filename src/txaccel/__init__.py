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
    fitness,
    formula_method,
    optimize_parameter,
    split_dataset,
    tournament_select,
)
from .quadrature import QuadratureSet, gauss_legendre
from .sequences import (
    ComparisonMatrix,
    Sequence,
    Window,
    load_dataset,
    relative_errors,
    write_dataset,
)
from .transport import (
    DatasetConfig,
    SlabProblem,
    SnSolution,
    generate_dataset,
    generate_grid,
    generate_sequence,
    solve_sn,
)
from .trees import Formula, Node, eval_formula, eval_tree, parse, serialize

__all__ = [name for name in dir() if not name.startswith("_")]
