"""Tournament-based evolution of acceleration formulas.

Each generation copies the elite unchanged, fills the rest with
tournament-selected parents recombined by subtree crossover (probability
p_c) and subtree mutation (probability p_m per offspring), tunes the
learnable parameter of every newly created or modified formula with a
deterministic two-batch scan over p, and stops at the generation cap or
once the best training fitness exceeds the target.

Fitness is the fraction of (sequence, position) comparisons where the
formula's consecutive relative error strictly beats the raw sequence's
error at the same position.  Invalid outputs (a vanishing accelerated
value makes the relative error undefined) count as losses.  The training
set is one ``ComparisonMatrix`` and a fitness call scores one p-value or
a whole vector of them on its windows, by the matrix's win rule: the one
``evaluate`` uses, so a formula's fitness is its ``evaluate`` success
rate on the same sequences and positions.  A vector of p is swept in
blocks of about BLOCK_ELEMENTS values (p-values times windows), one
kernel call per block, all in one kernel workspace that the evaluator
keeps: the p-scan then reuses a few cache-sized buffers instead of
faulting in fresh (P, n) temporaries on each of its calls.  The
workspace lays a block out as (2, P, m), the prev values and the curr
values of the m comparisons as two contiguous arrays, which is the
layout the score takes.

The fitness of a program at a p is a pure function of the two, so the
evaluator keeps, for the rest of the run, each tuned program's fits at
the fixed P_SCAN values and its refine fits for each centre it was
refined around.  A program that comes back (a copy, or a crossover or
mutation that rebuilds a program already tuned) sends only its current
p and its fresh random draws through the kernel; the draws are still
taken, so the generator is consumed as on a first tuning and the result
is bitwise the same.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfigError
from .kernels import Workspace, compile_formula, evaluate_program
from .sequences import ComparisonMatrix
from .trees import (
    Formula,
    aitken_seed,
    contains_parameter,
    crossover,
    formula_node_count,
    mutate,
    random_tree,
    serialize,
)

DEFAULT_EVALUATION_ORDERS = (20, 28, 36, 44, 52)

#: Range of the initial p of a random formula and of the tuner's random
#: draws, and the number of those draws per tuned formula.
P_RANGE = (-2.0, 2.0)
P_DRAWS = 5

#: Fixed part of the tuner's first batch: an even grid on P_RANGE and
#: log-spaced magnitudes of both signs, because the best p of a formula
#: can lie far outside P_RANGE.
P_SCAN = np.concatenate((np.linspace(*P_RANGE, 129),
                         np.logspace(-4, 6, 41), -np.logspace(-4, 6, 41)))

#: The refine batch: REFINE_POINTS even points on best +- max(REFINE_MIN,
#: |best| * REFINE_RELATIVE), a quarter decade around a log-grid point.
REFINE_POINTS = 65
REFINE_MIN = 1.0 / 32.0
REFINE_RELATIVE = 10.0 ** 0.25 - 1.0

#: Elements of one block of the p-scan, p-values times windows: about
#: 1 MiB per float64 buffer of the kernel's workspace, so that a block's
#: opcodes run near the L2 cache instead of streaming from memory.
BLOCK_ELEMENTS = 2 ** 17


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 40
    max_generations: int = 200
    crossover_rate: float = 0.70
    mutation_rate: float = 0.30
    elite_count: int = 2
    tournament_size: int = 3
    max_depth: int = 4
    target_fitness: float = 0.75
    evaluation_orders: tuple = DEFAULT_EVALUATION_ORDERS
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "evaluation_orders",
                           tuple(int(n) for n in self.evaluation_orders))
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise InvalidConfigError(f"crossover_rate {self.crossover_rate} not in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise InvalidConfigError(f"mutation_rate {self.mutation_rate} not in [0, 1]")
        if not 0 < self.elite_count < self.population_size:
            raise InvalidConfigError(
                f"elite_count must satisfy 0 < e < population size, got "
                f"{self.elite_count} of {self.population_size}"
            )
        if self.tournament_size < 2:
            raise InvalidConfigError(f"tournament_size must be >= 2, got "
                                     f"{self.tournament_size}")
        if not 0.0 < self.target_fitness <= 1.0:
            raise InvalidConfigError(f"target_fitness {self.target_fitness} "
                                     "not in (0, 1]")
        if self.max_depth < 1:
            raise InvalidConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.max_generations < 0:
            raise InvalidConfigError(
                f"max_generations must be >= 0, got {self.max_generations}")


class FitnessEvaluator(ComparisonMatrix):
    """The comparison matrix of one sequence set, scored on the kernel.

    ``fitness_program`` scores a vector of p in blocks of ``block_rows``
    p-values: per block one kernel call on ``windows`` and one ``score``
    (the win rule of ``evaluate`` without its invalid mask), all in the
    ``kernels.Workspace`` that the evaluator makes on its first call and
    keeps.  Its two groups of windows make each block (2, P, m): [prev,
    curr] on the leading axis, as ``score`` takes them.  A block's wins
    are the popcount of its win mask, kept with rows padded to whole
    8-byte words whose pad columns stay False.  ``evals`` counts
    the p-values scored, memo hits included.  ``memo`` maps a program's
    opcode and constant bytes to its fits at P_SCAN and a dict of its
    refine fits by centre; ``memo_hits`` counts the tunings that found
    their program there.
    """

    def __init__(self, sequences, orders):
        super().__init__(sequences, orders)
        self.evals = 0
        self.block_rows = max(1, BLOCK_ELEMENTS // self.windows.shape[0])
        self._workspace = None
        self._win_mask = None
        self.memo = {}
        self.memo_hits = 0

    def fitness_program(self, program, p):
        """Fitness at ``p``: a float, or one per entry of a 1-D array."""
        if self._workspace is None:
            self._workspace = Workspace(self.windows, self.block_rows, groups=2)
            self._win_mask = np.zeros(
                (self.block_rows, -(-self.comparisons // 8) * 8), dtype=bool)
        ps = np.atleast_1d(p)
        wins = np.empty(ps.shape, dtype=np.intp)
        for start in range(0, ps.size, self.block_rows):
            block = ps[start:start + self.block_rows]
            accel = evaluate_program(program, self.windows, block, self._workspace)
            rows = self._win_mask[:block.size]
            self.score(accel, out=rows[:, :self.comparisons])
            wins[start:start + block.size] = np.bitwise_count(
                rows.view(np.uint64)).sum(axis=-1)
        self.evals += ps.size
        fit = wins / self.comparisons
        return fit if np.ndim(p) else float(fit[0])

    def fitness(self, f: Formula) -> float:
        return self.fitness_program(compile_formula(f), f.p)


def formula_method(f: Formula):
    """``f`` as an ``evaluate`` method: its values on a window array, on
    the kernel."""
    program = compile_formula(f)

    def method(windows):
        return evaluate_program(program, windows, f.p)

    return method


def _optimize_parameter(f, evaluator, rng):
    """Best (formula, fitness) over a two-batch scan of p.

    Formulas without a p node are returned as-is after one fitness
    evaluation and leave ``rng`` untouched.  Otherwise the first batch is
    the current p, P_SCAN and P_DRAWS uniform draws from P_RANGE; the
    second refines around the first batch's best.  The first best p wins,
    and ``f`` itself is returned unless some p is strictly fitter than
    ``f.p``.  Fits at P_SCAN, and refine fits around a centre met before,
    come from ``evaluator.memo`` when the program was tuned before.
    """
    program = compile_formula(f)
    if not (contains_parameter(f.numerator) or contains_parameter(f.denominator)):
        return f, evaluator.fitness_program(program, f.p)

    draws = rng.uniform(*P_RANGE, P_DRAWS)
    scan = np.concatenate(([f.p], P_SCAN, draws))
    key = program.code.tobytes(), program.consts.tobytes()
    entry = evaluator.memo.get(key)
    if entry is None:
        scan_fit = evaluator.fitness_program(program, scan)
        entry = evaluator.memo[key] = (scan_fit[1:1 + P_SCAN.size].copy(), {})
    else:
        fresh = evaluator.fitness_program(program, np.concatenate(([f.p], draws)))
        scan_fit = np.concatenate((fresh[:1], entry[0], fresh[1:]))
        evaluator.evals += P_SCAN.size
        evaluator.memo_hits += 1
    center = float(scan[np.argmax(scan_fit)])
    half = max(REFINE_MIN, abs(center) * REFINE_RELATIVE)
    refine = np.linspace(center - half, center + half, REFINE_POINTS)
    refine_fit = entry[1].get(center)
    if refine_fit is None:
        refine_fit = entry[1][center] = evaluator.fitness_program(program, refine)
    else:
        evaluator.evals += REFINE_POINTS
    candidates = np.concatenate((scan, refine))
    fits = np.concatenate((scan_fit, refine_fit))
    best = int(np.argmax(fits))
    if best == 0:
        return f, float(fits[0])
    return replace(f, p=float(candidates[best])), float(fits[best])


def _rank_key(individuals):
    """Total order: fitness desc, then fewer nodes, then earlier index."""
    sizes = [formula_node_count(ind[0]) for ind in individuals]

    def key(i):
        return (-individuals[i][1], sizes[i], i)

    return key


def _tournament(rng, size, tournament_size, key):
    """Index of the fittest of ``tournament_size`` members drawn with
    replacement from a population of ``size``, under the rank ``key``."""
    return min(rng.integers(0, size, size=tournament_size), key=key)


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    evals: int
    population_size: int = 0


@dataclass
class EvolutionReport:
    best_formula: Formula
    train_fitness: float
    validation_fitness: float
    history: list
    generations: int
    target_reached: bool
    comparisons: int
    evals: int
    memo_hits: int

    def runlog_rows(self):
        yield "generation,best_fitness,mean_fitness,evals"
        for row in self.history:
            yield (f"{row.generation},{row.best_fitness:.17g},"
                   f"{row.mean_fitness:.17g},{row.evals}")


def split_dataset(sequences, train_fraction: float, rng_seed: int):
    """Seeded shuffle then split; sizes round(f*n) and the remainder.

    Raises InvalidConfigError when either side would be empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InvalidConfigError(f"train_fraction {train_fraction} not in (0, 1)")
    sequences = list(sequences)
    perm = np.random.default_rng(rng_seed).permutation(len(sequences))
    n_train = int(round(train_fraction * len(sequences)))
    if not 0 < n_train < len(sequences):
        raise InvalidConfigError(
            f"train_fraction {train_fraction} of {len(sequences)} sequences "
            f"gives {n_train} training and {len(sequences) - n_train} "
            "validation sequences; both must be non-empty")
    train = [sequences[i] for i in perm[:n_train]]
    validation = [sequences[i] for i in perm[n_train:]]
    return train, validation


def _initial_population(config, rng):
    """The seeded delta-squared formula plus ramped random formulas."""
    formulas = [aitken_seed()]
    if config.max_depth >= 2:
        depths = list(range(2, config.max_depth + 1))
    else:
        depths = [1]
    methods = ("grow", "full")
    for i in range(config.population_size - 1):
        depth = depths[i % len(depths)]
        method = methods[(i // len(depths)) % 2]
        p = float(rng.uniform(*P_RANGE))
        num = random_tree(depth, method, rng)
        den = random_tree(depth, method, rng)
        formulas.append(Formula(num, den, p))
    return formulas


def evolve(config: EvolutionConfig, training, validation) -> EvolutionReport:
    """Run the full loop and report the best formula with held-out fitness.

    Deterministic given the config (seed included): the single generator
    is consumed in a fixed order and fitness evaluation never draws from
    it.
    """
    training = list(training)
    validation = list(validation)
    train_ids = {seq.id for seq in training}
    if any(seq.id in train_ids for seq in validation):
        raise InvalidConfigError("training and validation sets overlap")

    rng = np.random.default_rng(config.rng_seed)
    evaluator = FitnessEvaluator(training, config.evaluation_orders)

    population = []
    for f in _initial_population(config, rng):
        population.append(_optimize_parameter(f, evaluator, rng))

    history = []

    def record():
        """Append the current generation's stats to ``history``."""
        fits = [fit for _, fit in population]
        history.append(GenerationStats(
            generation=generation,
            best_fitness=best[1],
            mean_fitness=float(np.mean(fits)),
            evals=evaluator.evals,
            population_size=len(population),
        ))

    # Tree sizes are counted once per population, in its rank key.
    key = _rank_key(population)
    generation = 0
    best = population[min(range(len(population)), key=key)]
    record()

    while generation < config.max_generations and best[1] <= config.target_fitness:
        order = sorted(range(len(population)), key=key)
        new_population = [population[i] for i in order[:config.elite_count]]

        while len(new_population) < config.population_size:
            a = _tournament(rng, len(population), config.tournament_size, key)
            b = _tournament(rng, len(population), config.tournament_size, key)
            parent_a = population[a][0]
            parent_b = population[b][0]
            if rng.random() < config.crossover_rate:
                child_a, child_b = crossover(parent_a, parent_b, rng,
                                             config.max_depth)
                modified_a = modified_b = True
            else:
                child_a, child_b = parent_a, parent_b
                modified_a = modified_b = False
            if rng.random() < config.mutation_rate:
                child_a = mutate(child_a, rng, config.max_depth)
                modified_a = True
            if rng.random() < config.mutation_rate:
                child_b = mutate(child_b, rng, config.max_depth)
                modified_b = True

            for child, modified, parent in ((child_a, modified_a, a),
                                            (child_b, modified_b, b)):
                if len(new_population) >= config.population_size:
                    break
                if modified:
                    new_population.append(
                        _optimize_parameter(child, evaluator, rng))
                else:
                    # Straight copy: parent's p is already tuned, reuse its
                    # fitness instead of re-evaluating.
                    new_population.append((child, population[parent][1]))

        population = new_population
        generation += 1
        key = _rank_key(population)
        candidate = population[min(range(len(population)), key=key)]
        if candidate[1] > best[1]:
            best = candidate
        record()

    best_formula, train_fitness = best
    if validation:
        validation_fitness = FitnessEvaluator(
            validation, config.evaluation_orders).fitness(best_formula)
    else:
        validation_fitness = float("nan")
    return EvolutionReport(
        best_formula=best_formula,
        train_fitness=train_fitness,
        validation_fitness=validation_fitness,
        history=history,
        generations=generation,
        target_reached=train_fitness > config.target_fitness,
        comparisons=evaluator.comparisons,
        evals=evaluator.evals,
        memo_hits=evaluator.memo_hits,
    )


def write_report(report: EvolutionReport, out_dir) -> None:
    """Best formula text, run-log CSV, and a small fitness summary."""
    from pathlib import Path

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "formula.txt").write_text(serialize(report.best_formula) + "\n")
    (out_dir / "runlog.csv").write_text("\n".join(report.runlog_rows()) + "\n")
    summary = (
        f"generations={report.generations}\n"
        f"target_reached={report.target_reached}\n"
        f"train_fitness={report.train_fitness:.17g}\n"
        f"validation_fitness={report.validation_fitness:.17g}\n"
        f"comparisons_per_fitness={report.comparisons}\n"
        f"fitness_evaluations={report.evals}\n"
        f"memo_hits={report.memo_hits}\n"
    )
    (out_dir / "summary.txt").write_text(summary)
