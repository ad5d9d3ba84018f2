import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import Window, aitken, eval_formula, is_invalid, scalar_scores
from txaccel import evolution
from txaccel.cli import main
from txaccel.errors import (
    InsufficientHistoryError,
    InvalidArgumentError,
    InvalidConfigError,
)
from txaccel.evolution import (
    P_DRAWS,
    EvolutionConfig,
    FitnessEvaluator,
    _initial_population,
    _optimize_parameter,
    _rank_key,
    _tournament,
    evolve,
    split_dataset,
    write_report,
)
from txaccel.kernels import compile_formula, evaluate_program
from txaccel.sequences import TINY_DENOMINATOR, Sequence, relative_errors
from txaccel.trees import (
    DIV_GUARD,
    Formula,
    Node,
    depth,
    formula_node_count,
    parse,
    serialize,
)

ORDERS = (20, 28, 36, 44, 52)
REFERENCE_DATASET = (Path(__file__).resolve().parents[1]
                     / "perfbench" / "reference" / "dataset.csv")


def geometric_training_set(n_seq=12, seed=0, prefix="g"):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_seq):
        a = rng.uniform(1.0, 5.0)
        b = rng.uniform(0.5, 2.0)
        r = rng.uniform(0.45, 0.60)
        values = a + b * r ** np.arange(1, 14)
        out.append(Sequence(id=f"{prefix}{i}", c=0.5, width_mfp=1.0,
                            orders=tuple(range(4, 53, 4)), values=values))
    return out


def identity_formula():
    return Formula(Node("Sn"), Node("const", value=1.0), 0.0)


def step_formula(shift=0.0, scale=1.0, p=0.0):
    """A_n = S_n + scale*(p - shift)*(S_n - S_{n-1}).

    On geometric data with ratio r it beats the raw sequence where
    0 < scale*(p - shift) < 2r/(1-r).
    """
    factor = Node("p")
    if shift:
        factor = Node("sub", children=(factor, Node("const", value=shift)))
    if scale != 1.0:
        factor = Node("mul", children=(Node("const", value=scale), factor))
    step = Node("sub", children=(Node("Sn"), Node("Snm1")))
    return Formula(
        Node("add", children=(Node("Sn"), Node("mul", children=(factor, step)))),
        Node("const", value=1.0),
        p=p,
    )


class TestSplit:
    def test_default_split_sizes(self, dataset240):
        train, val = split_dataset(dataset240, 0.70, 7)
        assert len(train) == 168 and len(val) == 72

    def test_even_split(self):
        seqs = geometric_training_set(10)
        train, val = split_dataset(seqs, 0.5, 1)
        assert len(train) == 5 and len(val) == 5

    def test_deterministic_and_disjoint(self):
        seqs = geometric_training_set(10)
        t1, v1 = split_dataset(seqs, 0.7, 3)
        t2, v2 = split_dataset(seqs, 0.7, 3)
        assert [s.id for s in t1] == [s.id for s in t2]
        assert [s.id for s in v1] == [s.id for s in v2]
        assert {s.id for s in t1}.isdisjoint({s.id for s in v1})
        assert {s.id for s in t1} | {s.id for s in v1} == {s.id for s in seqs}

    def test_bad_fraction(self):
        with pytest.raises(InvalidConfigError):
            split_dataset(geometric_training_set(4), 1.0, 0)

    @pytest.mark.parametrize("fraction, sizes", [(0.9, "3 training and 0 validation"),
                                                 (0.1, "0 training and 3 validation")])
    def test_empty_side_rejected(self, fraction, sizes):
        with pytest.raises(InvalidConfigError, match=sizes):
            split_dataset(geometric_training_set(3), fraction, 0)


class TestFitness:
    def test_identity_formula_scores_zero(self):
        training = geometric_training_set()
        assert FitnessEvaluator(training, ORDERS).fitness(identity_formula()) == 0.0

    def test_zero_output_formula_scores_zero(self):
        # A vanishing accelerated value has an undefined relative error,
        # which counts as a loss everywhere.
        f = Formula(Node("sub", children=(Node("Sn"), Node("Sn"))),
                    Node("const", value=1.0))
        training = geometric_training_set()
        assert FitnessEvaluator(training, ORDERS).fitness(f) == 0.0

    def test_denominator_is_sequences_times_positions(self, dataset240):
        train, _ = split_dataset(dataset240, 0.70, 7)
        evaluator = FitnessEvaluator(train, ORDERS)
        assert evaluator.comparisons == 840

    @staticmethod
    def accelerator_route_fitness(f, sequences, orders):
        """Win fraction through the scalar per-window route of oracles.py."""
        def transform(w):
            return eval_formula(f, Window(*w))

        wins = sum(win for seq in sequences
                   for win, _, _ in scalar_scores(transform, seq, orders))
        return wins / (len(sequences) * len(orders))

    def test_matches_accelerator_route(self, mini24):
        # The kernel-based fitness and the per-window accelerator path
        # must agree on the win count.
        f = parse("(formula :p 0.5 :num (sub (mul Sn (d2)) (sq (sub Sn Snm1)))"
                  " :den (d2))")
        fast = FitnessEvaluator(mini24, ORDERS).fitness(f)
        assert fast == self.accelerator_route_fitness(f, mini24, ORDERS)

    def test_adjacent_orders_and_tiny_values_match_accelerator_route(self, mini24):
        # Adjacent orders put one window behind two comparisons (as the
        # current term of one and the previous term of the next).  The
        # last sequence is arithmetic at 2**-960 with steps of 2**-1010,
        # so Snm2 - Snm3 is the same value below TINY_DENOMINATOR at every
        # position: its relative error reads 0 and must count as a loss.
        orders = (20, 24, 28)
        tiny = Sequence(id="tiny", c=0.5, width_mfp=1.0,
                        orders=tuple(range(4, 53, 4)),
                        values=2.0 ** -960 + np.arange(13) * 2.0 ** -1010)
        sequences = list(mini24) + [tiny]
        evaluator = FitnessEvaluator(sequences, orders)
        step = parse("(formula :p 1.0 :num (mul p (sub Snm2 Snm3)) :den 1.0)")
        assert FitnessEvaluator([tiny], orders).fitness(step) == 0.0
        for f in (step,
                  parse("(formula :p 0.5 :num (sub (mul Sn (d2)) (sq (sub Sn Snm1)))"
                        " :den (d2))"),
                  parse("(formula :p 0.3 :num (add Sn (mul p (sub Sn Snm1)))"
                        " :den 1.0)")):
            route = self.accelerator_route_fitness(f, sequences, orders)
            assert evaluator.fitness(f) == route
            assert evaluator.fitness_program(compile_formula(f),
                                             np.array([f.p]))[0] == route

    def test_vector_of_p_matches_scalar_calls(self):
        evaluator = FitnessEvaluator(geometric_training_set(), ORDERS)
        program = compile_formula(step_formula())
        ps = np.array([-1.5, 0.0, 0.7, 1.2, 40.0])
        fits = evaluator.fitness_program(program, ps)
        assert evaluator.evals == len(ps)
        assert fits.shape == ps.shape
        for p, fit in zip(ps, fits):
            assert evaluator.fitness_program(program, p) == fit
        assert evaluator.evals == 2 * len(ps)

    # Programs whose results have every shape the kernel makes: p-free
    # (n,), p-only (P, 1) and (P, n); between them they hit the protected
    # division, both overflow clamps and, at p = +-inf or nan, NaN.
    BLOCK_PROGRAMS = (
        "(formula :p 0.5 :num (sub (mul Sn (d2)) (sq (sub Sn Snm1))) :den (add (d2) p))",
        "(formula :p 0.5 :num (sub (mul Sn (d2)) (sq (sub Sn Snm1))) :den (d2))",
        "(formula :p 1.0 :num (add (mul p Sn) (add Sn Snm1)) :den (sub (sq p) (d2)))",
        "(formula :p 0.3 :num (add Sn (mul p (sub Sn Snm1))) :den 1.0)",
        "(formula :p 1.0 :num p :den 2.0)",
    )
    P_POOL = np.concatenate((np.linspace(-2.0, 2.0, 37),
                             [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e160],
                             np.logspace(-4, 6, 11)))

    @staticmethod
    def extreme_evaluator():
        """Geometric sequences beside ones whose windows reach the kernel's
        and the score's rare branches: a line (d2 below DIV_GUARD), terms
        near the top of the float range (overflowing sums), and terms near
        2**-960 (values below TINY_DENOMINATOR)."""
        orders = tuple(range(4, 53, 4))
        k = np.arange(13.0)
        extra = [Sequence(id=name, c=0.5, width_mfp=1.0, orders=orders, values=values)
                 for name, values in (("line", 1.0 + 0.1 * k),
                                      ("huge", 1e308 * (0.9 + 0.5 ** (k + 1))),
                                      ("tiny", 2.0 ** -960 + k * 2.0 ** -1010))]
        # Enough sequences that a block holds fewer than 217 p-values.
        return FitnessEvaluator(geometric_training_set(61) + extra, ORDERS)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("size", ["1", "R-1", "R", "R+1", "2R+5", "217"])
    def test_blocked_fitness_equals_one_unblocked_call(self, size):
        evaluator = self.extreme_evaluator()
        sn, snm1, snm2 = evaluator.windows[:, :3].T
        assert (np.abs(sn - 2.0 * snm1 + snm2) < DIV_GUARD).any()
        assert np.isinf(sn + snm1).any()
        rows = evaluator.block_rows
        assert 1 < rows < 217
        count = {"1": 1, "R-1": rows - 1, "R": rows, "R+1": rows + 1,
                 "2R+5": 2 * rows + 5, "217": 217}[size]
        ps = np.resize(self.P_POOL, count)
        m = evaluator.comparisons
        wins = tiny = 0
        for text in self.BLOCK_PROGRAMS:
            program = compile_formula(parse(text))
            accel = evaluate_program(program, evaluator.windows, ps)
            tiny += np.count_nonzero(np.abs(accel) < TINY_DENOMINATOR)
            # [prev, curr] on the leading axis, as the score takes them.
            halves = np.stack((accel[:, :m], accel[:, m:]))
            expected = np.count_nonzero(evaluator.score(halves), axis=-1) / m
            fits = evaluator.fitness_program(program, ps)
            assert np.array_equal(fits.view(np.uint64), expected.view(np.uint64))
            wins += np.count_nonzero(fits)
        assert wins > 0 and tiny > 0
        assert evaluator.evals == count * len(self.BLOCK_PROGRAMS)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("m", [15, 840])
    def test_popcount_wins_equal_count_nonzero(self, m, dataset240):
        # The win count is a popcount over rows padded to whole 8-byte
        # words; m = 15 leaves one pad column, which must stay False
        # through kernel calls that ran the division guard.
        if m == 15:
            line = Sequence(id="line", c=0.5, width_mfp=1.0,
                            orders=tuple(range(4, 53, 4)),
                            values=1.0 + 0.1 * np.arange(13.0))
            sequences = geometric_training_set(2) + [line]
        else:
            sequences, _ = split_dataset(dataset240, 0.70, 7)
        evaluator = FitnessEvaluator(sequences, ORDERS)
        assert evaluator.comparisons == m
        ps = np.resize(self.P_POOL, 2 * evaluator.block_rows + 5)
        guarded = "(formula :p 0.5 :num (add Sn p) :den (sub Snm1 Snm1))"
        for text in self.BLOCK_PROGRAMS + (guarded,):
            program = compile_formula(parse(text))
            accel = evaluate_program(program, evaluator.windows, ps)
            halves = np.stack((accel[:, :m], accel[:, m:]))
            expected = np.count_nonzero(evaluator.score(halves), axis=-1)
            fits = evaluator.fitness_program(program, ps)
            assert np.array_equal(fits, expected / m)
            pad = evaluator._win_mask[:, m:]
            assert pad.shape[1] == -m % 8 and not pad.any()

    @staticmethod
    def last_axis_errors(values):
        """Relative errors of [prev; curr] halves of the last axis: the
        layout the score took before it moved [prev, curr] to the leading
        axis, with the same IEEE operations."""
        m = values.shape[-1] // 2
        prev, curr = values[..., :m], values[..., m:]
        with np.errstate(all="ignore"):
            err = np.abs(curr - prev) / np.abs(curr)
        err[np.abs(curr) < TINY_DENOMINATOR] = np.inf
        return err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_leading_axis_score_equals_last_axis_formula(self):
        evaluator = self.extreme_evaluator()
        m = evaluator.comparisons
        undefined = 0
        for text in self.BLOCK_PROGRAMS:
            accel = evaluate_program(compile_formula(parse(text)),
                                     evaluator.windows, self.P_POOL)
            old = self.last_axis_errors(accel)
            undefined += np.count_nonzero(~np.isfinite(old))
            halves = np.stack((accel[:, :m], accel[:, m:]))
            err = relative_errors(halves.copy())
            assert np.array_equal(err.view(np.uint64), old.view(np.uint64))
            wins, invalid = evaluator.score(halves.copy(), invalid=True)
            assert np.array_equal(wins, old < evaluator.raw_errors)
            assert np.array_equal(invalid, ~np.isfinite(old))
        assert undefined > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_evaluator_scores_programs_back_to_back(self):
        # The evaluator keeps its workspace between calls; a call must not
        # see what the previous program left in it.
        evaluator = self.extreme_evaluator()
        rng = np.random.default_rng(3)
        texts = self.BLOCK_PROGRAMS + self.BLOCK_PROGRAMS[::-1]
        for text in texts:
            ps = rng.choice(self.P_POOL, int(rng.integers(1, 3 * evaluator.block_rows)))
            program = compile_formula(parse(text))
            fresh = self.extreme_evaluator()
            assert np.array_equal(evaluator.fitness_program(program, ps),
                                  fresh.fitness_program(program, ps))
            assert evaluator.fitness_program(program, ps[0]) == fresh.fitness_program(
                program, ps[:1])[0]

    def test_repeated_scan_allocates_no_block(self, dataset240, monkeypatch):
        # A repeated scan must run in the evaluator's kept workspace.  At
        # the default block size a fresh (rows, n) float temporary would
        # show; at a block of 2**20 elements, scored as one full block, so
        # would a fresh (rows, n) bool mask of about 1 MiB.  What remains
        # are numpy's fixed-size iteration buffers, about 180 KiB.
        train, _ = split_dataset(dataset240, 0.70, 1)
        program = compile_formula(parse(
            "(formula :p 0.5 :num (sub (mul Sn (d2)) (sq (sub Sn Snm1)))"
            " :den (add (d2) p))"))
        ps = np.resize(self.P_POOL, 217)
        for block, limit in ((evolution.BLOCK_ELEMENTS, 1 << 20), (1 << 20, 1 << 18)):
            monkeypatch.setattr(evolution, "BLOCK_ELEMENTS", block)
            evaluator = FitnessEvaluator(train, ORDERS)
            scan = np.resize(ps, max(217, evaluator.block_rows))
            evaluator.fitness_program(program, scan)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                evaluator.fitness_program(program, scan)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - before < limit

    # A full depth-5 numerator whose sub at the top holds one block while
    # its right operand, a product of two blocks, needs two: computed
    # right first it needs two buffers, left first three.  The denominator
    # is a window-only sum over a block that needs one, so the root div
    # needs two as well.
    DEEP_FORMULA = (
        "(formula :p 0.5"
        " :num (sub (sub (add (sub Sn Snm1) (mul Snm2 Snm3))"
        "                (mul (add Sn p) (sub Snm1 Snm2)))"
        "           (mul (div (sub Snm2 Snm3) (add Snm1 p))"
        "                (mul (add Sn p) (sub Snm1 Snm2))))"
        " :den (div (add (add (sub Sn Snm1) (mul Snm2 Snm3))"
        "                (sub (mul Sn 0.5) (add Snm3 Snm2)))"
        "           (sub (add (sub Sn Snm1) (mul Snm2 Snm3))"
        "                (mul (add Sn p) (sub Snm1 Snm2)))))")

    def test_deep_formula_holds_at_most_two_blocks(self, dataset240):
        # Count the float buffers of at least a (rows, n) block that a
        # p-scan leaves allocated: one per stack slot would make five.
        f = parse(self.DEEP_FORMULA)
        assert depth(f.numerator) == depth(f.denominator) == 5
        train, _ = split_dataset(dataset240, 0.70, 1)
        evaluator = FitnessEvaluator(train, ORDERS)
        block_bytes = 8 * evaluator.block_rows * evaluator.windows.shape[0]
        ps = np.resize(self.P_POOL, 3 * evaluator.block_rows)
        tracemalloc.start()
        try:
            evaluator.fitness_program(compile_formula(f), ps)
            held = tracemalloc.take_snapshot().traces
        finally:
            tracemalloc.stop()
        assert sum(trace.size >= block_bytes for trace in held) <= 2

    def test_insufficient_history_is_reported(self):
        short = Sequence(id="s", c=0.5, width_mfp=1.0,
                         orders=(4, 8, 12), values=np.ones(3))
        with pytest.raises(InsufficientHistoryError, match="insufficient window"):
            FitnessEvaluator([short], ORDERS)


class TestOptimizeParameter:
    def test_formula_without_p_is_untouched(self):
        f = identity_formula()
        evaluator = FitnessEvaluator(geometric_training_set(), ORDERS)
        out, fit = _optimize_parameter(f, evaluator, np.random.default_rng(0))
        assert out is f
        assert evaluator.evals == 1
        assert fit == evaluator.fitness(f)

    def test_flat_fitness_keeps_formula(self):
        # p * 0 leaves the identity at every p: no candidate is strictly
        # fitter, so the formula object comes back unchanged.
        f = Formula(Node("add", children=(
            Node("Sn"), Node("mul", children=(Node("p"), Node("const", value=0.0))))),
            Node("const", value=1.0), p=0.5)
        evaluator = FitnessEvaluator(geometric_training_set(), ORDERS)
        out, fit = _optimize_parameter(f, evaluator, np.random.default_rng(0))
        assert out is f
        assert fit == 0.0

    def test_rng_stream(self):
        # A formula with p draws exactly uniform(-2, 2, 5); one without p
        # draws nothing, so the search's stream does not depend on the
        # tuner's internals.
        evaluator = FitnessEvaluator(geometric_training_set(), ORDERS)
        for f, draws in ((step_formula(), 5), (identity_formula(), 0)):
            rng = np.random.default_rng(11)
            twin = np.random.default_rng(11)
            _optimize_parameter(f, evaluator, rng)
            twin.uniform(-2.0, 2.0, draws)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_beats_grid_scan_oracle(self):
        # A_n = S_n + p*(S_n - S_{n-1}) on near-geometric data: compare the
        # tuned result against a brute-force p grid at 1e-3 resolution.
        f = Formula(
            Node("add", children=(
                Node("Sn"),
                Node("mul", children=(
                    Node("p"),
                    Node("sub", children=(Node("Sn"), Node("Snm1"))),
                )),
            )),
            Node("const", value=1.0),
            p=0.0,
        )
        training = geometric_training_set()
        evaluator = FitnessEvaluator(training, ORDERS)
        program = compile_formula(f)
        grid = np.arange(-2.0, 2.0 + 1e-9, 1e-3)
        grid_best = max(evaluator.fitness_program(program, p) for p in grid)

        tuned, tuned_fitness = _optimize_parameter(f, evaluator,
                                                   np.random.default_rng(0))
        assert tuned_fitness == evaluator.fitness(tuned)
        assert tuned_fitness >= grid_best - 1e-6
        assert tuned_fitness > evaluator.fitness_program(program, 0.0)

    def test_finds_far_p_against_log_grid_oracle(self):
        # Shifted and scaled, the step wins only for p in about
        # (1e3, 2.6e3), far outside the initial range; compare against a
        # brute-force grid of 40 points per decade over 1e-4 <= |p| <= 1e6,
        # both signs.
        f = step_formula(shift=1e3, scale=1e-3)
        training = geometric_training_set()
        evaluator = FitnessEvaluator(training, ORDERS)
        program = compile_formula(f)
        magnitudes = np.logspace(-4, 6, 401)
        grid = np.concatenate((-magnitudes[::-1], [0.0], magnitudes))
        grid_fits = [evaluator.fitness_program(program, p) for p in grid]
        grid_best = max(grid_fits)
        assert abs(grid[int(np.argmax(grid_fits))]) > 2.0
        assert grid_best > max(evaluator.fitness_program(program, p)
                               for p in np.linspace(-2.0, 2.0, 401))

        tuned, _ = _optimize_parameter(f, evaluator, np.random.default_rng(0))
        assert abs(tuned.p) > 2.0
        assert evaluator.fitness(tuned) >= grid_best - 1e-6

    def test_deterministic(self):
        f = Formula(Node("add", children=(Node("Sn"), Node("p"))),
                    Node("const", value=1.0), p=0.0)
        evaluator = FitnessEvaluator(geometric_training_set(), ORDERS)
        a, _ = _optimize_parameter(f, evaluator, np.random.default_rng(5))
        b, _ = _optimize_parameter(f, evaluator, np.random.default_rng(5))
        assert a.p == b.p

    @staticmethod
    def kernel_p_values(monkeypatch):
        """A list that grows by the p-values of every kernel call the
        fitness makes from now on."""
        counted = []

        def counting(program, windows, p, workspace=None):
            counted.append(np.size(p))
            return evaluate_program(program, windows, p, workspace)

        monkeypatch.setattr(evolution, "evaluate_program", counting)
        return counted

    def test_memo_hit_matches_a_cold_tuning(self, monkeypatch):
        f = step_formula(p=0.1)
        evaluator = FitnessEvaluator(geometric_training_set(), ORDERS)
        first = _optimize_parameter(f, evaluator, np.random.default_rng(7))
        evals = evaluator.evals
        counted = self.kernel_p_values(monkeypatch)
        warm_rng, cold_rng = np.random.default_rng(7), np.random.default_rng(7)
        warm = _optimize_parameter(f, evaluator, warm_rng)
        assert sum(counted) <= 1 + P_DRAWS
        cold_evaluator = FitnessEvaluator(geometric_training_set(), ORDERS)
        cold = _optimize_parameter(f, cold_evaluator, cold_rng)
        assert warm == cold == first
        assert warm_rng.bit_generator.state == cold_rng.bit_generator.state
        assert evaluator.evals - evals == cold_evaluator.evals
        assert (evaluator.memo_hits, cold_evaluator.memo_hits) == (1, 0)

    def test_programs_differing_in_a_constant_do_not_share_an_entry(self):
        one, two = step_formula(shift=0.5, p=0.1), step_formula(shift=0.25, p=0.1)
        assert np.array_equal(compile_formula(one).code, compile_formula(two).code)
        evaluator = FitnessEvaluator(geometric_training_set(), ORDERS)
        _optimize_parameter(one, evaluator, np.random.default_rng(7))
        tuned = _optimize_parameter(two, evaluator, np.random.default_rng(7))
        cold = _optimize_parameter(two, FitnessEvaluator(geometric_training_set(),
                                                         ORDERS),
                                   np.random.default_rng(7))
        assert evaluator.memo_hits == 0 and len(evaluator.memo) == 2
        assert tuned == cold

    def test_evaluation_order_is_part_of_the_memo_key(self):
        # p Snm1 needs a block buffer and Sn none, so both subs compute p
        # Snm1 first: the two programs share their opcodes and constants,
        # and only the order tells Sn + (Sn - p Snm1) from Sn + (p Snm1 - Sn).
        one = parse("(formula :p 0.1 :num (add Sn (sub Sn (mul p Snm1))) :den 1.0)")
        two = parse("(formula :p 0.1 :num (add Sn (sub (mul p Snm1) Sn)) :den 1.0)")
        first, second = compile_formula(one), compile_formula(two)
        assert np.array_equal(first.code, second.code)
        assert np.array_equal(first.consts, second.consts)
        assert not np.array_equal(first.order, second.order)
        evaluator = FitnessEvaluator(geometric_training_set(), ORDERS)
        for f in (one, two):
            tuned = _optimize_parameter(f, evaluator, np.random.default_rng(7))
            cold = _optimize_parameter(f, FitnessEvaluator(geometric_training_set(),
                                                           ORDERS),
                                       np.random.default_rng(7))
            assert tuned == cold
        assert evaluator.memo_hits == 0 and len(evaluator.memo) == 2


def tournament_winner(population, rng, tournament_size=3):
    """The formula that wins one of evolve's tournaments over
    ``population``, a list of (formula, fitness) pairs."""
    key = _rank_key(population)
    return population[_tournament(rng, len(population), tournament_size, key)][0]


class TestTournament:
    def test_best_in_tournament_wins(self):
        pop = [(identity_formula(), 0.1), (identity_formula(), 0.9),
               (identity_formula(), 0.5)]
        rng = np.random.default_rng(0)
        # With tournament size equal to the population the best always
        # appears among the draws often; check many draws never return a
        # formula beating the max drawn fitness.
        for _ in range(50):
            winner = tournament_winner(pop, rng, tournament_size=3)
            assert winner in [f for f, _ in pop]

    def test_global_best_wins_when_drawn(self):
        # Draws are with replacement, so replay them with a twin generator
        # and condition on the best actually appearing in the sample.
        small = Formula(Node("Sn"), Node("Snm1"), 0.0)
        pop = [(identity_formula(), 0.2), (small, 1.0)]
        saw_best = 0
        for trial in range(40):
            draws = np.random.default_rng(trial).integers(0, 2, size=3)
            winner = tournament_winner(pop, np.random.default_rng(trial), 3)
            if 1 in draws:
                assert winner is small
                saw_best += 1
            else:
                assert winner is pop[0][0]
        assert saw_best > 10

    def test_equal_fitness_prefers_smaller_tree(self):
        big = Formula(Node("add", children=(Node("Sn"), Node("Sn"))),
                      Node("Snm1"), 0.0)
        small = Formula(Node("Sn"), Node("Snm1"), 0.0)
        pop = [(big, 0.5), (small, 0.5)]
        for trial in range(40):
            draws = np.random.default_rng(trial).integers(0, 2, size=3)
            winner = tournament_winner(pop, np.random.default_rng(trial), 3)
            assert winner is (small if 1 in draws else big)

    def test_single_member_population(self):
        only = identity_formula()
        assert tournament_winner([(only, 0.3)],
                                 np.random.default_rng(0)) is only


class TestEvolve:
    def test_mini_run_invariants(self):
        training = geometric_training_set(8, seed=1)
        validation = geometric_training_set(4, seed=99, prefix="v")
        config = EvolutionConfig(population_size=8, max_generations=6,
                                 rng_seed=2, target_fitness=1.0)
        report = evolve(config, training, validation)
        bests = [h.best_fitness for h in report.history]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        assert all(h.population_size == 8 for h in report.history)
        assert report.generations == 6
        assert 0.0 <= report.train_fitness <= 1.0
        assert 0.0 <= report.validation_fitness <= 1.0

    def test_tree_sizes_counted_once_per_population(self, monkeypatch):
        from txaccel import evolution

        counted = []

        def counting(f):
            counted.append(f)
            return formula_node_count(f)

        monkeypatch.setattr(evolution, "formula_node_count", counting)
        config = EvolutionConfig(population_size=8, max_generations=4,
                                 rng_seed=2, target_fitness=1.0)
        report = evolve(config, geometric_training_set(8, seed=1), [])
        assert report.generations == 4
        assert len(counted) == 8 * (report.generations + 1)

    def test_generation_zero_contains_seeded_formula(self):
        # The first individual reproduces the delta-squared rule.
        config = EvolutionConfig(population_size=6, rng_seed=0)
        formulas = _initial_population(config, np.random.default_rng(0))
        seed = formulas[0]
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            w = Window(*rng.uniform(0.5, 3.0, 4))
            classical = aitken(w.s_n, w.s_nm1, w.s_nm2)
            if is_invalid(classical):
                continue
            assert eval_formula(seed, w) == pytest.approx(classical, rel=1e-12)
            checked += 1

    def test_gen0_best_at_least_seed_fitness(self):
        training = geometric_training_set(8, seed=1)
        config = EvolutionConfig(population_size=8, max_generations=1,
                                 rng_seed=3, target_fitness=1.0)
        report = evolve(config, training, [])
        evaluator = FitnessEvaluator(training, config.evaluation_orders)
        seed_fitness = evaluator.fitness(
            _initial_population(config, np.random.default_rng(3))[0])
        assert report.history[0].best_fitness >= seed_fitness

    def test_reproducible(self):
        training = geometric_training_set(8, seed=1)
        config = EvolutionConfig(population_size=8, max_generations=4,
                                 rng_seed=4, target_fitness=1.0)
        a = evolve(config, training, [])
        b = evolve(config, training, [])
        assert serialize(a.best_formula) == serialize(b.best_formula)
        assert [h.best_fitness for h in a.history] == \
            [h.best_fitness for h in b.history]
        assert a.evals == b.evals

    def test_memo_changes_no_result(self, monkeypatch):
        # A run in which a tuned program comes back and is refined around
        # another centre than before; it was picked among small runs as one
        # whose result changes if refine fits are reused across centres.
        training = geometric_training_set(12, seed=0)
        config = EvolutionConfig(population_size=8, max_generations=4,
                                 rng_seed=4, target_fitness=1.0)
        report = evolve(config, training, [])

        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        class Cold(FitnessEvaluator):
            def __init__(self, *args):
                super().__init__(*args)
                self.memo = Forgetful()

        monkeypatch.setattr(evolution, "FitnessEvaluator", Cold)
        cold = evolve(config, training, [])
        assert report.memo_hits > 0 and cold.memo_hits == 0
        assert serialize(report.best_formula) == serialize(cold.best_formula)
        assert (report.train_fitness, report.history, report.evals) == (
            cold.train_fitness, cold.history, cold.evals)

    def test_empty_training_rejected(self):
        # The fitness evaluator's comparison matrix rejects the empty set.
        with pytest.raises(InvalidArgumentError, match="non-empty"):
            evolve(EvolutionConfig(), [], [])

    def test_overlapping_sets_rejected(self):
        seqs = geometric_training_set(4)
        with pytest.raises(InvalidConfigError):
            evolve(EvolutionConfig(population_size=4, elite_count=1),
                   seqs, seqs[:1])

    def test_write_report(self, tmp_path):
        training = geometric_training_set(6, seed=1)
        config = EvolutionConfig(population_size=6, max_generations=2,
                                 rng_seed=5, target_fitness=1.0)
        report = evolve(config, training, [])
        write_report(report, tmp_path)
        assert (tmp_path / "formula.txt").exists()
        parsed = parse((tmp_path / "formula.txt").read_text())
        assert serialize(parsed) == serialize(report.best_formula)
        lines = (tmp_path / "runlog.csv").read_text().splitlines()
        assert lines[0] == "generation,best_fitness,mean_fitness,evals"
        assert len(lines) == len(report.history) + 1
        summary = (tmp_path / "summary.txt").read_text()
        assert "train_fitness=" in summary
        assert summary.endswith(f"memo_hits={report.memo_hits}\n")

    def test_golden_reference_run(self, tmp_path):
        # A 30-generation run on the stored reference dataset, of which
        # most p-tunings find their program in the memo; its outputs are
        # those of the search before it had one.
        out = tmp_path / "run"
        assert main(["evolve", "--data", str(REFERENCE_DATASET), "--target", "1.0",
                     "--gens", "30", "--seed", "3", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("formula.txt", "runlog.csv")}
        assert digests == {
            "formula.txt": "e78adc5ac801c0430643f2d5a8e1a29198ad2311cd132eb8caa13238a3cc3355",
            "runlog.csv": "b82fa46985ebb536da3938dc05bcb08740f3f044cc49686e1c04f2473d30299f",
        }
        assert "memo_hits=556\n" in (out / "summary.txt").read_text()


class TestConfigValidation:
    def test_bad_rates(self):
        with pytest.raises(InvalidConfigError):
            EvolutionConfig(crossover_rate=1.5)
        with pytest.raises(InvalidConfigError):
            EvolutionConfig(mutation_rate=-0.1)

    def test_bad_elite(self):
        with pytest.raises(InvalidConfigError):
            EvolutionConfig(elite_count=0)
        with pytest.raises(InvalidConfigError):
            EvolutionConfig(elite_count=40, population_size=40)

    def test_bad_tournament(self):
        with pytest.raises(InvalidConfigError):
            EvolutionConfig(tournament_size=1)

    def test_bad_target(self):
        with pytest.raises(InvalidConfigError):
            EvolutionConfig(target_fitness=0.0)

    def test_negative_generations(self):
        with pytest.raises(InvalidConfigError, match="max_generations"):
            EvolutionConfig(max_generations=-1)
        assert EvolutionConfig(max_generations=0).max_generations == 0
