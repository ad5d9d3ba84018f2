import math

import numpy as np
import pytest

from oracles import Window, eval_formula, eval_tree, random_formula
from txaccel.accelerators import INVALID, aitken, evolved
from txaccel.errors import FormulaSyntaxError, InvalidArgumentError
from txaccel.trees import (
    Formula,
    Node,
    _node_at,
    aitken_seed,
    crossover,
    depth,
    mutate,
    node_count,
    parse,
    random_tree,
    replace_at,
    serialize,
)


def random_window(rng, lo=1e-8, hi=1e8):
    mags = np.exp(rng.uniform(np.log(lo), np.log(hi), 4))
    signs = rng.choice([-1.0, 1.0], 4)
    return Window(*(mags * signs))


def evolved_reference_formula() -> Formula:
    """The built-in evolved accelerator written out as trees.

    Needs depth 5 on the denominator side, which is fine for a hand-built
    formula; only the genetic operators enforce the search depth limit.
    """
    num = Node("sub", children=(
        Node("mul", children=(Node("Sn"), Node("Snm2"))),
        Node("add", children=(
            Node("sq", children=(Node("Sn"),)),
            Node("sq", children=(Node("Snm1"),)),
        )),
    ))
    stretched = Node("sub", children=(
        Node("mul", children=(Node("const", 2.0), Node("Sn"))),
        Node("sub", children=(
            Node("mul", children=(Node("const", 4.0), Node("Snm1"))),
            Node("Snm2"),
        )),
    ))
    den = Node("mul", children=(
        stretched,
        Node("div", children=(Node("Sn"), Node("Snm1"))),
    ))
    return Formula(num, den, p=0.0)


class TestEvalTree:
    def test_terminal_leaf(self):
        assert eval_tree(Node("Sn"), Window(2.0, 1.0, 0.5, 0.25), 0.0) == 2.0

    def test_parameter_leaf(self):
        assert eval_tree(Node("p"), Window(1.0, 1.0, 1.0, 1.0), -1.75) == -1.75

    def test_protected_division_value(self):
        tree = Node("div", children=(
            Node("const", 1.0),
            Node("sub", children=(Node("Sn"), Node("Sn"))),
        ))
        assert eval_tree(tree, Window(3.0, 1.0, 4.0, 1.0), 0.0) == 1e6

    def test_second_difference(self):
        value = eval_tree(Node("d2"), Window(0.875, 0.75, 0.5, 0.0), 0.0)
        assert value == -0.125

    def test_square_clamp(self):
        tree = Node("sq", children=(Node("const", 1e100),))
        assert eval_tree(tree, Window(1, 1, 1, 1), 0.0) == 1e150


class TestEvalFormula:
    def test_aitken_seed_on_geometric_window(self):
        assert eval_formula(aitken_seed(), Window(0.75, 0.5, 0.0, 0.125)) == 1.0

    def test_zero_denominator_tree_is_protected(self):
        f = Formula(Node("Sn"), Node("sub", children=(Node("Sn"), Node("Sn"))))
        assert eval_formula(f, Window(2.0, 1.0, 1.0, 1.0)) == 1e6

    def test_seed_matches_classical_aitken(self):
        rng = np.random.default_rng(20)
        seed = aitken_seed()
        checked = 0
        while checked < 200:
            w = Window(*rng.uniform(-10, 10, 4))
            classical = float(aitken(w))
            if classical == INVALID:
                continue
            assert eval_formula(seed, w) == pytest.approx(classical, rel=1e-12,
                                                          abs=1e-12)
            checked += 1

    def test_evolved_formula_as_trees_matches_module(self):
        rng = np.random.default_rng(21)
        f = evolved_reference_formula()
        checked = 0
        while checked < 100:
            w = Window(*rng.uniform(0.3, 4.0, 4))
            direct = float(evolved(w))
            if direct == INVALID:
                continue
            assert eval_formula(f, w) == pytest.approx(direct, rel=1e-12)
            checked += 1


class TestRandomTree:
    def test_depth_one_is_terminal(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            tree = random_tree(1, "grow", rng)
            assert not tree.children

    def test_full_puts_all_leaves_at_limit(self):
        rng = np.random.default_rng(23)

        def leaf_depths(node, d=1):
            if not node.children:
                yield d
            for ch in node.children:
                yield from leaf_depths(ch, d + 1)

        for _ in range(1000):
            tree = random_tree(4, "full", rng)
            assert set(leaf_depths(tree)) == {4}

    def test_grow_spans_depths(self):
        rng = np.random.default_rng(24)
        seen = {depth(random_tree(4, "grow", rng)) for _ in range(1000)}
        assert seen == {1, 2, 3, 4}

    def test_deterministic(self):
        a = random_tree(4, "grow", np.random.default_rng(99))
        b = random_tree(4, "grow", np.random.default_rng(99))
        assert a == b


class TestGeneticOperators:
    def test_crossover_preserves_depth_and_parents(self):
        rng = np.random.default_rng(26)
        for _ in range(1000):
            a = random_formula(4, "grow", rng)
            b = random_formula(4, "full", rng)
            a_copy = Formula(a.numerator, a.denominator, a.p)
            b_copy = Formula(b.numerator, b.denominator, b.p)
            ca, cb = crossover(a, b, rng, max_depth=4)
            assert depth(ca.numerator) <= 4 and depth(ca.denominator) <= 4
            assert depth(cb.numerator) <= 4 and depth(cb.denominator) <= 4
            assert a == a_copy and b == b_copy

    def test_crossover_of_identical_parents_can_reproduce_them(self):
        # Node choices are independent per parent, so identical parents
        # only round-trip when the same position is drawn on both sides;
        # when that happens the swap must be an exact no-op.
        parent = random_formula(4, "full", np.random.default_rng(5))
        reproduced = 0
        for seed in range(300):
            ca, cb = crossover(parent, parent, np.random.default_rng(seed))
            if ca == parent and cb == parent:
                reproduced += 1
        assert reproduced > 0

    def test_crossover_exchanges_material_only(self):
        # Offspring are built solely from the two parents' nodes.
        rng = np.random.default_rng(27)

        def kinds(node):
            yield node.kind, node.value
            for ch in node.children:
                yield from kinds(ch)

        for _ in range(200):
            a = random_formula(4, "grow", rng)
            b = random_formula(4, "grow", rng)
            pool = set(kinds(a.numerator)) | set(kinds(a.denominator)) \
                | set(kinds(b.numerator)) | set(kinds(b.denominator))
            ca, cb = crossover(a, b, rng)
            for child in (ca, cb):
                for tree in (child.numerator, child.denominator):
                    # Depth repair may introduce one fresh terminal.
                    extra = [k for k in kinds(tree) if k not in pool]
                    assert len(extra) <= 1

    def test_root_swap_exchanges_whole_side(self):
        # Scan seeds for a crossover that picked both roots, then check the
        # subtrees really moved across.
        a = Formula(Node("Sn"), Node("Snm1"), 0.5)
        b = Formula(Node("d2"), Node("Snm2"), -0.5)
        for seed in range(200):
            ca, cb = crossover(a, b, np.random.default_rng(seed))
            if ca.numerator == b.numerator and cb.numerator == a.numerator:
                assert ca.denominator == a.denominator
                assert ca.p == a.p and cb.p == b.p
                return
        pytest.fail("no numerator root swap found in 200 seeds")

    def test_mutate_respects_depth_and_closure(self):
        rng = np.random.default_rng(28)
        for _ in range(1000):
            f = random_formula(4, "grow", rng)
            m = mutate(f, rng, max_depth=4)
            assert depth(m.numerator) <= 4 and depth(m.denominator) <= 4
            value = eval_formula(m, random_window(rng))
            assert math.isfinite(value)

    def test_mutate_leaves_parent_intact(self):
        rng = np.random.default_rng(29)
        f = random_formula(4, "full", rng)
        copy = Formula(f.numerator, f.denominator, f.p)
        mutate(f, rng)
        assert f == copy


class TestClosure:
    def test_random_trees_always_finite(self):
        rng = np.random.default_rng(30)
        for _ in range(2000):
            tree = random_tree(4, "grow", rng)
            w = random_window(rng)
            p = float(rng.uniform(-1e8, 1e8))
            value = eval_tree(tree, w, p)
            assert math.isfinite(value)


class TestTextFormat:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            f = random_formula(4, "grow", rng, p=float(rng.uniform(-2, 2)))
            assert parse(serialize(f)) == f

    def test_documented_example_parses(self):
        f = parse("(formula :p 0 :num Sn :den (add Snm1 Snm1))")
        assert eval_formula(f, Window(2.0, 1.0, 0.5, 0.25)) == 1.0

    def test_full_grammar_example(self):
        text = ("(formula :p 1.25 :num (sub (mul Sn Snm2) (add (sq Sn) "
                "(sq Snm1))) :den (mul (d2) (div Sn Snm1)))")
        f = parse(text)
        assert f.p == 1.25
        assert parse(serialize(f)) == f

    @pytest.mark.parametrize("text, message", [
        pytest.param("", "unexpected end of input (at offset 0)", id="empty"),
        pytest.param("(formula :p 0 :num (add Sn Snm1 :den Sn)",
                     "expected ')', got ':den' (at offset 32)", id="unbalanced"),
        pytest.param("(formula :p 0 :num (exp Sn) :den Sn)",
                     "unknown operator 'exp' (at offset 20)", id="operator"),
        pytest.param("(formula :p 0 :num () :den Sn)",
                     "unknown operator ')' (at offset 20)", id="empty-call"),
        pytest.param("(formula :p 0 :num ) :den Sn)",
                     "unexpected ')' (at offset 19)", id="stray-close"),
        pytest.param("(formula :p 0 :num const :den Sn)",
                     "unknown terminal 'const' (at offset 19)", id="terminal"),
        pytest.param("(formula :p x :num Sn :den Sn)",
                     "expected a number for :p, got 'x' (at offset 12)", id="p"),
        pytest.param("(formula :p 0 :num Sn :den Sn) extra",
                     "trailing input 'extra' (at offset 31)", id="trailing"),
        pytest.param("(formula :p 0 :num Sn :den (d2)",
                     "unexpected end of input (at offset 31)", id="truncated"),
    ])
    def test_syntax_error_message(self, text, message):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert str(err.value) == message

    def test_bare_d2_parses(self):
        f = parse("(formula :p 0 :num d2 :den (d2))")
        assert f.numerator == f.denominator == Node("d2")

    def test_unknown_operator_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(formula :p 0 :num (exp Sn) :den Sn)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(formula :p 0 :num Sn :den Sn) extra")


def preorder_depths(node, d=1):
    """Depth of every node in preorder, the root's 1."""
    yield d
    for ch in node.children:
        yield from preorder_depths(ch, d + 1)


class TestWalkers:
    def test_replace_every_index(self):
        rng = np.random.default_rng(32)
        for trial in range(200):
            tree = random_tree(5, "grow" if trial % 2 else "full", rng)
            count = node_count(tree)
            for i, d in enumerate(preorder_depths(tree)):
                old, old_depth = _node_at(tree, i)
                assert old_depth == d
                new = random_tree(3, "grow", rng)
                swapped = replace_at(tree, i, new)
                assert _node_at(swapped, i)[0] is new
                assert node_count(swapped) == (
                    count + node_count(new) - node_count(old))

    def test_index_past_the_end_is_named(self):
        tree = parse("(formula :p 0 :num (add Sn (sq p)) :den Sn)").numerator
        with pytest.raises(InvalidArgumentError, match=r"^node index 4 out"):
            _node_at(tree, 4)
        with pytest.raises(InvalidArgumentError, match=r"^node index 4 out"):
            replace_at(tree, 4, Node("Sn"))


class TestStructure:
    def test_seed_depths(self):
        seed = aitken_seed()
        assert depth(seed.numerator) == 4
        assert depth(seed.denominator) == 1

    def test_node_count(self):
        assert node_count(aitken_seed().numerator) == 8
