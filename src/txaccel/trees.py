"""Expression trees over trailing-window terminals, with random
generation, crossover, mutation, and a stable text format.

Terminals are the four window values (Sn, Snm1, Snm2, Snm3), the learnable
scalar p, and ephemeral constants.  Functions are add, sub, mul,
protected div, square, and the nullary second difference d2, which reads
Sn - 2*Snm1 + Snm2 straight off the window.  ``KINDS`` is the language's
one vocabulary, with ``ARITY`` beside it: generation, the walkers, the
text format and the opcodes of ``kernels`` all read these two tables.

Closure: protected division returns 1e6 whenever the denominator magnitude
drops below 1e-10, products and squares are clamped at +-1e150, and any
overflow in the remaining operations is pulled back to +-1e150, so every
tree evaluates to a finite float on every finite input.  The constants
below define those rules; ``kernels`` evaluates trees by them.  A candidate
formula is the protected ratio of a numerator tree and a denominator tree
plus its parameter p.

Depth counts nodes along the longest root-to-leaf path (a lone terminal
has depth 1).  The genetic operators never emit a tree deeper than the
limit they are given; trees built by hand may be deeper, evaluation does
not care.
"""

import re
from dataclasses import dataclass

from .errors import FormulaSyntaxError, InvalidArgumentError

#: Protected division: result when |denominator| < DIV_GUARD.
DIV_GUARD = 1e-10
DIV_PROTECTED_VALUE = 1e6

#: Magnitude clamp applied to products, squares, and overflowed results.
CLAMP = 1e150

#: Every node kind, in an order others rely on: a kind's position in KINDS
#: is its opcode in ``kernels`` (the window terms are 0..3), and
#: ``random_tree`` draws kinds by position, so a reordering changes every
#: seeded search.
TERMINAL_KINDS = ("Sn", "Snm1", "Snm2", "Snm3", "p", "const")
FUNCTION_KINDS = ("add", "sub", "mul", "div", "sq", "d2")
KINDS = TERMINAL_KINDS + FUNCTION_KINDS

ARITY = dict.fromkeys(KINDS, 0) | {"add": 2, "sub": 2, "mul": 2, "div": 2,
                                  "sq": 1}


@dataclass(frozen=True)
class Node:
    kind: str
    value: float = 0.0
    children: tuple = ()

    def __post_init__(self):
        if self.kind not in ARITY:
            raise InvalidArgumentError(f"unknown node kind {self.kind!r}")
        if len(self.children) != ARITY[self.kind]:
            raise InvalidArgumentError(
                f"{self.kind} takes {ARITY[self.kind]} children, "
                f"got {len(self.children)}"
            )


@dataclass(frozen=True)
class Formula:
    """A rational candidate: numerator tree over denominator tree, plus p."""

    numerator: Node
    denominator: Node
    p: float = 0.0


def depth(node: Node) -> int:
    if not node.children:
        return 1
    return 1 + max(depth(ch) for ch in node.children)


def node_count(node: Node) -> int:
    return 1 + sum(node_count(ch) for ch in node.children)


def formula_node_count(f: Formula) -> int:
    return node_count(f.numerator) + node_count(f.denominator)


def contains_parameter(node: Node) -> bool:
    if node.kind == "p":
        return True
    return any(contains_parameter(ch) for ch in node.children)


def _iter_preorder(node: Node, d: int = 1):
    yield node, d
    for ch in node.children:
        yield from _iter_preorder(ch, d + 1)


def _node_at(tree: Node, index: int):
    """The subtree at preorder ``index`` and its depth (the root's is 1)."""
    for i, found in enumerate(_iter_preorder(tree)):
        if i == index:
            return found
    raise InvalidArgumentError(f"node index {index} out of range")


def replace_at(tree: Node, index: int, replacement: Node) -> Node:
    """Rebuild ``tree`` with the preorder-``index`` subtree swapped out."""
    if index == 0:
        return replacement
    start = 1  # preorder index of the current child
    for i, child in enumerate(tree.children):
        end = start + node_count(child)
        if start <= index < end:
            children = list(tree.children)
            children[i] = replace_at(child, index - start, replacement)
            return Node(tree.kind, tree.value, tuple(children))
        start = end
    raise InvalidArgumentError(f"node index {index} out of range")


# ---------------------------------------------------------------------------
# Random generation and genetic operators
# ---------------------------------------------------------------------------

CONST_RANGE = (-2.0, 2.0)


def random_terminal(rng) -> Node:
    kind = TERMINAL_KINDS[rng.integers(len(TERMINAL_KINDS))]
    if kind == "const":
        return Node("const", value=float(rng.uniform(*CONST_RANGE)))
    return Node(kind)


def random_tree(max_depth: int, method: str, rng) -> Node:
    """Grow or full tree within ``max_depth`` levels.

    full picks only arity>=1 functions until the last level, so every
    leaf sits at exactly max_depth; grow picks uniformly among all kinds
    at every level.
    """
    if not 1 <= max_depth:
        raise InvalidArgumentError(f"max_depth must be >= 1, got {max_depth}")
    if method not in ("grow", "full"):
        raise InvalidArgumentError(f"method must be 'grow' or 'full', got {method!r}")
    if max_depth == 1:
        return random_terminal(rng)
    if method == "full":
        kinds = [k for k in FUNCTION_KINDS if ARITY[k]]
        kind = kinds[rng.integers(len(kinds))]
    else:
        n_terminals = len(TERMINAL_KINDS)
        pick = rng.integers(n_terminals + len(FUNCTION_KINDS))
        if pick < n_terminals:
            return random_terminal(rng)
        kind = FUNCTION_KINDS[pick - n_terminals]
    children = tuple(
        random_tree(max_depth - 1, method, rng)
        for _ in range(ARITY[kind])
    )
    return Node(kind, children=children)


def crossover(a: Formula, b: Formula, rng, max_depth: int = 4):
    """Swap one subtree between the same side (num or den) of both parents.

    Offspring deeper than ``max_depth`` are repaired by re-truncating the
    transplanted subtree to a random terminal.  Parents are untouched.
    """
    side = "numerator" if rng.integers(2) == 0 else "denominator"
    tree_a = getattr(a, side)
    tree_b = getattr(b, side)
    idx_a = int(rng.integers(node_count(tree_a)))
    idx_b = int(rng.integers(node_count(tree_b)))
    sub_a, _ = _node_at(tree_a, idx_a)
    sub_b, _ = _node_at(tree_b, idx_b)

    def grafted(tree, idx, donor):
        child = replace_at(tree, idx, donor)
        if depth(child) > max_depth:
            child = replace_at(tree, idx, random_terminal(rng))
        return child

    new_a = grafted(tree_a, idx_a, sub_b)
    new_b = grafted(tree_b, idx_b, sub_a)
    if side == "numerator":
        return (Formula(new_a, a.denominator, a.p),
                Formula(new_b, b.denominator, b.p))
    return (Formula(a.numerator, new_a, a.p),
            Formula(b.numerator, new_b, b.p))


def mutate(f: Formula, rng, max_depth: int = 4) -> Formula:
    """Replace one uniformly chosen subtree with a fresh grow tree that
    fits the remaining depth budget."""
    side = "numerator" if rng.integers(2) == 0 else "denominator"
    tree = getattr(f, side)
    idx = int(rng.integers(node_count(tree)))
    budget = max_depth - _node_at(tree, idx)[1] + 1
    replacement = random_tree(max(1, budget), "grow", rng)
    new_tree = replace_at(tree, idx, replacement)
    if side == "numerator":
        return Formula(new_tree, f.denominator, f.p)
    return Formula(f.numerator, new_tree, f.p)


def aitken_seed() -> Formula:
    """The delta-squared rule in rational form:
    (Sn * d2 - (Sn - Snm1)^2) / d2."""
    num = Node("sub", children=(
        Node("mul", children=(Node("Sn"), Node("d2"))),
        Node("sq", children=(
            Node("sub", children=(Node("Sn"), Node("Snm1"))),
        )),
    ))
    return Formula(num, Node("d2"), p=0.0)


# ---------------------------------------------------------------------------
# Text format
#
#   (formula :p 1.25 :num (sub (mul Sn Snm2) (add (sq Sn) (sq Snm1)))
#            :den (mul (d2) (div Sn Snm1)))
#
# Terminals appear bare, the nullary d2 as (d2) (bare d2 parses too),
# constants as float literals.  parse(serialize(f)) reproduces f exactly.
# ---------------------------------------------------------------------------


def _serialize_node(node: Node) -> str:
    if node.kind == "const":
        return repr(node.value)
    if node.kind in TERMINAL_KINDS:
        return node.kind
    parts = [node.kind, *map(_serialize_node, node.children)]
    return f"({' '.join(parts)})"


def serialize(f: Formula) -> str:
    return (f"(formula :p {f.p!r} :num {_serialize_node(f.numerator)} "
            f":den {_serialize_node(f.denominator)})")


_TOKEN = re.compile(r"[()]|[^\s()]+")


def parse(text: str) -> Formula:
    end = (None, len(text))
    tokens = ((m.group(), m.start()) for m in _TOKEN.finditer(text))

    def take(expected=None):
        tok, off = next(tokens, end)
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", off)
        if expected is not None and tok != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, got {tok!r}", off)
        return tok, off

    def expr() -> Node:
        tok, off = take()
        if tok == "(":
            head, off = take()
            if head not in FUNCTION_KINDS:
                raise FormulaSyntaxError(f"unknown operator {head!r}", off)
            children = tuple(expr() for _ in range(ARITY[head]))
            take(")")
            return Node(head, children=children)
        if tok == ")":
            raise FormulaSyntaxError("unexpected ')'", off)
        if ARITY.get(tok) == 0 and tok != "const":  # a window term, p or d2
            return Node(tok)
        try:
            return Node("const", value=float(tok))
        except ValueError:
            raise FormulaSyntaxError(f"unknown terminal {tok!r}", off) from None

    take("(")
    take("formula")
    take(":p")
    tok, off = take()
    try:
        p = float(tok)
    except ValueError:
        raise FormulaSyntaxError(f"expected a number for :p, got {tok!r}",
                                 off) from None
    take(":num")
    num = expr()
    take(":den")
    den = expr()
    take(")")
    tok, off = next(tokens, end)
    if tok is not None:
        raise FormulaSyntaxError(f"trailing input {tok!r}", off)
    return Formula(num, den, p)
