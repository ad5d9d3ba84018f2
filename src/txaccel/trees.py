"""Expression trees over trailing-window terminals, with closure-safe
evaluation, random generation, crossover, mutation, and a stable text
format.

Terminals are the four window values (Sn, Snm1, Snm2, Snm3), the learnable
scalar p, and optional ephemeral constants.  Functions are add, sub, mul,
protected div, square, and the nullary second difference d2, which reads
Sn - 2*Snm1 + Snm2 straight off the window.

Closure: protected division returns 1e6 whenever the denominator magnitude
drops below 1e-10, products and squares are clamped at +-1e150, and any
overflow in the remaining operations is pulled back to +-1e150, so every
tree evaluates to a finite float on every finite input.  A candidate
formula is the protected ratio of a numerator tree and a denominator tree
plus its parameter p.

Depth counts nodes along the longest root-to-leaf path (a lone terminal
has depth 1).  The genetic operators never emit a tree deeper than the
limit they are given; trees built by hand may be deeper, evaluation does
not care.
"""

from dataclasses import dataclass

from .errors import FormulaSyntaxError, InvalidArgumentError
from .sequences import Window

#: Protected division: result when |denominator| < DIV_GUARD.
DIV_GUARD = 1e-10
DIV_PROTECTED_VALUE = 1e6

#: Magnitude clamp applied to products, squares, and overflowed results.
CLAMP = 1e150

TERMINAL_KINDS = ("Sn", "Snm1", "Snm2", "Snm3", "p", "const")
BINARY_KINDS = ("add", "sub", "mul", "div")
UNARY_KINDS = ("sq",)
SPECIAL_KINDS = ("d2",)  # nullary window operator
FUNCTION_KINDS = BINARY_KINDS + UNARY_KINDS + SPECIAL_KINDS

ARITY = {k: 0 for k in TERMINAL_KINDS + SPECIAL_KINDS}
ARITY.update({k: 2 for k in BINARY_KINDS})
ARITY.update({k: 1 for k in UNARY_KINDS})

_WINDOW_INDEX = {"Sn": 0, "Snm1": 1, "Snm2": 2, "Snm3": 3}


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


def subtree_at(node: Node, index: int) -> Node:
    for i, (sub, _) in enumerate(_iter_preorder(node)):
        if i == index:
            return sub
    raise InvalidArgumentError(f"node index {index} out of range")


def depth_at(node: Node, index: int) -> int:
    """Depth of the node at preorder ``index`` (root has depth 1)."""
    for i, (_, d) in enumerate(_iter_preorder(node)):
        if i == index:
            return d
    raise InvalidArgumentError(f"node index {index} out of range")


def replace_at(node: Node, index: int, replacement: Node) -> Node:
    """Rebuild ``node`` with the preorder-``index`` subtree swapped out."""

    def rebuild(current, counter):
        if counter[0] == index:
            counter[0] += 1
            # Skip the indices covered by the replaced subtree.
            counter[0] += node_count(current) - 1
            return replacement
        counter[0] += 1
        if not current.children:
            return current
        children = tuple(rebuild(ch, counter) for ch in current.children)
        return Node(current.kind, current.value, children)

    counter = [0]
    result = rebuild(node, counter)
    if counter[0] <= index:
        raise InvalidArgumentError(f"node index {index} out of range")
    return result


# ---------------------------------------------------------------------------
# Evaluation
#
# The scalar recursion below is the reference semantics; kernels.py runs
# the same operation sequence over whole window batches and is checked
# bitwise against this implementation.
# ---------------------------------------------------------------------------


def _guard_overflow(v: float) -> float:
    if v == float("inf"):
        return CLAMP
    if v == float("-inf"):
        return -CLAMP
    return v


def protected_div(a: float, b: float) -> float:
    if abs(b) < DIV_GUARD:
        return DIV_PROTECTED_VALUE
    return _guard_overflow(a / b)


def eval_tree(node: Node, window: Window, p: float) -> float:
    """Recursive closure-safe evaluation; always returns a finite float."""
    kind = node.kind
    idx = _WINDOW_INDEX.get(kind)
    if idx is not None:
        return float(window[idx])
    if kind == "p":
        return float(p)
    if kind == "const":
        return float(node.value)
    if kind == "d2":
        return _guard_overflow(window[0] - 2.0 * window[1] + window[2])
    if kind == "sq":
        a = eval_tree(node.children[0], window, p)
        v = a * a
        return CLAMP if v > CLAMP else v
    a = eval_tree(node.children[0], window, p)
    b = eval_tree(node.children[1], window, p)
    if kind == "add":
        return _guard_overflow(a + b)
    if kind == "sub":
        return _guard_overflow(a - b)
    if kind == "mul":
        v = a * b
        if v > CLAMP:
            return CLAMP
        if v < -CLAMP:
            return -CLAMP
        return v
    return protected_div(a, b)


def eval_formula(f: Formula, window: Window) -> float:
    num = eval_tree(f.numerator, window, f.p)
    den = eval_tree(f.denominator, window, f.p)
    return protected_div(num, den)


# ---------------------------------------------------------------------------
# Random generation and genetic operators
# ---------------------------------------------------------------------------

CONST_RANGE = (-2.0, 2.0)


def random_terminal(rng, constants: bool = True) -> Node:
    kinds = TERMINAL_KINDS if constants else TERMINAL_KINDS[:-1]
    kind = kinds[rng.integers(len(kinds))]
    if kind == "const":
        return Node("const", value=float(rng.uniform(*CONST_RANGE)))
    return Node(kind)


def random_tree(max_depth: int, method: str, rng, constants: bool = True) -> Node:
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
        return random_terminal(rng, constants)
    if method == "full":
        kinds = BINARY_KINDS + UNARY_KINDS
        kind = kinds[rng.integers(len(kinds))]
    else:
        n_terminals = len(TERMINAL_KINDS) if constants else len(TERMINAL_KINDS) - 1
        pick = rng.integers(n_terminals + len(FUNCTION_KINDS))
        if pick < n_terminals:
            return random_terminal(rng, constants)
        kind = FUNCTION_KINDS[pick - n_terminals]
        if kind == "d2":
            return Node("d2")
    children = tuple(
        random_tree(max_depth - 1, method, rng, constants)
        for _ in range(ARITY[kind])
    )
    return Node(kind, children=children)


def random_formula(max_depth: int, method: str, rng, constants: bool = True,
                   p: float = 0.0) -> Formula:
    num = random_tree(max_depth, method, rng, constants)
    den = random_tree(max_depth, method, rng, constants)
    return Formula(num, den, p)


def crossover(a: Formula, b: Formula, rng, max_depth: int = 4,
              constants: bool = True):
    """Swap one subtree between the same side (num or den) of both parents.

    Offspring deeper than ``max_depth`` are repaired by re-truncating the
    transplanted subtree to a random terminal.  Parents are untouched.
    """
    side = "numerator" if rng.integers(2) == 0 else "denominator"
    tree_a = getattr(a, side)
    tree_b = getattr(b, side)
    idx_a = int(rng.integers(node_count(tree_a)))
    idx_b = int(rng.integers(node_count(tree_b)))
    sub_a = subtree_at(tree_a, idx_a)
    sub_b = subtree_at(tree_b, idx_b)

    def grafted(tree, idx, donor):
        child = replace_at(tree, idx, donor)
        if depth(child) > max_depth:
            child = replace_at(tree, idx, random_terminal(rng, constants))
        return child

    new_a = grafted(tree_a, idx_a, sub_b)
    new_b = grafted(tree_b, idx_b, sub_a)
    if side == "numerator":
        return (Formula(new_a, a.denominator, a.p),
                Formula(new_b, b.denominator, b.p))
    return (Formula(a.numerator, new_a, a.p),
            Formula(b.numerator, new_b, b.p))


def mutate(f: Formula, rng, max_depth: int = 4, constants: bool = True) -> Formula:
    """Replace one uniformly chosen subtree with a fresh grow tree that
    fits the remaining depth budget."""
    side = "numerator" if rng.integers(2) == 0 else "denominator"
    tree = getattr(f, side)
    idx = int(rng.integers(node_count(tree)))
    budget = max_depth - depth_at(tree, idx) + 1
    replacement = random_tree(max(1, budget), "grow", rng, constants)
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
# Terminals appear bare, the nullary d2 as (d2), constants as float
# literals.  parse(serialize(f)) reproduces f exactly.
# ---------------------------------------------------------------------------


def _serialize_node(node: Node) -> str:
    if node.kind == "const":
        return repr(node.value)
    if node.kind in _WINDOW_INDEX or node.kind == "p":
        return node.kind
    if node.kind == "d2":
        return "(d2)"
    inner = " ".join(_serialize_node(ch) for ch in node.children)
    return f"({node.kind} {inner})"


def serialize(f: Formula) -> str:
    return (f"(formula :p {f.p!r} :num {_serialize_node(f.numerator)} "
            f":den {_serialize_node(f.denominator)})")


def _tokenize(text: str):
    tokens = []  # (token, offset)
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append((ch, i))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        if self.pos >= len(self.tokens):
            return None, len(self.text)
        return self.tokens[self.pos]

    def take(self):
        tok, off = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", off)
        self.pos += 1
        return tok, off

    def expect(self, expected):
        tok, off = self.take()
        if tok != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, got {tok!r}", off)
        return off

    def parse_expr(self) -> Node:
        tok, off = self.take()
        if tok == "(":
            head, hoff = self.take()
            if head == "d2":
                self.expect(")")
                return Node("d2")
            if head in BINARY_KINDS + UNARY_KINDS:
                children = tuple(self.parse_expr() for _ in range(ARITY[head]))
                self.expect(")")
                return Node(head, children=children)
            raise FormulaSyntaxError(f"unknown operator {head!r}", hoff)
        if tok == ")":
            raise FormulaSyntaxError("unexpected ')'", off)
        if tok in _WINDOW_INDEX or tok == "p":
            return Node(tok)
        if tok == "d2":
            return Node("d2")
        try:
            return Node("const", value=float(tok))
        except ValueError:
            raise FormulaSyntaxError(f"unknown terminal {tok!r}", off) from None

    def parse_formula(self) -> Formula:
        self.expect("(")
        self.expect("formula")
        self.expect(":p")
        tok, off = self.take()
        try:
            p = float(tok)
        except ValueError:
            raise FormulaSyntaxError(f"expected a number for :p, got {tok!r}",
                                     off) from None
        self.expect(":num")
        num = self.parse_expr()
        self.expect(":den")
        den = self.parse_expr()
        self.expect(")")
        tok, off = self.peek()
        if tok is not None:
            raise FormulaSyntaxError(f"trailing input {tok!r}", off)
        return Formula(num, den, p)


def parse(text: str) -> Formula:
    return _Parser(text).parse_formula()
