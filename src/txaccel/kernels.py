"""Batch evaluation of candidate formulas over window matrices.

A formula is compiled once into a flat postfix program (an opcode array
plus aligned constants; a node's opcode is its kind's index in
``trees.KINDS``) and then evaluated over an (n_windows, 4) matrix
in one call: a numpy sweep, one opcode at a time over the whole batch.
The learnable parameter p may be one float or a vector of P values; a
vector broadcasts against the window columns, so one call scores every
p-value at once and returns a (P, n_windows) matrix.  A caller may have
the window rows split into groups of consecutive rows, each group's
values a contiguous (P, n_windows / groups) block of the result: the
fitness splits its previous-position and current-position windows so.

The sweep allocates nothing per opcode.  Window columns, p and
constants enter as views that are only read; every other value is
written into a ``Workspace``.  A value that reads both p and a window
term is a block of shape (groups, P, n / groups) and lives in a buffer
of the workspace's pool; an opcode writes its block result over a block
operand, which dies there, and takes a free buffer only when neither
operand is a block.  Smaller values live in small scratch buffers, one
per stack position, and two bool buffers hold the overflow and
division-guard masks.  The compiler emits each binary node's children
with the one that needs more block buffers first (Sethi and Ullman,
J. ACM 17 (1970) 715) and marks in ``Program.order`` the opcodes whose
right operand came first; every ufunc still takes its operands in tree
order, so the order decides which buffer holds a value, never a bit of
it.  On the evolve-fixed search no program holds more than two blocks.
Results are clamped or guarded in place, and only by the passes that
can change a value.  Beside each stack value the sweep carries a bound on the
magnitude of its non-NaN entries: max|windows| for a window term, max|p|
for p, |c| for a constant, and for an opcode the same operation on its
operands' bounds, in floats: fl(A + B) for add and sub, fl(A B) for mul,
fl(A A) for sq, the three steps of d2 on the window bound, and
max(fl(A / DIV_GUARD), DIV_PROTECTED_VALUE) for div, whose unguarded
divisors are at least DIV_GUARD in magnitude.  Rounding is monotone, so
fl(A o B) bounds |fl(a o b)| whenever |a| <= A and |b| <= B: the bound
never undershoots.  The +-inf replacement runs only when the bound is not
<= the float max, and the product and square clamps only when it is not
<= CLAMP; a pass that runs resets the bound to its limit.  Each test reads
``not bound <= limit``, so a NaN or inf bound (a NaN or inf in p, a
constant or the windows) keeps the pass.  On center fluxes (at most
1 / (1 - c) = 1000) and the p-scan's |p| (at most about 1.8e6) no clamp
runs in a 2-generation search.  The protected-division guard still looks
at every divisor, with two comparisons into the bool buffers.  A caller
that sweeps the same windows again and again (the fitness's p-scan) keeps
one workspace, so the buffers are allocated once; without one, a call
makes a throwaway workspace sized for its own p-vector.
Each step is the same IEEE operation as in the scalar interpreter of
``tests/oracles.py``, so every row reproduces its ``eval_formula`` bit for
bit at its p, NaN included (where NaNs of both signs meet at an add or
a mul, numpy keeps the first operand's and a Python float the second's;
the NaN that inf - inf makes has one sign): that recursive interpreter
is the reference semantics and this module is the path that ``evolve``
and ``evaluate`` run.  The mean cost of one call is the ``kernels.evaluate_program.us``
metric of ``perfbench/run.py --workload evolve-fixed --trace 1``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .trees import CLAMP, DIV_GUARD, DIV_PROTECTED_VALUE, KINDS, Formula, Node

FLOAT_MAX = float(np.finfo(np.float64).max)

# Opcodes are positions in KINDS, so 0..3 push the window columns (newest
# term first).
(OP_SN, OP_SNM1, OP_SNM2, OP_SNM3, OP_P, OP_CONST,
 OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_SQ, OP_D2) = range(len(KINDS))
_OPCODES = {kind: op for op, kind in enumerate(KINDS)}

# What a subtree reads, as bits; a subtree that reads both is a block.
_READS_P, _READS_WINDOW = 1, 2
_BLOCK = _READS_P | _READS_WINDOW


@dataclass(frozen=True)
class Program:
    """Postfix form of one formula: numerator, denominator, final div.

    ``order`` is 1 at a binary opcode whose right operand was computed
    first, and so sits below the left one on the stack, and 0 elsewhere.
    """

    code: np.ndarray
    consts: np.ndarray
    order: np.ndarray


def _postfix(node: Node):
    """(steps, reads, need) of ``node``: its postfix as (opcode, constant,
    order) steps, the ``_READS_*`` bits of what it reads and the number of
    block buffers its sweep holds at once.

    The child that needs more buffers is emitted first (Sethi and Ullman,
    J. ACM 17 (1970) 715), the left one on a tie: its block is then held
    while the child that needs fewer is computed, not the other way round.
    """
    if not node.children:
        if node.kind == "const":
            return [(OP_CONST, node.value, 0)], 0, 0
        reads = _READS_P if node.kind == "p" else _READS_WINDOW
        return [(_OPCODES[node.kind], 0.0, 0)], reads, 0
    parts = [_postfix(child) for child in node.children]
    swapped = len(parts) == 2 and parts[1][2] > parts[0][2]
    if swapped:
        parts.reverse()
    steps = [step for part in parts for step in part[0]]
    steps.append((_OPCODES[node.kind], 0.0, int(swapped)))
    reads = 0
    for part in parts:
        reads |= part[1]
    need = 0
    if reads == _BLOCK:
        # The result overwrites a block operand, or takes one buffer.
        need, held = 1, 0
        for _, part_reads, part_need in parts:
            need = max(need, held + part_need)
            held += part_reads == _BLOCK
    return steps, reads, need


def compile_formula(f: Formula) -> Program:
    steps, _, _ = _postfix(Node("div", children=(f.numerator, f.denominator)))
    code, consts, order = zip(*steps)
    return Program(code=np.array(code, dtype=np.int64),
                   consts=np.array(consts, dtype=np.float64),
                   order=np.array(order, dtype=np.int8))


def _clamp_overflow(v, workspace):
    """Pull +-inf in ``v`` back to +-CLAMP in place; NaN passes through."""
    mask = workspace.mask(0, v.shape)
    if not np.isfinite(v, out=mask).all():
        np.copyto(v, CLAMP, where=np.equal(v, np.inf, out=mask))
        np.copyto(v, -CLAMP, where=np.equal(v, -np.inf, out=mask))
    return v


class Workspace:
    """The memory the sweep writes into, for one window matrix and up to
    ``rows`` p-values per call.

    A value of more than ``small`` = max(rows, n) elements, which no value
    without p or without a window term has, is a (groups, P, n / groups)
    block and lives in a flat buffer of ``rows * n`` floats taken from a
    pool; every smaller value lives in a scratch buffer of ``small`` floats
    that belongs to its stack position.  Each buffer is made on first use
    and kept, so the pool grows to the most blocks one sweep holds at
    once.  Two bool buffers of the larger size hold masks.  The window
    columns are transposed once, here, as ``groups`` runs of n / groups
    consecutive window rows each: a call's result is laid out as
    (groups, P, n / groups), so each run's values are one contiguous
    block of the result (a ``ComparisonMatrix`` uses two, its prev and
    curr windows).  ``bound`` is max|windows|, the magnitude bound of
    every window term (NaN when a term is NaN).
    """

    def __init__(self, windows, rows, groups=1):
        n = windows.shape[0]
        if groups < 1 or n % groups:
            raise InvalidArgumentError(
                f"{n} window rows do not split into {groups} equal groups")
        self.windows = windows
        self.columns = np.ascontiguousarray(windows.T).reshape(4, groups, 1, -1)
        self.bound = float(np.max(np.abs(windows), initial=0.0))
        self.rows = rows
        self.groups = groups
        self.small = max(rows, n, 1)
        self._block_size = rows * n
        self._pool = []
        self._free = []
        self._scratch = []
        self._masks = []

    def reset(self):
        """Free every block buffer, for a new sweep."""
        self._free = self._pool[::-1]

    def block(self, shape):
        """A ``shape`` view of a free block buffer, and that buffer, which
        stays taken until ``release`` or ``reset``."""
        if not self._free:
            self._pool.append(np.empty(self._block_size))
            self._free.append(self._pool[-1])
        buffer = self._free.pop()
        return buffer[:math.prod(shape)].reshape(shape), buffer

    def release(self, buffer):
        """Give a block buffer back to the pool."""
        self._free.append(buffer)

    def scratch(self, i, shape):
        """A ``shape`` view of the scratch buffer of stack position ``i``."""
        while len(self._scratch) <= i:
            self._scratch.append(np.empty(self.small))
        return self._scratch[i][:math.prod(shape)].reshape(shape)

    def mask(self, i, shape):
        """A ``shape`` view of bool buffer ``i`` (0 or 1)."""
        while len(self._masks) <= i:
            self._masks.append(
                np.empty(max(self._block_size, self.small), dtype=bool))
        return self._masks[i][:math.prod(shape)].reshape(shape)


def _eval_program(program, p_column, workspace):
    """Result of the postfix sweep; it broadcasts to (groups, P, n / groups).

    The window columns are the (groups, 1, n / groups) entries of
    ``workspace.columns`` and ``p_column`` holds the P p-values as a
    column, so a subtree without p stays one row long and a constant
    stays one element long.  Each stack entry is a value, a bound on the
    magnitude of its non-NaN entries, and the block buffer it lives in
    (None when it is not a block); a clamp runs only when the bound does
    not show it idle.  A block result is written over a block operand
    through the identical view, as numpy would copy the whole output to
    resolve a partial overlap.
    """
    columns = workspace.columns
    consts = program.consts
    window_bound = workspace.bound
    p_bound = float(np.max(np.abs(p_column), initial=0.0))
    workspace.reset()
    stack = []
    for k, (op, swapped) in enumerate(zip(program.code.tolist(),
                                           program.order.tolist())):
        if op <= OP_SNM3:
            stack.append((columns[op], window_bound, None))
        elif op == OP_P:
            stack.append((p_column, p_bound, None))
        elif op == OP_CONST:
            stack.append((consts[k:k + 1], abs(float(consts[k])), None))
        elif op == OP_D2:
            v = workspace.scratch(len(stack), columns.shape[1:])
            np.multiply(2.0, columns[1], out=v)
            np.subtract(columns[0], v, out=v)
            np.add(v, columns[2], out=v)
            # The bound of each of the three steps, rounded as they are.
            bound = window_bound + 2.0 * window_bound + window_bound
            if not bound <= FLOAT_MAX:
                _clamp_overflow(v, workspace)
                bound = FLOAT_MAX
            stack.append((v, bound, None))
        elif op == OP_SQ:
            a, a_bound, buffer = stack.pop()
            v = a if buffer is not None else workspace.scratch(len(stack), a.shape)
            np.multiply(a, a, out=v)
            bound = a_bound * a_bound
            if not bound <= CLAMP:
                np.minimum(v, CLAMP, out=v)
                bound = CLAMP
            stack.append((v, bound, buffer))
        else:
            second = stack.pop()
            first = stack.pop()
            # Operands go to the ufunc in tree order, whichever came first.
            a, a_bound, a_buffer = second if swapped else first
            b, b_bound, b_buffer = first if swapped else second
            if a_buffer is not None:
                v, buffer = a, a_buffer
            elif b_buffer is not None:
                v, buffer = b, b_buffer
            else:
                shape = np.broadcast_shapes(a.shape, b.shape)
                if math.prod(shape) > workspace.small:
                    v, buffer = workspace.block(shape)
                else:
                    v, buffer = workspace.scratch(len(stack), shape), None
            if op == OP_MUL:
                np.multiply(a, b, out=v)
                bound = a_bound * b_bound
                if not bound <= CLAMP:
                    np.clip(v, -CLAMP, CLAMP, out=v)
                    bound = CLAMP
            else:
                if op == OP_ADD:
                    np.add(a, b, out=v)
                    bound = a_bound + b_bound
                elif op == OP_SUB:
                    np.subtract(a, b, out=v)
                    bound = a_bound + b_bound
                else:  # OP_DIV
                    # |b| < DIV_GUARD exactly when -DIV_GUARD < b < DIV_GUARD,
                    # NaN and -0.0 included: two bool passes, no |b| pass.
                    guarded = np.less(b, DIV_GUARD, out=workspace.mask(0, b.shape))
                    np.logical_and(guarded, np.greater(
                        b, -DIV_GUARD, out=workspace.mask(1, b.shape)), out=guarded)
                    if guarded.any():
                        # A block divisor dies here and is guarded in place.
                        divisor = b
                        if b_buffer is None:
                            divisor = workspace.scratch(len(stack) + 2, b.shape)
                            np.copyto(divisor, b)
                        np.copyto(divisor, 1.0, where=guarded)
                        np.divide(a, divisor, out=v)
                        # Guarded entries are finite, so filling them before
                        # the clamp gives what filling them after would.
                        np.copyto(v, DIV_PROTECTED_VALUE, where=guarded)
                    else:
                        np.divide(a, b, out=v)
                    # Unguarded |b| >= DIV_GUARD; a NaN bound stays NaN.
                    bound = a_bound / DIV_GUARD
                    if bound < DIV_PROTECTED_VALUE:
                        bound = DIV_PROTECTED_VALUE
                if not bound <= FLOAT_MAX:
                    _clamp_overflow(v, workspace)
                    bound = FLOAT_MAX
            if a_buffer is not None and b_buffer is not None:
                workspace.release(b_buffer)
            stack.append((v, bound, buffer))
    return stack[0][0]


def evaluate_program(program: Program, windows: np.ndarray, p,
                     workspace: Workspace = None) -> np.ndarray:
    """Evaluate a compiled program over every window row.

    ``p`` is a float, giving shape (n,), or a 1-D array of P values,
    giving shape (P, n) with row i evaluated at ``p[i]``.  Without a
    ``workspace`` the result is a fresh array.  With one (made for this
    very ``windows`` array and at least P rows) the result is a view of
    its buffers, valid until the workspace's next call; a workspace of
    ``groups`` > 1 gives it the shape (groups,) + p.shape + (n / groups,),
    group g holding the values of window rows g n / groups onward.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[1] != 4:
        raise InvalidArgumentError(
            f"windows must have shape (n, 4), got {windows.shape}"
        )
    p = np.asarray(p, dtype=np.float64)
    if p.ndim > 1:
        raise InvalidArgumentError(f"p must be a float or 1-D, got shape {p.shape}")
    if workspace is None:
        workspace = Workspace(windows, p.size)
    elif workspace.windows is not windows or p.size > workspace.rows:
        raise InvalidArgumentError(
            "a workspace serves only the window matrix it was made for, at "
            f"up to {workspace.rows} p-values per call; got {p.size}"
        )
    with np.errstate(over="ignore"):  # the sweep clamps overflow itself
        out = _eval_program(program, p.reshape(-1, 1), workspace)
    groups = workspace.groups
    shape = (groups, p.size, windows.shape[0] // groups)
    if out.shape != shape:
        # No block is live, as a block result would have this shape.
        full, _ = workspace.block(shape)
        np.copyto(full, out)
        out = full
    lead = (groups,) if groups > 1 else ()
    return out.reshape(lead + p.shape + shape[2:])
