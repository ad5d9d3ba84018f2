"""Batch evaluation of candidate formulas over window matrices.

A formula is compiled once into a flat postfix program (an opcode array
plus aligned constants) and then evaluated over an (n_windows, 4) matrix
in one call: a numpy sweep, one opcode at a time over the whole batch.
The learnable parameter p may be one float or a vector of P values; a
vector broadcasts against the window columns, so one call scores every
p-value at once and returns a (P, n_windows) matrix.  A caller may have
the window rows split into groups of consecutive rows, each group's
values a contiguous (P, n_windows / groups) block of the result: the
fitness splits its previous-position and current-position windows so.

The sweep allocates nothing per opcode.  Window columns, p and
constants enter as views that are only read; every other value is
written into a ``Workspace``: one float buffer per stack slot, where an
opcode's result goes into the buffer of the slot it lands in, and two
bool buffers for the overflow and division-guard masks.  Results are
clamped or guarded in place, and only by the passes that can change a
value.  Beside each stack value the sweep carries a bound on the
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
bit at its p, NaN included: that recursive interpreter is the reference
semantics and this module is the path that ``evolve`` and ``evaluate``
run.  The mean cost of one call is the ``kernels.evaluate_program.us``
metric of ``perfbench/run.py --workload evolve-fixed --trace 1``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .trees import CLAMP, DIV_GUARD, DIV_PROTECTED_VALUE, Formula, Node

FLOAT_MAX = float(np.finfo(np.float64).max)

# Opcodes.  0..3 push window columns (newest term first), the rest are
# listed below.
OP_SN = 0
OP_SNM1 = 1
OP_SNM2 = 2
OP_SNM3 = 3
OP_P = 4
OP_CONST = 5
OP_D2 = 6
OP_ADD = 7
OP_SUB = 8
OP_MUL = 9
OP_DIV = 10
OP_SQ = 11

_TERMINAL_OPS = {"Sn": OP_SN, "Snm1": OP_SNM1, "Snm2": OP_SNM2, "Snm3": OP_SNM3,
                 "p": OP_P}
_FUNCTION_OPS = {"add": OP_ADD, "sub": OP_SUB, "mul": OP_MUL, "div": OP_DIV,
                 "sq": OP_SQ}


@dataclass(frozen=True)
class Program:
    """Postfix form of one formula: numerator, denominator, final div."""

    code: np.ndarray
    consts: np.ndarray


def _compile_node(node: Node, code, consts):
    op = _TERMINAL_OPS.get(node.kind)
    if op is not None:
        code.append(op)
        consts.append(0.0)
        return
    if node.kind == "const":
        code.append(OP_CONST)
        consts.append(node.value)
        return
    if node.kind == "d2":
        code.append(OP_D2)
        consts.append(0.0)
        return
    for child in node.children:
        _compile_node(child, code, consts)
    code.append(_FUNCTION_OPS[node.kind])
    consts.append(0.0)


def compile_formula(f: Formula) -> Program:
    code: list = []
    consts: list = []
    _compile_node(f.numerator, code, consts)
    _compile_node(f.denominator, code, consts)
    code.append(OP_DIV)
    consts.append(0.0)
    return Program(code=np.asarray(code, dtype=np.int64),
                   consts=np.asarray(consts, dtype=np.float64))


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

    One flat float64 buffer per stack slot and two bool buffers, each made
    on first use and each large enough for a (rows, n) block plus an (n,)
    or (rows, 1) value.  An opcode writes its result into a view of the
    buffer of the stack slot the result lands in, so no buffer is written
    while a value lower on the stack still reads it.  The window columns
    are transposed once, here, as ``groups`` runs of n / groups
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
        self._head = rows * n
        self._size = self._head + max(rows, n, 1)
        self._slots = []
        self._masks = []

    def slot(self, i, shape):
        """A ``shape`` view of the float buffer of stack slot ``i``.

        A result of shape (n,), (rows, 1) or smaller sits in the tail after
        the head of ``rows * n`` elements and a larger one fills the head,
        so an opcode that broadcasts a small temporary of its own slot to
        a block never writes over it: numpy would copy the whole output to
        resolve that overlap.
        """
        while len(self._slots) <= i:
            self._slots.append(np.empty(self._size))
        size = math.prod(shape)
        start = self._head if size <= self._size - self._head else 0
        return self._slots[i][start:start + size].reshape(shape)

    def mask(self, i, shape):
        """A ``shape`` view of bool buffer ``i`` (0 or 1)."""
        while len(self._masks) <= i:
            self._masks.append(np.empty(self._size, dtype=bool))
        return self._masks[i][:math.prod(shape)].reshape(shape)


def _eval_program(code, consts, p_column, workspace):
    """Result of the postfix sweep; it broadcasts to (groups, P, n / groups).

    The window columns are the (groups, 1, n / groups) entries of
    ``workspace.columns`` and ``p_column`` holds the P p-values as a
    column, so a subtree without p stays one row long and a constant
    stays one element long.  Beside each stack value sits a bound on the
    magnitude of its non-NaN entries, and a clamp runs only when that
    bound does not show it idle.  The result is a view of slot 0's
    buffer.
    """
    columns = workspace.columns
    window_bound = workspace.bound
    p_bound = float(np.max(np.abs(p_column), initial=0.0))
    stack = []
    bounds = []
    for k in range(code.shape[0]):
        op = int(code[k])
        if op <= OP_SNM3:
            stack.append(columns[op])
            bounds.append(window_bound)
        elif op == OP_P:
            stack.append(p_column)
            bounds.append(p_bound)
        elif op == OP_CONST:
            stack.append(consts[k:k + 1])
            bounds.append(abs(float(consts[k])))
        elif op == OP_D2:
            v = workspace.slot(len(stack), columns.shape[1:])
            np.multiply(2.0, columns[1], out=v)
            np.subtract(columns[0], v, out=v)
            np.add(v, columns[2], out=v)
            # The bound of each of the three steps, rounded as they are.
            bound = window_bound + 2.0 * window_bound + window_bound
            if not bound <= FLOAT_MAX:
                _clamp_overflow(v, workspace)
                bound = FLOAT_MAX
            stack.append(v)
            bounds.append(bound)
        elif op == OP_SQ:
            a = stack.pop()
            a_bound = bounds.pop()
            v = workspace.slot(len(stack), a.shape)
            np.multiply(a, a, out=v)
            bound = a_bound * a_bound
            if not bound <= CLAMP:
                np.minimum(v, CLAMP, out=v)
                bound = CLAMP
            stack.append(v)
            bounds.append(bound)
        else:
            b = stack.pop()
            a = stack.pop()
            b_bound = bounds.pop()
            a_bound = bounds.pop()
            # The result lands in a's slot; b's slot and the ones above are free.
            v = workspace.slot(len(stack), np.broadcast(a, b).shape)
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
                        divisor = workspace.slot(len(stack) + 2, b.shape)
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
            stack.append(v)
            bounds.append(bound)
    return stack[0]


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
        out = _eval_program(program.code, program.consts, p.reshape(-1, 1),
                            workspace)
    groups = workspace.groups
    shape = (groups, p.size, windows.shape[0] // groups)
    if out.shape != shape:
        # Slot 1 held the final division's denominator and is free now.
        full = workspace.slot(1, shape)
        np.copyto(full, out)
        out = full
    lead = (groups,) if groups > 1 else ()
    return out.reshape(lead + p.shape + shape[2:])
