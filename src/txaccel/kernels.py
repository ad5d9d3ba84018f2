"""Batch evaluation of candidate formulas over window matrices.

A formula is compiled once into a flat postfix program (an opcode array
plus aligned constants) and then evaluated over an (n_windows, 4) matrix
in one call: a numpy sweep, one opcode at a time over the whole batch.
The learnable parameter p may be one float or a vector of P values; a
vector broadcasts against the window columns, so one call scores every
p-value at once and returns a (P, n_windows) matrix.

The sweep works in place.  Window columns, p and constants enter as
views that are only read; each opcode writes into an earlier opcode's
temporary when one has the result's shape, then clamps or guards that
result in place, and the rare branches (+-inf replacement, the
protected-division guard) only run when a result needs them.  Each step
is the same IEEE operation as in the scalar evaluator, so every row
reproduces trees.eval_formula bit for bit at its p, NaN included: the
recursive scalar evaluator stays the reference semantics and this module
is purely the fast path.  The mean cost of one call is the
``kernels.evaluate_program.us`` metric of
``perfbench/run.py --workload evolve-fixed --trace 1``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .trees import CLAMP, DIV_GUARD, DIV_PROTECTED_VALUE, Formula, Node

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


def _clamp_overflow(v):
    """Pull +-inf in ``v`` back to +-CLAMP in place; NaN passes through."""
    if not np.isfinite(v).all():
        v[v == np.inf] = CLAMP
        v[v == -np.inf] = -CLAMP
    return v


def _scratch(a, b):
    """An operand that is a temporary of the result's shape, else None.

    Shared inputs reach the sweep as views, so an array that owns its data
    was made by an earlier opcode and may take the result.
    """
    shape = np.broadcast_shapes(a.shape, b.shape)
    for v in (a, b):
        if v.flags.owndata and v.shape == shape:
            return v
    return None


def _eval_program(code, consts, columns, p_column):
    """Result of the postfix sweep; it broadcasts to (..., n).

    ``columns`` holds the four window columns as rows and ``p_column`` the
    p-values as a column, so a subtree without p stays one row long and a
    constant stays one element long.
    """
    stack = []
    for k in range(code.shape[0]):
        op = int(code[k])
        if op <= OP_SNM3:
            stack.append(columns[op])
        elif op == OP_P:
            stack.append(p_column)
        elif op == OP_CONST:
            stack.append(consts[k:k + 1])
        elif op == OP_D2:
            stack.append(_clamp_overflow(columns[0] - 2.0 * columns[1] + columns[2]))
        elif op == OP_SQ:
            a = stack.pop()
            v = np.multiply(a, a, out=a if a.flags.owndata else None)
            stack.append(np.minimum(v, CLAMP, out=v))
        else:
            b = stack.pop()
            a = stack.pop()
            if op == OP_ADD:
                v = _clamp_overflow(np.add(a, b, out=_scratch(a, b)))
            elif op == OP_SUB:
                v = _clamp_overflow(np.subtract(a, b, out=_scratch(a, b)))
            elif op == OP_MUL:
                v = np.multiply(a, b, out=_scratch(a, b))
                np.clip(v, -CLAMP, CLAMP, out=v)
            else:  # OP_DIV
                guarded = np.abs(b) < DIV_GUARD
                if guarded.any():
                    v = _clamp_overflow(a / np.where(guarded, 1.0, b))
                    v[np.broadcast_to(guarded, v.shape)] = DIV_PROTECTED_VALUE
                else:
                    v = _clamp_overflow(np.divide(a, b, out=_scratch(a, b)))
            stack.append(v)
    return stack[0]


def evaluate_program(program: Program, windows: np.ndarray, p) -> np.ndarray:
    """Evaluate a compiled program over every window row.

    ``p`` is a float, giving shape (n,), or a 1-D array of P values,
    giving shape (P, n) with row i evaluated at ``p[i]``.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[1] != 4:
        raise InvalidArgumentError(
            f"windows must have shape (n, 4), got {windows.shape}"
        )
    p = np.asarray(p, dtype=np.float64)
    if p.ndim > 1:
        raise InvalidArgumentError(f"p must be a float or 1-D, got shape {p.shape}")
    out = _eval_program(program.code, program.consts,
                        np.ascontiguousarray(windows.T), p[..., None])
    shape = p.shape + windows.shape[:1]
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


def evaluate_formula_batch(f: Formula, windows: np.ndarray, p=None) -> np.ndarray:
    """Compile and evaluate a formula over every window row."""
    if p is None:
        p = f.p
    return evaluate_program(compile_formula(f), windows, p)
