"""Batch evaluation of candidate formulas over window matrices.

A formula is compiled once into a flat postfix program (an opcode array
plus aligned constants) and then evaluated over an (n_windows, 4) matrix
in one call.  Two backends implement identical IEEE semantics:

* ``numba``: an @njit kernel sweeping one opcode at a time over the whole
  batch in tight loops (the default when numba imports);
* ``numpy``: the same opcode sweep expressed with vectorized primitives.

Both reproduce trees.eval_formula bit for bit, so the recursive scalar
evaluator stays the reference semantics and this module is purely the
fast path.  Select a backend with the TXACCEL_BACKEND environment
variable (``auto``, ``numba``, or ``numpy``).  The per-window cost of the
default backend is the ``kernels.ns_per_window`` metric of
``perfbench/run.py --workload evolve-fixed --trace 1``.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .trees import CLAMP, DIV_GUARD, DIV_PROTECTED_VALUE, Formula, Node

try:
    from numba import njit

    _HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAS_NUMBA = False

# Opcodes.  0..3 push window columns (newest term first), the rest are
# listed below.  Plain ints so the jit kernel sees compile-time constants.
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
    stack_need: int


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

    depth = 0
    peak = 0
    for op in code:
        if op <= OP_D2:
            depth += 1
        elif op != OP_SQ:  # binary
            depth -= 1
        peak = max(peak, depth)
    return Program(code=np.asarray(code, dtype=np.int64),
                   consts=np.asarray(consts, dtype=np.float64),
                   stack_need=peak)


def _eval_program_numpy(code, consts, windows, p):
    stack = []
    n = windows.shape[0]
    for k in range(code.shape[0]):
        op = int(code[k])
        if op <= OP_SNM3:
            stack.append(windows[:, op])
        elif op == OP_P:
            stack.append(np.full(n, p))
        elif op == OP_CONST:
            stack.append(np.full(n, consts[k]))
        elif op == OP_D2:
            stack.append(windows[:, 0] - 2.0 * windows[:, 1] + windows[:, 2])
        elif op == OP_SQ:
            a = stack.pop()
            v = a * a
            stack.append(np.where(v > CLAMP, CLAMP, v))
        else:
            b = stack.pop()
            a = stack.pop()
            if op == OP_ADD:
                v = a + b
            elif op == OP_SUB:
                v = a - b
            elif op == OP_MUL:
                v = a * b
                v = np.where(v > CLAMP, CLAMP, v)
                v = np.where(v < -CLAMP, -CLAMP, v)
                stack.append(v)
                continue
            else:  # OP_DIV
                guarded = np.abs(b) < DIV_GUARD
                v = a / np.where(guarded, 1.0, b)
                v = np.where(v == np.inf, CLAMP, v)
                v = np.where(v == -np.inf, -CLAMP, v)
                stack.append(np.where(guarded, DIV_PROTECTED_VALUE, v))
                continue
            v = np.where(v == np.inf, CLAMP, v)
            v = np.where(v == -np.inf, -CLAMP, v)
            stack.append(v)
    return np.ascontiguousarray(stack[0], dtype=np.float64)


if _HAS_NUMBA:

    @njit(cache=True)
    def _eval_program_numba(code, consts, windows, p, stack_need):  # pragma: no cover
        n = windows.shape[0]
        stack = np.empty((stack_need, n))
        out = np.empty(n)
        sp = 0
        for k in range(code.shape[0]):
            op = code[k]
            if op <= OP_SNM3:
                for i in range(n):
                    stack[sp, i] = windows[i, op]
                sp += 1
            elif op == OP_P:
                for i in range(n):
                    stack[sp, i] = p
                sp += 1
            elif op == OP_CONST:
                c = consts[k]
                for i in range(n):
                    stack[sp, i] = c
                sp += 1
            elif op == OP_D2:
                for i in range(n):
                    stack[sp, i] = windows[i, 0] - 2.0 * windows[i, 1] + windows[i, 2]
                sp += 1
            elif op == OP_SQ:
                t = sp - 1
                for i in range(n):
                    v = stack[t, i] * stack[t, i]
                    if v > CLAMP:
                        v = CLAMP
                    stack[t, i] = v
            elif op == OP_ADD:
                t = sp - 2
                for i in range(n):
                    v = stack[t, i] + stack[t + 1, i]
                    if v == np.inf:
                        v = CLAMP
                    elif v == -np.inf:
                        v = -CLAMP
                    stack[t, i] = v
                sp -= 1
            elif op == OP_SUB:
                t = sp - 2
                for i in range(n):
                    v = stack[t, i] - stack[t + 1, i]
                    if v == np.inf:
                        v = CLAMP
                    elif v == -np.inf:
                        v = -CLAMP
                    stack[t, i] = v
                sp -= 1
            elif op == OP_MUL:
                t = sp - 2
                for i in range(n):
                    v = stack[t, i] * stack[t + 1, i]
                    if v > CLAMP:
                        v = CLAMP
                    elif v < -CLAMP:
                        v = -CLAMP
                    stack[t, i] = v
                sp -= 1
            else:  # OP_DIV
                t = sp - 2
                for i in range(n):
                    b = stack[t + 1, i]
                    if abs(b) < DIV_GUARD:
                        v = DIV_PROTECTED_VALUE
                    else:
                        v = stack[t, i] / b
                        if v == np.inf:
                            v = CLAMP
                        elif v == -np.inf:
                            v = -CLAMP
                    stack[t, i] = v
                sp -= 1
        for i in range(n):
            out[i] = stack[0, i]
        return out


def available_backends():
    return ("numba", "numpy") if _HAS_NUMBA else ("numpy",)


def default_backend() -> str:
    """Backend named by TXACCEL_BACKEND (auto, numba, or numpy)."""
    env = os.environ.get("TXACCEL_BACKEND", "auto").strip().lower()
    if env in ("", "auto"):
        return "numba" if _HAS_NUMBA else "numpy"
    if env == "numpy":
        return "numpy"
    if env == "numba":
        if not _HAS_NUMBA:
            raise InvalidArgumentError(
                "TXACCEL_BACKEND=numba but numba is not importable"
            )
        return "numba"
    raise InvalidArgumentError(
        f"TXACCEL_BACKEND must be auto, numba, or numpy, got {env!r}"
    )


def evaluate_program(program: Program, windows: np.ndarray, p: float,
                     backend: str = None) -> np.ndarray:
    """Evaluate a compiled program over every window row."""
    windows = np.ascontiguousarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[1] != 4:
        raise InvalidArgumentError(
            f"windows must have shape (n, 4), got {windows.shape}"
        )
    if backend is None:
        backend = default_backend()
    if backend == "numba":
        return _eval_program_numba(program.code, program.consts, windows,
                                   float(p), program.stack_need)
    if backend == "numpy":
        return _eval_program_numpy(program.code, program.consts, windows,
                                   float(p))
    raise InvalidArgumentError(f"unknown backend {backend!r}")


def evaluate_formula_batch(f: Formula, windows: np.ndarray, p: float = None,
                           backend: str = None) -> np.ndarray:
    """Compile and evaluate a formula over every window row."""
    if p is None:
        p = f.p
    return evaluate_program(compile_formula(f), windows, p, backend)
