"""Classical and built-in sequence accelerators behind one interface.

Three transforms are provided: the delta-squared rule (exact on geometric
sequences), the epsilon-table cross-rule recursion (its column 2 is
algebraically identical to delta-squared), and the evolved rational
formula shipped as this package's built-in accelerator.

All transforms are total.  A transform either returns a finite float or
the declared INVALID sentinel; guarded denominators use a 1e-10 relative
threshold so that near-cancellation is flagged instead of amplified.
Sentinels propagate into per-position errors as +inf, which can never win
the strict success comparison.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError
from .sequences import Sequence, Window, relative_error, window_at

#: Value returned by a transform whose guarded denominator vanished.
INVALID = math.inf

#: Relative guard threshold shared by all accelerator denominators.
GUARD = 1e-10


def is_invalid(value: float) -> bool:
    return not math.isfinite(value)


def aitken(s_n: float, s_nm1: float, s_nm2: float) -> float:
    """Delta-squared acceleration of the three most recent terms.

    Returns S_n - (S_n - S_{n-1})^2 / (S_n - 2 S_{n-1} + S_{n-2}), or
    INVALID when the second difference is below 1e-10 relative to S_n.
    """
    d2 = s_n - 2.0 * s_nm1 + s_nm2
    if abs(d2) < GUARD * max(1.0, abs(s_n)):
        return INVALID
    d1 = s_n - s_nm1
    return s_n - d1 * d1 / d2


def wynn_epsilon(terms, target_column: int, tiny: float = 1e-300) -> float:
    """Epsilon-table acceleration of ``terms`` (oldest first).

    Builds the table by the cross rule
    e_{k+1}^(n) = e_{k-1}^(n+1) + 1 / (e_k^(n+1) - e_k^(n)) and returns
    the most recent entry of the requested even column.  Any inverted
    difference with magnitude below ``tiny`` yields INVALID.  The default
    ``tiny`` only protects the division itself; callers wanting the
    shared closure policy pass a relative guard via ``_wynn_guarded``.
    """
    terms = [float(t) for t in terms]
    n_terms = len(terms)
    if target_column % 2 != 0 or target_column < 0:
        raise InvalidArgumentError(
            f"target_column must be even and >= 0, got {target_column}"
        )
    if target_column > n_terms - 1:
        raise InvalidArgumentError(
            f"column {target_column} needs at least {target_column + 1} terms, "
            f"got {n_terms}"
        )
    prev = [0.0] * (n_terms + 1)  # column k-1 (starts at the e_{-1} zeros)
    curr = terms                  # column k   (starts at the sequence itself)
    for _ in range(target_column):
        nxt = []
        for n in range(len(curr) - 1):
            diff = curr[n + 1] - curr[n]
            if abs(diff) < tiny:
                return INVALID
            nxt.append(prev[n + 1] + 1.0 / diff)
        prev, curr = curr, nxt
    return curr[-1]


def _wynn_column2(s_nm2: float, s_nm1: float, s_n: float) -> float:
    """Column-2 epsilon value under the shared closure policy.

    The value comes from the cross-rule recursion, but the closure guard
    is the method's effective denominator, the second difference, judged
    at the same 1e-10 relative threshold as the delta-squared rule.  The
    two transforms are algebraically identical, so a common guard is what
    keeps their win/loss records comparable.
    """
    if abs(s_n - 2.0 * s_nm1 + s_nm2) < GUARD * max(1.0, abs(s_n)):
        return INVALID
    return wynn_epsilon((s_nm2, s_nm1, s_n), 2)


def evolved_formula(window: Window) -> float:
    """The built-in evolved accelerator.

    A_n = (S_n S_{n-2} - S_n^2 - S_{n-1}^2)
          / ((2 S_n - 4 S_{n-1} + S_{n-2}) * (S_n / S_{n-1}))

    Each denominator factor (the ratio's own denominator S_{n-1}, the
    stretched second difference, and the ratio) is guarded at 1e-10;
    a vanishing factor yields INVALID.
    """
    s_n, s_nm1, s_nm2 = window.s_n, window.s_nm1, window.s_nm2
    if abs(s_nm1) < GUARD:
        return INVALID
    ratio = s_n / s_nm1
    stretched = 2.0 * s_n - 4.0 * s_nm1 + s_nm2
    if abs(stretched) < GUARD or abs(ratio) < GUARD:
        return INVALID
    numerator = s_n * s_nm2 - s_n * s_n - s_nm1 * s_nm1
    return numerator / (stretched * ratio)


@dataclass(frozen=True)
class Accelerator:
    """A named transform from a trailing window to one accelerated value.

    Every transform reads the same 4-term window, so no method sees more
    history than any other.
    """

    name: str
    transform: Callable[[Window], float]


@dataclass(frozen=True)
class AcceleratorResult:
    """Accelerated values and consecutive-value errors at each position."""

    name: str
    positions: tuple
    values: np.ndarray
    errors: np.ndarray
    invalid: np.ndarray  # True where a sentinel entered the error


def identity_accelerator() -> Accelerator:
    return Accelerator("raw", lambda w: w.s_n)


def aitken_accelerator() -> Accelerator:
    return Accelerator("aitken", lambda w: aitken(w.s_n, w.s_nm1, w.s_nm2))


def wynn_accelerator() -> Accelerator:
    # Most recent column-2 entry the 4-term window supports, i.e. the
    # epsilon table over (S_{n-2}, S_{n-1}, S_n).
    return Accelerator("wynn", lambda w: _wynn_column2(w.s_nm2, w.s_nm1, w.s_n))


def evolved_accelerator() -> Accelerator:
    return Accelerator("evolved", evolved_formula)


def apply_accelerator(acc: Accelerator, seq: Sequence, positions) -> AcceleratorResult:
    """Apply ``acc`` at each position and difference its own consecutive values.

    The error at position k is relative_error(A_k, A_{k-1}) where A_j is
    the transform of the window ending at order j and k-1 is the previous
    order present in the sequence.  Entries touched by a sentinel are
    flagged invalid and carry a +inf error.
    """
    positions = tuple(int(k) for k in positions)
    values = np.empty(len(positions))
    errors = np.empty(len(positions))
    invalid = np.zeros(len(positions), dtype=bool)
    for j, order in enumerate(positions):
        i = seq.index_of(order)
        curr = acc.transform(window_at(seq, order))
        prev = acc.transform(window_at(seq, seq.orders[i - 1]))
        values[j] = curr
        if is_invalid(curr) or is_invalid(prev):
            errors[j] = INVALID
            invalid[j] = True
        else:
            err = relative_error(curr, prev)
            errors[j] = err
            invalid[j] = is_invalid(err)
    return AcceleratorResult(acc.name, positions, values, errors, invalid)
