"""Classical and built-in sequence accelerators as numpy functions of windows.

Three transforms are provided: the delta-squared rule (exact on geometric
sequences), column 2 of the epsilon table (algebraically identical to
delta-squared), and the evolved rational formula shipped as this
package's built-in accelerator.  Each maps an (..., 4) window array
(newest term first, as in ``ComparisonMatrix.windows``) to one value per
window, so ``evaluate`` scores a method with one call over all windows.
Every step is the same IEEE operation, in the same order, as the scalar
form of the transform, so a value is the scalar value bit for bit.

All transforms are total.  A transform either returns a finite float or
the declared INVALID sentinel; guarded denominators use a 1e-10 relative
threshold so that near-cancellation is flagged instead of amplified.
Sentinels propagate into per-position errors as +inf, which can never win
the strict success comparison.

To first order the built-in is linear extrapolation: with S_j = S + e_j
it expands to S + 2e_n - e_{n-1} + O(e^2), i.e. 2S_n - S_{n-1}.
"""

import math

import numpy as np

#: Value returned by a transform whose guarded denominator vanished.
INVALID = math.inf

#: Relative guard threshold shared by all accelerator denominators.
GUARD = 1e-10

#: Smallest inverted difference the epsilon table divides by.
WYNN_TINY = 1e-300


def _terms(windows):
    windows = np.asarray(windows, dtype=np.float64)
    return windows[..., 0], windows[..., 1], windows[..., 2]


def _flat(s_n, d2):
    """Where the second difference ``d2`` is below 1e-10 relative to S_n."""
    return np.abs(d2) < GUARD * np.maximum(1.0, np.abs(s_n))


def aitken(windows):
    """Delta-squared acceleration of the three most recent terms.

    S_n - (S_n - S_{n-1})^2 / (S_n - 2 S_{n-1} + S_{n-2}), or INVALID
    where the second difference is below 1e-10 relative to S_n.
    """
    s_n, s_nm1, s_nm2 = _terms(windows)
    with np.errstate(all="ignore"):
        d2 = s_n - 2.0 * s_nm1 + s_nm2
        d1 = s_n - s_nm1
        value = s_n - d1 * d1 / d2
    return np.where(_flat(s_n, d2), INVALID, value)


def wynn(windows):
    """Column 2 of the epsilon table over (S_{n-2}, S_{n-1}, S_n).

    The cross rule gives S_{n-1} + 1 / (1/(S_n - S_{n-1}) - 1/(S_{n-1} -
    S_{n-2})); each of its three inverted differences below WYNN_TINY in
    magnitude yields INVALID.  The closure guard is the method's effective
    denominator, the second difference, judged at the same 1e-10 relative
    threshold as the delta-squared rule: the two transforms are
    algebraically identical, and a common guard keeps their win/loss
    records comparable.
    """
    s_n, s_nm1, s_nm2 = _terms(windows)
    with np.errstate(all="ignore"):
        d2 = s_n - 2.0 * s_nm1 + s_nm2
        d_old = s_nm1 - s_nm2
        d_new = s_n - s_nm1
        d_inv = 1.0 / d_new - 1.0 / d_old
        value = s_nm1 + 1.0 / d_inv
    invalid = (_flat(s_n, d2) | (np.abs(d_old) < WYNN_TINY)
               | (np.abs(d_new) < WYNN_TINY) | (np.abs(d_inv) < WYNN_TINY))
    return np.where(invalid, INVALID, value)


def evolved(windows):
    """The built-in evolved accelerator.

    A_n = (S_n S_{n-2} - S_n^2 - S_{n-1}^2)
          / ((2 S_n - 4 S_{n-1} + S_{n-2}) * (S_n / S_{n-1}))

    Each denominator factor (the ratio's own denominator S_{n-1}, the
    stretched second difference, and the ratio) is guarded at 1e-10;
    a vanishing factor yields INVALID.
    """
    s_n, s_nm1, s_nm2 = _terms(windows)
    with np.errstate(all="ignore"):
        ratio = s_n / s_nm1
        stretched = 2.0 * s_n - 4.0 * s_nm1 + s_nm2
        numerator = s_n * s_nm2 - s_n * s_n - s_nm1 * s_nm1
        value = numerator / (stretched * ratio)
    invalid = ((np.abs(s_nm1) < GUARD) | (np.abs(stretched) < GUARD)
               | (np.abs(ratio) < GUARD))
    return np.where(invalid, INVALID, value)


#: The methods ``evaluate`` compares, by name.
METHODS = {"aitken": aitken, "wynn": wynn, "evolved": evolved}
