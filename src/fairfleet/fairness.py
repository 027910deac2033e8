"""Alpha-fair utility functions and leximin comparison.

The utility of a throughput vector x (tasks/minute per customer) is

    U_alpha(x) = sum_k x_k^(1-alpha) / (1-alpha)      for alpha != 1
    U_1(x)     = sum_k log(x_k)                       (the alpha -> 1 limit)

alpha = 0 is total throughput, alpha = 1 proportional fairness, and
alpha -> infinity max-min fairness.  Arithmetic with large alpha over- or
underflows, so any alpha above LEXIMIN_ALPHA is treated as exact max-min
and handled by leximin comparison of sorted vectors instead of utility
values.
"""

from __future__ import annotations

import numpy as np

# Throughputs are floored at this value inside U_alpha for alpha >= 1,
# where the utility is undefined at 0.  Well below any achievable
# resolution (one task in a multi-day round).
EPSILON_RATE = 1e-6

# Above this alpha, comparisons switch to exact leximin.
LEXIMIN_ALPHA = 32.0


def alpha_fair_utility(x: np.ndarray, alpha: float) -> float:
    """U_alpha of a nonnegative throughput vector.

    Requires 0 <= alpha <= LEXIMIN_ALPHA; larger alpha means max-min mode,
    which has no meaningful scalar utility (use leximin_key / utility_key).
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if alpha > LEXIMIN_ALPHA:
        raise ValueError(
            f"alpha={alpha} exceeds {LEXIMIN_ALPHA}; use leximin comparison"
        )
    x = np.asarray(x, dtype=float)
    if alpha == 0.0:
        return float(np.sum(x))
    floored = np.maximum(x, EPSILON_RATE) if alpha >= 1.0 else x
    if alpha == 1.0:
        return float(np.sum(np.log(floored)))
    return float(np.sum(np.power(floored, 1.0 - alpha)) / (1.0 - alpha))


def is_leximin(alpha: float) -> bool:
    """True when alpha selects exact max-min (leximin) comparison."""
    return alpha > LEXIMIN_ALPHA


def leximin_key(x: np.ndarray) -> tuple[float, ...]:
    """Sort ascending; lexicographic comparison of these keys is leximin order."""
    return tuple(sorted(float(v) for v in np.asarray(x, dtype=float)))


def utility_key(x: np.ndarray, alpha: float):
    """Comparable utility of x: its leximin key in max-min mode, else U_alpha."""
    if is_leximin(alpha):
        return leximin_key(x)
    return alpha_fair_utility(x, alpha)


def jain_index(x: np.ndarray) -> float:
    """Jain fairness index (sum x)^2 / (n * sum x^2); 1 iff all entries equal.

    The all-zero vector is perfectly equal, so it maps to 1.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 1.0
    denom = float(x.size * np.sum(x * x))
    if denom == 0.0:
        return 1.0
    return float(np.sum(x)) ** 2 / denom
