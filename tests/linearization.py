"""The Jacobian of the delay map at its fixed points: the reference that
``char_poly``'s closed forms are held to, itself held to central
differences of ``step``."""

import numpy as np

from delaylogistic.delay_map import NONTRIVIAL, TRIVIAL, DelayParams


def jacobian(params: DelayParams, point: str) -> np.ndarray:
    """Linearization of ``step`` at the constant history 0 or K.

    Rows 0..tau-1 shift the history (a single 1 on the superdiagonal); the
    last row carries the two partial derivatives of the update, in column 0
    (oldest entry) and column tau (newest entry). For tau = 0 both land in
    the single cell and add.
    """
    levels = {TRIVIAL: 0.0, NONTRIVIAL: params.K}
    if point not in levels:
        raise ValueError(f"point must be {TRIVIAL!r} or {NONTRIVIAL!r}, got {point!r}")
    level = levels[point]
    n = params.tau + 1
    jac = np.zeros((n, n))
    for i in range(n - 1):
        jac[i, i + 1] = 1.0
    jac[n - 1, 0] += -params.r * level / params.K
    jac[n - 1, n - 1] += 1.0 + params.r * (1.0 - level / params.K)
    return jac
