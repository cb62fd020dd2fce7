"""The logistic recurrence with a reproduction lag of ``tau`` steps.

The state is the (tau+1)-entry history ``(x_{n-tau}, ..., x_n)``, oldest
first, advanced by

    x_{n+1} = x_n + r * x_n * (1 - x_{n-tau} / K)

:func:`step` maps one history to the next; :func:`simulate` keeps every
sample and reads ``x_{n-tau}`` off its own record, so a long run costs
O(1) per step at any delay. Both apply the update through ``_advance``,
so they agree bitwise.

Both constant histories at 0 and at K are fixed points; their Jacobians
are companion-shaped with a shift block on the superdiagonal, so their
characteristic polynomials come out in closed form. Only :func:`jacobian`,
the tests' reference for those polynomials, needs numpy, and it imports it
on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .polynomial import Polynomial

if TYPE_CHECKING:
    import numpy as np

TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"

# A sample beyond this multiple of K is treated as divergence and stops
# the run loudly instead of overflowing into inf/nan silently.
DIVERGENCE_FACTOR = 1e12


@dataclass(frozen=True)
class DelayParams:
    """Reproduction rate ``r``, carrying capacity ``K`` and delay ``tau``."""

    r: float
    K: float
    tau: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r!r}")
        if not (math.isfinite(self.K) and self.K > 0):
            raise ValueError(f"K must be positive and finite, got {self.K!r}")
        if self.tau < 0 or self.tau != int(self.tau):
            raise ValueError(f"tau must be a non-negative integer, got {self.tau!r}")
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "K", float(self.K))
        object.__setattr__(self, "tau", int(self.tau))


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: (step, value) samples, the seeded history included.

    History entries occupy steps ``-tau .. 0`` so that the sample at step
    ``n`` is exactly ``x_n`` of the recurrence. ``diverged`` marks an early
    stop on a non-finite or runaway sample.
    """

    samples: tuple[tuple[int, float], ...]
    diverged: bool = False


def _check_state(params: DelayParams, state: Sequence[float]) -> tuple[float, ...]:
    values = tuple(float(x) for x in state)
    if len(values) != params.tau + 1:
        raise ValueError(
            f"state needs tau + 1 = {params.tau + 1} entries, got {len(values)}")
    return values


def _advance(x: float, oldest: float, r: float, K: float) -> float:
    """The recurrence itself: ``x_{n+1}`` from ``x_n`` and ``x_{n-tau}``."""
    return x + r * x * (1.0 - oldest / K)


def step(params: DelayParams, state: Sequence[float]) -> tuple[float, ...]:
    """Advance the history by one application of the recurrence."""
    values = _check_state(params, state)
    return values[1:] + (_advance(values[-1], values[0], params.r, params.K),)


def simulate(params: DelayParams, init: Sequence[float], n_steps: int) -> Trajectory:
    """Run ``n_steps`` map applications from the seeded history.

    The record is the history: ``x_{n-tau}`` is always ``tau`` places
    behind ``x_n`` in the list of samples, so each step costs O(1) whatever
    the delay, and gives bitwise the same value as :func:`step`.

    Stops early with ``diverged=True`` once a sample is non-finite or
    exceeds ``DIVERGENCE_FACTOR * K`` in magnitude; the offending sample is
    kept in the record.
    """
    state = _check_state(params, init)
    if any(not math.isfinite(x) for x in state):
        raise ValueError(f"non-finite initial state: {state!r}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")

    values = list(state)
    r, K, tau = params.r, params.K, params.tau
    limit = DIVERGENCE_FACTOR * K
    diverged = False
    x = values[-1]
    for i in range(n_steps):  # x is x_i here, and values[i] is x_{i-tau}
        x = _advance(x, values[i], r, K)
        values.append(x)
        if not math.isfinite(x) or abs(x) > limit:
            diverged = True
            break
    samples = tuple(zip(range(-tau, len(values) - tau), values))
    return Trajectory(samples=samples, diverged=diverged)


def _fixed_point_level(params: DelayParams, point: str) -> float:
    if point == TRIVIAL:
        return 0.0
    if point == NONTRIVIAL:
        return params.K
    raise ValueError(f"point must be {TRIVIAL!r} or {NONTRIVIAL!r}, got {point!r}")


def jacobian(params: DelayParams, point: str) -> np.ndarray:
    """Linearization of :func:`step` at the selected fixed point.

    Rows 0..tau-1 shift the history (a single 1 on the superdiagonal); the
    last row carries the two partial derivatives of the update, in column 0
    (oldest entry) and column tau (newest entry). For tau = 0 both land in
    the single cell and add.
    """
    import numpy as np

    level = _fixed_point_level(params, point)
    n = params.tau + 1
    jac = np.zeros((n, n))
    for i in range(n - 1):
        jac[i, i + 1] = 1.0
    jac[n - 1, 0] += -params.r * level / params.K
    jac[n - 1, n - 1] += 1.0 + params.r * (1.0 - level / params.K)
    return jac


def char_poly(params: DelayParams, point: str) -> Polynomial:
    """Characteristic polynomial of the Jacobian, in closed form.

    Trivial point: ``lambda^tau * (lambda - (1 + r))``. Non-trivial point:
    ``lambda^(tau+1) - lambda^tau + r`` (which collapses to
    ``lambda - (1 - r)`` for tau = 0). Emitted analytically; tests compare
    against a determinant expansion of the Jacobian.
    """
    level = _fixed_point_level(params, point)
    tau, r = params.tau, params.r
    if level == 0.0:
        return Polynomial((1.0, -(1.0 + r)) + (0.0,) * tau)
    if tau == 0:
        return Polynomial((1.0, r - 1.0))
    return Polynomial((1.0, -1.0) + (0.0,) * (tau - 1) + (r,))


def trivial_stability_range(tau: int) -> tuple[float, float]:
    """The open interval of ``r`` where the all-zero point is stable.

    By :func:`char_poly` the point's only non-zero root is ``1 + r``, at
    every delay, so the range is where ``|1 + r| < 1``: (-2, 0).
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return (-2.0, 0.0)
