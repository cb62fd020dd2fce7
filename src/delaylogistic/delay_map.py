"""The logistic recurrence with a reproduction lag of ``tau`` steps.

The state is the (tau+1)-entry history ``(x_{n-tau}, ..., x_n)``, oldest
first, advanced by

    x_{n+1} = x_n + r * x_n * (1 - x_{n-tau} / K)

:func:`step` maps one history to the next through ``_advance``, the one
definition of the update. :func:`simulate` records ``values[i]``, ``x`` at
step ``first_step + i``, and reads ``x_{n-tau}`` off that record, so a long
run costs O(1) per step at any delay; it writes the update inline, term for
term as ``_advance`` does, so the two agree bitwise. A run whose history
settles on a non-zero fixed point of the update, in doubles, stops
stepping and repeats that value to the end, so a long stable run costs what
its settling costs. Zero is left to the loop: ``==`` cannot tell -0.0 from
+0.0, and a history of -0.0 steps to +0.0 when r < 0.

Both constant histories at 0 and at K are fixed points; their Jacobians
are companion-shaped with a shift block on the superdiagonal, so their
characteristic polynomials come out in closed form, in ``tau`` and ``r``
alone: K scales the history but drops out of the linearization.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

from .polynomial import Polynomial, validating_make

TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"

# A sample beyond this multiple of K is treated as divergence and stops
# the run loudly instead of overflowing into inf/nan silently.
DIVERGENCE_FACTOR = 1e12

# `simulate` steps in blocks of at least this many steps, and tests between
# blocks whether the run has settled on a fixed point
_SETTLE_BLOCK = 4096


class _DelayParamsFields(NamedTuple):
    r: float
    K: float
    tau: int


class DelayParams(_DelayParamsFields):
    """Reproduction rate ``r``, carrying capacity ``K`` and delay ``tau``,
    kept as float, float and int."""

    __slots__ = ()
    _make = validating_make

    def __new__(cls, r: float, K: float, tau: int) -> DelayParams:
        if not math.isfinite(r):
            raise ValueError(f"r must be finite, got {r!r}")
        if not (math.isfinite(K) and K > 0):
            raise ValueError(f"K must be positive and finite, got {K!r}")
        if tau < 0 or tau != int(tau):
            raise ValueError(f"tau must be a non-negative integer, got {tau!r}")
        return super().__new__(cls, float(r), float(K), int(tau))


class Trajectory(NamedTuple):
    """Recorded run, the seeded history included: ``values[i]`` is ``x``
    at step ``first_step + i``, with ``first_step = -tau``, so the value
    at step ``n`` is exactly ``x_n`` of the recurrence. ``diverged`` marks
    an early stop on a non-finite or runaway value.
    """

    values: tuple[float, ...]
    first_step: int
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

    The record is the history: ``values[i]`` is ``x`` at step
    ``first_step + i``, so ``x_{n-tau}`` is always ``tau`` places behind
    ``x_n`` and each step costs O(1) whatever the delay. The loop spells
    out ``_advance``'s expression, so each value is bitwise what
    :func:`step` gives.

    Stops early with ``diverged=True`` once a value is non-finite or
    exceeds ``DIVERGENCE_FACTOR * K`` in magnitude; the offending value is
    kept in the record.

    Steps go in blocks; before each, a history of ``tau + 1`` copies of one
    non-zero value ``x`` within that limit, with ``x + r * x * (1 - x / K)
    == x``, has settled: by induction every later value is ``x``, bit for
    bit, so the rest of the record is filled with it. Zero is excluded
    because ``==`` takes -0.0 for +0.0, and -0.0 steps to +0.0 when r < 0;
    nan never compares equal.
    """
    state = _check_state(params, init)
    if any(not math.isfinite(x) for x in state):
        raise ValueError(f"non-finite initial state: {state!r}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")

    values = list(state)
    append = values.append
    r, K, tau = params.r, params.K, params.tau
    # one comparison fails for a runaway, an infinite and a nan value alike;
    # the clamp keeps it failing for inf when DIVERGENCE_FACTOR * K overflows
    limit = min(DIVERGENCE_FACTOR * K, sys.float_info.max)
    block = max(tau + 1, _SETTLE_BLOCK)
    diverged = False
    x = values[-1]
    done = 0
    while done < n_steps and not diverged:
        # settled, as above; a history past the limit is left to the loop,
        # which stops the run on its first step
        if (x and -limit <= x <= limit and x + r * x * (1.0 - x / K) == x
                and values[-tau - 1:].count(x) == tau + 1):
            values += [x] * (n_steps - done)
            break
        stop = min(done + block, n_steps)
        for i in range(done, stop):  # x is x_i here, and values[i] is x_{i-tau}
            x = x + r * x * (1.0 - values[i] / K)  # _advance(x, values[i], r, K)
            append(x)
            if not -limit <= x <= limit:
                diverged = True
                break
        done = stop
    return Trajectory(tuple(values), -tau, diverged)


def char_poly(tau: int, r: float, point: str) -> Polynomial:
    """Characteristic polynomial of the Jacobian, in closed form.

    Trivial point: ``lambda^tau * (lambda - (1 + r))``. Non-trivial point:
    ``lambda^(tau+1) - lambda^tau + r`` (which collapses to
    ``lambda - (1 - r)`` for tau = 0). Emitted analytically; tests compare
    against a determinant expansion of the Jacobian. Raises ``ValueError``
    for a negative ``tau`` or an unknown ``point``.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if point == TRIVIAL:
        return Polynomial((1.0, -(1.0 + r)) + (0.0,) * tau)
    if point != NONTRIVIAL:
        raise ValueError(f"point must be {TRIVIAL!r} or {NONTRIVIAL!r}, got {point!r}")
    if tau == 0:
        return Polynomial((1.0, r - 1.0))
    return Polynomial((1.0, -1.0) + (0.0,) * (tau - 1) + (r,))


# The open interval of ``r`` where the all-zero point is stable. By
# char_poly the point's only non-zero root is ``1 + r``, at every delay, so
# the range is where ``|1 + r| < 1``: (-2, 0).
TRIVIAL_STABLE_RATES = (-2.0, 0.0)
