"""One-step discretizations of logistic growth and their fixed-point tests.

Two maps with step size ``h``: the explicit update, which caps the stable
range of the carrying-capacity point at ``r < 2/h``, and the ratio update,
which keeps it stable for every positive rate. Both fix 0 and K exactly.
Each fixed point is read off the reduction table of its linearization.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .jury import StabilityVerdict, jury_verdict
from .polynomial import Polynomial, validating_make

FORWARD = "forward"
RATIO = "ratio"


class PoleError(ValueError):
    """Evaluation at, or too close to, the ratio map's pole."""


class _SchemeParamsFields(NamedTuple):
    r: float
    K: float
    h: float
    scheme: str


class SchemeParams(_SchemeParamsFields):
    __slots__ = ()
    _make = validating_make

    def __new__(cls, r: float, K: float, h: float, scheme: str) -> SchemeParams:
        if not (math.isfinite(K) and K > 0):
            raise ValueError(f"K must be positive and finite, got {K!r}")
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"h must be positive and finite, got {h!r}")
        if not math.isfinite(r):
            raise ValueError(f"r must be finite, got {r!r}")
        # every derivative and step goes through the product r*h
        if not math.isfinite(r * h):
            raise ValueError(f"r * h overflows: r={r!r}, h={h!r}")
        if scheme not in (FORWARD, RATIO):
            raise ValueError(f"scheme must be {FORWARD!r} or {RATIO!r}, got {scheme!r}")
        return super().__new__(cls, r, K, h, scheme)


def fixed_point_derivatives(p: SchemeParams) -> tuple[float, float]:
    """The scheme's derivatives at its fixed points (X=0, X=K), in closed form.

    Forward: f'(0) = 1 + rh, f'(K) = 1 - rh.
    Ratio:   f'(0) = 1 + rh, f'(K) = 1 / (1 + rh); raises
    :class:`PoleError` at rh = -1."""
    rh = p.r * p.h
    if p.scheme == FORWARD:
        return 1.0 + rh, 1.0 - rh
    if 1.0 + rh == 0.0:
        raise PoleError("ratio map degenerates at r*h = -1")
    return 1.0 + rh, 1.0 / (1.0 + rh)


def scheme_stability(derivatives: tuple[float, float]) -> tuple[StabilityVerdict, StabilityVerdict]:
    """Verdicts at the fixed points (X=0, X=K): the table verdict of each
    ``lambda - d``, ``d`` the derivatives :func:`fixed_point_derivatives` gives.
    Its one condition is ``|d| < radius``, so a witness is 1 or None."""
    return tuple([jury_verdict(Polynomial((1.0, -d))) for d in derivatives])
