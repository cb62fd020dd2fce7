"""One-step discretizations of logistic growth and their fixed-point tests.

Two maps with step size ``h``: the explicit update, which caps the stable
range of the carrying-capacity point at ``r < 2/h``, and the ratio update,
which keeps it stable for every positive rate. Both fix 0 and K exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .jury import StabilityVerdict, classify_modulus

FORWARD = "forward"
RATIO = "ratio"


class PoleError(ZeroDivisionError):
    """Evaluation at, or too close to, the ratio map's pole."""


class _SchemeParamsFields(NamedTuple):
    r: float
    K: float
    h: float
    scheme: str


class SchemeParams(_SchemeParamsFields):
    __slots__ = ()

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


def _classify(derivative: float) -> StabilityVerdict:
    return StabilityVerdict(classify_modulus(abs(derivative)), witness=derivative,
                            method="derivative")


def scheme_stability(p: SchemeParams) -> tuple[StabilityVerdict, StabilityVerdict]:
    """Verdicts at the fixed points (X=0, X=K) from closed-form derivatives.

    Forward: f'(0) = 1 + rh, f'(K) = 1 - rh.
    Ratio:   f'(0) = 1 + rh, f'(K) = 1 / (1 + rh).
    """
    rh = p.r * p.h
    if p.scheme == FORWARD:
        d_zero, d_capacity = 1.0 + rh, 1.0 - rh
    else:
        if 1.0 + rh == 0.0:
            raise PoleError("ratio map degenerates at r*h = -1")
        d_zero, d_capacity = 1.0 + rh, 1.0 / (1.0 + rh)
    return _classify(d_zero), _classify(d_capacity)
