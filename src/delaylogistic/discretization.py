"""One-step discretizations of logistic growth and their fixed-point tests.

Two maps with step size ``h``: the explicit update, which caps the stable
range of the carrying-capacity point at ``r < 2/h``, and the ratio update,
which keeps it stable for every positive rate. Both fix 0 and K exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .delay_map import _advance
from .jury import StabilityVerdict, classify_modulus

FORWARD = "forward"
RATIO = "ratio"

# The ratio map's denominator counts as zero within this band.
_TOL = 1e-12


class PoleError(ZeroDivisionError):
    """Evaluation at, or too close to, the ratio map's pole."""


@dataclass(frozen=True)
class SchemeParams:
    r: float
    K: float
    h: float
    scheme: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.K) and self.K > 0):
            raise ValueError(f"K must be positive and finite, got {self.K!r}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h must be positive and finite, got {self.h!r}")
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r!r}")
        if self.scheme not in (FORWARD, RATIO):
            raise ValueError(f"scheme must be {FORWARD!r} or {RATIO!r}, got {self.scheme!r}")


def forward_step(p: SchemeParams, x: float) -> float:
    """Explicit update (rh+1)x - (rh/K)x^2.

    This is the delay map's update at zero delay with rate rh, so h = 1
    reproduces the zero-delay step bitwise.
    """
    if p.scheme != FORWARD:
        raise ValueError(f"forward_step needs scheme={FORWARD!r}, got {p.scheme!r}")
    return _advance(x, x, p.r * p.h, p.K)


def ratio_step(p: SchemeParams, x: float) -> float:
    """Ratio update (1+rh)x / (1 + (rh/K)x).

    Factored as x * (1+rh)/(1 + rh*(x/K)) so that both fixed points are
    exact in floating point: x = K makes the quotient exactly 1.
    """
    if p.scheme != RATIO:
        raise ValueError(f"ratio_step needs scheme={RATIO!r}, got {p.scheme!r}")
    rh = p.r * p.h
    denominator = 1.0 + rh * (x / p.K)
    if abs(denominator) <= _TOL:
        raise PoleError(f"ratio map pole: denominator {denominator:.3e} at x={x!r}")
    return x * ((1.0 + rh) / denominator)


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
