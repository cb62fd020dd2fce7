"""Stability toolkit for the discrete logistic map with time delay."""

from .delay_map import (
    DelayParams,
    Trajectory,
    char_poly,
    fixed_points,
    jacobian,
    simulate,
    step,
    trivial_stability_range,
)
from .discretization import SchemeParams, forward_step, ratio_step, scheme_stability
from .jury import (
    ConditionResult,
    JuryTable,
    StabilityVerdict,
    jury_conditions,
    jury_table,
    jury_verdict,
    oracle_verdict,
)
from .polynomial import Polynomial, RootSet, evaluate, normalize_leading, roots, spectral_radius
from .sweep import (
    BoundaryPoint,
    BoundaryTable,
    boundary_table,
    critical_r,
    is_stable_nontrivial,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryPoint",
    "BoundaryTable",
    "ConditionResult",
    "DelayParams",
    "JuryTable",
    "Polynomial",
    "RootSet",
    "SchemeParams",
    "StabilityVerdict",
    "Trajectory",
    "boundary_table",
    "char_poly",
    "critical_r",
    "evaluate",
    "fixed_points",
    "forward_step",
    "is_stable_nontrivial",
    "jacobian",
    "jury_conditions",
    "jury_table",
    "jury_verdict",
    "normalize_leading",
    "oracle_verdict",
    "ratio_step",
    "roots",
    "scheme_stability",
    "simulate",
    "spectral_radius",
    "step",
    "trivial_stability_range",
]
