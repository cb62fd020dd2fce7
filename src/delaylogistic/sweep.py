"""Bisection sweep for the stability threshold of the capacity point.

For each delay the non-trivial fixed point is stable on an open interval
(0, f(tau)) of the reproduction rate; f is located by bisecting the
stability predicate. Marginal verdicts count as unstable while bracketing
and bisecting, so the reported threshold approaches the open interval's
supremum from below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .delay_map import NONTRIVIAL, DelayParams, char_poly
from .jury import STABLE, StabilityVerdict, jury_verdict, oracle_verdict

JURY = "jury"
ORACLE = "oracle"

DEFAULT_TOL = 1e-10

_BRACKET_START = 0.1
_BRACKET_CAP = 4.0
_BRACKET_FLOOR = 1e-9


class BracketingError(RuntimeError):
    """No stable/unstable flip found within the allowed rate range."""


@dataclass(frozen=True)
class BoundaryPoint:
    """Threshold at one delay.

    ``method`` names the tests whose verdicts the bisection used, joined
    by "+" in sorted order: "jury" when the coefficient test decided every
    evaluation, "jury+oracle" when some fell back to the root oracle.
    """

    tau: int
    r_critical: float
    bracket_width: float
    method: str


@dataclass(frozen=True)
class BoundaryTable:
    points: tuple[BoundaryPoint, ...]
    monotone_decreasing: bool


def is_stable_nontrivial(tau: int, r: float, method: str = JURY) -> StabilityVerdict:
    """Stability verdict for the capacity point at delay ``tau``, rate ``r``.

    ``method`` selects the coefficient test or the root-modulus oracle;
    the characteristic polynomial does not involve K.
    """
    p = char_poly(DelayParams(r=r, K=1.0, tau=tau), NONTRIVIAL)
    if method == JURY:
        return jury_verdict(p)
    if method == ORACLE:
        return oracle_verdict(p)
    raise ValueError(f"method must be {JURY!r} or {ORACLE!r}, got {method!r}")


def critical_r(tau: int, tol: float = DEFAULT_TOL, method: str = JURY) -> BoundaryPoint:
    """Locate the supremum of the stable rate interval by bisection.

    The bracket grows by doubling from r = 0.1 until an unstable rate is
    found (capped at 4.0); if 0.1 is already unstable the stable end is
    sought by halving instead, which the larger delays need once the
    threshold drops below 0.1. Raises :class:`BracketingError` when no
    flip exists in range, which for this family signals a defect.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    methods_used: set[str] = set()

    def stable(r: float) -> bool:
        verdict = is_stable_nontrivial(tau, r, method)
        methods_used.add(verdict.method)
        return verdict.status == STABLE

    r = _BRACKET_START
    if stable(r):
        lo = r
        hi = None
        while r < _BRACKET_CAP:
            r = min(2.0 * r, _BRACKET_CAP)
            if stable(r):
                lo = r
            else:
                hi = r
                break
        if hi is None:
            raise BracketingError(
                f"no unstable rate up to {_BRACKET_CAP} for tau={tau}")
    else:
        hi = r
        lo = None
        while r > _BRACKET_FLOOR:
            r *= 0.5
            if stable(r):
                lo = r
                break
            hi = r
        if lo is None:
            raise BracketingError(
                f"no stable rate down to {_BRACKET_FLOOR} for tau={tau}")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return BoundaryPoint(tau=tau, r_critical=0.5 * (lo + hi),
                         bracket_width=hi - lo,
                         method="+".join(sorted(methods_used)))


def boundary_table(tau_max: int, tol: float = DEFAULT_TOL) -> BoundaryTable:
    """Thresholds for tau = 0 .. tau_max plus a strict-monotonicity flag.

    Strictness is judged with a slack of ``10 * tol`` so that adjacent
    thresholds closer than the bisection resolution do not count.
    """
    if tau_max < 0:
        raise ValueError(f"tau_max must be >= 0, got {tau_max}")
    points = tuple(critical_r(tau, tol=tol) for tau in range(tau_max + 1))
    monotone = all(later.r_critical < earlier.r_critical - 10.0 * tol
                   for earlier, later in zip(points, points[1:]))
    return BoundaryTable(points=points, monotone_decreasing=monotone)
