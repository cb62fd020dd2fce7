"""Threshold search for the stability of the capacity point.

For each delay the non-trivial fixed point is stable on an open interval
(0, f(tau)) of the reproduction rate. f is located by shrinking a bracket
whose ends the predicate "stable?" decides; the predicate runs only the
inner-radius table of :mod:`jury` (the root oracle where that table is
singular), and its reading is ``(holds, method, guide)``. The guide comes
from the same table: the margin of its last condition, which at every
delay is the one that fails at f, so a false-position step on it picks
most trial rates, and a midpoint step takes over wherever the guide and
the verdicts disagree or the oracle gave a NaN guide. A rate in the
marginal band is not stable, so the threshold found is the band's lower
edge, about 2.2e-12 below f(tau) at every delay.

Seeded by :func:`boundary_table` from the delays before it, a threshold
takes 6 to 10 tables from delay 2 on (7.5 on average through delay 200,
6.4 through 1000); the unseeded walk of :func:`critical_r` takes 14 at
delay 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .delay_map import NONTRIVIAL, char_poly
from .jury import StableReading, is_stable

DEFAULT_TOL = 1e-10

_BRACKET_START = 0.1
_BRACKET_CAP = 4.0
_BRACKET_FLOOR = 1e-9


class BracketingError(RuntimeError):
    """No stable/unstable flip found within the allowed rate range."""


@dataclass(frozen=True)
class BoundaryPoint:
    """Threshold at one delay.

    ``method`` names the tests whose verdicts the search used, joined by
    "+" in sorted order: "jury" when the coefficient test decided every
    trial rate, "jury+oracle" when some fell back to the root oracle.
    ``tables`` counts the trial rates, each one inner-radius table or one
    oracle read; it is not part of the command output.
    """

    tau: int
    r_critical: float
    bracket_width: float
    method: str
    tables: int


@dataclass(frozen=True)
class BoundaryTable:
    points: tuple[BoundaryPoint, ...]
    monotone_decreasing: bool


def is_stable_nontrivial(tau: int, r: float) -> StableReading:
    """Whether the capacity point at ``tau``, ``r`` is stable, and the
    method that decided: "jury", or "oracle" where the table is singular.
    A "jury" reading carries its table's guide, an "oracle" reading NaN
    (see :class:`jury.StableReading`).
    """
    return is_stable(char_poly(tau, r, NONTRIVIAL))


def critical_r(tau: int, tol: float = DEFAULT_TOL, seed: float = _BRACKET_START,
               step: float | None = None) -> BoundaryPoint:
    """Locate the supremum of the stable rate interval.

    Every trial rate reads one table, through :func:`is_stable_nontrivial`,
    and its verdict alone decides which end of the bracket it replaces, so
    both ends are read stable and unstable. A walk from ``seed`` finds the
    bracket: up while the rate reads stable (capped at 4.0), down while it
    does not (by at most half the rate, and stopping past 1e-9), by
    ``step`` (default ``seed``), doubling the step each time. With the
    defaults the walk doubles or halves 0.1. The first rate on the other
    side closes the bracket.

    One loop then shrinks it. Where the guides agree with the verdicts
    (positive at the stable end, negative at the unstable end), the next
    rate is their Illinois false-position point: the point where the line
    through the two ends' guides crosses zero, with the guide of an end
    kept twice in a row halved. A point within ``tol / 2`` of an end is
    moved ``tol / 2`` inside it, so a guide that places f next to an end
    closes the bracket with one more table; if it does not, the next rate
    is the midpoint. Every other rate is the midpoint, so without guides
    (the oracle gives none) the loop bisects. It stops once the bracket
    is no wider than ``tol``, or once its ends are adjacent doubles, so a
    ``tol`` below the float spacing ends at one ulp. Raises
    :class:`BracketingError` when no flip exists in range, which for this
    family signals a defect.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    step = seed if step is None else step
    if not (seed > 0 and step > 0):
        raise ValueError(f"seed and step must be positive, got {seed!r} and {step!r}")
    methods_used: set[str] = set()
    tables = 0

    def read(r: float) -> tuple[bool, float]:
        """The verdict at ``r`` and its guide, NaN where there is none."""
        nonlocal tables
        tables += 1
        holds, method, guide = is_stable_nontrivial(tau, r)
        methods_used.add(method)
        return holds, guide

    r = seed
    rising, guide = read(r)
    while (r < _BRACKET_CAP) if rising else (r > _BRACKET_FLOOR):
        last = (r, guide)
        r = min(r + step, _BRACKET_CAP) if rising else max(r - step, 0.5 * r)
        step *= 2.0
        holds, guide = read(r)
        if holds != rising:
            (lo, g_lo), (hi, g_hi) = (last, (r, guide)) if rising else ((r, guide), last)
            break
    else:
        raise BracketingError(f"no stability flip for r in "
                              f"[{_BRACKET_FLOOR}, {_BRACKET_CAP}] at tau={tau}")

    held_before = None  # the previous trial's verdict
    clamped = False  # whether the previous trial was moved inside by tol / 2
    while hi - lo > tol:
        x = 0.5 * (lo + hi)
        if not clamped and g_lo > 0.0 > g_hi:  # False while either is NaN
            secant = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
            inside = min(max(secant, lo + 0.5 * tol), hi - 0.5 * tol)
            if lo < inside < hi:
                x, clamped = inside, inside != secant
        else:
            clamped = False
        if not lo < x < hi:  # adjacent doubles: a finer tol cannot be met
            break
        holds, guide = read(x)
        if holds:
            if held_before:  # Illinois: hi kept twice in a row
                g_hi *= 0.5
            lo, g_lo = x, guide
        else:
            if held_before is False:
                g_lo *= 0.5
            hi, g_hi = x, guide
        held_before = holds
    return BoundaryPoint(tau=tau, r_critical=0.5 * (lo + hi),
                         bracket_width=hi - lo,
                         method="+".join(sorted(methods_used)), tables=tables)


def boundary_table(tau_max: int, tol: float = DEFAULT_TOL) -> BoundaryTable:
    """Thresholds for tau = 0 .. tau_max plus a strict-monotonicity flag.

    From tau 1 each delay's walk starts at the threshold before it and
    steps by the gap between the two thresholds before it, or by the seed
    itself at tau 1 and wherever that gap is not positive. Verdicts still
    decide both ends of every bracket, so no point assumes the
    monotonicity that the flag reports. Strictness is judged with a slack
    of ``10 * tol`` so that adjacent thresholds closer than the resolution
    do not count.
    """
    if tau_max < 0:
        raise ValueError(f"tau_max must be >= 0, got {tau_max}")
    points = [critical_r(0, tol=tol)]
    for tau in range(1, tau_max + 1):
        seed = points[-1].r_critical
        gap = points[-2].r_critical - seed if tau >= 2 else 0.0
        points.append(critical_r(tau, tol=tol, seed=seed, step=gap if gap > 0 else None))
    monotone = all(later.r_critical < earlier.r_critical - 10.0 * tol
                   for earlier, later in zip(points, points[1:]))
    return BoundaryTable(points=tuple(points), monotone_decreasing=monotone)
