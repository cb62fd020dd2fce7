"""Threshold search for the stability of the capacity point.

For each delay the non-trivial fixed point is stable on an open interval
(0, f(tau)) of the reproduction rate. f is located by shrinking a bracket
whose ends the predicate :func:`is_stable_nontrivial` decides; it runs
only the inner-radius table of :mod:`jury`, and returns ``(holds, guide)``.
The guide comes from the same table: the margin of its condition
``max(m - 1, 1)`` at degree ``m = tau + 1``, which at every delay is the
one that fails at f, so a secant step on it picks most trial rates, and a
midpoint step takes over wherever the guide and the verdicts disagree or
the last two reads did not halve the bracket. A rate in the marginal
band is not stable, so the threshold found is the band's lower edge,
about 2.2e-12 below f(tau) at every delay.

Seeded by :func:`boundary_table` from the delays before it, a threshold
takes 2 to 8 tables from delay 2 on (5.9 on average through delay 30, 4.4
through 200, 3.5 through 1000); the unseeded walk of :func:`critical_r`
takes 14 at delay 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .delay_map import NONTRIVIAL, char_poly
from .jury import INNER_RADIUS, jury_table

DEFAULT_TOL = 1e-10

_BRACKET_START = 0.1
_BRACKET_CAP = 4.0
_BRACKET_FLOOR = 1e-9


class BracketingError(ValueError):
    """No stable/unstable flip found within the allowed rate range."""


class BoundaryPoint(NamedTuple):
    """Threshold at one delay.

    ``tables`` counts the trial rates, each one inner-radius table; it is
    not part of the command output.
    """

    tau: int
    r_critical: float
    bracket_width: float
    tables: int


class BoundaryTable(NamedTuple):
    points: tuple[BoundaryPoint, ...]
    monotone_decreasing: bool


def is_stable_nontrivial(tau: int, r: float) -> tuple[bool, float]:
    """Whether the capacity point at ``tau``, ``r`` is stable, with a guide.

    The verdict is the first half of :func:`jury.jury_verdict`: whether
    every condition holds on the table of ``char_poly(tau, r, NONTRIVIAL)``
    at ``INNER_RADIUS``. The guide, from the same table, is the margin of
    its condition ``max(m - 1, 1)`` over its operands' size, in [-1, 1]:
    positive where it holds, and 0.0 where both operands are 0. For the
    delay family it is the condition that fails where a root pair crosses
    the circle at f(tau), so a root of the guide in r places f. It is read
    off the table's ``terms``, the numbers its condition records show, so
    where the decimal re-read gave the readings, it is the re-read's too.
    """
    table = jury_table(char_poly(tau, r, NONTRIVIAL), INNER_RADIUS)
    lhs, rhs, margin, _ = table.terms[max(len(table.terms) - 2, 0)]
    size = lhs + rhs
    return all(table.readings), (margin / size if size else 0.0)


def critical_r(tau: int, tol: float = DEFAULT_TOL, seed: float = _BRACKET_START,
               step: float | None = None) -> BoundaryPoint:
    """Locate the supremum of the stable rate interval.

    One loop reads every trial rate, one table each, through
    :func:`is_stable_nontrivial`, and the verdict alone decides which end
    of the bracket the rate replaces, so both ends are read stable and
    unstable. While one end is still unread, the loop walks from ``seed``:
    up while the rate reads stable (capped at 4.0), down while it does not
    (by at most half the rate, and stopping past 1e-9), by ``step``
    (default ``seed``), doubling the step each time. With the defaults the
    walk doubles or halves 0.1. The first rate on the other side closes
    the bracket.

    Once both ends are read, the loop shrinks the bracket. A trial's guide
    is the scaled margin of its table's condition ``max(m - 1, 1)`` (see
    :func:`is_stable_nontrivial`). Where the ends' guides agree with the
    verdicts (positive at the stable end, negative at the unstable end), the
    next rate is the secant step through the two latest trials (at first the
    walk's last two): where the line through their guides crosses zero, if
    that falls strictly inside the bracket, and else the ends'
    false-position point, where the line through the ends' guides crosses
    zero. A point within ``tol / 2`` of an end is moved ``tol / 2`` inside
    it, so a guide that places f next to an end closes the bracket with one
    more table; if it does not, the next rate is the midpoint. The midpoint
    is also the next rate wherever the last two reads did not halve the
    bracket, which holds a right-signed but flat guide to about twice the
    reads of bisection, and at every other rate, so with NaN guides the
    loop bisects. It stops once the bracket is no wider than ``tol``, or
    once its ends are adjacent doubles, so a ``tol`` below the float
    spacing ends at one ulp. Raises :class:`BracketingError` when no flip
    exists in range, which for this family signals a defect.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    step = seed if step is None else step
    if not (seed > 0 and step > 0):
        raise ValueError(f"seed and step must be positive, got {seed!r} and {step!r}")
    tables = 0
    lo = hi = None  # the bracket's ends, once read; g_lo and g_hi are their guides
    latest = None  # the latest trial, (rate, guide); last is the one before it
    older = old = math.inf  # the bracket widths before the last two reads
    clamped = False  # whether the previous trial was moved inside by tol / 2
    x = seed
    while True:
        tables += 1
        holds, guide = is_stable_nontrivial(tau, x)
        if holds:
            lo, g_lo = x, guide
        else:
            hi, g_hi = x, guide
        last, latest = latest, (x, guide)
        if lo is None or hi is None:  # walk on, away from the end read so far
            if not ((x < _BRACKET_CAP) if holds else (x > _BRACKET_FLOOR)):
                raise BracketingError(f"no stability flip for r in "
                                      f"[{_BRACKET_FLOOR}, {_BRACKET_CAP}] at tau={tau}")
            x = min(x + step, _BRACKET_CAP) if holds else max(x - step, 0.5 * x)
            step *= 2.0
            continue
        if hi - lo <= tol:
            break
        x = 0.5 * (lo + hi)
        if not clamped and hi - lo <= 0.5 * older and g_lo > 0.0 > g_hi:  # False on NaN
            (r0, g0), (r1, g1) = last, latest
            trial = r1 - g1 * (r1 - r0) / (g1 - g0) if g1 != g0 else math.nan
            if not lo < trial < hi:  # also where either guide is NaN
                trial = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
            inside = min(max(trial, lo + 0.5 * tol), hi - 0.5 * tol)
            if lo < inside < hi:
                x, clamped = inside, inside != trial
        else:
            clamped = False
        if not lo < x < hi:  # adjacent doubles: a finer tol cannot be met
            break
        older, old = old, hi - lo
    return BoundaryPoint(tau=tau, r_critical=0.5 * (lo + hi),
                         bracket_width=hi - lo, tables=tables)


def boundary_table(tau_max: int, tol: float = DEFAULT_TOL) -> BoundaryTable:
    """Thresholds for tau = 0 .. tau_max plus a strict-monotonicity flag.

    From tau 1 each delay's walk starts at a seed from the thresholds
    before it. From tau 3, where the last two gaps g' (older) and g are
    both positive, the seed is the geometric extrapolation r - g**2 / g'
    from the threshold r before it, if that is positive, and the step is
    how far the same extrapolation missed at the delay before, or the
    predicted gap g**2 / g' where there was none. Otherwise the walk
    starts at the threshold before and steps by g, or by the seed itself
    at tau 1 and wherever g is not positive. That takes 184 tables through
    tau 30, 878 through 200 and 3547 through 1000, against 248, 1347 and
    5501 when every walk starts there. Verdicts still
    decide both ends of every bracket, so no point assumes the
    monotonicity that the flag reports. Strictness is judged with a slack
    of ``10 * tol`` so that adjacent thresholds closer than the resolution
    do not count.
    """
    if tau_max < 0:
        raise ValueError(f"tau_max must be >= 0, got {tau_max}")
    points = [critical_r(0, tol=tol)]
    guess = 0.0  # the extrapolated seed of the delay before, 0 where it had none
    for tau in range(1, tau_max + 1):
        found = [point.r_critical for point in points[-3:]]
        seed, step = found[-1], None
        gap = found[-2] - seed if tau >= 2 else 0.0
        older_gap = found[-3] - found[-2] if tau >= 3 else 0.0
        miss = abs(guess - seed) if guess > 0 else 0.0
        guess = seed - gap * gap / older_gap if gap > 0 and older_gap > 0 else 0.0
        if guess > 0:
            seed, step = guess, miss or seed - guess
        elif gap > 0:
            step = gap
        points.append(critical_r(tau, tol=tol, seed=seed, step=step))
    monotone = all(later.r_critical < earlier.r_critical - 10.0 * tol
                   for earlier, later in zip(points, points[1:]))
    return BoundaryTable(points=tuple(points), monotone_decreasing=monotone)
