"""Coefficient-based unit-circle stability test with a determinant table.

A polynomial of degree ``m >= 1`` is reduced row by row: each new row entry
is the 2x2 determinant pairing the previous row's outer entries with a
mirrored interior pair, and each row comes out one entry shorter, down to a
final three-entry row (at degrees 1 and 2 the table is the input row
alone). Stability of the root set (all moduli < 1) is equivalent to
``m`` strict inequalities read off the table, the Schur-Cohn signs: a
magnitude test on each row and, from degree 2, one more on the last.
Trailing zero coefficients are roots at 0, inside the circle at every
radius, so the table reduces the polynomial without them, down to degree
1: the zero point's ``lambda**tau (lambda - (1 + r))`` is read off
``(1, -(1 + r))``.

The reduction never divides, so a row whose last entry is 0 (a zero
pivot) needs no case of its own: the table reduces on past it, and the
condition on that entry, a strict inequality with a zero side, does not
hold. A pivot that cancellation left at rounding noise inflates the
rounding estimates of every later condition, so that a margin the noise
could flip is undecided and read again in decimal, as below.

The table is scale-free: the recurrence and every condition are
homogeneous in a row, so a row leaving [2**-256, 2**256] is rescaled by a
power of two. Once a row's interior is zeros of one sign, every later row
is too and is kept as its four distinct entries, bit for bit what the
full reduction holds, so the delay family's table costs O(degree). One
loop, :func:`_reduce`, serves both arithmetics, doubles and decimals. Its
one branch is the row step, in full or on four entries; the rest is
written once for both: each row's rounding growth, its rescale, by a power
of two or of ten, and its condition.

One unit-circle rule decides every verdict: a root modulus within
MARGIN_TOL of 1 is marginal. It lives in the radii INNER_RADIUS and
OUTER_RADIUS, 1 -+ MARGIN_TOL, through which the table applies it, since
the spectral radius of ``p`` is below ``s`` exactly when ``p(s z)`` has
every root inside the unit circle; the root oracle (:func:`oracle_verdict`),
the tests' reference that no command calls, compares its spectral radius
with them. The verdict runs the table of
``p((1 - MARGIN_TOL) z)`` and reads ``stable`` when every condition holds;
otherwise it runs ``p((1 + MARGIN_TOL) z)`` and reads ``unstable`` when a
condition fails, else ``marginal``. :func:`jury_table` computes every
condition once and keeps the terms and readings. A condition whose margin
lies within its rounding estimate is neither; if no condition fails, or if
bringing the input row into range or scaling it by the radius may have
flushed a non-zero coefficient to 0 or a subnormal, all are read again at
60 decimal digits from the unrounded input, so every input of degree >= 1
gets a verdict. That leaves undecided only a margin within the decimal
estimate, such as a condition that a root of high multiplicity on the
circle cancels. Where one fails and nothing was flushed, the rest stay as
read in doubles, so any of them may be undecided. No table verdict calls
the root oracle.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

from .polynomial import Polynomial, normalize_leading, roots

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

# The two tests a verdict can come from, as its ``method`` names them.
JURY = "jury"
ORACLE = "oracle"

# A root modulus within MARGIN_TOL of 1 is marginal: the table reads that
# off its runs at the two radii, the root oracle off its spectral radius.
MARGIN_TOL = 1e-12
INNER_RADIUS = 1.0 - MARGIN_TOL
OUTER_RADIUS = 1.0 + MARGIN_TOL
# a double's unit roundoff, and the digits of the arithmetic that reads
# the conditions a double table leaves within its rounding estimate
_UNIT_ROUNDOFF = 2.0 ** -53
_PRECISE_DIGITS = 60

# A row is rescaled once its largest magnitude leaves this range. A
# product squares the magnitude, so a row inside it cannot underflow or
# overflow a double at the next reduction.
_RESCALE_LOW = 2.0 ** -256
_RESCALE_HIGH = 2.0 ** 256


class JuryTable(NamedTuple):
    """Reduction rows of ``p(radius * z)``, kept as their live entries.

    ``live[i]`` is row ``i``, ``live[0]`` the input row: the coefficients
    of ``p`` without its trailing zeros, brought into range, scaled by the
    radius. A row whose interior is zeros of one sign is kept as ``(first,
    zero, penultimate, last)``; :attr:`rows` writes every row out in full.
    ``shifts[i]`` is the exponent of the power of two that row ``i`` was
    multiplied by, 0 for every row that stayed within [2**-256, 2**256].

    ``readings[i]`` is condition ``i + 1`` as read off the table (see
    :func:`jury_conditions`), and ``terms[i]`` its ``(lhs, rhs, margin,
    rounding)`` in doubles, from the arithmetic that gave the readings:
    the double rows, or where the decimal re-read gave them, the 60-digit
    table of the unrounded input, each condition scaled by a power of ten
    (see :func:`_as_doubles`). A table compares as the tuple it is, terms
    included, so one whose rounding estimate is NaN (an infinite estimate
    times a zero) does not equal a rebuilt copy of itself.

    ``live``, ``shifts`` and :attr:`rows` are always the double table,
    also where its readings come from the re-read. Each row is defined
    only up to a positive factor, as every condition is homogeneous in it.
    """

    live: tuple[tuple[float, ...], ...]
    shifts: tuple[int, ...]
    radius: float
    readings: tuple[bool | None, ...]
    terms: tuple[tuple[float, ...], ...]

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """Every row in full, ``rows[0]`` the input row; O(degree**2)."""
        rows = []
        for i, row in enumerate(self.live):
            width = len(self.live[0]) - i
            if len(row) != width:
                first, zero, penultimate, last = row
                row = (first,) + (zero,) * (width - 3) + (penultimate, last)
            rows.append(row)
        return tuple(rows)


class StabilityVerdict(NamedTuple):
    """Outcome of a stability test, with the evidence it rests on.

    ``status`` is one of stable / unstable / marginal; ``method`` names
    the test: JURY ("jury") or ORACLE ("oracle"). A JURY ``witness``
    indexes a condition of its ``table``: the first that fails at the
    outer radius (unstable) or does not hold at the inner one (marginal).
    An ORACLE witness is the spectral radius.
    """

    status: str
    witness: float | int | None
    method: str
    table: JuryTable | None = None


def jury_table(p: Polynomial, radius: float = 1.0) -> JuryTable:
    """Reduce ``p(radius * z)`` down to the three-entry row.

    The input row is ``p``'s coefficients without its trailing zeros (down
    to degree 1) brought into range, then coefficient ``k`` times
    ``radius**(m - k)``, which leaves a signed zero as it is. For a row
    ``(a_0, ..., a_m)`` the successor entries are ``a_m * a_(k+1) -
    a_(m-1-k) * a_0`` for ``k = 0 .. m-1``, four products once the
    interior is one signed zero. Every condition is computed and read
    here, once. Raises ``ValueError`` for degree 0.
    """
    p = normalize_leading(p)
    if p.degree < 1:
        raise ValueError(f"reduction table needs degree >= 1, got {p.degree}")
    coeffs = p.coeffs
    m = len(coeffs) - 1
    while m > 1 and coeffs[m] == 0.0:  # a root at 0 lies inside at every radius
        m -= 1
    coeffs = coeffs[:m + 1]
    peak = max(map(abs, coeffs))
    in_range, shift = ((coeffs, 0) if _RESCALE_LOW <= peak <= _RESCALE_HIGH
                       else _power_of_two(coeffs, peak))
    # a zero times a positive power is that zero, sign and all
    row = tuple([c * radius ** (m - k) if c else c for k, c in enumerate(in_range)])
    live, shifts, terms = _reduce(row, _UNIT_ROUNDOFF, _RESCALE_LOW, _RESCALE_HIGH,
                                  _power_of_two)
    readings = _readings(terms)
    # within its estimate a sign is noise: where none fails, read all again,
    # as, whatever the doubles read, where the input row may have lost a
    # coefficient to 0 or a subnormal: the smallest, times 2**shift and the
    # radius's smallest power, below twice the smallest normal double
    smallest = math.ldexp(min(map(abs, filter(None, coeffs))), shift) * min(radius, 1.0) ** m
    if (None in readings and False not in readings) or smallest < 2.0 ** -1021:
        readings, terms = _precise_readings(coeffs, radius)
    return JuryTable(live, (shift,) + shifts, radius, readings, terms)


def _reduce(row, unit, low, high, rescale) -> tuple[tuple, tuple, tuple]:
    """Reduce the input ``row`` to the three-entry row in one loop, in the
    arithmetic of its entries (floats or decimals, unit roundoff ``unit``):
    the rows as kept, the shift of each reduced row, and each condition's
    ``(lhs, rhs, margin, rounding)``, in index order. The row step is the
    loop's one branch: in full until the interior is zeros of one sign,
    then on the four live entries. For either, the rounding growth follows,
    then ``rescale(row, peak)`` where the peak leaves [low, high], a power
    that keeps the sign of a zero, then the row's condition.

    Carry the reduction on to one entry and let ``delta_k`` be the last
    entry of reduced row ``k``. Every root lies inside the unit circle
    exactly when ``delta_1 < 0`` and each later ``delta_k > 0`` (Schur-Cohn;
    Marden, *Geometry of Polynomials*, 1966), and condition ``k``'s margin
    has the sign of ``-delta_1``, then of ``delta_k``: ``|a_m| < a_0`` on
    the input row, ``|last| > |first|`` on each reduced row and, from
    degree 2, ``|first + last| > |middle|`` on the three-entry row
    ``(a, b, c)``, as ``delta_m = (c - a)**2 ((a + c)**2 - b**2)`` and
    condition ``m - 1`` holds only where ``c != a``.

    ``rounding`` is ``2m**2 u`` (a ratio of a row's entries gathers the
    errors of every row before it) times the growth ``(l**2 + f**2) /
    |l**2 - f**2|`` of each reduction so far, times ``lhs + rhs``, or
    ``|a| + |b| + |c|`` where ``a + c`` may cancel. ``l**2 - f**2`` is the
    next row's last entry before its rescale.
    """
    m = len(row) - 1
    rounding = 2 * m * m * unit
    outer = abs(row[m])
    terms = [(outer, row[0], row[0] - outer, rounding * (outer + row[0]))]
    live, shifts, dense = [row], [], True
    for width in range(m, 2, -1):  # the width of the row it forms
        if dense:
            first, last = row[0], row[-1]
            if _uniform_zero_interior(row):
                dense, zero, penultimate = False, row[1], row[-2]
        f2, l2 = first * first, last * last
        if dense:
            row = tuple([last * row[k + 1] - row[width - 1 - k] * first for k in range(width)])
            first_size, last_size, peak = abs(row[0]), abs(row[-1]), max(map(abs, row))
        else:  # the full step's other products have a zero factor: the same bits
            zero_last, zero_first = last * zero, zero * first
            row = first, zero, penultimate, last = (
                zero_last - penultimate * first, zero_last - zero_first,
                last * penultimate - zero_first, l2 - f2)
            first_size, last_size = abs(first), abs(last)
            peak = max(first_size, abs(penultimate), last_size)
        rounding = rounding * (l2 + f2) / last_size if last_size else type(unit)("inf")
        shift = 0
        if not low <= peak <= high:
            row, shift = rescale(row, peak)  # which moves a decimal zero's exponent
            first, zero, penultimate, last = row[0], row[1], row[-2], row[-1]
            first_size, last_size = abs(first), abs(last)
        live.append(row)
        shifts.append(shift)
        terms.append((last_size, first_size, last_size - first_size,
                      rounding * (last_size + first_size)))
    if m > 1:  # the last row has three entries, kept as four once sparse
        a, b, c = row[0], row[-2], row[-1]
        ends, middle = abs(a + c), abs(b)
        terms.append((ends, middle, ends - middle, rounding * (abs(a) + abs(b) + abs(c))))
    return tuple(live), tuple(shifts), tuple(terms)


def _uniform_zero_interior(row) -> bool:
    """Whether ``row[1:-2]`` is all zeros of one sign (0.0 or -0.0)."""
    interior = row[1:-2]
    return not any(interior) and len(set(map(math.copysign, repeat(1.0), interior))) == 1


def _power_of_two(row, peak) -> tuple[tuple[float, ...], int]:
    """``row`` times ``2**shift``, and ``shift``, which brings its peak
    ``peak`` into [1, 2); a row of zeros as it is."""
    if not peak:
        return row, 0
    shift = 1 - math.frexp(peak)[1]
    return tuple([math.ldexp(c, shift) for c in row]), shift


def _power_of_ten(row, peak) -> tuple[tuple, int]:
    """``row`` times ``10**shift``, and ``shift``, which brings its decimal
    peak ``peak`` into [1, 10); a row of zeros as it is."""
    if not peak:
        return row, 0
    shift = -peak.adjusted()
    return tuple([c.scaleb(shift) for c in row]), shift


def jury_conditions(table: JuryTable) -> list[dict]:
    """The ``degree`` stability inequalities of ``table``, one per row and
    one more on the three-entry row (see :func:`_reduce`), as the
    records the payloads print: 1-based ``index``, ``description``,
    ``lhs``, ``rhs``, the reading ``satisfied`` (None where undecided) and
    ``margin``, positive where the inequality holds. The numbers are the
    table's ``terms``, from the arithmetic that gave its readings."""
    m = len(table.terms)
    tests = ["|a_m| < a_0"] + [f"|last| > |first| on reduced row {k}" for k in range(1, m - 1)]
    if m > 1:
        tests.append("|first + last| > |middle| on the three-entry row")
    return [{"index": index, "description": test, "lhs": lhs, "rhs": rhs,
             "satisfied": reading, "margin": margin}
            for index, (test, (lhs, rhs, margin, _), reading)
            in enumerate(zip(tests, table.terms, table.readings), start=1)]


def _as_doubles(terms) -> tuple[tuple[float, ...], ...]:
    """Each condition of the decimal ``terms`` times the power of ten that
    brings ``max(lhs, rhs)`` into [1, 10), as a decimal row may lie far
    outside a double's range, rounded once to doubles. Called at the
    precision of the terms, so that scaleb rounds no digit away."""
    scaled = [(condition, -max(condition[:2]).adjusted()) for condition in terms]
    return tuple([tuple([float(x.scaleb(shift)) for x in condition])
                  for condition, shift in scaled])


def _readings(terms) -> tuple[bool | None, ...]:
    """Every condition of ``terms``: True if it holds, False if it fails,
    None where its margin is within its rounding estimate."""
    return tuple([True if margin > rounding else False if margin < -rounding else None
                  for _, _, margin, rounding in terms])


def _precise_readings(coeffs: tuple[float, ...], radius: float) -> tuple[tuple, tuple]:
    """The readings of the conditions of the table of ``coeffs``, the input
    without its trailing zeros, at ``radius``, read at ``_PRECISE_DIGITS``
    digits (unit roundoff ``10**(1 - digits)``), and their terms as
    :func:`_as_doubles` rounds them. The input row is the unrounded
    ``coeffs`` scaled by one running product of the radius; a decimal holds
    any double's exponent, and its squares."""
    from decimal import Decimal, InvalidOperation, localcontext  # imported only when needed
    with localcontext() as context:
        context.prec = _PRECISE_DIGITS
        # an infinite estimate times a zero reads NaN, so undecided, as in doubles
        context.traps[InvalidOperation] = False
        row, power, radius = [Decimal(c) for c in coeffs], Decimal(1), Decimal(radius)
        for k in reversed(range(len(row))):
            row[k] *= power
            power *= radius
        # a row whose peak's exponent lies within -+1000, in [10**-1000,
        # 10**1001), stays in range (10**-+999999) when squared
        low, high = Decimal("1e-1000"), Decimal("1e1001").next_minus()
        terms = _reduce(tuple(row), Decimal(10) ** (1 - _PRECISE_DIGITS), low, high,
                        _power_of_ten)[2]
        return _readings(terms), _as_doubles(terms)


def oracle_verdict(p: Polynomial) -> StabilityVerdict:
    """Classify by the largest root modulus, independent of the table:
    marginal from INNER_RADIUS to OUTER_RADIUS."""
    rho = max(map(abs, roots(p)))
    status = STABLE if rho < INNER_RADIUS else UNSTABLE if rho > OUTER_RADIUS else MARGINAL
    return StabilityVerdict(status, witness=rho, method=ORACLE)


def jury_verdict(p: Polynomial) -> StabilityVerdict:
    """Classify ``p`` by the coefficient conditions at the two radii:
    ``stable`` when every condition holds on the table of
    ``p(INNER_RADIUS * z)``, else ``unstable`` when one fails on that of
    ``p(OUTER_RADIUS * z)``, else ``marginal``. Every ``p`` of degree >= 1
    gets a verdict, however widely its coefficients range.
    """
    inner = jury_table(p, INNER_RADIUS)
    if all(inner.readings):
        return StabilityVerdict(STABLE, None, JURY, table=inner)
    outer = jury_table(p, OUTER_RADIUS)
    if False in outer.readings:
        return StabilityVerdict(UNSTABLE, outer.readings.index(False) + 1, JURY, table=outer)
    unmet = next(index for index, reading in enumerate(inner.readings, start=1) if not reading)
    return StabilityVerdict(MARGINAL, unmet, JURY, table=inner)
