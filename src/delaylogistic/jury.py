"""Coefficient-based unit-circle stability test with a determinant table.

A polynomial of degree ``m >= 1`` is reduced row by row: each new row entry
is the 2x2 determinant pairing the previous row's outer entries with a
mirrored interior pair, and each row comes out one entry shorter, down to a
final three-entry row (at degrees 1 and 2 the table is the input row
alone). Stability of the root set (all moduli < 1) is equivalent to
``m + 1`` strict inequalities, all read off the table: on the input row,
two boundary evaluations at +1 and -1 and, from degree 2, a magnitude test
on the outer coefficients; then one magnitude test per reduced row.

The table is scale-free. Each product squares the row's magnitude, so
left alone the rows of a deep table underflow (or overflow) within a few
dozen reductions. A row, the input row included, whose largest magnitude
leaves [2**-256, 2**256] is therefore multiplied by the power of two that
brings that magnitude into [1, 2). The scaling changes only exponents, and
the recurrence and every |last| > |first| condition are homogeneous in the
row, so each verdict is the one the same table would give with unlimited
exponent range (unless a product falls below the normal doubles, which
takes factors hundreds of binary orders below their row's largest
magnitude). For the same reason a row counts as singular when its last
entry is ~0 relative to the magnitude it was computed at, not in absolute
terms: the input row's largest coefficient, and for a reduced row the two
products that formed its last entry, so a pivot that cancellation left at
rounding noise is caught. Since the input row is in range too, the
boundary conditions cannot overflow either.

A row whose interior (every entry but the first and the last two) is
zeros of one sign hands that shape on: each interior entry of the next
row is ``last * z - z * first`` for the zero ``z``, again one signed zero.
From such a row on the table computes only the four distinct entries of
each row, O(1) instead of O(degree), and writes the zeros in, so it holds
bit for bit what the full reduction would. The delay family's
characteristic polynomial has such rows from its first reduced row on.

An independent verdict based on the root-modulus oracle is provided for
cross-checking and as a fallback when the table is genuinely singular
(a zero pivot, such as the constant term of the all-zero fixed point's
characteristic polynomial). Both verdicts, and any other test that
compares a modulus with 1, apply the one unit-circle rule of
:func:`classify_modulus`. Each verdict carries the evidence it rests on:
the conditions and the table, or the root set and, after a fallback, the
reason the table could not decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .polynomial import Polynomial, RootSet, evaluate, normalize_leading, roots

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

# The two tests a verdict can come from, as its ``method`` names them.
JURY = "jury"
ORACLE = "oracle"

# Strict inequalities are granted only beyond this slack, relative to the
# magnitudes being compared; anything inside the band counts as marginal.
# The scaling matters: the reduction squares the outer entries row after
# row, and the table rescales rows by powers of two to keep them in range,
# so only a band relative to the operands reads the same at every depth.
MARGIN_TOL = 1e-12

# A row is singular when |last| <= _SINGULAR_TOL times the magnitude that
# last entry was computed at (see jury_table).
_SINGULAR_TOL = 1e-12
# A row is rescaled once its largest magnitude leaves this range. A
# product squares the magnitude, so a row inside it cannot underflow or
# overflow a double at the next reduction.
_RESCALE_LOW = 2.0 ** -256
_RESCALE_HIGH = 2.0 ** 256


class SingularTableError(RuntimeError):
    """A row that still needs reduction ends in ~0; the scheme breaks down."""


@dataclass(frozen=True)
class JuryTable:
    """Reduction rows; ``rows[0]`` is the input coefficient row.

    ``shifts[i]`` is the exponent of the power of two that row ``i`` was
    multiplied by (the input row as given, a reduced row after its
    reduction): 0 for every row whose largest magnitude lay within
    [2**-256, 2**256], which is the case for all ordinary inputs.
    """

    rows: tuple[tuple[float, ...], ...]
    shifts: tuple[int, ...]


class ConditionResult(NamedTuple):
    """One strict inequality, 1-indexed, with its signed slack.

    ``margin`` is positive exactly when the inequality holds strictly;
    ``satisfied`` requires ``margin > tolerance``, where ``tolerance`` is
    the MARGIN_TOL band scaled to this condition's operand magnitudes.
    A named tuple, since a verdict builds one per table row.
    """

    index: int
    description: str
    lhs: float
    rhs: float
    satisfied: bool
    margin: float
    tolerance: float


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability test, with the evidence it rests on.

    ``status`` is one of stable / unstable / marginal. For an unstable
    coefficient-test verdict ``witness`` is the first failed condition
    index; for oracle verdicts it is the spectral radius. ``method`` names
    the test: JURY ("jury"), ORACLE ("oracle") or "derivative" (a one-step
    scheme of :mod:`discretization`, whose witness is the derivative).

    The evidence fields do not take part in equality. A coefficient-test
    verdict carries its ``conditions`` and its ``table``; an oracle
    verdict carries its ``root_set``, and ``reason`` says why the table
    could not decide when the oracle stood in for it.
    """

    status: str
    witness: float | int | None
    method: str
    conditions: tuple[ConditionResult, ...] | None = field(default=None, compare=False)
    table: JuryTable | None = field(default=None, compare=False)
    root_set: RootSet | None = field(default=None, compare=False)
    reason: str | None = field(default=None, compare=False)


def jury_table(p: Polynomial) -> JuryTable:
    """Build the full reduction table down to the three-entry row.

    At degrees 1 and 2 the table is the input row alone. For a row
    ``(a_0, ..., a_m)`` the successor entries are
    ``a_m * a_(k+1) - a_(m-1-k) * a_0`` for ``k = 0 .. m-1``. A row (the
    input row included) whose largest magnitude leaves [2**-256, 2**256]
    is multiplied by the power of two that brings that magnitude into
    [1, 2), recorded in ``shifts``. Raises :class:`SingularTableError` if a
    row that still needs reduction has a last entry within 1e-12 of zero
    relative to the input's largest coefficient (input row) or to
    ``a_m**2 + a_0**2`` of the row it was reduced from (reduced rows), and
    ``ValueError`` for degree 0.

    Once a row's interior ``a_1 .. a_(m-2)`` is zeros of one sign ``z``,
    every later row has that shape, and a row costs O(1) products: the
    first entry ``a_m * z - a_(m-1) * a_0``, the interior
    ``a_m * z - z * a_0``, then ``a_m * a_(m-1) - z * a_0`` and
    ``a_m * a_m - a_0 * a_0``, the very products the full formula forms
    there. Only the zero-filling of the row stays O(m).
    """
    p = normalize_leading(p)
    if p.degree < 1:
        raise ValueError(f"reduction table needs degree >= 1, got {p.degree}")
    row, shift = _in_range(p.coeffs)
    rows = [row]
    shifts = [shift]
    # |last| is held against the magnitude it was computed at: the input
    # row's largest coefficient, then last**2 + first**2 of the row before,
    # so a last entry that cancellation left at rounding noise counts as 0.
    scale = max(map(abs, row))
    sparse = False
    while len(row) > 3:
        m = len(row) - 1
        first, last = row[0], row[m]
        if abs(last) <= _SINGULAR_TOL * scale:
            # in the input's units: the input row's own coefficient, which
            # its rescale may have underflowed, or a row's power of two
            if len(rows) == 1:
                where = f"input row ends in {p.coeffs[-1]:.3e}"
            else:
                where = f"reduced row {len(rows) - 1} ends in {last:.3e}"
                if shifts[-1]:
                    where += f" (row scaled by 2**{shifts[-1]})"
            raise SingularTableError(f"singular table: {where}")
        sparse = sparse or _uniform_zero_interior(row)
        if sparse:
            # the new interior is one signed zero, last * z - z * first, and
            # a power of two leaves it as it is, so the peak is the live one's
            z, b = row[1], row[m - 1]
            (a, b, c), shift = _in_range((last * z - b * first,
                                          last * b - z * first,
                                          last * last - first * first))
            filled = [last * z - z * first] * m
            filled[0], filled[-2], filled[-1] = a, b, c
            row = tuple(filled)
        else:
            row, shift = _in_range(tuple([last * row[k + 1] - row[m - 1 - k] * first
                                          for k in range(m)]))
        scale = math.ldexp(last * last + first * first, shift)
        rows.append(row)
        shifts.append(shift)
    return JuryTable(tuple(rows), tuple(shifts))


def _uniform_zero_interior(row: tuple[float, ...]) -> bool:
    """Whether ``row[1:-2]`` is all zeros of one sign (0.0 or -0.0)."""
    interior = row[1:-2]
    if any(interior):
        return False
    sign = math.copysign(1.0, interior[0])
    return all(math.copysign(1.0, c) == sign for c in interior)


def _in_range(row: tuple[float, ...]) -> tuple[tuple[float, ...], int]:
    """Return ``row`` times ``2**shift`` and ``shift``.

    ``shift`` is 0 while the largest magnitude lies in [2**-256, 2**256],
    else the exponent that brings it into [1, 2).
    """
    peak = max(map(abs, row))
    if peak == 0.0 or _RESCALE_LOW <= peak <= _RESCALE_HIGH:
        return row, 0
    shift = 1 - math.frexp(peak)[1]
    return tuple([math.ldexp(c, shift) for c in row]), shift


def jury_conditions(table: JuryTable) -> list[ConditionResult]:
    """Read the ``degree + 1`` stability inequalities off ``table``.

    Degree 1 needs only the two boundary evaluations, degree 2 adds the
    outer-coefficient magnitude test, and each reduced row contributes one
    |last| > |first| test. The first three are evaluated on the input row,
    which the table has brought into [2**-256, 2**256].
    """
    top = table.rows[0]
    m = len(top) - 1

    results: list[ConditionResult] = []
    # boundary evaluations carry rounding noise ~ eps * sum |a_i|
    boundary_scale = sum(abs(c) for c in top)
    value_at_one = evaluate(top, 1.0)
    results.append(_condition(1, "P(1) > 0",
                              lhs=value_at_one, rhs=0.0,
                              margin=value_at_one, scale=boundary_scale))

    alternating = (-1.0) ** m * evaluate(top, -1.0)
    results.append(_condition(2, "(-1)^m P(-1) > 0",
                              lhs=alternating, rhs=0.0,
                              margin=alternating, scale=boundary_scale))

    if m >= 2:
        results.append(_condition(3, "|a_m| < a_0",
                                  lhs=abs(top[m]), rhs=top[0],
                                  margin=top[0] - abs(top[m]),
                                  scale=max(abs(top[m]), top[0])))
    for offset, row in enumerate(table.rows[1:]):
        last, first = abs(row[-1]), abs(row[0])
        results.append(_condition(
            4 + offset,
            f"|last| > |first| on reduced row {offset + 1}",
            lhs=last, rhs=first, margin=last - first, scale=max(last, first)))
    return results


def _condition(index: int, description: str, lhs: float, rhs: float,
               margin: float, scale: float) -> ConditionResult:
    tolerance = MARGIN_TOL * scale
    return ConditionResult(index=index, description=description,
                           lhs=lhs, rhs=rhs,
                           satisfied=margin > tolerance,
                           margin=margin, tolerance=tolerance)


def classify_modulus(modulus: float) -> str:
    """The unit-circle rule: marginal within MARGIN_TOL of 1."""
    if modulus < 1.0 - MARGIN_TOL:
        return STABLE
    if modulus > 1.0 + MARGIN_TOL:
        return UNSTABLE
    return MARGINAL


def oracle_verdict(p: Polynomial) -> StabilityVerdict:
    """Classify by the largest root modulus, independent of the table."""
    root_set = roots(p)
    rho = max(abs(z) for z in root_set.roots)
    return StabilityVerdict(classify_modulus(rho), witness=rho, method=ORACLE,
                            root_set=root_set)


def jury_verdict(p: Polynomial) -> StabilityVerdict:
    """Classify ``p`` by the coefficient conditions.

    A condition failing beyond its tolerance wins over ones sitting at
    equality: the polynomial is then unstable no matter how the marginal
    ones resolve. With no clear failure, any condition inside its band
    yields a marginal verdict. A singular table delegates to the
    root-modulus oracle, and the verdict's ``reason`` says why.
    """
    try:
        table = jury_table(p)
    except SingularTableError as exc:
        return replace(oracle_verdict(p), reason=str(exc))
    conditions = tuple(jury_conditions(table))
    status, witness = STABLE, None
    for cond in conditions:
        if cond.margin < -cond.tolerance:
            status, witness = UNSTABLE, cond.index
            break
        if status == STABLE and abs(cond.margin) <= cond.tolerance:
            status, witness = MARGINAL, cond.index
    return StabilityVerdict(status, witness, JURY,
                            conditions=conditions, table=table)

