"""Coefficient-based unit-circle stability test with a determinant table.

A polynomial of degree ``m >= 3`` is reduced row by row: each new row entry
is the 2x2 determinant pairing the previous row's outer entries with a
mirrored interior pair, and each row comes out one entry shorter, down to a
final three-entry row. Stability of the root set (all moduli < 1) is
equivalent to ``m + 1`` strict inequalities: two boundary evaluations at
+1 and -1, a magnitude test on the outer coefficients, and one magnitude
test per reduced row.

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
rounding noise is caught.

The boundary and outer-coefficient conditions are read off the table's
input row, which is in range, so they cannot overflow either.

An independent verdict based on the root-modulus oracle is provided for
cross-checking and as a fallback when the table is genuinely singular
(a zero pivot, such as the constant term of the all-zero fixed point's
characteristic polynomial). Each verdict carries the evidence it rests
on: the conditions and the table, or the root set and, after a fallback,
the reason the table could not decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .polynomial import Polynomial, RootSet, evaluate, normalize_leading, roots

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

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
# verify_sparse_induction: largest recurrence error, relative to the row.
_RECURRENCE_TOL = 1e-9


class TableNotApplicableError(ValueError):
    """Degree below 2: the reduction table is empty by construction."""


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


@dataclass(frozen=True)
class ConditionResult:
    """One strict inequality, 1-indexed, with its signed slack.

    ``margin`` is positive exactly when the inequality holds strictly;
    ``satisfied`` requires ``margin > tolerance``, where ``tolerance`` is
    the MARGIN_TOL band scaled to this condition's operand magnitudes.
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
    index; for oracle verdicts it is the spectral radius. ``method``
    records which test produced the verdict ("jury" or "oracle").

    The evidence fields do not take part in equality. A coefficient-test
    verdict carries its ``conditions`` and, from degree 2, its ``table``;
    an oracle verdict carries its ``root_set``, and ``reason`` says why
    the table could not decide when the oracle stood in for it.
    """

    status: str
    witness: float | int | None
    method: str
    conditions: tuple[ConditionResult, ...] | None = field(default=None, compare=False)
    table: JuryTable | None = field(default=None, compare=False)
    root_set: RootSet | None = field(default=None, compare=False)
    reason: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class InductionReport:
    """Structure check of the reduction table for the delay family.

    For ``lambda^(tau+1) - lambda^tau + r`` every reduced row should carry
    non-zero entries only at positions 0, m-1 and m, and consecutive
    reduced rows should be linked by three closed-form products of the
    previous row's outer entries.
    """

    tau: int
    r: float
    rows_checked: int
    sparse_pattern_holds: bool
    recurrences_hold: bool
    max_discrepancy: float


def jury_table(p: Polynomial) -> JuryTable:
    """Build the full reduction table down to the three-entry row.

    For a row ``(a_0, ..., a_m)`` the successor entries are
    ``a_m * a_(k+1) - a_(m-1-k) * a_0`` for ``k = 0 .. m-1``. A row (the
    input row included) whose largest magnitude leaves [2**-256, 2**256]
    is multiplied by the power of two that brings that magnitude into
    [1, 2), recorded in ``shifts``. Raises :class:`SingularTableError` if a
    row that still needs reduction has a last entry within 1e-12 of zero
    relative to the input's largest coefficient (input row) or to
    ``a_m**2 + a_0**2`` of the row it was reduced from (reduced rows), and
    :class:`TableNotApplicableError` for degree < 2.
    """
    p = normalize_leading(p)
    if p.degree < 2:
        raise TableNotApplicableError(
            f"reduction table needs degree >= 2, got {p.degree}")
    row, shift = _in_range(p.coeffs)
    rows = [row]
    shifts = [shift]
    # |last| is held against the magnitude it was computed at: the input
    # row's largest coefficient, then last**2 + first**2 of the row before,
    # so a last entry that cancellation left at rounding noise counts as 0.
    scale = max(map(abs, row))
    while len(row) > 3:
        m = len(row) - 1
        first, last = row[0], row[m]
        if abs(last) <= _SINGULAR_TOL * scale:
            raise SingularTableError(
                f"singular table: row {len(rows)} ends in {last:.3e}")
        row, shift = _in_range(tuple([last * row[k + 1] - row[m - 1 - k] * first
                                      for k in range(m)]))
        scale = math.ldexp(last * last + first * first, shift)
        rows.append(row)
        shifts.append(shift)
    return JuryTable(tuple(rows), tuple(shifts))


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


def jury_conditions(p: Polynomial,
                    table: JuryTable | None = None) -> list[ConditionResult]:
    """Evaluate the ``degree + 1`` stability inequalities of ``p``.

    Degree 1 needs only the two boundary evaluations, degree 2 adds the
    outer-coefficient magnitude test, and each reduced row of the table
    contributes one |last| > |first| test. All of them are evaluated on
    rows in range: the first three on the input row brought into
    [2**-256, 2**256] as the table does it. ``table`` is ``p``'s
    reduction table when it has been built already; otherwise it is built
    here from degree 2, and a singular table propagates.
    """
    p = normalize_leading(p)
    m = p.degree
    if m < 1:
        raise ValueError("stability conditions need degree >= 1")
    if table is None and m >= 2:
        table = jury_table(p)
    top = table.rows[0] if table is not None else _in_range(p.coeffs)[0]

    results: list[ConditionResult] = []
    # boundary evaluations carry rounding noise ~ eps * sum |a_i|
    boundary_scale = sum(abs(c) for c in top)
    top_poly = p if top == p.coeffs else Polynomial(top)  # rescaled input row
    value_at_one = evaluate(top_poly, 1.0)
    results.append(_condition(1, "P(1) > 0",
                              lhs=value_at_one, rhs=0.0,
                              margin=value_at_one, scale=boundary_scale))

    alternating = (-1.0) ** m * evaluate(top_poly, -1.0)
    results.append(_condition(2, "(-1)^m P(-1) > 0",
                              lhs=alternating, rhs=0.0,
                              margin=alternating, scale=boundary_scale))

    if m >= 2:
        results.append(_condition(3, "|a_m| < a_0",
                                  lhs=abs(top[m]), rhs=top[0],
                                  margin=top[0] - abs(top[m]),
                                  scale=max(abs(top[m]), top[0])))
        for offset, row in enumerate(table.rows[1:]):
            results.append(_condition(
                4 + offset,
                f"|last| > |first| on reduced row {offset + 1}",
                lhs=abs(row[-1]), rhs=abs(row[0]),
                margin=abs(row[-1]) - abs(row[0]),
                scale=max(abs(row[-1]), abs(row[0]))))
    return results


def _condition(index: int, description: str, lhs: float, rhs: float,
               margin: float, scale: float) -> ConditionResult:
    tolerance = MARGIN_TOL * scale
    return ConditionResult(index=index, description=description,
                           lhs=lhs, rhs=rhs,
                           satisfied=margin > tolerance,
                           margin=margin, tolerance=tolerance)


def oracle_verdict(p: Polynomial) -> StabilityVerdict:
    """Classify by the largest root modulus, independent of the table."""
    root_set = roots(p)
    rho = max(abs(z) for z in root_set.roots)
    if rho < 1.0 - MARGIN_TOL:
        status = STABLE
    elif rho > 1.0 + MARGIN_TOL:
        status = UNSTABLE
    else:
        status = MARGINAL
    return StabilityVerdict(status, witness=rho, method="oracle",
                            root_set=root_set)


def jury_verdict(p: Polynomial) -> StabilityVerdict:
    """Classify ``p`` by the coefficient conditions.

    A condition failing beyond its tolerance wins over ones sitting at
    equality: the polynomial is then unstable no matter how the marginal
    ones resolve. With no clear failure, any condition inside its band
    yields a marginal verdict. A singular table delegates to the
    root-modulus oracle, and the verdict's ``reason`` says why.
    """
    p = normalize_leading(p)
    try:
        table = jury_table(p) if p.degree >= 2 else None
    except SingularTableError as exc:
        return replace(oracle_verdict(p), reason=str(exc))
    conditions = tuple(jury_conditions(p, table))
    status, witness = STABLE, None
    for cond in conditions:
        if cond.margin < -cond.tolerance:
            status, witness = UNSTABLE, cond.index
            break
        if status == STABLE and abs(cond.margin) <= cond.tolerance:
            status, witness = MARGINAL, cond.index
    return StabilityVerdict(status, witness, "jury",
                            conditions=conditions, table=table)


def verify_sparse_induction(tau: int, r: float) -> InductionReport:
    """Check the sparse row pattern and row-to-row recurrences numerically.

    Builds the table for ``lambda^(tau+1) - lambda^tau + r`` and verifies
    that, from the first reduced row onward, only positions 0, m-1 and m
    are non-zero, and that consecutive reduced rows satisfy

    - ``next[0]   = -prev[m-1] * prev[0]``
    - ``next[m-2] =  prev[m] * prev[m-1]``
    - ``next[m-1] =  prev[m]**2 - prev[0]**2``

    each right-hand side times ``2**shift``, the power of two the table
    applied to ``next``. ``max_discrepancy`` is the largest error relative
    to the largest magnitude in ``next``. Violations are reported through
    the flags, not raised. The input row itself carries its middle non-zero
    entry at position 1, so the pattern is only asserted after one
    reduction.
    """
    if tau < 2:
        raise ValueError("need tau >= 2 so the table has a reduced row")
    p = Polynomial((1.0, -1.0) + (0.0,) * (tau - 1) + (float(r),))
    table = jury_table(p)
    reduced = table.rows[1:]

    sparse = True
    for row in reduced:
        m = len(row) - 1
        if any(row[k] != 0.0 for k in range(1, m - 1)):
            sparse = False

    max_discrepancy = 0.0
    for prev, nxt, shift in zip(reduced, reduced[1:], table.shifts[2:]):
        m = len(prev) - 1
        error = max(
            abs(nxt[0] - math.ldexp(-prev[m - 1] * prev[0], shift)),
            abs(nxt[-2] - math.ldexp(prev[m] * prev[m - 1], shift)),
            abs(nxt[-1] - math.ldexp(prev[m] ** 2 - prev[0] ** 2, shift)))
        max_discrepancy = max(max_discrepancy,
                              error / (max(map(abs, nxt)) or 1.0))

    return InductionReport(
        tau=tau, r=float(r), rows_checked=len(reduced),
        sparse_pattern_holds=sparse,
        recurrences_hold=max_discrepancy <= _RECURRENCE_TOL,
        max_discrepancy=max_discrepancy)
