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
From such a row on the table computes and keeps only the four distinct
entries of each row, O(1) instead of O(degree); written out with their
zeros, they are bit for bit what the full reduction would hold. The
verdict reads each reduced row's first and last entries and builds no
condition record, so it too costs O(1) per such row. The delay family's
characteristic polynomial has such rows from its first reduced row on,
so its verdict costs O(degree).

An independent verdict based on the root-modulus oracle is provided for
cross-checking and as a fallback when the table is genuinely singular
(a zero pivot, such as the constant term of the all-zero fixed point's
characteristic polynomial). The oracle verdict, and any other test that
compares a modulus with 1, applies the unit-circle rule of
:func:`classify_modulus`. The table does not: it grants each condition
its own MARGIN_TOL band, scaled to that condition's operands, and that
band is not the oracle's. Near a threshold the two verdicts can differ,
and deep in the table rounding picks a side: ``stability --tau 1000 --r
0.0015700111598856298 --point nontrivial`` reads ``stable``, where
``--method oracle`` reads ``marginal``. One band for both verdicts is
item 1 of the ROADMAP, still open. Each verdict carries the evidence it
rests on: the table, from which :func:`jury_conditions` reads the
conditions, or the root set and, after a fallback, the reason the table
could not decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

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
    """Reduction rows, kept as their live entries.

    ``live[i]`` is row ``i``, ``live[0]`` the input coefficient row. A row
    is kept in full up to the first row whose interior is zeros of one
    sign. Every later row is that shape too and is kept as
    ``(first, zero, penultimate, last)``: its entries at positions 0, 1
    (the zero that fills the interior), m-1 and m. :attr:`rows` expands
    every entry whose length differs from its row's width,
    ``len(live[0]) - i``.

    ``shifts[i]`` is the exponent of the power of two that row ``i`` was
    multiplied by (the input row as given, a reduced row after its
    reduction): 0 for every row whose largest magnitude lay within
    [2**-256, 2**256], which is the case for all ordinary inputs.
    """

    live: tuple[tuple[float, ...], ...]
    shifts: tuple[int, ...]

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


class ConditionResult(NamedTuple):
    """One strict inequality, 1-indexed, with its signed slack.

    ``margin`` is positive exactly when the inequality holds strictly;
    ``satisfied`` requires ``margin > tolerance``, where ``tolerance`` is
    the MARGIN_TOL band scaled to this condition's operand magnitudes.
    A named tuple, since :func:`jury_conditions` builds one per table row;
    its ``_asdict()`` is the condition record of the CLI payloads.
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
    verdict carries its ``table``, from which :func:`jury_conditions`
    reads the conditions; an oracle verdict carries its ``root_set``, and
    ``reason`` says why the table could not decide when the oracle stood
    in for it.
    """

    status: str
    witness: float | int | None
    method: str
    table: JuryTable | None = field(default=None, compare=False)
    root_set: RootSet | None = field(default=None, compare=False)
    reason: str | None = field(default=None, compare=False)


def jury_table(p: Polynomial) -> JuryTable:
    """Reduce ``p`` down to the three-entry row.

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
    there. Those four entries are all the table keeps of such a row, so
    from there on it costs O(1) time and space per row.
    """
    p = normalize_leading(p)
    if p.degree < 1:
        raise ValueError(f"reduction table needs degree >= 1, got {p.degree}")
    row, shift = _in_range(p.coeffs)
    live = [row]
    shifts = [shift]
    # |last| is held against the magnitude it was computed at: the input
    # row's largest coefficient, then last**2 + first**2 of the row before,
    # so a last entry that cancellation left at rounding noise counts as 0.
    scale = max(map(abs, row))
    for width in range(len(row), 3, -1):
        first, last = row[0], row[-1]
        if abs(last) <= _SINGULAR_TOL * scale:
            raise _singular(p, shifts, last)
        if len(row) < width or _uniform_zero_interior(row):
            # the interior stays one signed zero, and a power of two leaves
            # it as it is, so rescaling the four live entries rescales the row
            zero, penultimate = row[1], row[-2]
            row = (last * zero - penultimate * first, last * zero - zero * first,
                   last * penultimate - zero * first, last * last - first * first)
        else:
            m = width - 1
            row = tuple([last * row[k + 1] - row[m - 1 - k] * first for k in range(m)])
        row, shift = _in_range(row)
        scale = math.ldexp(last * last + first * first, shift)
        live.append(row)
        shifts.append(shift)
    return JuryTable(tuple(live), tuple(shifts))


def _singular(p: Polynomial, shifts: list[int], last: float) -> SingularTableError:
    """The error for the newest row, which ends in ``last``, quoted in the
    input's units: the input row by its own coefficient, which its rescale
    may have underflowed, a reduced row with its power of two."""
    if len(shifts) == 1:
        where = f"input row ends in {p.coeffs[-1]:.3e}"
    else:
        where = f"reduced row {len(shifts) - 1} ends in {last:.3e}"
        if shifts[-1]:
            where += f" (row scaled by 2**{shifts[-1]})"
    return SingularTableError(f"singular table: {where}")


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
    return [ConditionResult(index, _describe(index), lhs, rhs,
                            margin > tolerance, margin, tolerance)
            for index, (lhs, rhs, margin, tolerance)
            in enumerate(_condition_terms(table), start=1)]


_INPUT_ROW_TESTS = ("P(1) > 0", "(-1)^m P(-1) > 0", "|a_m| < a_0")


def _describe(index: int) -> str:
    if index <= len(_INPUT_ROW_TESTS):
        return _INPUT_ROW_TESTS[index - 1]
    return f"|last| > |first| on reduced row {index - len(_INPUT_ROW_TESTS)}"


def _condition_terms(table: JuryTable) -> Iterator[tuple[float, float, float, float]]:
    """``(lhs, rhs, margin, tolerance)`` of each condition, in index order.

    ``tolerance`` is the MARGIN_TOL band scaled to the operands. A reduced
    row's condition reads only its first and last entries, so the rows
    are never expanded.
    """
    rows = iter(table.live)
    top = next(rows)
    m = len(top) - 1
    # boundary evaluations carry rounding noise ~ eps * sum |a_i|
    boundary_tolerance = MARGIN_TOL * sum(abs(c) for c in top)
    value_at_one = evaluate(top, 1.0)
    yield value_at_one, 0.0, value_at_one, boundary_tolerance
    alternating = (-1.0) ** m * evaluate(top, -1.0)
    yield alternating, 0.0, alternating, boundary_tolerance
    if m >= 2:
        yield (abs(top[m]), top[0], top[0] - abs(top[m]),
               MARGIN_TOL * max(abs(top[m]), top[0]))
    for row in rows:
        first, last = abs(row[0]), abs(row[-1])
        yield last, first, last - first, MARGIN_TOL * max(last, first)


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
    ones resolve. With no clear failure, the first condition inside its
    band yields a marginal verdict. The margins are the ones
    :func:`jury_conditions` reports, read off the input row and the ends
    of each reduced row without building a record. A singular table
    delegates to the root-modulus oracle, and the verdict's ``reason``
    says why.
    """
    try:
        table = jury_table(p)
    except SingularTableError as exc:
        return replace(oracle_verdict(p), reason=str(exc))
    status, witness = STABLE, None
    for index, (_, _, margin, tolerance) in enumerate(_condition_terms(table), start=1):
        if margin < -tolerance:
            status, witness = UNSTABLE, index
            break
        if status == STABLE and abs(margin) <= tolerance:
            status, witness = MARGINAL, index
    return StabilityVerdict(status, witness, JURY, table=table)
