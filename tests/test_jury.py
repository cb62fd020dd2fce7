import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from delaylogistic import jury
from delaylogistic.delay_map import NONTRIVIAL, TRIVIAL, char_poly
from delaylogistic.jury import (
    INNER_RADIUS,
    MARGINAL,
    OUTER_RADIUS,
    STABLE,
    UNSTABLE,
    _precise_readings,
    _readings,
    jury_conditions,
    jury_table,
    jury_verdict,
    oracle_verdict,
)
from delaylogistic.polynomial import (
    DegeneratePolynomialError,
    Polynomial,
    normalize_leading,
)
from delaylogistic.sweep import is_stable
from schur_cohn import deltas
from sparse_rows import (
    bits,
    delay_table,
    dense_tables,
    induction_mismatches,
    without_trailing_zeros,
)


def _rereads(monkeypatch) -> list[float]:
    """The radius of every table that jury_table re-reads in decimal from
    here on, in call order."""
    radii = []

    def counted(coeffs, radius):
        radii.append(radius)
        return _precise_readings(coeffs, radius)

    monkeypatch.setattr(jury, "_precise_readings", counted)
    return radii


def _double_readings(table) -> tuple[bool | None, ...]:
    """The readings of ``table``'s double rows, whatever arithmetic gave
    its own."""
    return _readings(jury._condition_terms(table.live, jury._UNIT_ROUNDOFF))


def test_table_reduces_cubic_by_hand():
    table = jury_table(Polynomial((1.0, -1.0, 0.0, 0.5)))
    assert table.rows[0] == (1.0, -1.0, 0.0, 0.5)
    assert table.rows[1] == (-0.5, 1.0, -0.75)
    assert len(table.rows) == 2


def test_table_quartic_sparse_row():
    r = 0.3
    table = jury_table(Polynomial((1.0, -1.0, 0.0, 0.0, r)))
    assert table.rows[1] == (-r, 0.0, 1.0, r * r - 1.0)


def test_table_degree_two_has_no_reduction_rows():
    table = jury_table(Polynomial((1.0, 0.0, 0.25)))
    assert table.rows == ((1.0, 0.0, 0.25),)


def test_table_normalizes_negative_leading():
    table = jury_table(Polynomial((-1.0, 1.0, 0.0, -0.5)))
    assert table.rows[0] == (1.0, -1.0, -0.0, 0.5)


def test_table_of_degree_one_is_its_input_row():
    table = jury_table(Polynomial((1.0, 0.5)))
    assert table.rows == ((1.0, 0.5),)
    assert table.shifts == (0,)
    with pytest.raises(ValueError):
        jury_table(Polynomial((1.0,)))


def test_table_rejects_zero_leading():
    with pytest.raises(DegeneratePolynomialError):
        jury_table(Polynomial((0.0, 1.0, 0.0, 0.5)))


def test_table_singular_when_intermediate_row_ends_near_zero(monkeypatch):
    # rows: (1, 1, 0, 0, 1.25, 0.5) -> (-0.75, 0, 0, -0.375, -0.75)
    #   -> (-0.28125, 0, 0.28125, 0), a zero pivot, which the reduction
    # takes like any other row: it never divides by a pivot
    rereads = _rereads(monkeypatch)
    table = jury_table(Polynomial((1.0, 1.0, 0.0, 0.0, 1.25, 0.5)))
    assert table.rows[2] == (-0.28125, 0.0, 0.28125, 0.0)
    assert table.rows[3] == (0.0791015625, 0.0, -0.0791015625)
    # |last| = |first| on reduced row 1: condition 2 is exactly 0, and the
    # cancellation leaves every later condition undecided, in decimal too
    assert table.readings == (True, None, None, None, None)
    # the records carry the decimal terms that read them, each condition
    # scaled by the power of ten that brings its larger operand into
    # [1, 10): condition 3's 0 against 0.28125 reads 0 against 2.8125
    assert rereads == [1.0]
    conditions = jury_conditions(table)
    assert (conditions[2]["lhs"], conditions[2]["rhs"], conditions[2]["margin"]) == (
        0.0, 2.8125, -2.8125)
    assert (conditions[1]["lhs"], conditions[1]["rhs"], conditions[1]["margin"]) == (
        7.5, 7.5, 0.0)


def test_decimal_reread_of_an_exact_cancellation_reads_undecided():
    # (z - 1)^2 (z + 1) at radius 1: in decimal |last| = |first| on the
    # input row, so the next estimate is infinite and meets a zero margin
    table = jury_table(Polynomial((1.0, -1.0, -1.0, 1.0)))
    assert table.readings == (None, None, None)


def test_rows_recomputable_from_their_predecessor():
    rng = random.Random(52)
    for _ in range(50):
        degree = rng.randint(3, 9)
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(degree + 1)]
        coeffs[0] = abs(coeffs[0]) + 0.5
        table = jury_table(Polynomial(coeffs))
        for row, nxt in zip(table.rows, table.rows[1:]):
            m = len(row) - 1
            rebuilt = tuple(row[m] * row[k + 1] - row[m - 1 - k] * row[0]
                            for k in range(m))
            assert nxt == rebuilt  # bitwise


def test_table_rescales_deep_rows_by_exact_powers_of_two():
    # at tau = 30 the rows shrink below 2**-256 before the last reduction
    r = 2.0 * math.sin(math.pi / 122.0) * 0.5
    table = jury_table(Polynomial((1.0, -1.0) + (0.0,) * 29 + (r,)))
    assert len(table.rows) == 30
    assert len(table.shifts) == len(table.rows)
    rescaled = [i for i, shift in enumerate(table.shifts) if shift != 0]
    assert rescaled
    for i in rescaled:
        row, nxt = table.rows[i - 1], table.rows[i]
        m = len(row) - 1
        rebuilt = [row[m] * row[k + 1] - row[m - 1 - k] * row[0]
                   for k in range(m)]
        factor = next(a / b for a, b in zip(nxt, rebuilt) if b != 0.0)
        assert math.frexp(factor)[0] == 0.5  # an exact power of two
        assert nxt == tuple(x * factor for x in rebuilt)  # bitwise
        assert 1.0 <= max(abs(x) for x in nxt) < 2.0


@pytest.mark.parametrize("scale", [1e-13, 1e-170, 1e-300, 1e200, 1e300,
                                   1e308, 1.7e308])
def test_verdict_is_independent_of_the_input_scale(scale):
    # the stable cubic 1, -1, 0, 0.5 scaled: far outside [2**-256, 2**256]
    # the input row is brought into range before its products can
    # underflow or overflow
    p = Polynomial((scale, -scale, 0.0, 0.5 * scale))
    verdict = jury_verdict(p)
    assert verdict[:3] == jury_verdict(Polynomial((1.0, -1.0, 0.0, 0.5)))[:3]
    assert verdict.method == "jury" and verdict.status == STABLE
    table = jury_table(p)
    assert table.rows[0] == tuple(math.ldexp(c, table.shifts[0])
                                  for c in p.coeffs)
    assert all(1.0 <= max(abs(x) for x in row) < 2.0 or shift == 0
               for row, shift in zip(table.rows, table.shifts))


@pytest.mark.parametrize("coeffs", [(1.0, 0.9), (1.0, -1.0, 0.5)])
@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e300, 1e308, 1.7e308])
def test_low_degree_verdict_is_independent_of_the_input_scale(coeffs, scale):
    # the conditions are read on the input row brought into range, so
    # |a_0 + a_2| cannot overflow to inf near the top of the doubles
    p = Polynomial(tuple(scale * c for c in coeffs))
    verdict = jury_verdict(p)
    assert verdict[:3] == jury_verdict(Polynomial(coeffs))[:3]
    assert verdict.status == STABLE and verdict.method == "jury"
    assert all(math.isfinite(c["margin"]) for c in jury_conditions(verdict.table))


def test_pivot_left_at_rounding_noise_by_cancellation_is_singular():
    # nearly self-reciprocal: the first reduction cancels every entry down
    # to ~1e-13, good to ~1e-3 relative. The growth of the rounding
    # estimates carries that loss into every later condition, and each
    # margin still clears its estimate: rho = 1 - 2e-14, inside at radius 1
    p = Polynomial((1.0, 0.3, -0.2, 0.3, 1.0 - 1e-13))
    table = jury_table(p)
    assert max(map(abs, table.rows[1])) < 1e-12
    assert table.readings == (True, True, True, True)
    assert all(abs(margin) > rounding for _, _, margin, rounding in table.terms)
    # at the radii 1 -+ 1e-12 the pivot moves by 4e-12, and the tables
    # read what the oracle reads: marginal
    verdict = jury_verdict(p)
    assert (verdict.status, verdict.method) == (MARGINAL, "jury")
    assert oracle_verdict(p).status == MARGINAL


def test_conditions_all_satisfied_inside_the_stable_range():
    conditions = jury_conditions(jury_table(Polynomial((1.0, -1.0, 0.0, 0.5))))
    assert [c["index"] for c in conditions] == [1, 2, 3]
    assert all(c["satisfied"] for c in conditions)


def test_conditions_reduced_row_failure_outside_the_range():
    table = jury_table(Polynomial((1.0, -1.0, 0.0, 0.7)))
    assert table.readings == (True, False, True)  # read where it is built
    conditions = jury_conditions(table)
    failed = conditions[1]
    assert failed["index"] == 2
    assert failed["lhs"] == pytest.approx(abs(0.7 ** 2 - 1.0))
    assert failed["rhs"] == pytest.approx(0.7)
    assert not failed["satisfied"]
    assert conditions[0]["satisfied"] and conditions[2]["satisfied"]


def test_conditions_degree_one_only_input_row_check():
    conditions = jury_conditions(jury_table(Polynomial((1.0, 0.999))))
    assert [c["index"] for c in conditions] == [1]
    assert conditions[0]["lhs"] == pytest.approx(0.999)
    assert conditions[0]["margin"] == pytest.approx(0.001)
    assert jury_verdict(Polynomial((1.0, 0.999))).status == STABLE


def test_condition_count_is_the_degree():
    rng = random.Random(8)
    for _ in range(40):
        degree = rng.randint(1, 9)
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(degree + 1)]
        coeffs[0] = abs(coeffs[0]) + 0.5
        assert len(jury_conditions(jury_table(Polynomial(coeffs)))) == degree
        # trailing zeros are roots at 0: the table reads the rest, down to degree 1
        zeros = rng.randint(1, 3)
        rest = jury_conditions(jury_table(Polynomial(coeffs + [0.0] * zeros)))
        assert len(rest) == degree
        assert len(jury_conditions(jury_table(Polynomial([coeffs[0]] + [0.0] * zeros)))) == 1


def _dyadic_polynomials(rng: random.Random) -> list[tuple[Fraction, ...]]:
    """1000 polynomials of degree 1..10 with coefficients in multiples of
    2**-10, so rationals that doubles hold exactly; every other one is a
    random factor times (z - 1), (z + 1), (z**2 + 1) or (z**2 - z + 1),
    whose roots lie on the unit circle."""
    def coefficient() -> Fraction:
        return Fraction(rng.randint(-2 ** 11, 2 ** 11), 2 ** 10)

    polys = []
    for i in range(1000):
        degree = rng.randint(1, 10)
        if i % 2:
            coeffs = [coefficient() or Fraction(1)] + [coefficient() for _ in range(degree)]
        else:
            circle = rng.choice(((1, -1), (1, 1), (1, 0, 1), (1, -1, 1)))
            factor = [Fraction(1)] + [coefficient() for _ in range(max(degree - len(circle) + 1, 0))]
            coeffs = _times(factor, circle)
        polys.append(tuple(coeffs))
    return polys


def _delay_family_at_rational_rates() -> list[tuple[Fraction, ...]]:
    """The capacity point's polynomial at tau 0..40, at rates of 10 and 30
    bits after the point near 0.5, 1 and 1.5 times f(tau), and at f(tau)
    as a double."""
    polys = []
    for tau in range(41):
        threshold = 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1)))
        rates = [Fraction(round(fraction * threshold * 2 ** bits), 2 ** bits)
                 for bits in (10, 30) for fraction in (0.5, 1.0, 1.5)]
        for r in rates + [Fraction(threshold)]:
            polys.append(tuple(map(Fraction, char_poly(tau, float(r), NONTRIVIAL).coeffs)))
    return polys


def test_decided_conditions_read_the_exact_schur_cohn_signs(monkeypatch):
    # condition 1 holds exactly when delta_1 < 0 and condition k > 1 when
    # delta_k > 0, the deltas taken exactly from the doubles the table
    # starts from: whatever the table decides, in doubles or in decimal,
    # must be that sign. The one exception is condition m where
    # delta_(m-1), c**2 - a**2 of the three-entry row (a, b, c) up to a
    # positive factor, is 0: with c = a, delta_m = (c - a)**2 ((a + c)**2
    # - b**2) is 0 too, and condition m reads the second factor alone. So
    # there condition m - 1 must not hold, and condition m is not checked.
    seen = {"degree 1": 0, "degree 2": 0, "four entries": 0, "re-read": 0,
            "holds": 0, "fails": 0, "undecided": 0, "delta_(m-1) = 0": 0}
    polys = _dyadic_polynomials(random.Random(2024)) + _delay_family_at_rational_rates()
    rereads = _rereads(monkeypatch)
    for coeffs in polys:
        assert all(Fraction(float(c)) == c for c in coeffs), coeffs
        before = len(rereads)
        table = jury_table(Polynomial([float(c) for c in coeffs]))
        coeffs = without_trailing_zeros(coeffs)
        found = deltas(coeffs)
        expected = [found[0] < 0] + [delta > 0 for delta in found[1:]]
        if len(found) > 1 and found[-2] == 0:
            assert table.readings[-2] is not True, coeffs
            seen["delta_(m-1) = 0"] += 1
            expected[-1] = table.readings[-1]
        assert len(table.readings) == len(expected) == len(coeffs) - 1, coeffs
        for index, (reading, holds) in enumerate(zip(table.readings, expected), start=1):
            if reading is not None:
                assert reading == holds, (coeffs, index)
            seen["undecided" if reading is None else "holds" if reading else "fails"] += 1
        seen["degree 1"] += len(coeffs) == 2
        seen["degree 2"] += len(coeffs) == 3
        seen["four entries"] += any(len(row) == 4 < len(table.live[0]) - i
                                    for i, row in enumerate(table.live))
        seen["re-read"] += len(rereads) > before
    assert min(seen.values()) >= 50, seen


def _wide_range_polynomials() -> list[tuple[float, ...]]:
    """600 polynomials of degree 1..6, each coefficient +-10**U(-300, 300),
    so that many span more than a double's range: bringing the input row
    into range, by its largest coefficient, underflows the small ones."""
    rng = random.Random(1)
    return [tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
                  for _ in range(rng.randint(1, 6) + 1))
            for _ in range(600)]


def _exact_conditions(coeffs, radius: float) -> list[bool]:
    """Whether each condition of the table of ``p(radius z)`` holds, by the
    exact Schur-Cohn signs, ``coeffs`` being those of ``p``, the leading
    one positive and the last non-zero."""
    s, m = Fraction(radius), len(coeffs) - 1
    found = deltas([Fraction(c) * s ** (m - k) for k, c in enumerate(coeffs)])
    return [found[0] < 0] + [delta > 0 for delta in found[1:]]


def test_wide_range_inputs_read_the_exact_verdict_with_records_that_agree(monkeypatch):
    # no input is refused. Every verdict and witness is the exact one: stable
    # where every condition holds at the inner radius, else unstable at the
    # first that fails at the outer one, else marginal. And every decided
    # record has the sign of its own margin, the re-read ones too
    seen = {STABLE: 0, UNSTABLE: 0, "lost a coefficient": 0, "re-read": 0}
    rereads = _rereads(monkeypatch)
    for coeffs in _wide_range_polynomials():
        p = normalize_leading(Polynomial(coeffs))
        inner = _exact_conditions(p.coeffs, INNER_RADIUS)
        if all(inner):
            expected = (STABLE, None)
        else:
            outer = _exact_conditions(p.coeffs, OUTER_RADIUS)
            expected = ((UNSTABLE, outer.index(False) + 1) if False in outer
                        else (MARGINAL, inner.index(False) + 1))
        before = len(rereads)
        verdict = jury_verdict(p)
        assert (verdict.status, verdict.witness) == expected, coeffs
        for record in jury_conditions(verdict.table):
            reading, margin = record["satisfied"], record["margin"]
            assert reading is None or (margin > 0.0 if reading else margin < 0.0), (
                coeffs, record)
        seen[verdict.status] += 1
        seen["lost a coefficient"] += min(map(abs, verdict.table.live[0])) < 2.0 ** -1022
        # the inner and outer tables differ in radius
        seen["re-read"] += verdict.table.radius in rereads[before:]
    assert min(seen.values()) >= 50, seen
    # the double table loses 1e-300 and reads condition 3 undecided; the
    # decimal re-read of the input reads the root near -1e200 failing it
    verdict = jury_verdict(Polynomial((1.0, 1e200, 0.0, 1e-300)))
    assert (verdict.status, verdict.witness) == (UNSTABLE, 3)
    assert verdict.table.live[0][-1] == 0.0
    assert _double_readings(verdict.table)[2] is None
    assert [record["satisfied"] for record in jury_conditions(verdict.table)] == [
        True, True, False]


def test_verdict_stable_inside_delay_one_range():
    assert jury_verdict(Polynomial((1.0, -1.0, 0.5))).status == STABLE


def test_verdict_unstable_beyond_delay_one_range():
    verdict = jury_verdict(Polynomial((1.0, -1.0, 1.5)))
    assert verdict.status == UNSTABLE
    assert verdict.witness == 1
    assert verdict.method == "jury"


def test_verdict_marginal_at_exact_integer_thresholds():
    assert jury_verdict(Polynomial((1.0, -1.0, 1.0))).status == MARGINAL  # delay 1
    assert jury_verdict(Polynomial((1.0, 1.0))).status == MARGINAL        # delay 0


def test_verdict_marginal_at_machine_precision_threshold():
    # the delay-3 threshold solves r^4 - 3r^2 - r + 1 = 0; at the nearest
    # double the binding condition sits within one ulp of equality
    g = lambda r: r ** 4 - 3.0 * r ** 2 - r + 1.0
    lo, hi = 0.4, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) > 0.0 else (lo, mid)
    verdict = jury_verdict(Polynomial((1.0, -1.0, 0.0, 0.0, 0.5 * (lo + hi))))
    assert verdict.status == MARGINAL
    assert verdict.witness == 3


def test_verdict_unstable_at_six_decimal_rounding_of_threshold():
    # 0.445042 rounds the delay-3 threshold upward by ~1e-7, which already
    # lands outside the open stable range by a margin far beyond 1e-12
    verdict = jury_verdict(Polynomial((1.0, -1.0, 0.0, 0.0, 0.445042)))
    assert verdict.status == UNSTABLE
    assert verdict.witness == 3


# singular at radius 1 and at both radii 1 -+ MARGIN_TOL: reduced row 3
# ends in an exact zero (the polynomial has a root at -1)
SINGULAR_AT_EVERY_RADIUS = (1.0, -2.0, -2.0, -2.0, -2.0, 2.0, 1.0)


def test_verdict_reads_a_singular_table_by_its_conditions():
    # a zero pivot is a condition that does not hold, so the verdict comes
    # from the table as at any other input, and carries that table
    p = Polynomial(SINGULAR_AT_EVERY_RADIUS)
    for radius in (INNER_RADIUS, 1.0, OUTER_RADIUS):
        table = jury_table(p, radius)
        assert table.rows[3][-1] == 0.0
        assert jury_conditions(table)[3]["satisfied"] is not True
    verdict = jury_verdict(p)
    assert (verdict.status, verdict.witness, verdict.method) == (UNSTABLE, 2, "jury")
    assert verdict.table == jury_table(p, OUTER_RADIUS)
    assert oracle_verdict(p).status == UNSTABLE


def test_table_verdict_carries_its_table_and_conditions():
    # the table a verdict carries is the one its witness indexes: the
    # outer-radius table for an unstable verdict, the inner one otherwise
    p = Polynomial((1.0, -1.0, 0.0, 0.7))
    verdict = jury_verdict(p)
    assert verdict.method == "jury" and verdict.status == UNSTABLE
    assert verdict.table == jury_table(p, OUTER_RADIUS)
    assert verdict.table.radius == OUTER_RADIUS
    conditions = jury_conditions(verdict.table)
    assert conditions == jury_conditions(jury_table(p, OUTER_RADIUS))
    assert conditions[verdict.witness - 1]["satisfied"] is False
    assert not hasattr(verdict, "conditions")
    marginal = jury_verdict(Polynomial((1.0, -1.0, 1.0)))
    assert marginal.status == MARGINAL and marginal.table.radius == INNER_RADIUS
    assert jury_conditions(marginal.table)[marginal.witness - 1]["satisfied"] is not True
    low = jury_verdict(Polynomial((1.0, 0.999)))
    assert low.status == STABLE and low.table.radius == INNER_RADIUS
    assert low.table.rows == ((INNER_RADIUS, 0.999),)
    assert len(jury_conditions(low.table)) == 1


def test_oracle_verdict_classifies_by_radius():
    assert oracle_verdict(Polynomial((1.0, -1.0, 0.5))).status == STABLE
    assert oracle_verdict(Polynomial((1.0, -1.0, 1.5))).status == UNSTABLE
    assert oracle_verdict(Polynomial((1.0, -1.0))).status == MARGINAL  # root at 1


def test_verdict_agrees_with_oracle_on_random_sample():
    rng = random.Random(41)
    checked = 0
    while checked < 300:
        degree = rng.randint(1, 8)
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(degree + 1)]
        if coeffs[0] == 0.0:
            continue
        coeffs[0] = abs(coeffs[0])
        p = Polynomial(coeffs)
        rho = oracle_verdict(p).witness
        if abs(rho - 1.0) <= 1e-6:
            continue
        checked += 1
        assert jury_verdict(p).status == (STABLE if rho < 1.0 else UNSTABLE), coeffs


def test_induction_delay_three_rows_by_hand():
    r = 0.4
    table = delay_table(3, r)
    assert induction_mismatches(table) == []
    assert table.rows[1] == (-r, 0.0, 1.0, r * r - 1.0)
    assert table.rows[2] == (r, r * r - 1.0, (r * r - 1.0) ** 2 - r * r)


def test_induction_delay_two_single_reduction():
    table = delay_table(2, 0.5)
    assert len(table.rows) == 2
    assert induction_mismatches(table) == []


def test_induction_delay_five_pattern_across_all_reductions():
    table = delay_table(5, 0.1)
    assert len(table.rows) == 5
    assert induction_mismatches(table) == []


def test_induction_holds_on_rate_grid_up_to_delay_ten():
    thresholds = {tau: 2.0 * math.cos(tau * math.pi / (2 * tau + 1))
                  for tau in range(2, 11)}
    for tau, threshold in thresholds.items():
        for i in range(1, 8):
            r = threshold * i / 8.0
            assert induction_mismatches(delay_table(tau, r)) == [], (tau, r)


@pytest.mark.parametrize("tau", [17, 30, 200])
@pytest.mark.parametrize("fraction", [0.5, 1.5])
def test_induction_holds_through_rescaled_rows(tau, fraction):
    threshold = 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1)))
    table = delay_table(tau, fraction * threshold)
    assert len(table.rows) == tau
    assert any(table.shifts) or tau == 17  # from tau = 30 rows are rescaled
    assert induction_mismatches(table) == []


def test_induction_is_exact_across_delays_and_rates():
    # below, near and above the threshold; from tau = 13 on some rows are
    # rescaled, so the power of two is checked along with the products
    for tau in list(range(2, 41)) + [60, 100, 200, 396]:
        threshold = 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1)))
        for fraction in (0.01, 0.3, 0.9, 1.0 - 1e-6, 1.0 + 1e-6, 1.5, 3.0):
            table = delay_table(tau, fraction * threshold)
            assert induction_mismatches(table) == [], (tau, fraction)


# jury_table against the dense reduction of sparse_rows, compared by IEEE
# bits so that a 0.0 where the dense loop writes -0.0 counts as a mismatch;
# the shifts are compared as well.

def _table_bits(p: Polynomial):
    table = jury_table(p)
    return [bits(row) for row in table.rows], list(table.shifts)


def test_table_is_bitwise_the_dense_reduction_on_the_delay_family():
    # both fixed points; from the first reduced row on the capacity point's
    # rows have an interior of zeros, -0.0 ones at a negative rate
    for tau in sorted(set(range(61)) | set(range(60, 397, 7)) | {1000}):
        threshold = 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1)))
        rates = ([fraction * threshold
                  for fraction in (0.01, 0.3, 0.9, 1.0 - 1e-6, 1.0 + 1e-6, 1.5, 3.0)]
                 + [-0.3, -1e-3, 0.0, 1.0, 2.0, 1e-300, 1e300])
        for point in (NONTRIVIAL, TRIVIAL):
            polys = [char_poly(tau, r, point) for r in rates]
            expected = dense_tables([p.coeffs for p in polys])
            for r, p, want in zip(rates, polys, expected):
                assert _table_bits(p) == want, (tau, point, r)


def _sparse_family_with_other_signs() -> list[list[Polynomial]]:
    """lambda^(k+1) - a lambda^k + b with a != 1 and b of either sign
    (Kuruklis 1994), 40 per degree: the delay family is a = 1, b = r, so
    only these give the four-entry rows their other sign patterns."""
    pairs = [(a, b) for a in (-1.5, -0.6, 0.3, 0.9, 1.4)
             for b in (-1.2, -0.7, -0.2, -1e-3, 1e-3, 0.2, 0.7, 1.2)]
    return [[Polynomial((1.0, -a) + (0.0,) * (k - 1) + (b,)) for a, b in pairs]
            for k in list(range(1, 41)) + [100, 200]]


def test_sparse_family_with_other_signs_is_bitwise_dense_and_agrees_with_oracle():
    seen = {STABLE: 0, UNSTABLE: 0, "-0.0 interior": 0, "0.0 interior": 0}
    for polys in _sparse_family_with_other_signs():
        expected = dense_tables([p.coeffs for p in polys])
        for p, want in zip(polys, expected):
            assert _table_bits(p) == want, p.coeffs
            for row in jury_table(p).rows[1:]:
                if len(row) > 3:
                    seen[f"{math.copysign(0.0, row[1])} interior"] += 1
            rho = oracle_verdict(p).witness
            if abs(rho - 1.0) <= 1e-6:
                continue
            verdict = jury_verdict(p)
            assert verdict.status == (STABLE if rho < 1.0 else UNSTABLE), p.coeffs
            seen[verdict.status] += 1
    assert min(seen.values()) >= 100, seen


def test_table_keeps_the_delay_familys_rows_as_their_live_entries():
    # the input row and the first reduced row in full, then four entries
    # per row: O(tau) space, where the rows in full take O(tau**2)
    tau = 1000
    threshold = 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1)))
    table = delay_table(tau, 0.9 * threshold)
    assert sum(map(len, table.live)) <= 2 * (tau + 2) + 4 * tau


def _signed_zero_polynomials() -> list[Polynomial]:
    """3000 polynomials of degree 1..12, about half their coefficients
    after the leading one 0.0 or -0.0."""
    rng = random.Random(20261018)
    polys = []
    for _ in range(3000):
        degree = rng.randint(1, 12)
        lead = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        rest = [rng.choice((0.0, -0.0)) if rng.random() < 0.5 else rng.uniform(-2.0, 2.0)
                for _ in range(degree)]
        polys.append(Polynomial([lead] + rest))
    return polys


def test_table_is_bitwise_the_dense_reduction_on_signed_zero_inputs():
    by_degree: dict[int, list[Polynomial]] = {degree: [] for degree in range(1, 13)}
    for p in _signed_zero_polynomials():
        by_degree[p.degree].append(p)
    interiors = {"one sign": 0, "-0.0": 0, "mixed signs": 0}
    for polys in by_degree.values():
        expected = dense_tables([p.coeffs for p in polys])
        for p, want in zip(polys, expected):
            assert _table_bits(p) == want, p.coeffs
            for row in jury_table(p).rows:
                interior = row[1:-2]
                if interior and not any(interior):
                    signs = {math.copysign(1.0, c) for c in interior}
                    interiors["one sign" if len(signs) == 1 else "mixed signs"] += 1
                    interiors["-0.0"] += signs == {-1.0}
    # both the O(1) rows and the mixed-sign rows of the dense loop occur
    assert min(interiors.values()) >= 50, interiors


# jury_verdict decides from the margins without building the condition
# records; held here to the rule applied to the records themselves.

def _verdict_from_the_records(p: Polynomial):
    """``(status, witness, records)`` by the verdict rule applied to the
    records of the two radius tables, read afresh: stable when every inner
    record holds, else unstable at the first outer record that fails, else
    marginal at the first inner record that does not hold; ``records`` are
    those of the table the witness indexes."""
    inner = jury_conditions(jury_table(p, INNER_RADIUS))
    unmet = next((c["index"] for c in inner if c["satisfied"] is not True), None)
    if unmet is None:
        return STABLE, None, inner
    outer = jury_conditions(jury_table(p, OUTER_RADIUS))
    failed = next((c["index"] for c in outer if c["satisfied"] is False), None)
    return (MARGINAL, unmet, inner) if failed is None else (UNSTABLE, failed, outer)


def _statuses_following_the_records(polys) -> dict[str, int]:
    """Assert that every verdict on ``polys`` follows its records, and that
    its table gives the records a fresh table gives; count the statuses."""
    seen = {STABLE: 0, UNSTABLE: 0, MARGINAL: 0}
    for p in polys:
        status, witness, records = _verdict_from_the_records(p)
        verdict = jury_verdict(p)
        assert (verdict.status, verdict.witness, verdict.method) == (
            status, witness, "jury"), p.coeffs
        assert jury_conditions(verdict.table) == records, p.coeffs
        seen[verdict.status] += 1
    return seen


def _delay_family_around_the_threshold() -> list[Polynomial]:
    """The capacity point's polynomial at tau 0..400, at 0.5, 1 -+ 1e-12,
    1 and 1.5 times f(tau)."""
    polys = []
    for tau in range(401):
        threshold = 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1)))
        for fraction in (0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5):
            polys.append(char_poly(tau, fraction * threshold, NONTRIVIAL))
    return polys


def test_verdict_follows_the_records_on_the_delay_family():
    seen = _statuses_following_the_records(_delay_family_around_the_threshold())
    assert min(seen[s] for s in (STABLE, UNSTABLE, MARGINAL)) >= 100, seen


def test_verdict_follows_the_records_on_signed_zero_inputs():
    seen = _statuses_following_the_records(_signed_zero_polynomials())
    assert min(seen[s] for s in (STABLE, UNSTABLE)) >= 100, seen


def _times(a, b) -> list[float]:
    """The coefficients of the product of two polynomials."""
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)]


def _random_polynomials(rng: random.Random) -> list[Polynomial]:
    """1000 polynomials of degree 2..8 with random coefficients."""
    return [Polynomial([rng.uniform(0.5, 2.0)]
                       + [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(2, 8))])
            for _ in range(1000)]


def _unit_circle_products(rng: random.Random) -> list[Polynomial]:
    """600 products of a random factor of degree 0..6 with a root at 1,
    roots at 1 and -1, or a pair at a random angle on the unit circle."""
    polys = []
    for _ in range(600):
        theta = rng.uniform(0.1, 3.0)
        boundary = rng.choice([(1.0, -1.0), (1.0, 0.0, -1.0),
                               (1.0, -2.0 * math.cos(theta), 1.0)])
        factor = [1.0] + [rng.uniform(-1.5, 1.5) for _ in range(rng.randint(0, 6))]
        polys.append(Polynomial(_times(factor, boundary)))
    return polys


def test_verdict_follows_the_records_on_random_polynomials():
    rng = random.Random(1307)
    # roots on the unit circle put conditions inside their band. A random
    # factor's roots outside the circle then fail another condition, which
    # must win; where two conditions are in their band, the first must be
    # the witness.
    polys = _random_polynomials(rng) + _unit_circle_products(rng)
    seen = _statuses_following_the_records(polys)
    assert min(seen[s] for s in (STABLE, UNSTABLE, MARGINAL)) >= 50, seen


def test_verdict_follows_the_records_across_input_scales():
    rng = random.Random(20261019)
    bases = [(1.0, -1.0, 0.0, 0.5), (1.0, -1.0, 0.0, 0.7), (1.0, -1.0, 1.0),
             SINGULAR_AT_EVERY_RADIUS]
    for tau in (3, 17, 40, 200):
        threshold = 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1)))
        bases += [char_poly(tau, fraction * threshold, NONTRIVIAL).coeffs
                  for fraction in (0.5, 1.0, 1.5)]
    bases += [[rng.uniform(0.5, 2.0)] + [rng.uniform(-2.0, 2.0)
                                         for _ in range(rng.randint(2, 8))]
              for _ in range(40)]
    scales = [10.0 ** e for e in range(-300, 301, 50)]
    seen = _statuses_following_the_records(
        Polynomial([scale * c for c in coeffs]) for coeffs in bases for scale in scales)
    assert min(seen.values()) >= 10, seen


def _input_coeffs(p: Polynomial) -> tuple[float, ...]:
    """The coefficients the decimal re-read of ``p``'s table starts from:
    those of ``p``, its leading one made positive, without its trailing
    zeros, unrounded."""
    return without_trailing_zeros(normalize_leading(p).coeffs)


def _reread(table, coeffs) -> bool:
    """Whether jury_table re-reads in decimal ``table``, that of the input
    ``coeffs``: where its double readings leave one undecided and none
    failing, or where its input row holds a 0 or a subnormal in place of a
    non-zero coefficient, whatever the doubles read."""
    doubles = _double_readings(table)
    lost = any(c != 0.0 and abs(x) < 2.0 ** -1022 for c, x in zip(coeffs, table.live[0]))
    return lost or (None in doubles and False not in doubles)


def test_decided_double_readings_agree_with_the_decimal_readings(monkeypatch):
    # both arithmetics reduce their rows with one step, in full and as four
    # entries: every condition the doubles decide on the inner-radius table,
    # the one every verdict reads first, the decimals read alike
    polys = (_delay_family_around_the_threshold() + _random_polynomials(random.Random(1307))
             + [p for family in _sparse_family_with_other_signs() for p in family])
    seen = {"full": 0, "four entries": 0, "undecided": 0}
    rereads = _rereads(monkeypatch)
    for p in polys:
        before = len(rereads)
        table = jury_table(p, INNER_RADIUS)
        doubles = _double_readings(table)
        # where jury_table read the table in decimal, it carries those readings
        reread = _reread(table, _input_coeffs(p))
        assert reread == (len(rereads) > before), p.coeffs
        precise = (table.readings if reread
                   else _precise_readings(_input_coeffs(p), INNER_RADIUS)[0])
        assert len(precise) == len(doubles), p.coeffs
        for index, (double, decimal) in enumerate(zip(doubles, precise), start=1):
            if double is not None:
                assert decimal == double, (p.coeffs, index)
        seen["undecided"] += None in doubles
        full = all(len(row) == len(table.live[0]) - i for i, row in enumerate(table.live))
        seen["full" if full else "four entries"] += 1
    assert min(seen.values()) >= 100, seen


def test_decimal_readings_keep_their_decided_signs_at_twice_the_digits(monkeypatch):
    # the decimal rounding estimate holds: a condition the 60-digit re-read
    # decides reads the same at 120 digits. At radius 1 the delay family at
    # f(tau) and the products with a unit-circle factor reach the re-read.
    polys = [char_poly(tau, fraction * 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1))),
                       NONTRIVIAL)
             for tau in range(201) for fraction in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)]
    polys += _unit_circle_products(random.Random(1307))
    reread = 0
    for p in polys:
        for radius in (INNER_RADIUS, 1.0, OUTER_RADIUS):
            table = jury_table(p, radius)
            if not _reread(table, _input_coeffs(p)):
                continue
            reread += 1
            with monkeypatch.context() as patch:
                patch.setattr(jury, "_PRECISE_DIGITS", 120)
                finer = _precise_readings(_input_coeffs(p), radius)[0]
            for index, (sixty, more) in enumerate(zip(table.readings, finer), start=1):
                if sixty is not None:
                    assert more == sixty, (p.coeffs, radius, index)
    assert reread >= 100, reread


# Verdicts against a reference that shares no code with the table: the
# root oracle where its spectral radius is clear of 1, else the roots at
# 40 digits, since numpy misreads some inputs whose radius is within
# 1e-10 of 1. No input is skipped.

def _reference_status(p: Polynomial) -> str:
    verdict = oracle_verdict(p)
    if abs(verdict.witness - 1.0) > 1e-10:
        return verdict.status
    with mpmath.workdps(40):
        found = mpmath.polyroots([mpmath.mpf(c) for c in p.coeffs],
                                 maxsteps=200, extraprec=80)
        rho = max(abs(z) for z in found)
    return STABLE if rho < INNER_RADIUS else UNSTABLE if rho > OUTER_RADIUS else MARGINAL


def _near_circle_polynomials() -> list[Polynomial]:
    """600 polynomials of degree 1..10. Every other one has random
    coefficients; the rest carry a conjugate pair 0, +-1e-13, +-1e-11 or
    +-1e-9 off the unit circle, times real roots in (-0.95, 0.95)."""
    rng = random.Random(17)
    polys = []
    for i in range(600):
        degree = rng.randint(1, 10)
        if i % 2 or degree < 2:
            coeffs = [rng.uniform(0.5, 2.0)] + [rng.uniform(-2.0, 2.0) for _ in range(degree)]
        else:
            offset = rng.choice((0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-9, -1e-9))
            z = cmath.rect(1.0 + offset, rng.uniform(0.05, math.pi - 0.05))
            coeffs = [1.0, -2.0 * z.real, abs(z) ** 2]
            for _ in range(degree - 2):
                coeffs = _times(coeffs, [1.0, -rng.uniform(-0.95, 0.95)])
        polys.append(Polynomial(coeffs))
    return polys


def test_verdict_agrees_with_the_reference_near_the_unit_circle():
    seen = {STABLE: 0, UNSTABLE: 0, MARGINAL: 0}
    for p in _near_circle_polynomials():
        expected = _reference_status(p)
        assert jury_verdict(p).status == expected, p.coeffs
        seen[expected] += 1
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("coeffs", [
    (1.0, -2.0, 1.0), (1.0, 2.0, 1.0), (1.0, -3.0, 3.0, -1.0),
    (1.0, 0.0, 2.0, 0.0, 1.0), _times((1.0, -2.0, 1.0), (1.0, -0.5)),
    _times((1.0, -1.0, 1.0), (1.0, -1.0, 1.0)), (1.0, 0.0, -1.0), (1.0, -1.0, -1.0, 1.0, 0.0),
], ids=["(z-1)^2", "(z+1)^2", "(z-1)^3", "(z^2+1)^2", "(z-1)^2(z-0.5)",
        "(z^2-z+1)^2", "(z-1)(z+1)", "(z-1)^2(z+1)z"])
def test_roots_exactly_on_the_unit_circle_read_marginal(coeffs):
    # a root of multiplicity k on the circle moves the conditions by
    # O(1e-12**k) between the radii, below the rounding of a double table
    verdict = jury_verdict(Polynomial(coeffs))
    assert (verdict.status, verdict.method) == (MARGINAL, "jury")


@pytest.mark.parametrize("coeffs", [
    (1.0, -5.0, 10.0, -10.0, 5.0, -1.0), (1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0),
    (1.0, 0.0, 3.0, 0.0, 3.0, 0.0, 1.0),
], ids=["(z-1)^5", "(z+1)^6", "(z^2+1)^3"])
def test_roots_of_high_multiplicity_on_the_unit_circle_read_marginal(coeffs):
    # numpy's roots put them up to 3e-3 off the circle, so the root oracle
    # reads them unstable; at the outer radius the conditions that the
    # multiple root cancels stay undecided at 60 digits, and none fails
    verdict = jury_verdict(Polynomial(coeffs))
    assert (verdict.status, verdict.witness, verdict.method) == (MARGINAL, 1, "jury")


# Small dyadic polynomials, many of whose tables hold an exact zero pivot,
# against a root reference that shares no code with the table: mpmath's
# roots at 50 digits, classified by the same band MARGIN_TOL.

def _small_dyadic_polynomials() -> list[tuple[float, ...]]:
    """300 monic polynomials of degree 2..7 with coefficients in
    {-1, -1/2, 0, 1/2, 1}."""
    rng = random.Random(11)
    return [tuple([1.0] + [rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0))
                           for _ in range(rng.randint(2, 7))])
            for _ in range(300)]


def _root_reference_status(coeffs) -> str:
    """The status of the largest root modulus of ``coeffs`` at 50 digits,
    with 200 more working bits, so that a root of multiplicity up to 7 on
    the circle comes out well inside the 1e-12 band. Trailing zeros are
    roots at 0, which its iteration does not converge to as a multiple
    root, so they are dropped first."""
    with mpmath.workdps(50):
        found = mpmath.polyroots(without_trailing_zeros(coeffs), maxsteps=200, extraprec=200)
        rho = max(abs(z) for z in found)
    return (STABLE if rho < 1 - jury.MARGIN_TOL else
            UNSTABLE if rho > 1 + jury.MARGIN_TOL else MARGINAL)


def test_verdict_agrees_with_the_root_reference_on_zero_pivots():
    # a zero pivot is a condition that does not hold, and the radii move it
    # off zero: the verdict needs no other reading of it
    seen = {STABLE: 0, UNSTABLE: 0, MARGINAL: 0, "zero pivot": 0}
    for coeffs in _small_dyadic_polynomials():
        expected = _root_reference_status(coeffs)
        assert jury_verdict(Polynomial(coeffs)).status == expected, coeffs
        seen[expected] += 1
        seen["zero pivot"] += any(row[-1] == 0.0 for row in jury_table(Polynomial(coeffs)).rows)
    assert min(seen.values()) >= 30 and seen["zero pivot"] >= 100, seen


def test_verdicts_never_call_the_root_oracle(monkeypatch):
    def no_roots(p):
        raise AssertionError(f"the root oracle was called on {p.coeffs!r}")

    monkeypatch.setattr(jury, "roots", no_roots)
    polys = [Polynomial(coeffs) for coeffs in _small_dyadic_polynomials()]
    polys += [char_poly(tau, r, TRIVIAL) for tau in range(61)
              for r in (-2.5, -1.0, -0.5, 0.0, 1.0, 2.0)]
    polys += [char_poly(tau, 0.0, NONTRIVIAL) for tau in range(61)]
    polys += [Polynomial(coeffs) for coeffs in (
        (1.0, -5.0, 10.0, -10.0, 5.0, -1.0), (1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0),
        (1.0, 0.0, 3.0, 0.0, 3.0, 0.0, 1.0), SINGULAR_AT_EVERY_RADIUS)]
    for p in polys:
        assert jury_verdict(p).method == "jury"
        is_stable(p)


def test_trivial_point_is_read_off_its_degree_one_table():
    # lambda**tau (lambda - (1 + r)): the table of lambda - (1 + r) alone
    for tau in (1, 12, 500):
        for r, status in ((-1.0, STABLE), (-0.5, STABLE), (-2.0, MARGINAL), (0.0, MARGINAL),
                          (0.5, UNSTABLE), (-2.5, UNSTABLE)):
            verdict = jury_verdict(char_poly(tau, r, TRIVIAL))
            assert verdict.status == status, (tau, r)
            assert verdict.table.rows == ((verdict.table.radius, -(1.0 + r)),)


def _dominant_modulus(tau: int, r: float):
    """The modulus of the root of ``lambda**(tau+1) - lambda**tau + r``
    that crosses the unit circle at ``f(tau)``, by Newton's method at 60
    digits from ``exp(i pi / (2 tau + 1))``."""
    with mpmath.workdps(60):
        z, r = mpmath.expjpi(mpmath.mpf(1) / (2 * tau + 1)), mpmath.mpf(r)
        for _ in range(50):
            step = ((z - 1) * z ** tau + r) / (((tau + 1) * z - tau) * z ** (tau - 1))
            z -= step
            if abs(step) < mpmath.mpf(10) ** -55:
                return abs(z)
    raise AssertionError(f"Newton did not converge at tau={tau}, r={r!r}")


@pytest.mark.parametrize("tau", [120, 400, 1000])
def test_delay_family_verdicts_near_the_threshold(tau):
    with mpmath.workdps(50):
        f = 2 * mpmath.sin(mpmath.pi / (2 * (2 * tau + 1)))
    # the 300 doubles above f(tau) are past the threshold, the 300 below
    # short of it: none may read stable or unstable respectively
    above = below = float(f)
    above = above if above > f else math.nextafter(above, math.inf)
    below = below if below < f else math.nextafter(below, 0.0)
    for _ in range(300):
        assert not is_stable(char_poly(tau, above, NONTRIVIAL))[0], above
        assert jury_verdict(char_poly(tau, below, NONTRIVIAL)).status != UNSTABLE, below
        above, below = math.nextafter(above, math.inf), math.nextafter(below, 0.0)
    # across f -+ 6e-12 the verdict follows the rule on the root modulus:
    # stable, then marginal over about f -+ 2.2e-12, then unstable
    seen = []
    for k in range(-12, 13):
        r = float(f + k * mpmath.mpf("5e-13"))
        rho = _dominant_modulus(tau, r)
        expected = (STABLE if rho < INNER_RADIUS else
                    UNSTABLE if rho > OUTER_RADIUS else MARGINAL)
        assert jury_verdict(char_poly(tau, r, NONTRIVIAL)).status == expected, (k, r)
        seen.append(expected)
    assert seen == [STABLE] * 8 + [MARGINAL] * 9 + [UNSTABLE] * 8, seen


@pytest.mark.parametrize("tau", [30, 300])
def test_delay_family_verdicts_next_to_the_band_edges(tau):
    # within 40 doubles of the rates where the dominant root modulus is
    # 1 -+ 1e-12, condition m - 1's double margin is rounding noise, and
    # only the decimal re-read follows the rule
    with mpmath.workdps(60):
        f = 2 * mpmath.sin(mpmath.pi / (2 * (2 * tau + 1)))
        for radius in (INNER_RADIUS, OUTER_RADIUS):
            lo, hi = f - mpmath.mpf("1e-11"), f + mpmath.mpf("1e-11")
            for _ in range(60):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if _dominant_modulus(tau, mid) < radius else (lo, mid)
            r = float(lo)
            for _ in range(40):
                r = math.nextafter(r, 0.0)
            for _ in range(81):
                rho = _dominant_modulus(tau, r)
                p = char_poly(tau, r, NONTRIVIAL)
                if radius < 1.0:
                    assert is_stable(p)[0] == (rho < INNER_RADIUS), r
                else:
                    assert (jury_verdict(p).status == UNSTABLE) == (rho > OUTER_RADIUS), r
                r = math.nextafter(r, 1.0)
