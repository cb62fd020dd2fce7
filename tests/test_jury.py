import math
import random
from dataclasses import replace

import pytest

from delaylogistic.jury import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    SingularTableError,
    StabilityVerdict,
    TableNotApplicableError,
    jury_conditions,
    jury_table,
    jury_verdict,
    oracle_verdict,
    verify_sparse_induction,
)
from delaylogistic.polynomial import DegeneratePolynomialError, Polynomial, spectral_radius


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


def test_table_rejects_low_degree():
    with pytest.raises(TableNotApplicableError):
        jury_table(Polynomial((1.0, 0.5)))


def test_table_rejects_zero_leading():
    with pytest.raises(DegeneratePolynomialError):
        jury_table(Polynomial((0.0, 1.0, 0.0, 0.5)))


def test_table_singular_when_intermediate_row_ends_near_zero():
    # rows: (1, 1, 0, 0, 1.25, 0.5) -> (-0.75, 0, 0, -0.375, -0.75)
    #   -> (-0.28125, 0, 0.28125, 0); the trailing zero blocks the next cut
    with pytest.raises(SingularTableError):
        jury_table(Polynomial((1.0, 1.0, 0.0, 0.0, 1.25, 0.5)))


def test_rows_recomputable_from_their_predecessor():
    rng = random.Random(52)
    for _ in range(50):
        degree = rng.randint(3, 9)
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(degree + 1)]
        coeffs[0] = abs(coeffs[0]) + 0.5
        try:
            table = jury_table(Polynomial(coeffs))
        except SingularTableError:
            continue
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
    # the stable cubic 1, -1, 0, 0.5 scaled: below 1e-12 nothing is
    # singular, and far outside [2**-256, 2**256] the input row is brought
    # into range before its products can underflow or overflow
    p = Polynomial((scale, -scale, 0.0, 0.5 * scale))
    verdict = jury_verdict(p)
    assert verdict == jury_verdict(Polynomial((1.0, -1.0, 0.0, 0.5)))
    assert verdict.method == "jury" and verdict.status == STABLE
    table = jury_table(p)
    assert table.rows[0] == tuple(math.ldexp(c, table.shifts[0])
                                  for c in p.coeffs)
    assert all(1.0 <= max(abs(x) for x in row) < 2.0 or shift == 0
               for row, shift in zip(table.rows, table.shifts))


@pytest.mark.parametrize("coeffs", [(1.0, 0.9), (1.0, -1.0, 0.5)])
@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e300, 1e308, 1.7e308])
def test_low_degree_verdict_is_independent_of_the_input_scale(coeffs, scale):
    # the boundary conditions are evaluated on the input row brought into
    # range, so P(1) cannot overflow to inf near the top of the doubles
    p = Polynomial(tuple(scale * c for c in coeffs))
    verdict = jury_verdict(p)
    assert verdict == jury_verdict(Polynomial(coeffs))
    assert verdict.status == STABLE and verdict.method == "jury"
    assert all(math.isfinite(c.margin) and math.isfinite(c.tolerance)
               for c in verdict.conditions)


def test_pivot_left_at_rounding_noise_by_cancellation_is_singular():
    # nearly self-reciprocal: the first reduction cancels every entry down
    # to ~1e-13, good to ~1e-3 relative, so the oracle decides
    p = Polynomial((1.0, 0.3, -0.2, 0.3, 1.0 - 1e-13))
    with pytest.raises(SingularTableError):
        jury_table(p)
    assert jury_verdict(p).method == "oracle"


def test_conditions_all_satisfied_inside_the_stable_range():
    conditions = jury_conditions(Polynomial((1.0, -1.0, 0.0, 0.5)))
    assert [c.index for c in conditions] == [1, 2, 3, 4]
    assert all(c.satisfied for c in conditions)


def test_conditions_reduced_row_failure_outside_the_range():
    conditions = jury_conditions(Polynomial((1.0, -1.0, 0.0, 0.7)))
    last = conditions[3]
    assert last.index == 4
    assert last.lhs == pytest.approx(abs(0.7 ** 2 - 1.0))
    assert last.rhs == pytest.approx(0.7)
    assert not last.satisfied
    assert all(c.satisfied for c in conditions[:3])


def test_conditions_degree_one_only_boundary_checks():
    conditions = jury_conditions(Polynomial((1.0, 0.999)))
    assert [c.index for c in conditions] == [1, 2]
    assert conditions[0].lhs == pytest.approx(1.999)
    assert conditions[1].lhs == pytest.approx(0.001)
    assert jury_verdict(Polynomial((1.0, 0.999))).status == STABLE


def test_condition_count_is_degree_plus_one():
    rng = random.Random(8)
    for _ in range(40):
        degree = rng.randint(2, 9)
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(degree + 1)]
        coeffs[0] = abs(coeffs[0]) + 0.5
        try:
            conditions = jury_conditions(Polynomial(coeffs))
        except SingularTableError:
            continue
        assert len(conditions) == degree + 1


def test_verdict_stable_inside_delay_one_range():
    assert jury_verdict(Polynomial((1.0, -1.0, 0.5))).status == STABLE


def test_verdict_unstable_beyond_delay_one_range():
    verdict = jury_verdict(Polynomial((1.0, -1.0, 1.5)))
    assert verdict.status == UNSTABLE
    assert verdict.witness == 3
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
    assert verdict.witness == 5


def test_verdict_unstable_at_six_decimal_rounding_of_threshold():
    # 0.445042 rounds the delay-3 threshold upward by ~1e-7, which already
    # lands outside the open stable range by a margin far beyond 1e-12
    verdict = jury_verdict(Polynomial((1.0, -1.0, 0.0, 0.0, 0.445042)))
    assert verdict.status == UNSTABLE
    assert verdict.witness == 5


def test_verdict_falls_back_to_oracle_on_singular_table():
    p = Polynomial((1.0, 1.0, 0.0, 0.0, 1.25, 0.5))
    verdict = jury_verdict(p)
    assert verdict.method == "oracle"
    assert verdict.status == UNSTABLE
    assert verdict.witness == pytest.approx(spectral_radius(p), abs=1e-9)


def test_table_verdict_carries_its_table_and_conditions():
    p = Polynomial((1.0, -1.0, 0.0, 0.7))
    verdict = jury_verdict(p)
    assert verdict.method == "jury" and verdict.status == UNSTABLE
    assert verdict.table == jury_table(p)
    assert list(verdict.conditions) == jury_conditions(p)
    assert verdict.root_set is None and verdict.reason is None
    low = jury_verdict(Polynomial((1.0, 0.999)))
    assert low.table is None and len(low.conditions) == 2


def test_fallback_verdict_carries_its_roots_and_reason():
    p = Polynomial((1.0, 1.0, 0.0, 0.0, 1.25, 0.5))
    verdict = jury_verdict(p)
    assert verdict.method == "oracle"
    assert verdict.reason.startswith("singular table: row 3")
    assert verdict.conditions is None and verdict.table is None
    assert len(verdict.root_set.roots) == 5
    assert verdict.witness == max(abs(z) for z in verdict.root_set.roots)
    assert oracle_verdict(p).reason is None


def test_verdict_equality_ignores_the_evidence():
    p = Polynomial((1.0, -1.0, 0.5))
    verdict = jury_verdict(p)
    assert verdict == StabilityVerdict(STABLE, None, "jury")
    assert verdict == replace(verdict, conditions=(), table=None, reason="x")
    assert hash(verdict) == hash(StabilityVerdict(STABLE, None, "jury"))


def test_oracle_verdict_classifies_by_radius():
    assert oracle_verdict(Polynomial((1.0, -1.0, 0.5))).status == STABLE
    assert oracle_verdict(Polynomial((1.0, -1.0, 1.5))).status == UNSTABLE
    assert oracle_verdict(Polynomial((1.0, -1.0))).status == MARGINAL  # root at 1


def test_verdict_agrees_with_oracle_on_random_sample():
    rng = random.Random(41)
    checked = 0
    while checked < 300:
        degree = rng.randint(2, 8)
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(degree + 1)]
        if coeffs[0] == 0.0:
            continue
        coeffs[0] = abs(coeffs[0])
        p = Polynomial(coeffs)
        rho = spectral_radius(p)
        if abs(rho - 1.0) <= 1e-6:
            continue
        checked += 1
        verdict = jury_verdict(p)
        if verdict.method == "oracle":
            continue  # singular-table fallback counts as agreement
        assert verdict.status == (STABLE if rho < 1.0 else UNSTABLE), coeffs


def test_induction_delay_three_rows_by_hand():
    r = 0.4
    report = verify_sparse_induction(3, r)
    assert report.sparse_pattern_holds
    assert report.recurrences_hold
    assert report.rows_checked == 2
    assert report.max_discrepancy <= 1e-9
    rows = jury_table(Polynomial((1.0, -1.0, 0.0, 0.0, r))).rows
    assert rows[1] == (-r, 0.0, 1.0, r * r - 1.0)
    assert rows[2] == (r, r * r - 1.0, (r * r - 1.0) ** 2 - r * r)


def test_induction_delay_two_single_reduction():
    report = verify_sparse_induction(2, 0.5)
    assert report.rows_checked == 1
    assert report.recurrences_hold
    assert report.sparse_pattern_holds
    assert report.max_discrepancy == 0.0


def test_induction_delay_five_pattern_across_all_reductions():
    report = verify_sparse_induction(5, 0.1)
    assert report.rows_checked == 4
    assert report.sparse_pattern_holds
    assert report.recurrences_hold


def test_induction_rejects_delay_below_two():
    with pytest.raises(ValueError):
        verify_sparse_induction(1, 0.5)


def test_induction_holds_on_rate_grid_up_to_delay_ten():
    thresholds = {tau: 2.0 * math.cos(tau * math.pi / (2 * tau + 1))
                  for tau in range(2, 11)}
    for tau, threshold in thresholds.items():
        for i in range(1, 8):
            r = threshold * i / 8.0
            report = verify_sparse_induction(tau, r)
            assert report.sparse_pattern_holds and report.recurrences_hold, (tau, r)


@pytest.mark.parametrize("tau", [17, 30, 200])
@pytest.mark.parametrize("fraction", [0.5, 1.5])
def test_induction_holds_through_rescaled_rows(tau, fraction):
    threshold = 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1)))
    report = verify_sparse_induction(tau, fraction * threshold)
    assert report.rows_checked == tau - 1
    assert report.sparse_pattern_holds
    assert report.recurrences_hold
