import math
import random
from dataclasses import replace

import pytest

from delaylogistic.delay_map import NONTRIVIAL, TRIVIAL, DelayParams, char_poly
from delaylogistic.jury import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    SingularTableError,
    StabilityVerdict,
    jury_conditions,
    jury_table,
    jury_verdict,
    oracle_verdict,
)
from delaylogistic.polynomial import DegeneratePolynomialError, Polynomial
from sparse_rows import bits, delay_table, dense_tables, induction_mismatches


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
               for c in jury_conditions(verdict.table))


def test_pivot_left_at_rounding_noise_by_cancellation_is_singular():
    # nearly self-reciprocal: the first reduction cancels every entry down
    # to ~1e-13, good to ~1e-3 relative, so the oracle decides
    p = Polynomial((1.0, 0.3, -0.2, 0.3, 1.0 - 1e-13))
    with pytest.raises(SingularTableError):
        jury_table(p)
    assert jury_verdict(p).method == "oracle"


def test_conditions_all_satisfied_inside_the_stable_range():
    conditions = jury_conditions(jury_table(Polynomial((1.0, -1.0, 0.0, 0.5))))
    assert [c.index for c in conditions] == [1, 2, 3, 4]
    assert all(c.satisfied for c in conditions)


def test_conditions_reduced_row_failure_outside_the_range():
    conditions = jury_conditions(jury_table(Polynomial((1.0, -1.0, 0.0, 0.7))))
    last = conditions[3]
    assert last.index == 4
    assert last.lhs == pytest.approx(abs(0.7 ** 2 - 1.0))
    assert last.rhs == pytest.approx(0.7)
    assert not last.satisfied
    assert all(c.satisfied for c in conditions[:3])


def test_conditions_degree_one_only_boundary_checks():
    conditions = jury_conditions(jury_table(Polynomial((1.0, 0.999))))
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
            conditions = jury_conditions(jury_table(Polynomial(coeffs)))
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
    assert verdict.witness == pytest.approx(oracle_verdict(p).witness, abs=1e-9)


def test_table_verdict_carries_its_table_and_conditions():
    p = Polynomial((1.0, -1.0, 0.0, 0.7))
    verdict = jury_verdict(p)
    assert verdict.method == "jury" and verdict.status == UNSTABLE
    assert verdict.table == jury_table(p)
    assert jury_conditions(verdict.table) == jury_conditions(jury_table(p))
    assert verdict.root_set is None and verdict.reason is None
    assert not hasattr(verdict, "conditions")
    low = jury_verdict(Polynomial((1.0, 0.999)))
    assert low.table.rows == ((1.0, 0.999),)
    assert len(jury_conditions(low.table)) == 2


def test_fallback_verdict_carries_its_roots_and_reason():
    p = Polynomial((1.0, 1.0, 0.0, 0.0, 1.25, 0.5))
    verdict = jury_verdict(p)
    assert verdict.method == "oracle"
    assert verdict.reason.startswith("singular table: reduced row 2")
    assert verdict.table is None
    assert len(verdict.root_set.roots) == 5
    assert verdict.witness == max(abs(z) for z in verdict.root_set.roots)
    assert oracle_verdict(p).reason is None


def test_verdict_equality_ignores_the_evidence():
    p = Polynomial((1.0, -1.0, 0.5))
    verdict = jury_verdict(p)
    assert verdict == StabilityVerdict(STABLE, None, "jury")
    assert verdict == replace(verdict, table=None, reason="x")
    assert hash(verdict) == hash(StabilityVerdict(STABLE, None, "jury"))


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
        verdict = jury_verdict(p)
        if verdict.method == "oracle":
            continue  # singular-table fallback counts as agreement
        assert verdict.status == (STABLE if rho < 1.0 else UNSTABLE), coeffs


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
# the shifts and the singular-table messages are compared as well.

def _table_bits(p: Polynomial):
    try:
        table = jury_table(p)
    except SingularTableError as exc:
        return str(exc)
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
            polys = [char_poly(DelayParams(r=r, K=1.0, tau=tau), point) for r in rates]
            expected = dense_tables([p.coeffs for p in polys])
            for r, p, want in zip(rates, polys, expected):
                assert _table_bits(p) == want, (tau, point, r)


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
            got = _table_bits(p)
            assert got == want, p.coeffs
            if isinstance(got, str):
                continue
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
    """``(status, witness)`` by the verdict rule applied to
    ``jury_conditions(jury_table(p))``, or None for a singular table: a
    clear failure wins, else the first condition inside its band makes the
    verdict marginal."""
    try:
        conditions = jury_conditions(jury_table(p))
    except SingularTableError:
        return None
    status, witness = STABLE, None
    for cond in conditions:
        if cond.margin < -cond.tolerance:
            return UNSTABLE, cond.index
        if status == STABLE and abs(cond.margin) <= cond.tolerance:
            status, witness = MARGINAL, cond.index
    return status, witness


def _statuses_following_the_records(polys) -> dict[str, int]:
    """Assert that every verdict on ``polys`` follows its records; count
    the statuses (and the singular tables, as "oracle")."""
    seen = {STABLE: 0, UNSTABLE: 0, MARGINAL: 0, "oracle": 0}
    for p in polys:
        expected = _verdict_from_the_records(p)
        verdict = jury_verdict(p)
        if expected is None:
            assert verdict.method == "oracle", p.coeffs
            seen["oracle"] += 1
        else:
            assert (verdict.status, verdict.witness, verdict.method) == (
                *expected, "jury"), p.coeffs
            seen[verdict.status] += 1
    return seen


def test_verdict_follows_the_records_on_the_delay_family():
    polys = []
    for tau in range(401):
        threshold = 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1)))
        for fraction in (0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5):
            polys.append(char_poly(DelayParams(r=fraction * threshold, K=1.0, tau=tau),
                                   NONTRIVIAL))
    seen = _statuses_following_the_records(polys)
    assert min(seen[s] for s in (STABLE, UNSTABLE, MARGINAL)) >= 100, seen


def test_verdict_follows_the_records_on_signed_zero_inputs():
    seen = _statuses_following_the_records(_signed_zero_polynomials())
    assert min(seen[s] for s in (STABLE, UNSTABLE, "oracle")) >= 100, seen


def _times(a, b) -> list[float]:
    """The coefficients of the product of two polynomials."""
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)]


def test_verdict_follows_the_records_on_random_polynomials():
    rng = random.Random(1307)
    polys = [Polynomial([rng.uniform(0.5, 2.0)]
                        + [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(2, 8))])
             for _ in range(1000)]
    # roots on the unit circle put conditions inside their band: a root at
    # 1 the first, at -1 the second, a pair at angle theta a reduced row's.
    # A random factor's roots outside the circle then fail a later
    # condition, which must win; roots at both 1 and -1 leave two
    # conditions in their band, and the first must be the witness.
    for _ in range(600):
        theta = rng.uniform(0.1, 3.0)
        boundary = rng.choice([(1.0, -1.0), (1.0, 0.0, -1.0),
                               (1.0, -2.0 * math.cos(theta), 1.0)])
        factor = [1.0] + [rng.uniform(-1.5, 1.5) for _ in range(rng.randint(0, 6))]
        polys.append(Polynomial(_times(factor, boundary)))
    seen = _statuses_following_the_records(polys)
    assert min(seen[s] for s in (STABLE, UNSTABLE, MARGINAL)) >= 50, seen


def test_verdict_follows_the_records_across_input_scales():
    rng = random.Random(20261019)
    bases = [(1.0, -1.0, 0.0, 0.5), (1.0, -1.0, 0.0, 0.7), (1.0, -1.0, 1.0),
             (1.0, 1.0, 0.0, 0.0, 1.25, 0.5)]
    for tau in (3, 17, 40, 200):
        threshold = 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1)))
        bases += [char_poly(DelayParams(r=fraction * threshold, K=1.0, tau=tau),
                            NONTRIVIAL).coeffs for fraction in (0.5, 1.0, 1.5)]
    bases += [[rng.uniform(0.5, 2.0)] + [rng.uniform(-2.0, 2.0)
                                         for _ in range(rng.randint(2, 8))]
              for _ in range(40)]
    scales = [10.0 ** e for e in range(-300, 301, 50)]
    seen = _statuses_following_the_records(
        Polynomial([scale * c for c in coeffs]) for coeffs in bases for scale in scales)
    assert min(seen.values()) >= 10, seen
