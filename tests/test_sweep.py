import math

import pytest

from delaylogistic import sweep
from delaylogistic.jury import MARGINAL, STABLE, UNSTABLE
from delaylogistic.sweep import (
    JURY,
    ORACLE,
    BracketingError,
    boundary_table,
    critical_r,
    is_stable_nontrivial,
)

# Empirical closed form for the threshold; validated against the bisection
# result for the reported low delays before it is trusted further out.
def _candidate_threshold(tau):
    return 2.0 * math.cos(tau * math.pi / (2 * tau + 1))


REPORTED_THRESHOLDS = {0: 2.0, 1: 1.0, 2: 0.618034, 3: 0.445042}


def test_is_stable_examples():
    assert is_stable_nontrivial(1, 0.5, JURY).status == STABLE
    assert is_stable_nontrivial(2, 0.7, ORACLE).status == UNSTABLE
    assert is_stable_nontrivial(0, 2.5, JURY).status == UNSTABLE


def test_is_stable_rejects_bad_method_and_rate():
    with pytest.raises(ValueError):
        is_stable_nontrivial(1, 0.5, "newton")
    with pytest.raises(ValueError):
        is_stable_nontrivial(1, float("inf"))


def test_stable_range_is_open_at_zero():
    assert is_stable_nontrivial(2, -1e-3, JURY).status == UNSTABLE
    assert is_stable_nontrivial(2, -1e-3, ORACLE).status == UNSTABLE
    assert is_stable_nontrivial(2, 0.0, JURY).status == MARGINAL
    assert is_stable_nontrivial(2, 0.0, ORACLE).status == MARGINAL


@pytest.mark.parametrize("tau, expected", sorted(REPORTED_THRESHOLDS.items()))
def test_critical_r_reproduces_reported_thresholds(tau, expected):
    point = critical_r(tau)
    assert point.r_critical == pytest.approx(expected, abs=1e-5)
    assert point.bracket_width <= sweep.DEFAULT_TOL
    assert point.method == JURY


@pytest.mark.parametrize("tau", [0, 1, 2, 3])
def test_candidate_closed_form_matches_bisection_at_low_delay(tau):
    assert critical_r(tau).r_critical == pytest.approx(
        _candidate_threshold(tau), abs=1e-8)


def test_critical_r_far_delay_cross_checked_against_candidate_form():
    point = critical_r(17, tol=1e-9)
    assert point.r_critical == pytest.approx(_candidate_threshold(17), abs=1e-7)
    assert point.r_critical == pytest.approx(0.0897, abs=5e-4)


def test_critical_r_below_default_bracket_start():
    # thresholds drop under 0.1 from delay 16 on; bracketing must extend down
    point = critical_r(16, tol=1e-9)
    assert point.r_critical < 0.1
    assert point.r_critical == pytest.approx(_candidate_threshold(16), abs=1e-7)


@pytest.mark.parametrize("tau", [0, 1, 2, 5, 9, 12])
def test_methods_agree_on_the_threshold(tau):
    tol = 1e-9
    via_jury = critical_r(tau, tol=tol, method=JURY).r_critical
    via_oracle = critical_r(tau, tol=tol, method=ORACLE).r_critical
    assert abs(via_jury - via_oracle) <= 100.0 * tol


@pytest.mark.parametrize("tau", [0, 1, 2, 3, 6, 10])
def test_threshold_is_sharp(tau):
    threshold = critical_r(tau).r_critical
    assert is_stable_nontrivial(tau, threshold - 1e-6).status == STABLE
    assert is_stable_nontrivial(tau, threshold + 1e-6).status == UNSTABLE


def test_boundary_table_low_delays():
    table = boundary_table(3)
    values = [p.r_critical for p in table.points]
    assert values == pytest.approx([2.0, 1.0, 0.618034, 0.445042], abs=1e-5)
    assert table.monotone_decreasing
    assert [p.tau for p in table.points] == [0, 1, 2, 3]
    assert all(0.0 < p.r_critical <= 2.0 for p in table.points)
    assert all(p.bracket_width <= sweep.DEFAULT_TOL for p in table.points)


def test_boundary_table_single_point_is_trivially_monotone():
    table = boundary_table(0)
    assert len(table.points) == 1
    assert table.points[0].r_critical == pytest.approx(2.0, abs=1e-5)
    assert table.monotone_decreasing


def test_boundary_table_rejects_negative_span():
    with pytest.raises(ValueError):
        boundary_table(-1)


def test_critical_r_rejects_bad_tol():
    with pytest.raises(ValueError):
        critical_r(2, tol=0.0)


def test_bracketing_error_when_no_flip_exists(monkeypatch):
    from delaylogistic.jury import StabilityVerdict

    # the walk's rates, bit for bit: up by doubling to the cap, or down by
    # halving until past the floor
    for status, expected in [(STABLE, [0.1 * 2.0**k for k in range(6)] + [4.0]),
                             (UNSTABLE, [0.1 * 2.0**-k for k in range(28)])]:
        seen = []

        def verdict(tau, r, method=JURY, status=status, seen=seen):
            seen.append(r)
            return StabilityVerdict(status, None, method)

        monkeypatch.setattr(sweep, "is_stable_nontrivial", verdict)
        with pytest.raises(BracketingError, match=r"\[1e-09, 4\.0\]"):
            sweep.critical_r(2)
        assert seen == expected


@pytest.mark.parametrize("tau", [13, 17, 30, 60, 200])
@pytest.mark.parametrize("fraction, expected", [(0.5, STABLE), (1.5, UNSTABLE)])
def test_long_delay_verdicts_come_from_the_table(tau, fraction, expected):
    verdict = is_stable_nontrivial(tau, fraction * _candidate_threshold(tau))
    assert verdict.method == JURY
    assert verdict.status == expected


@pytest.mark.parametrize("tau", [17, 30, 200])
def test_critical_r_matches_closed_form_at_long_delay(tau):
    point = critical_r(tau)
    assert point.r_critical == pytest.approx(_candidate_threshold(tau), abs=1e-9)
    assert point.method == JURY


def test_boundary_point_method_names_the_tests_that_decided(monkeypatch):
    from delaylogistic.jury import jury_verdict, oracle_verdict

    monkeypatch.setattr(sweep, "jury_verdict", oracle_verdict)
    assert critical_r(2).method == "oracle"

    # the oracle decides only rates above 0.5; the bracket passes 0.8
    monkeypatch.setattr(
        sweep, "jury_verdict",
        lambda p: oracle_verdict(p) if p.coeffs[-1] > 0.5 else jury_verdict(p))
    point = critical_r(2)
    assert point.method == "jury+oracle"
    assert point.r_critical == pytest.approx(_candidate_threshold(2), abs=1e-9)
