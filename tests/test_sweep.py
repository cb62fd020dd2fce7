import cmath
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaylogistic import cli, jury, polynomial, sweep
from delaylogistic.delay_map import NONTRIVIAL, DelayParams, char_poly, simulate
from delaylogistic.jury import (
    JURY,
    MARGINAL,
    STABLE,
    UNSTABLE,
    jury_verdict,
    oracle_verdict,
)
from delaylogistic.sweep import (
    BracketingError,
    boundary_table,
    critical_r,
    is_stable_nontrivial,
)

# The threshold in closed form, f(tau) = 2 sin(pi / (2(2 tau + 1))) (Levin &
# May 1976, Theor. Pop. Biol. 9:178).
def _candidate_threshold(tau):
    return 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1)))


def _oracle_nontrivial(tau, r):
    return oracle_verdict(char_poly(tau, r, NONTRIVIAL))


def _jury_nontrivial(tau, r):
    return jury_verdict(char_poly(tau, r, NONTRIVIAL))


def _oracle_is_stable(tau, r):
    """``sweep.is_stable_nontrivial`` answered by the root oracle alone, with
    no guide."""
    return _oracle_nontrivial(tau, r).status == STABLE, math.nan


def _record_reads(monkeypatch):
    """Every (tau, rate, verdict) the search reads, in order."""
    reads = []

    def recorded(tau, r, read=sweep.is_stable_nontrivial):
        reading = read(tau, r)
        reads.append((tau, r, reading[0]))
        return reading

    monkeypatch.setattr(sweep, "is_stable_nontrivial", recorded)
    return reads


def _assert_read_bracket(point, reads, tol=sweep.DEFAULT_TOL):
    """The point's bracket is the highest rate read stable and the lowest
    read unstable, every stable read lies below every unstable one, and
    ``tables`` counts the reads."""
    stable = [r for tau, r, holds in reads if tau == point.tau and holds]
    unstable = [r for tau, r, holds in reads if tau == point.tau and not holds]
    lo, hi = max(stable), min(unstable)
    assert lo < hi, point
    assert point.r_critical == 0.5 * (lo + hi), point
    assert point.bracket_width == hi - lo <= tol, point
    assert point.tables == len(stable) + len(unstable), point


REPORTED_THRESHOLDS = {0: 2.0, 1: 1.0, 2: 0.618034, 3: 0.445042}


def test_is_stable_examples():
    assert is_stable_nontrivial(1, 0.5)[0]
    assert _jury_nontrivial(1, 0.5)[:3] == (STABLE, None, JURY)
    for tau, r in [(2, 0.7), (0, 2.5)]:
        assert not is_stable_nontrivial(tau, r)[0]
        assert _jury_nontrivial(tau, r).status == UNSTABLE


def test_is_stable_rejects_a_non_finite_rate():
    with pytest.raises(ValueError):
        is_stable_nontrivial(1, float("inf"))


def test_stable_range_is_open_at_zero():
    assert not is_stable_nontrivial(2, -1e-3)[0]
    assert _jury_nontrivial(2, -1e-3).status == UNSTABLE
    assert _oracle_nontrivial(2, -1e-3).status == UNSTABLE
    assert not is_stable_nontrivial(2, 0.0)[0]  # a root at 1 besides two at 0
    assert _jury_nontrivial(2, 0.0).status == MARGINAL
    assert _oracle_nontrivial(2, 0.0).status == MARGINAL


@pytest.mark.parametrize("tau, expected", sorted(REPORTED_THRESHOLDS.items()))
def test_critical_r_reproduces_reported_thresholds(tau, expected):
    point = critical_r(tau)
    assert point.r_critical == pytest.approx(expected, abs=1e-5)
    assert point.bracket_width <= sweep.DEFAULT_TOL


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
def test_methods_agree_on_the_threshold(monkeypatch, tau):
    tol = 1e-9
    via_jury = critical_r(tau, tol=tol)
    monkeypatch.setattr(sweep, "is_stable_nontrivial", _oracle_is_stable)
    via_oracle = critical_r(tau, tol=tol)
    assert abs(via_jury.r_critical - via_oracle.r_critical) <= 100.0 * tol


@pytest.mark.parametrize("tau", [0, 1, 2, 3, 6, 10])
def test_threshold_is_sharp(tau):
    threshold = critical_r(tau).r_critical
    assert is_stable_nontrivial(tau, threshold - 1e-6)[0]
    assert not is_stable_nontrivial(tau, threshold + 1e-6)[0]
    assert _jury_nontrivial(tau, threshold + 1e-6).status == UNSTABLE


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
    # the walk's rates, bit for bit: up by doubling to the cap, or down by
    # halving until past the floor
    for stable, expected in [(True, [0.1 * 2.0**k for k in range(6)] + [4.0]),
                             (False, [0.1 * 2.0**-k for k in range(28)])]:
        seen = []

        def verdict(tau, r, stable=stable, seen=seen):
            seen.append(r)
            return stable, math.nan

        monkeypatch.setattr(sweep, "is_stable_nontrivial", verdict)
        with pytest.raises(BracketingError, match=r"\[1e-09, 4\.0\]"):
            sweep.critical_r(2)
        assert seen == expected


@pytest.mark.parametrize("tau", [13, 17, 30, 60, 200, 1000])
@pytest.mark.parametrize("fraction, expected", [(0.5, STABLE), (1.5, UNSTABLE)])
def test_long_delay_verdicts_come_from_the_table(tau, fraction, expected):
    r = fraction * _candidate_threshold(tau)
    assert is_stable_nontrivial(tau, r)[0] == (expected == STABLE)
    verdict = _jury_nontrivial(tau, r)
    assert verdict.method == JURY
    assert verdict.status == expected


@pytest.mark.parametrize("tau", [17, 30, 200, 500, 1000])
def test_critical_r_matches_closed_form_at_long_delay(monkeypatch, tau):
    reads = _record_reads(monkeypatch)
    point = critical_r(tau)
    assert point.r_critical == pytest.approx(_candidate_threshold(tau), abs=1e-9)
    _assert_read_bracket(point, reads)


@pytest.mark.parametrize("tau", [500, 1000])
def test_seeded_search_at_long_delay(monkeypatch, tau):
    # seeded as boundary_table seeds it, from the two delays before
    before, previous = critical_r(tau - 2), critical_r(tau - 1)
    reads = _record_reads(monkeypatch)
    point = critical_r(tau, seed=previous.r_critical,
                       step=before.r_critical - previous.r_critical)
    assert abs(point.r_critical - _candidate_threshold(tau)) <= 1e-9
    _assert_read_bracket(point, reads)
    assert point.tables <= 12


def test_boundary_table_reads_both_ends_of_every_bracket(monkeypatch):
    reads = _record_reads(monkeypatch)
    table = boundary_table(200)
    assert table.monotone_decreasing
    for tau, point in enumerate(table.points):
        assert point.tau == tau
        assert abs(point.r_critical - _candidate_threshold(tau)) <= 1e-9, point
        _assert_read_bracket(point, reads)
    tables = [point.tables for point in table.points]
    assert max(tables) <= 20
    assert sum(tables) <= 12 * len(tables)
    assert max(tables) <= 14
    assert sum(tables) <= 900  # 878 with extrapolated seeds, 1516 without


def test_boundary_table_read_count_through_delay_30():
    tables = [point.tables for point in boundary_table(30).points]
    assert max(tables) <= 14
    assert sum(tables) <= 190  # 184 with extrapolated seeds, 279 without


@settings(max_examples=60, deadline=None)
@given(tau=st.integers(min_value=0, max_value=60),
       seed=st.floats(min_value=1e-6, max_value=4.0),
       step=st.none() | st.floats(min_value=1e-6, max_value=4.0))
def test_any_seed_finds_the_unseeded_threshold(tau, seed, step):
    unseeded = critical_r(tau)
    with pytest.MonkeyPatch.context() as monkeypatch:
        reads = _record_reads(monkeypatch)
        seeded = critical_r(tau, seed=seed, step=step)
    assert abs(seeded.r_critical - unseeded.r_critical) <= sweep.DEFAULT_TOL
    _assert_read_bracket(seeded, reads)


def test_critical_r_rejects_a_non_positive_seed_or_step():
    for seed, step in [(0.0, None), (-0.1, None), (0.1, 0.0), (0.1, -1.0)]:
        with pytest.raises(ValueError):
            critical_r(2, seed=seed, step=step)


@pytest.mark.parametrize("guide", [
    lambda holds: -0.5 if holds else 0.5,  # wrong signs at both ends
    lambda holds: 0.5 if holds else 1e-3,  # right at the stable end only
    lambda holds: 0.25,
    lambda holds: -0.25,
    lambda holds: 0.0,
], ids=["wrong-signed", "wrong-at-unstable", "constant-positive",
        "constant-negative", "zero"])
@pytest.mark.parametrize("tau", [0, 2, 17])
def test_a_misleading_guide_leaves_bisection(monkeypatch, tau, guide):
    def without_guide(tau, r):
        return is_stable_nontrivial(tau, r)[0], math.nan

    def misled(tau, r):
        holds = is_stable_nontrivial(tau, r)[0]
        return holds, guide(holds)

    monkeypatch.setattr(sweep, "is_stable_nontrivial", without_guide)
    bisected = critical_r(tau)
    monkeypatch.setattr(sweep, "is_stable_nontrivial", misled)
    point = critical_r(tau)
    assert point == bisected  # midpoint steps only, the same rates read
    assert abs(point.r_critical - _candidate_threshold(tau)) <= 1e-9
    assert point.tables > 30


@pytest.mark.parametrize("reshape", [
    lambda guide: guide**9,  # flat near f
    lambda guide: math.copysign(0.5, guide),  # the two latest often equal
], ids=["flat", "signs-only"])
@pytest.mark.parametrize("tau", [0, 2, 17, 60])
def test_a_right_signed_guide_is_safeguarded_by_bisection(monkeypatch, tau, reshape):
    # on the flat guide, Illinois false position took 6 to 8 times the
    # reads of bisection and a secant without the safeguard far more; the
    # signs-only guide gives the two latest trials equal guides
    def without_guide(tau, r):
        return is_stable_nontrivial(tau, r)[0], math.nan

    def reshaped(tau, r):
        holds, guide = is_stable_nontrivial(tau, r)
        return holds, reshape(guide)

    monkeypatch.setattr(sweep, "is_stable_nontrivial", without_guide)
    bisected = critical_r(tau)
    monkeypatch.setattr(sweep, "is_stable_nontrivial", reshaped)
    point = critical_r(tau)
    assert abs(point.r_critical - bisected.r_critical) <= sweep.DEFAULT_TOL
    assert point.bracket_width <= sweep.DEFAULT_TOL
    assert point.tables <= 2.5 * bisected.tables


def test_is_stable_reading_carries_the_guide():
    holds, guide = is_stable_nontrivial(5, 0.2)
    assert holds and 0.0 < guide <= 1.0
    assert is_stable_nontrivial(5, 0.3)[1] < 0.0
    assert is_stable_nontrivial(0, 1.5)[1] == pytest.approx(0.5 / 1.5)
    # at r = 0 the table of the rest, lambda - 1, gives a guide too: its
    # one condition misses by the radius, 1 - INNER_RADIUS
    assert is_stable_nontrivial(2, 0.0)[1] == pytest.approx(-0.5e-12, rel=1e-3)


def test_guide_reads_the_numbers_of_the_condition_records(monkeypatch):
    # next to f(176) the double table leaves condition m - 1 within
    # rounding, so the 60-digit re-read gives the readings, and the guide
    # reads the terms of that re-read, as the records print them
    tau, r = 176, 0.00889966652964334
    rereads = []
    original = jury._precise_readings
    monkeypatch.setattr(jury, "_precise_readings",
                        lambda *args: rereads.append(args) or original(*args))
    holds, guide = is_stable_nontrivial(tau, r)
    assert len(rereads) == 1
    assert holds and guide == 1.5435564908925714e-11
    table = jury.jury_table(char_poly(tau, r, NONTRIVIAL), jury.INNER_RADIUS)
    record = jury.jury_conditions(table)[tau - 1]  # condition m - 1 at degree tau + 1
    assert record["index"] == tau
    assert guide == record["margin"] / (record["lhs"] + record["rhs"])


def test_boundary_point_method_names_the_tests_that_decided(monkeypatch, capsys):
    # the table decides every trial rate, and no search calls the root
    # oracle, so the label that the boundary output writes is "jury"
    def no_roots(p):
        raise AssertionError(f"the root oracle was called on {p.coeffs!r}")

    monkeypatch.setattr(polynomial, "roots", no_roots)
    monkeypatch.setattr(jury, "roots", no_roots)
    assert cli.run(["boundary", "--tau-max", "12", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(",", 1)[-1] for line in lines[1:-1]] == [JURY] * 13
    assert cli.run(["boundary", "--tau-max", "3"]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert [point["method"] for point in points] == [JURY] * 4

    # a search whose reader leaves the guide out, here the root oracle above
    # rate 0.5, still finds the threshold
    monkeypatch.undo()
    monkeypatch.setattr(
        sweep, "is_stable_nontrivial",
        lambda tau, r: _oracle_is_stable(tau, r) if r > 0.5 else is_stable_nontrivial(tau, r))
    point = critical_r(2)
    assert point.r_critical == pytest.approx(_candidate_threshold(2), abs=1e-9)


def test_critical_r_is_the_closed_form_and_strictly_decreasing():
    points = [critical_r(tau) for tau in range(201)]
    for tau, point in enumerate(points):
        assert abs(point.r_critical - _candidate_threshold(tau)) <= 1e-9, tau
    found = [point.r_critical for point in points]
    assert all(later < earlier for earlier, later in zip(found, found[1:]))


# How the instability appears: just past f(tau) the capacity point loses
# stability to a complex pair on the unit circle at angle pi / (2 tau + 1),
# so the population oscillates about K with period 2 (2 tau + 1).
INSTABILITY_DELAYS = [1, 2, 5, 12, 17, 40]


@pytest.mark.parametrize("tau", INSTABILITY_DELAYS)
def test_dominant_root_crosses_at_the_predicted_angle(tau):
    p = char_poly(tau, (1.0 + 1e-6) * _candidate_threshold(tau), NONTRIVIAL)
    assert oracle_verdict(p).status == UNSTABLE
    dominant = max(polynomial.roots(p), key=abs)
    assert abs(abs(cmath.phase(dominant)) - math.pi / (2 * tau + 1)) <= 1e-6


@pytest.mark.parametrize("tau", INSTABILITY_DELAYS)
def test_oscillation_period_past_the_threshold(tau):
    period = 2 * (2 * tau + 1)
    steps = 40 * period
    params = DelayParams(r=1.02 * _candidate_threshold(tau), K=1.0, tau=tau)
    trajectory = simulate(params, [1.01] * (tau + 1), steps)
    assert not trajectory.diverged
    values = trajectory.values
    pairs = enumerate(zip(values, values[1:]), trajectory.first_step + 1)
    up_crossings = [n for n, (before, after) in pairs  # n is the step of after
                    if n > steps // 2 and before < params.K <= after]
    assert len(up_crossings) >= 10
    spacing = (up_crossings[-1] - up_crossings[0]) / (len(up_crossings) - 1)
    assert abs(spacing - period) <= 0.02 * period
