import math
import random
import re
import sys

import numpy as np
import pytest

from delaylogistic.delay_map import DelayParams, step
from delaylogistic.discretization import (
    FORWARD,
    RATIO,
    PoleError,
    SchemeParams,
    fixed_point_derivatives,
    scheme_stability,
)
from delaylogistic.jury import (
    INNER_RADIUS,
    MARGINAL,
    OUTER_RADIUS,
    STABLE,
    UNSTABLE,
    jury_verdict,
)
from delaylogistic.polynomial import Polynomial
from schemes import scheme_step


def _forward(r, K, h):
    return SchemeParams(r=r, K=K, h=h, scheme=FORWARD)


def _ratio(r, K, h):
    return SchemeParams(r=r, K=K, h=h, scheme=RATIO)


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(r=1.0, K=1.0, h=0.0, scheme=FORWARD)
    with pytest.raises(ValueError):
        SchemeParams(r=1.0, K=-1.0, h=1.0, scheme=RATIO)
    with pytest.raises(ValueError):
        SchemeParams(r=1.0, K=1.0, h=1.0, scheme="midpoint")
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^r must be finite, got {r!r}$"):
            SchemeParams(r=r, K=1.0, h=1.0, scheme=FORWARD)
    # r and h finite each, but every derivative would be infinite
    for scheme in (FORWARD, RATIO):
        for r in (1e308, -1e308):
            message = f"r * h overflows: r={r!r}, h=1e+308"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SchemeParams(r=r, K=1.0, h=1e308, scheme=scheme)


def test_forward_step_values():
    p = _forward(1.0, 1.0, 1.0)
    assert scheme_step(p, 0.0) == 0.0
    assert scheme_step(p, 1.0) == 1.0
    assert scheme_step(p, 0.5) == 0.75


def test_ratio_step_values():
    p = _ratio(1.0, 1.0, 1.0)
    assert scheme_step(p, 0.0) == 0.0
    assert scheme_step(p, 1.0) == 1.0
    assert scheme_step(p, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_scheme_step_takes_the_update_that_the_scheme_names():
    # one rate, capacity, step and state: the two updates part at once
    forward, ratio = _forward(2.0, 1.0, 1.0), _ratio(2.0, 1.0, 1.0)
    assert scheme_step(forward, 0.5) == 1.0
    assert scheme_step(ratio, 0.5) == 0.75
    with pytest.raises(PoleError):
        scheme_step(ratio, -0.5)
    assert scheme_step(forward, -0.5) == -2.0  # the explicit update has no pole


def test_both_schemes_fix_zero_and_capacity():
    rng = random.Random(15)
    for _ in range(50):
        r = rng.uniform(0.01, 50.0)
        K = rng.uniform(0.1, 5000.0)
        h = rng.uniform(0.01, 3.0)
        for p in (_forward(r, K, h), _ratio(r, K, h)):
            assert scheme_step(p, 0.0) == 0.0
            assert scheme_step(p, K) == K


def test_ratio_step_pole_raises():
    p = _ratio(2.0, 1.0, 1.0)
    with pytest.raises(PoleError):
        scheme_step(p, -0.5)  # denominator 1 + 2x = 0


def test_forward_matches_zero_delay_map_bitwise_at_unit_step():
    rng = random.Random(23)
    cases = [(rng.uniform(-2.0, 4.0), K, rng.uniform(-2.0 * K, 3.0 * K))
             for K in (rng.uniform(0.1, 4000.0) for _ in range(100))]
    cases += [(r, K, m * K)
              for r in (-2.5, -1.0, -1e-3, 0.0, 1e-9, 0.5, 1.9, 3.7, 1e3)
              for K in (1e-6, 1.0, 2800.0, 1e9)
              for m in (-1e3, -1.0, -0.0, 1e-8, 0.5, 1.0, 1.5, 1e6)]
    for r, K, x in cases:
        scheme_value = scheme_step(_forward(r, K, 1.0), x)
        map_value = step(DelayParams(r=r, K=K, tau=0), (x,))[0]
        assert scheme_value == map_value  # bitwise


def _verdicts(params):
    return scheme_stability(fixed_point_derivatives(params))


def test_forward_scheme_stability_examples():
    at_zero, at_capacity = _verdicts(_forward(1.0, 1.0, 1.0))
    assert at_zero.status == UNSTABLE
    assert at_capacity.status == STABLE
    at_zero, at_capacity = _verdicts(_forward(3.0, 1.0, 1.0))
    assert at_capacity.status == UNSTABLE


@pytest.mark.parametrize("h", [0.1, 0.5, 1.0, 2.0])
def test_forward_capacity_verdict_flips_at_two_over_h(h):
    flip = 2.0 / h
    assert _verdicts(_forward(flip - 1e-6, 1.0, h))[1].status == STABLE
    assert _verdicts(_forward(flip + 1e-6, 1.0, h))[1].status == UNSTABLE
    assert _verdicts(_forward(flip, 1.0, h))[1].status == MARGINAL


def test_ratio_capacity_stable_across_rate_magnitudes():
    for r in np.logspace(-3, 3, 25):
        at_zero, at_capacity = _verdicts(_ratio(float(r), 1.0, 1.0))
        assert at_capacity.status == STABLE
        assert at_zero.status == UNSTABLE


def test_scheme_stability_reports_derivatives():
    derivatives = fixed_point_derivatives(_forward(0.5, 1.0, 1.0))
    assert derivatives == (1.5, 0.5)
    at_zero, at_capacity = scheme_stability(derivatives)
    assert (at_zero.method, at_capacity.method) == ("jury", "jury")
    # the table of lambda - d has one condition, |d| < radius
    assert (at_zero.witness, at_capacity.witness) == (1, None)
    derivatives = fixed_point_derivatives(_ratio(100.0, 1.0, 1.0))
    assert derivatives == (101.0, pytest.approx(1.0 / 101.0))
    assert [v.witness for v in scheme_stability(derivatives)] == [1, None]
    with pytest.raises(PoleError, match=r"^ratio map degenerates at r\*h = -1$"):
        fixed_point_derivatives(_ratio(-1.0, 1.0, 1.0))


def _modulus_rule(d):
    """The unit-circle rule on a derivative: marginal within MARGIN_TOL of 1."""
    return STABLE if abs(d) < INNER_RADIUS else UNSTABLE if abs(d) > OUTER_RADIUS else MARGINAL


def _neighbours(x, count):
    """``x`` and the ``count`` doubles either side of it."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[1:] + above


def test_a_degree_one_table_reads_what_the_modulus_rule_reads():
    # a fixed point with derivative d is the table of lambda - d, whose input
    # row is (radius, -d): the doubles decide |d| < radius away from the
    # radii, the 60-digit re-read inside their rounding band and wherever
    # the input row holds a subnormal
    rng = random.Random(31)
    grid = [0.0, 5e-324, sys.float_info.max]
    for centre in (1.0, INNER_RADIUS, OUTER_RADIUS):
        grid += _neighbours(centre, 40)
    grid += [10.0 ** rng.uniform(-310.0, 308.0) for _ in range(10000)]
    seen = set()
    for d in grid + [-d for d in grid]:
        verdict = jury_verdict(Polynomial((1.0, -d)))
        expected = _modulus_rule(d)
        assert (verdict.status, verdict.method) == (expected, "jury"), d
        assert verdict.witness == (None if expected == STABLE else 1), d
        seen.add(expected)
    assert seen == {STABLE, UNSTABLE, MARGINAL}
