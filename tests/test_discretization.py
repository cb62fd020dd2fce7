import random

import numpy as np
import pytest

from delaylogistic.delay_map import DelayParams, step
from delaylogistic.discretization import (
    FORWARD,
    RATIO,
    PoleError,
    SchemeParams,
    forward_step,
    ratio_step,
    scheme_stability,
)
from delaylogistic.jury import MARGINAL, STABLE, UNSTABLE


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


def test_forward_step_values():
    p = _forward(1.0, 1.0, 1.0)
    assert forward_step(p, 0.0) == 0.0
    assert forward_step(p, 1.0) == 1.0
    assert forward_step(p, 0.5) == 0.75


def test_ratio_step_values():
    p = _ratio(1.0, 1.0, 1.0)
    assert ratio_step(p, 0.0) == 0.0
    assert ratio_step(p, 1.0) == 1.0
    assert ratio_step(p, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_steps_reject_mismatched_scheme():
    with pytest.raises(ValueError):
        forward_step(_ratio(1.0, 1.0, 1.0), 0.5)
    with pytest.raises(ValueError):
        ratio_step(_forward(1.0, 1.0, 1.0), 0.5)


def test_both_schemes_fix_zero_and_capacity():
    rng = random.Random(15)
    for _ in range(50):
        r = rng.uniform(0.01, 50.0)
        K = rng.uniform(0.1, 5000.0)
        h = rng.uniform(0.01, 3.0)
        assert forward_step(_forward(r, K, h), 0.0) == 0.0
        assert forward_step(_forward(r, K, h), K) == K
        assert ratio_step(_ratio(r, K, h), 0.0) == 0.0
        assert ratio_step(_ratio(r, K, h), K) == K


def test_ratio_step_pole_raises():
    p = _ratio(2.0, 1.0, 1.0)
    with pytest.raises(PoleError):
        ratio_step(p, -0.5)  # denominator 1 + 2x = 0


def test_forward_matches_zero_delay_map_bitwise_at_unit_step():
    rng = random.Random(23)
    cases = [(rng.uniform(-2.0, 4.0), K, rng.uniform(-2.0 * K, 3.0 * K))
             for K in (rng.uniform(0.1, 4000.0) for _ in range(100))]
    cases += [(r, K, m * K)
              for r in (-2.5, -1.0, -1e-3, 0.0, 1e-9, 0.5, 1.9, 3.7, 1e3)
              for K in (1e-6, 1.0, 2800.0, 1e9)
              for m in (-1e3, -1.0, -0.0, 1e-8, 0.5, 1.0, 1.5, 1e6)]
    for r, K, x in cases:
        scheme_value = forward_step(_forward(r, K, 1.0), x)
        map_value = step(DelayParams(r=r, K=K, tau=0), (x,))[0]
        assert scheme_value == map_value  # bitwise


def test_forward_scheme_stability_examples():
    at_zero, at_capacity = scheme_stability(_forward(1.0, 1.0, 1.0))
    assert at_zero.status == UNSTABLE
    assert at_capacity.status == STABLE
    at_zero, at_capacity = scheme_stability(_forward(3.0, 1.0, 1.0))
    assert at_capacity.status == UNSTABLE


@pytest.mark.parametrize("h", [0.1, 0.5, 1.0, 2.0])
def test_forward_capacity_verdict_flips_at_two_over_h(h):
    flip = 2.0 / h
    assert scheme_stability(_forward(flip - 1e-6, 1.0, h))[1].status == STABLE
    assert scheme_stability(_forward(flip + 1e-6, 1.0, h))[1].status == UNSTABLE
    assert scheme_stability(_forward(flip, 1.0, h))[1].status == MARGINAL


def test_ratio_capacity_stable_across_rate_magnitudes():
    for r in np.logspace(-3, 3, 25):
        at_zero, at_capacity = scheme_stability(_ratio(float(r), 1.0, 1.0))
        assert at_capacity.status == STABLE
        assert at_zero.status == UNSTABLE


def test_scheme_stability_reports_derivatives():
    at_zero, at_capacity = scheme_stability(_forward(0.5, 1.0, 1.0))
    assert at_zero.witness == pytest.approx(1.5)
    assert at_capacity.witness == pytest.approx(0.5)
    assert at_zero.method == "derivative"
    at_zero, at_capacity = scheme_stability(_ratio(100.0, 1.0, 1.0))
    assert at_capacity.witness == pytest.approx(1.0 / 101.0)
