import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaylogistic.delay_map import (
    DIVERGENCE_FACTOR,
    NONTRIVIAL,
    TRIVIAL,
    DelayParams,
    char_poly,
    jacobian,
    simulate,
    step,
    trivial_stability_range,
)
from delaylogistic.jury import oracle_verdict
from delaylogistic.polynomial import Polynomial, roots


def _fixed_points(params):
    """The two constant histories, all zeros and all K."""
    n = params.tau + 1
    return (0.0,) * n, (params.K,) * n


def test_params_validation():
    with pytest.raises(ValueError):
        DelayParams(r=float("nan"), K=1.0, tau=0)
    with pytest.raises(ValueError):
        DelayParams(r=0.5, K=0.0, tau=0)
    with pytest.raises(ValueError):
        DelayParams(r=0.5, K=1.0, tau=-1)


def test_step_direct_substitution():
    assert step(DelayParams(0.5, 1.0, 1), (0.5, 0.8)) == (0.8, 1.0)


def test_step_fixes_both_constant_histories():
    params = DelayParams(1.7, 2800.0, 3)
    zero, capacity = _fixed_points(params)
    assert step(params, zero) == zero
    assert step(params, capacity) == capacity


def test_step_rejects_wrong_history_length():
    with pytest.raises(ValueError):
        step(DelayParams(0.5, 1.0, 2), (1.0, 2.0))


def test_step_shifts_history():
    params = DelayParams(0.3, 2.0, 4)
    state = (0.1, 0.2, 0.3, 0.4, 0.5)
    assert step(params, state)[:-1] == state[1:]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.floats(-50.0, 50.0), st.floats(1e-3, 1e5), st.integers(0, 20))
def test_fixed_point_invariance_randomized(r, K, tau):
    params = DelayParams(r=r, K=K, tau=tau)
    zero, capacity = _fixed_points(params)
    assert step(params, zero) == zero
    assert step(params, capacity) == capacity


def test_simulate_constant_at_fixed_points():
    params = DelayParams(1.2, 3.0, 2)
    for level in (0.0, 3.0):
        trajectory = simulate(params, (level,) * 3, 40)
        assert all(x == level for _, x in trajectory.samples)
        assert not trajectory.diverged


def test_simulate_steps_and_sample_indexing():
    params = DelayParams(0.0, 1.0, 2)
    trajectory = simulate(params, (0.3, 0.3, 0.3), 5)
    assert [n for n, _ in trajectory.samples] == [-2, -1, 0, 1, 2, 3, 4, 5]
    assert all(x == 0.3 for _, x in trajectory.samples)


def _stepwise_run(params, init, n_steps):
    """The record built one `step` at a time under the divergence rule: the
    reference that `simulate` must reproduce bit for bit."""
    state = tuple(init)
    values = list(state)
    limit = DIVERGENCE_FACTOR * params.K
    for _ in range(n_steps):
        state = step(params, state)
        values.append(state[-1])
        if not math.isfinite(state[-1]) or abs(state[-1]) > limit:
            return values, True
    return values, False


def _bits(values):
    return [struct.pack("<d", x) for x in values]


def test_simulate_records_are_recomputable():
    runs = [
        (DelayParams(0.8, 2.0, 3), (0.5, 0.6, 0.7, 0.8), 60),
        (DelayParams(1.9, 1.0, 0), (0.37,), 500),
        (DelayParams(0.5, 1.0, 1), (0.5, 0.8), 500),
        (DelayParams(0.106, 2800.0, 17), (1400.0,) * 18, 3000),
        (DelayParams(0.005, 2800.0, 200), (1400.0,) * 201, 2000),
        (DelayParams(3.0, 1.0, 1), (0.5, 0.5), 200),  # runs away past the limit
        (DelayParams(1e308, 1.0, 2), (1.0, -3.0, 1e300), 5),  # ends in NaN
    ]
    for params, init, n_steps in runs:
        trajectory = simulate(params, init, n_steps)
        values, diverged = _stepwise_run(params, init, n_steps)
        assert trajectory.diverged == diverged, params
        assert [n for n, _ in trajectory.samples] == list(
            range(-params.tau, len(values) - params.tau)), params
        assert _bits(x for _, x in trajectory.samples) == _bits(values), params
    assert math.isnan(trajectory.samples[-1][1])  # the last run reaches its NaN


def test_simulate_flags_divergence_and_stops():
    trajectory = simulate(DelayParams(3.0, 1.0, 1), (0.5, 0.5), 200)
    assert trajectory.diverged
    assert len(trajectory.samples) < 200
    assert all(math.isfinite(x) for _, x in trajectory.samples[:-1])


def test_simulate_rejects_bad_inputs():
    params = DelayParams(0.5, 1.0, 1)
    with pytest.raises(ValueError):
        simulate(params, (float("nan"), 1.0), 5)
    with pytest.raises(ValueError):
        simulate(params, (0.5, 0.5), -1)
    with pytest.raises(ValueError):
        simulate(params, (0.5,), 5)


def _finite_difference_jacobian(params, point_state, rel_step=1e-6):
    n = params.tau + 1
    h = rel_step * params.K
    jac = np.zeros((n, n))
    for j in range(n):
        plus = list(point_state)
        minus = list(point_state)
        plus[j] += h
        minus[j] -= h
        delta = np.subtract(step(params, plus), step(params, minus))
        jac[:, j] = delta / (2.0 * h)
    return jac


def test_jacobian_shape_and_shift_rows():
    params = DelayParams(0.7, 1.0, 2)
    jac = jacobian(params, TRIVIAL)
    assert jac.shape == (3, 3)
    assert np.array_equal(jac[0], [0.0, 1.0, 0.0])
    assert np.array_equal(jac[1], [0.0, 0.0, 1.0])
    assert np.array_equal(jac[2], [0.0, 0.0, 1.7])


def test_jacobian_nontrivial_last_row():
    jac = jacobian(DelayParams(0.5, 1.0, 2), NONTRIVIAL)
    assert np.array_equal(jac[2], [-0.5, 0.0, 1.0])


def test_jacobian_zero_delay_scalars():
    assert jacobian(DelayParams(0.25, 1.0, 0), NONTRIVIAL)[0, 0] == pytest.approx(0.75)
    assert jacobian(DelayParams(0.25, 1.0, 0), TRIVIAL)[0, 0] == pytest.approx(1.25)


def test_jacobian_rejects_unknown_point():
    with pytest.raises(ValueError):
        jacobian(DelayParams(0.5, 1.0, 1), "saddle")


def test_jacobian_matches_finite_differences():
    rng = random.Random(310)
    for _ in range(40):
        params = DelayParams(r=rng.uniform(-2.0, 2.5),
                             K=rng.uniform(0.5, 4000.0),
                             tau=rng.randint(0, 12))
        zero, capacity = _fixed_points(params)
        for point, state in ((TRIVIAL, zero), (NONTRIVIAL, capacity)):
            analytic = jacobian(params, point)
            numeric = _finite_difference_jacobian(params, state)
            scale = np.maximum(1.0, np.abs(analytic))
            assert np.all(np.abs(analytic - numeric) <= 1e-6 * scale), (params, point)


def test_char_poly_closed_forms():
    assert char_poly(DelayParams(0.5, 1.0, 1), NONTRIVIAL).coeffs == (1.0, -1.0, 0.5)
    assert char_poly(DelayParams(-1.5, 1.0, 2), TRIVIAL).coeffs == (1.0, 0.5, 0.0, 0.0)
    assert char_poly(DelayParams(0.25, 1.0, 0), NONTRIVIAL).coeffs == (1.0, -0.75)
    assert char_poly(DelayParams(0.25, 1.0, 0), TRIVIAL).coeffs == (1.0, -1.25)


def test_char_poly_length_is_tau_plus_two():
    for tau in range(0, 9):
        params = DelayParams(0.3, 1.0, tau)
        assert len(char_poly(params, TRIVIAL).coeffs) == tau + 2
        assert len(char_poly(params, NONTRIVIAL).coeffs) == tau + 2


def test_trivial_char_poly_radius_is_abs_one_plus_r():
    rng = random.Random(77)
    for _ in range(30):
        params = DelayParams(r=rng.uniform(-3.0, 3.0), K=1.0, tau=rng.randint(0, 8))
        rho = oracle_verdict(char_poly(params, TRIVIAL)).witness
        assert rho == pytest.approx(abs(1.0 + params.r), abs=1e-9)


def _poly_add(a, b):
    out = [0.0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def _poly_mul(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _det_poly(entries):
    # Laplace expansion along the first column; entries are ascending
    # coefficient lists in the eigenvalue variable
    if len(entries) == 1:
        return entries[0][0]
    acc = [0.0]
    for i in range(len(entries)):
        minor = [row[1:] for k, row in enumerate(entries) if k != i]
        term = _poly_mul(entries[i][0], _det_poly(minor))
        if i % 2 == 1:
            term = [-t for t in term]
        acc = _poly_add(acc, term)
    return acc


def test_char_poly_matches_determinant_expansion():
    rng = random.Random(19)
    for _ in range(20):
        params = DelayParams(r=rng.uniform(0.05, 1.8), K=rng.uniform(0.5, 10.0),
                             tau=rng.randint(0, 5))
        jac = jacobian(params, NONTRIVIAL)
        n = params.tau + 1
        entries = [[[-jac[i][j], 1.0] if i == j else [-jac[i][j]]
                    for j in range(n)] for i in range(n)]
        expanded = list(reversed(_det_poly(entries)))  # to descending powers
        ours = roots(char_poly(params, NONTRIVIAL)).roots
        theirs = roots(Polynomial(expanded)).roots
        _assert_same_roots(ours, theirs, 1e-8)


def _assert_same_roots(ours, theirs, tol):
    theirs = list(theirs)
    assert len(ours) == len(theirs)
    for a in ours:  # nearest-match pairing; conjugates defeat sorting
        distances = [abs(a - b) for b in theirs]
        best = distances.index(min(distances))
        assert distances[best] <= tol, (a, theirs[best])
        theirs.pop(best)


@pytest.mark.parametrize("point", [TRIVIAL, NONTRIVIAL])
def test_char_poly_matches_jacobian_eigenvalues(point):
    rng = random.Random(40)
    for tau in range(41):
        params = DelayParams(r=rng.uniform(-1.8, 1.8), K=rng.uniform(0.5, 4000.0),
                             tau=tau)
        eigenvalues = np.linalg.eigvals(jacobian(params, point))
        _assert_same_roots(roots(char_poly(params, point)).roots, eigenvalues, 1e-10)


@pytest.mark.parametrize("tau", [0, 3, 25])
def test_trivial_stability_range_is_minus_two_to_zero(tau):
    lo, hi = trivial_stability_range(tau)
    assert (lo, hi) == (-2.0, 0.0)
    # the closed form rests on char_poly: the only non-zero root is 1 + r
    for r, inside in ((lo - 1e-9, False), (lo + 1e-9, True), (-1.0, True),
                      (hi - 1e-9, True), (hi + 1e-9, False)):
        p = char_poly(DelayParams(r=r, K=1.0, tau=tau), TRIVIAL)
        assert (oracle_verdict(p).witness < 1.0) == inside, (tau, r)


def test_trivial_stability_range_rejects_negative_delay():
    with pytest.raises(ValueError):
        trivial_stability_range(-2)
