"""Acceptance gate: one timed pass/fail line per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see every line; without -s
the lines still appear for failing criteria in the captured output.
"""

import json
import math
import random
import time

import numpy as np

from delaylogistic import cli
from delaylogistic.delay_map import (
    NONTRIVIAL,
    TRIVIAL,
    DelayParams,
    char_poly,
    jacobian,
    simulate,
    step,
    trivial_stability_range,
)
from delaylogistic.discretization import FORWARD, RATIO, SchemeParams, scheme_stability
from delaylogistic.jury import (
    STABLE,
    UNSTABLE,
    jury_verdict,
    oracle_verdict,
)
from delaylogistic.polynomial import Polynomial
from delaylogistic.sweep import boundary_table, critical_r
from sparse_rows import delay_table, induction_mismatches


def _report(name: str, ok: bool, elapsed: float, limit: float) -> None:
    in_time = elapsed < limit
    line = (f"[{'PASS' if ok and in_time else 'FAIL'}] {name} "
            f"({elapsed:.2f}s, limit {limit:.0f}s)")
    print(line)
    assert ok and in_time, line


def test_criterion_1_threshold_table_reproduction(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "boundary.json"
    code = cli.run(["boundary", "--tau-max", "3", "--out", str(out)])
    elapsed = time.perf_counter() - start

    payload = json.loads(out.read_text(encoding="utf-8"))
    got = {point["tau"]: point["r_critical"] for point in payload["points"]}
    expected = {0: 2.0, 1: 1.0, 2: 0.618034, 3: 0.445042}
    ok = code == 0 and all(abs(got[tau] - value) <= 1e-5
                           for tau, value in expected.items())
    _report("criterion 1: thresholds 2, 1, 0.618034, 0.445042 within 1e-5",
            ok, elapsed, 5.0)


def test_criterion_2_trivial_point_range():
    start = time.perf_counter()
    ok = True
    for tau in range(6):
        ok &= trivial_stability_range(tau) == (-2.0, 0.0)
        for r, expected in ((-1.0, STABLE), (-2.1, UNSTABLE), (0.1, UNSTABLE)):
            p = char_poly(DelayParams(r=r, K=1.0, tau=tau), TRIVIAL)
            ok &= jury_verdict(p).status == expected
            ok &= oracle_verdict(p).status == expected
    elapsed = time.perf_counter() - start
    _report("criterion 2: trivial point stable exactly on (-2, 0) for delays 0..5",
            ok, elapsed, 1.0)


def test_criterion_3_threshold_strictly_decreasing():
    start = time.perf_counter()
    table = boundary_table(15)
    values = [point.r_critical for point in table.points]
    gaps = [earlier - later for earlier, later in zip(values, values[1:])]
    ok = table.monotone_decreasing and all(gap > 1e-4 for gap in gaps)
    elapsed = time.perf_counter() - start
    _report("criterion 3: threshold decreases with margin > 1e-4 up to delay 15",
            ok, elapsed, 30.0)


def test_criterion_4_test_agrees_with_root_oracle():
    start = time.perf_counter()
    rng = random.Random(20260810)
    agreements = 0
    checked = 0
    while checked < 1000:
        degree = rng.randint(2, 8)
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
        if verdict.method == "oracle":  # singular-table fallback
            agreements += 1
        elif verdict.status == (STABLE if rho < 1.0 else UNSTABLE):
            agreements += 1
    elapsed = time.perf_counter() - start
    _report(f"criterion 4: verdict agreement on {agreements}/1000 random polynomials",
            agreements == 1000, elapsed, 10.0)


def test_criterion_5_sparse_reduction_structure():
    start = time.perf_counter()
    ok = True
    for tau in range(2, 11):
        threshold = critical_r(tau).r_critical
        for i in range(1, 21):
            ok &= induction_mismatches(delay_table(tau, threshold * i / 21.0)) == []
    elapsed = time.perf_counter() - start
    _report("criterion 5: sparse rows and recurrences hold exactly for delays 2..10",
            ok, elapsed, 5.0)


def test_criterion_6_one_step_scheme_claims():
    start = time.perf_counter()
    ok = True
    for h in (0.1, 0.5, 1.0, 2.0):
        flip = 2.0 / h
        below = SchemeParams(r=flip - 1e-6, K=1.0, h=h, scheme=FORWARD)
        above = SchemeParams(r=flip + 1e-6, K=1.0, h=h, scheme=FORWARD)
        ok &= scheme_stability(below)[1].status == STABLE
        ok &= scheme_stability(above)[1].status == UNSTABLE
    for r in np.logspace(-3.0, 3.0, 20):
        params = SchemeParams(r=float(r), K=1.0, h=1.0, scheme=RATIO)
        ok &= scheme_stability(params)[1].status == STABLE
    elapsed = time.perf_counter() - start
    _report("criterion 6: explicit scheme flips at 2/h, ratio scheme never does",
            ok, elapsed, 1.0)


def test_criterion_7_blowfly_oscillation_persists():
    start = time.perf_counter()
    params = DelayParams(r=0.106, K=2800.0, tau=17)
    trajectory = simulate(params, (1400.0,) * 18, 2000)
    values = [x for _, x in trajectory.samples]
    tail = values[-500:]
    deviation = float(np.std(tail))
    ok = (not trajectory.diverged and len(tail) == 500
          and deviation > 0.01 * params.K
          and all(math.isfinite(x) and x > 0.0 for x in values))
    elapsed = time.perf_counter() - start
    _report(f"criterion 7: blowfly run keeps oscillating (sd {deviation:.0f} > 28)",
            ok, elapsed, 1.0)


def test_criterion_8_jacobian_matches_finite_differences():
    start = time.perf_counter()
    rng = random.Random(8181)
    ok = True
    for _ in range(100):
        params = DelayParams(r=rng.uniform(-2.0, 2.5),
                             K=rng.uniform(0.5, 4000.0),
                             tau=rng.randint(0, 12))
        spacing = 1e-6 * params.K
        n = params.tau + 1
        zero, capacity = (0.0,) * n, (params.K,) * n
        for point, state in ((TRIVIAL, zero), (NONTRIVIAL, capacity)):
            analytic = jacobian(params, point)
            numeric = np.zeros((n, n))
            for j in range(n):
                plus, minus = list(state), list(state)
                plus[j] += spacing
                minus[j] -= spacing
                numeric[:, j] = np.subtract(step(params, plus),
                                            step(params, minus)) / (2.0 * spacing)
            scale = np.maximum(1.0, np.abs(analytic))
            ok &= bool(np.all(np.abs(analytic - numeric) <= 1e-6 * scale))
    elapsed = time.perf_counter() - start
    _report("criterion 8: linearization matches central differences to 1e-6",
            ok, elapsed, 2.0)
