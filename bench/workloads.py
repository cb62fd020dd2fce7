"""The benchmark's workloads: seeded CLI argv lists with their reference checks.

Each workload is one pass of CLI calls. The seed only draws the inputs;
the program receives nothing but the generated argv. Draws are stratified
(fixed counts per delay, point and degree) so that every seed asks for the
same amount of work and only the exact numbers change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import oracles


@dataclass(frozen=True)
class Call:
    """One `cli.run(argv)` call, the check of its stdout and its work units."""

    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    work: int = 1
    undecidable: bool = False
    # largest |r_critical - f(tau)| in the output, for threshold calls;
    # None when the output does not parse
    threshold_error: Callable[[str], float | None] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    rate_metric: str  # name of the work-per-second metric, per `Call.work`


# sweep-long-delay: `boundary --tau-max 30` at the default tolerance. The
# dense reduction table decides tau 0..12; from tau 13 on every predicate
# falls back to Durand-Kerner roots, so `polynomial` and `sweep` do nearly
# all the work. This is where an O(tau) Jury engine or numpy roots must
# show. The seed only picks the output format.
SWEEP_TAU_MAX = 30


def sweep_long_delay(rng: random.Random) -> Workload:
    fmt = rng.choice(("json", "csv"))
    call = Call(argv=("boundary", f"--tau-max={SWEEP_TAU_MAX}", f"--format={fmt}"),
                check=lambda out: oracles.check_boundary(out, fmt, SWEEP_TAU_MAX),
                work=SWEEP_TAU_MAX + 1,
                threshold_error=lambda out: oracles.max_threshold_error(out, fmt))
    return Workload("sweep-long-delay", (call,), "thresholds_per_s")


# query-mix: about 1000 single small calls. Most are `stability` queries at
# tau 0..12 on both points, with rates on both sides of the boundary; the
# rest are `jury --coeffs` on random polynomials of degree 2..8. Parsing,
# serialization and the dense table set the median; trivial-point queries
# set the tail, because their table is always singular and Durand-Kerner
# then runs on a tau-fold zero root. Bisection barely runs here, so a
# `sweep`-only gain should read as no change.
QUERY_TAU_MAX = 12
NONTRIVIAL_PER_TAU = 52
TRIVIAL_PER_TAU = 12
JURY_PER_DEGREE = 24
JURY_DEGREES = range(2, 9)


def _rate(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{rng.uniform(lo, hi):.6g}")


def _nontrivial_call(rng: random.Random, tau: int, i: int) -> Call:
    f = oracles.closed_form_threshold(tau)
    if i % 13 == 12:
        r = _rate(rng, -0.5, -0.01)
    elif i % 2 == 0:
        r = _rate(rng, 0.3 * f, 0.95 * f)
    else:
        r = _rate(rng, 1.05 * f, 2.0 * f)
    expected = oracles.nontrivial_status(tau, r)
    return Call(argv=("stability", f"--tau={tau}", f"--r={r!r}", "--point=nontrivial"),
                check=lambda out: oracles.check_status(out, expected))


def _trivial_call(rng: random.Random, tau: int, i: int) -> Call:
    if i % 3 == 0:
        r = _rate(rng, 0.05, 1.0) if i % 2 else _rate(rng, -3.0, -2.05)
    else:
        r = _rate(rng, -1.95, -0.05)
    expected = oracles.trivial_status(r)
    return Call(argv=("stability", f"--tau={tau}", f"--r={r!r}", "--point=trivial"),
                check=lambda out: oracles.check_status(out, expected))


def _random_coeffs(rng: random.Random, degree: int, stable: bool) -> list[float]:
    """Real polynomial built from drawn roots: all inside the unit circle, or not."""
    roots: list[complex] = []
    while len(roots) < degree:
        radius = rng.uniform(0.1, 0.95)
        if not stable and not roots:
            radius = rng.uniform(1.05, 1.6)
        if degree - len(roots) >= 2 and rng.random() < 0.5:
            z = complex(radius * rng.uniform(-1, 1), 0)
            z = complex(z.real, (radius ** 2 - z.real ** 2) ** 0.5)
            roots += [z, z.conjugate()]
        else:
            roots.append(complex(radius * rng.choice((-1.0, 1.0)), 0))
    coeffs = [complex(1.0)]
    for z in roots:
        coeffs = [a - z * b for a, b in zip(coeffs + [0j], [0j] + coeffs)]
    lead = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    return [float(f"{lead * c.real:.6g}") for c in coeffs]


def _jury_call(rng: random.Random, degree: int, i: int) -> Call:
    coeffs = _random_coeffs(rng, degree, stable=i % 2 == 0)
    expected = oracles.coeffs_status(coeffs)
    return Call(argv=("jury", "--coeffs=" + ",".join(repr(c) for c in coeffs)),
                check=lambda out: oracles.check_status(out, expected),
                undecidable=expected is None)


def query_mix(rng: random.Random) -> Workload:
    calls = []
    for tau in range(QUERY_TAU_MAX + 1):
        calls += [_nontrivial_call(rng, tau, i) for i in range(NONTRIVIAL_PER_TAU)]
        calls += [_trivial_call(rng, tau, i) for i in range(TRIVIAL_PER_TAU)]
    for degree in JURY_DEGREES:
        calls += [_jury_call(rng, degree, i) for i in range(JURY_PER_DEGREE)]
    rng.shuffle(calls)
    return Workload("query-mix", tuple(calls), "queries_per_s")


# simulate: two long runs. The blowfly case (r = 0.106, K = 2800, tau = 17)
# writes 200k samples as CSV; a long-delay run (tau = 200) writes 50k
# samples as JSON, where the per-step history rebuild costs O(tau) and the
# JSON serializer runs as well. Nothing from `polynomial`, `jury` or
# `sweep` runs here, so their no-change prediction is testable. The seed
# draws the constant initial history around x0 = 1400.
SIM_RUNS = (
    # (r, K, tau, steps, format)
    (0.106, 2800.0, 17, 200_000, "csv"),
    (0.005, 2800.0, 200, 50_000, "json"),
)


def _simulate_call(rng: random.Random, r: float, K: float, tau: int, steps: int,
                   fmt: str) -> Call:
    x0 = float(f"{rng.uniform(1200.0, 1600.0):.5g}")
    # only the digest is kept, so the reference adds nothing to peak RSS
    expected = oracles.digest(oracles.trajectory_chunks(r, K, tau, x0, steps, fmt))
    render = oracles.trajectory_csv if fmt == "csv" else oracles.trajectory_json
    return Call(argv=("simulate", f"--r={r!r}", f"--K={K!r}", f"--tau={tau}",
                      f"--x0={x0!r}", f"--steps={steps}", f"--format={fmt}"),
                check=lambda out: oracles.check_exact(
                    out, expected, lambda: render(r, K, tau, x0, steps)),
                work=steps)


def simulate(rng: random.Random) -> Workload:
    calls = tuple(_simulate_call(rng, *run) for run in SIM_RUNS)
    return Workload("simulate", calls, "sim_steps_per_s")


WORKLOADS = {
    "sweep-long-delay": sweep_long_delay,
    "query-mix": query_mix,
    "simulate": simulate,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
