"""Benchmark of the delaylogistic CLI, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. A single thread acts as one closed-loop client: it calls
`delaylogistic.cli.run(argv)` in-process, waits for it, checks the stdout
against the oracles in `oracles.py` (which share no code with the package)
and sends the next call. A pass runs the workload's calls once; passes
repeat until `--seconds` have elapsed, and at least MIN_PASSES run.
`wall_s` is the median pass. Each call's latency is its median over the
passes; `call_p50_ms` is the median of these and `call_tail_ms` their
high percentile, or the slowest call where a workload has too few calls
for a percentile (see `tail`). A checker self-test runs first in every run.

On a shared host the CPU speed can shift by up to 2x for minutes at a
time, whatever runs on it. So `setup_s`, `wall_s`, `call_p50_ms` and
`call_tail_ms` are reported at a reference speed:
short slices of a fixed pure-Python loop (`calibration_slice`) run
between calls, outside the timed region, and each pass's times are
scaled by CAL_REF_S over the mean slice time of that pass (for `setup_s`,
of the slices around each interpreter). The `measured_*` metric lines and
the workload rates give the times as measured, and `cpu_speed` the factor.

With `--trace 0` the run reports end-to-end metrics, untraced; `setup_s`
is the median over SETUP_RUNS fresh interpreters that run one small `jury`
command. With `--trace 1` untraced and traced (see `spans.py`) passes
alternate, and the run reports per-layer metrics per traced pass plus the
tracing overhead between the two.

Stdout holds a `machine` line, one `metric` line per metric (name, value,
unit, note) and, last, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. A run exits with code 2 without a result when the
package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"

MIN_PASSES = 3
CAL_REF_S = 0.0025  # a calibration slice at the reference speed
CAL_INTERVAL_S = 0.1  # longest stretch of calls without a slice
CAL_EDGE = 3  # slices at the start and at the end of each pass
SETUP_RUNS = 7
SETUP_COEFFS = [1.0, -1.0, 0.0, 0.5]
SETUP_ARGV = ("jury", "--coeffs", ",".join(f"{c:g}" for c in SETUP_COEFFS))
TAIL_PERCENTILE = 99
TAIL_BEYOND = 10


@dataclass
class Tally:
    """Outcomes and timings of the calls made in one measurement phase."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    passes: int = 0
    call_times: list[list[float]] = field(default_factory=list)  # per call, per pass
    speeds: list[float] = field(default_factory=list)  # per pass, CAL_REF_S / mean slice
    output_bytes: int = 0
    threshold_max_abs_err: float = 0.0

    def times(self, at_reference: bool) -> list[list[float]]:
        if not at_reference:
            return self.call_times
        return [[t * speed for t, speed in zip(times, self.speeds)]
                for times in self.call_times]

    def pass_walls(self, at_reference: bool = True) -> list[float]:
        return [sum(times) for times in zip(*self.times(at_reference))]

    def call_medians(self, at_reference: bool = True) -> list[float]:
        """Each call's latency, as its median over the passes."""
        return [statistics.median(times) for times in self.times(at_reference)]

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def load_cli():
    """Import delaylogistic.cli from this checkout's `src/`, or exit with 2."""
    if not (SRC / "delaylogistic" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'delaylogistic'}; "
              "run from a delaylogistic checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    from delaylogistic import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported delaylogistic from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return cli


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": cpu}


def calibration_slice() -> float:
    """Seconds one fixed pure-Python loop takes: the CPU's current speed."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(20_000):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - start


def calibrate(slices: int = CAL_EDGE) -> list[float]:
    return [calibration_slice() for _ in range(slices)]


def run_call(cli, argv: tuple[str, ...]) -> tuple[float, int | None, str, str]:
    """(seconds, exit code, stdout, stderr); the code is None if run() raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run(list(argv))
        except Exception:  # a crash is a failed operation, not the end of the run
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def run_pass(cli, workload: workloads.Workload, tally: Tally) -> None:
    if not tally.call_times:
        tally.call_times = [[] for _ in workload.calls]
    slices = calibrate()
    last_slice = time.perf_counter()
    for call, times in zip(workload.calls, tally.call_times):
        if time.perf_counter() - last_slice > CAL_INTERVAL_S:
            slices.append(calibration_slice())
            last_slice = time.perf_counter()
        elapsed, code, out, err = run_call(cli, call.argv)
        times.append(elapsed)
        tally.output_bytes += len(out)  # the CLI writes ASCII only
        if code != 0:
            problems = [f"exit code {code}: {err.strip()[-300:]}"]
        else:
            problems = call.check(out)
            # recorded for failed checks too, so a drifting build shows its gap
            err_max = call.threshold_error(out) if call.threshold_error else None
            if err_max is not None:
                tally.threshold_max_abs_err = max(tally.threshold_max_abs_err, err_max)
        tally.record(" ".join(call.argv)[:80], problems)
    slices += calibrate()
    tally.speeds.append(CAL_REF_S / statistics.fmean(slices))
    tally.passes += 1


def measure(cli, workload: workloads.Workload, seconds: float) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    while tally.passes < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()
        run_pass(cli, workload, tally)
    return tally


def measure_setup(tally: Tally) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters running one small `jury` command,
    as measured and at the reference speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    expected = oracles.coeffs_status(SETUP_COEFFS)
    times, at_reference = [], []
    for _ in range(SETUP_RUNS):
        slices = calibrate()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "delaylogistic.cli", *SETUP_ARGV],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        slices += calibrate()
        at_reference.append(times[-1] * CAL_REF_S / statistics.fmean(slices))
        if proc.returncode != 0:
            problems = [f"exit code {proc.returncode}: {proc.stderr.strip()}"]
        else:
            problems = oracles.check_status(proc.stdout, expected)
        tally.record("setup " + " ".join(SETUP_ARGV), problems)
    return times, at_reference


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) for the latency tail.

    The TAIL_PERCENTILE when at least TAIL_BEYOND samples lie beyond it,
    else the highest percentile above the median that has them. With too
    few samples for any (sweep-long-delay has one call, simulate two) it
    is the slowest sample, reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(TAIL_PERCENTILE, 50, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], q, n - rank
    return ordered[-1], 100, 0


def end_to_end(workload: workloads.Workload, tally: Tally,
               setup: tuple[list[float], list[float]]) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, note) rows; the first five form the JSON metrics."""
    setup_measured, setup_at_reference = setup
    wall = statistics.median(tally.pass_walls())
    latencies = tally.call_medians()
    p50 = statistics.median(latencies)
    tail_s, q, beyond = tail(latencies)
    n = len(latencies)
    per_call = f"per-call medians over {tally.passes} passes, at reference speed"
    measured_wall = statistics.median(tally.pass_walls(at_reference=False))
    work = sum(call.work for call in workload.calls)
    rows = [
        ("setup_s", statistics.median(setup_at_reference), "s",
         f"median of {len(setup_at_reference)} runs of python -m delaylogistic.cli "
         f"{' '.join(SETUP_ARGV)}, at reference speed"),
        ("wall_s", wall, "s",
         f"median over {tally.passes} passes of {len(workload.calls)} calls, "
         "at reference speed"),
        ("call_p50_ms", 1e3 * p50, "ms", f"median of {n} {per_call}"),
        ("call_tail_ms", 1e3 * tail_s, "ms",
         f"p{q} of {n} {per_call}, {beyond} beyond it" if q < 100
         else f"slowest of {n} {per_call}"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
         "MB", "peak RSS of the benchmark process"),
        ("cpu_speed", statistics.median(tally.speeds), "ratio",
         f"{CAL_REF_S} s / mean calibration slice, median over passes"),
        ("measured_setup_s", statistics.median(setup_measured), "s", "setup_s as measured"),
        ("measured_wall_s", measured_wall, "s", "wall_s as measured"),
        (workload.rate_metric, work / measured_wall, "1/s",
         f"{work} per pass / measured_wall_s"),
        ("failed_ratio", tally.failed / tally.attempted, "ratio",
         f"{tally.failed} of {tally.attempted} operations"),
    ]
    if workload.name == "query-mix":
        measured = tally.call_medians(at_reference=False)
        measured_tail, q, beyond = tail(measured)
        rows.append(("query_p50_ms", 1e3 * statistics.median(measured), "ms",
                     "call_p50_ms as measured"))
        rows.append((f"query_p{q}_ms", 1e3 * measured_tail, "ms",
                     f"call_tail_ms as measured, {beyond} of {n} calls beyond it"))
        rows.append(("jury_undecidable", sum(c.undecidable for c in workload.calls), "count",
                     f"|rho - 1| <= {oracles.UNDECIDABLE_BAND}: status not compared"))
    if any(call.threshold_error for call in workload.calls):
        rows.append(("threshold_max_abs_err", tally.threshold_max_abs_err, "1",
                     "max |r_critical - 2 sin(pi / (2 (2 tau + 1)))|"))
    return rows


def per_layer(tracer: spans.Tracer, traced: Tally,
              untraced: Tally) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, note) rows of per-pass layer counters and self times."""
    passes = traced.passes

    def per_pass(value: float) -> float:
        return value / passes

    def calls(name: str) -> float:
        return per_pass(tracer.calls[name])

    def self_s(name: str) -> float:
        return per_pass(tracer.self_s[name])

    verdicts = calls("jury.jury_verdict")
    fallbacks = per_pass(tracer.counters["jury.fallbacks"])
    thresholds = calls("sweep.critical_r")
    evals = per_pass(tracer.edges[("sweep.critical_r", "sweep.is_stable_nontrivial")])
    overhead = (statistics.median(traced.pass_walls())
                / statistics.median(untraced.pass_walls()) - 1)
    return [
        ("polynomial.roots.calls", calls("polynomial.roots"), "count", ""),
        ("polynomial.roots.self_s", self_s("polynomial.roots"), "s", ""),
        ("polynomial.roots.sweeps", per_pass(tracer.counters["polynomial.roots.sweeps"]),
         "count", "sum of RootSet.iterations"),
        ("polynomial.evaluate.calls", calls("polynomial.evaluate"), "count", ""),
        ("jury.jury_verdict.calls", calls("jury.jury_verdict"), "count", ""),
        ("jury.jury_verdict.self_s", self_s("jury.jury_verdict"), "s", ""),
        ("jury.jury_table.calls", calls("jury.jury_table"), "count", ""),
        ("jury.jury_table.self_s", self_s("jury.jury_table"), "s", ""),
        ("jury.jury_table.rows", per_pass(tracer.counters["jury.jury_table.rows"]),
         "count", "rows of the tables built"),
        ("jury.jury_conditions.self_s", self_s("jury.jury_conditions"), "s", ""),
        ("jury.oracle_verdict.calls", calls("jury.oracle_verdict"), "count", ""),
        ("jury.oracle_verdict.self_s", self_s("jury.oracle_verdict"), "s", ""),
        ("jury.singular_tables", per_pass(tracer.counters["jury.singular_tables"]),
         "count", "SingularTableError raised by jury_table"),
        ("jury.fallback_ratio", fallbacks / verdicts if verdicts else 0.0, "ratio",
         f"{fallbacks:g} of {verdicts:g} jury_verdict results per pass have method 'oracle'"),
        ("sweep.critical_r.calls", calls("sweep.critical_r"), "count", ""),
        ("sweep.critical_r.self_s", self_s("sweep.critical_r"), "s", ""),
        ("sweep.is_stable_nontrivial.calls", calls("sweep.is_stable_nontrivial"), "count", ""),
        ("sweep.evals_per_threshold", evals / thresholds if thresholds else 0.0, "count",
         f"{evals:g} predicate calls from {thresholds:g} critical_r calls per pass"),
        ("delay_map.simulate.self_s", self_s("delay_map.simulate"), "s", ""),
        ("delay_map.step.calls", calls("delay_map.step"), "count", ""),
        ("delay_map.step.self_s", self_s("delay_map.step"), "s", ""),
        ("delay_map.char_poly.calls", calls("delay_map.char_poly"), "count", ""),
        ("cli.run.calls", calls("cli.run"), "count", ""),
        ("cli.run.self_s", self_s("cli.run"), "s", "parse, dispatch and serialize"),
        ("cli.output_bytes", per_pass(traced.output_bytes), "bytes", "stdout of all calls"),
        ("trace.overhead_ratio", overhead, "ratio",
         f"traced / untraced median pass wall at reference speed - 1, over {passes} passes each"),
    ]


def print_result(header: dict, rows: list[tuple[str, float, str, str]], n_json: int,
                 correct: bool, tallies: list[Tally]) -> None:
    print("machine " + json.dumps(header))
    for name, value, unit, note in rows:
        print(f"metric {name:<34} {value:<24.17g} {unit:<6} {note}".rstrip())
    result = {
        "correct": correct,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows[:n_json]},
    }
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missed = oracles.self_test()
    for line in missed:
        print(f"bench: checker self-test: {line}", file=sys.stderr)

    cli = load_cli()
    workload = workloads.build(args.workload, args.seed)
    header = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine()}
    run_call(cli, SETUP_ARGV)  # warm argparse and imports

    if args.trace == 0:
        setup_tally = Tally()
        setup = measure_setup(setup_tally)
        tally = measure(cli, workload, args.seconds)
        tallies = [setup_tally, tally]
        rows, n_json = end_to_end(workload, tally, setup), 5
    else:
        # untraced and traced passes alternate in ABBA order, so drift hits
        # both alike
        untraced, traced, tracer = Tally(), Tally(), spans.Tracer()
        start = time.perf_counter()
        while not traced.passes or time.perf_counter() - start < args.seconds:
            for trace_this in (False, True) if traced.passes % 2 == 0 else (True, False):
                gc.collect()
                with spans.traced(tracer) if trace_this else contextlib.nullcontext():
                    run_pass(cli, workload, traced if trace_this else untraced)
        span_file = SPAN_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"spans {len(tracer.spans)} written to {span_file.relative_to(ROOT)}, "
              f"{tracer.dropped} more not kept")
        tallies = [untraced, traced]
        rows = per_layer(tracer, traced, untraced)
        n_json = len(rows)

    for tally in tallies:
        for problem in tally.problems:
            print(f"bench: FAILED {problem}", file=sys.stderr)
    correct = not missed and all(t.failed == 0 for t in tallies)
    print_result(header, rows, n_json, correct, tallies)
    return 0


if __name__ == "__main__":
    sys.exit(main())
