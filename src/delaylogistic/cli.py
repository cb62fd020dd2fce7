"""Command-line front end: stability queries, sweeps, simulations.

Every input is a flag (no config files, no environment), so a run is fully
reproducible from its argv. Exit codes: 0 success (``-h`` too), 1 usage
error (also an ``--out`` path that cannot be written), 2 numeric failure
(bracketing failure, degenerate or out-of-range input, such as an
``r * h`` that overflows in ``discretize``).

The argument parser is built once per process, at import, and `run` keeps
no state between calls: each call sees only its own argv, so a process may
call it any number of times.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from . import delay_map, discretization, jury, polynomial, sweep

_TABLES_TAU_MAX = 5


# argparse's own pattern accepts only plain negative numbers such as -0.5
_NEGATIVE_NUMBER_OR_LIST = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(,.*)?$")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage instead of exiting the process, and
    takes a word that starts with a negative number, such as ``-1e-3`` or
    the list ``-1,0.5``, for a value rather than for an option."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER_OR_LIST

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not finite: {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        return [_finite_float(part) for part in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="delaylogistic",
                     description="Stability toolkit for the delayed logistic map.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run the delayed map and emit the trajectory")
    sim.add_argument("--r", type=_finite_float, required=True, help="reproduction rate")
    sim.add_argument("--K", type=_finite_float, required=True, help="carrying capacity")
    sim.add_argument("--tau", type=_nonneg_int, required=True, help="delay in steps")
    seed = sim.add_mutually_exclusive_group(required=True)
    seed.add_argument("--x0", type=_finite_float,
                      help="constant fill for the tau+1 seeded history entries")
    seed.add_argument("--history", type=_float_list, metavar="V0,V1,...",
                      help="explicit tau+1 seeded history entries, oldest first")
    sim.add_argument("--steps", type=_nonneg_int, required=True)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")

    stab = sub.add_parser("stability", help="verdict for one fixed point and rate")
    stab.add_argument("--tau", type=_nonneg_int, required=True)
    stab.add_argument("--r", type=_finite_float, required=True)
    stab.add_argument("--point", choices=(delay_map.TRIVIAL, delay_map.NONTRIVIAL),
                      required=True)
    stab.add_argument("--method", choices=(jury.JURY, jury.ORACLE),
                      default=jury.JURY)

    bnd = sub.add_parser("boundary", help="stability thresholds for tau = 0..max")
    bnd.add_argument("--tau-max", type=_nonneg_int, required=True)
    bnd.add_argument("--tol", type=_finite_float, default=sweep.DEFAULT_TOL)
    bnd.add_argument("--format", choices=("csv", "json"), default="json")

    tab = sub.add_parser("tables", help="both fixed-point stability tables, tau = 0..5")
    tab.add_argument("--format", choices=("csv", "json"), default="csv")

    jry = sub.add_parser("jury", help="reduction table, conditions and verdict")
    jry.add_argument("--coeffs", type=_float_list, required=True, metavar="C0,C1,...",
                     help="polynomial coefficients, highest power first")

    dis = sub.add_parser("discretize", help="fixed-point verdicts for a one-step scheme")
    dis.add_argument("--scheme", choices=(discretization.FORWARD, discretization.RATIO),
                     required=True)
    dis.add_argument("--r", type=_finite_float, required=True)
    dis.add_argument("--h", type=_finite_float, required=True)
    dis.add_argument("--K", type=_finite_float, required=True)

    # appended last so that it stays at the end of every usage line
    for command in sub.choices.values():
        command.add_argument("--out", metavar="PATH", default=None)
    return parser


# argparse keeps nothing from one parse to the next (each parse fills a new
# namespace, and no default is mutable), so one parser serves every call
_PARSER = _build_parser()


def _verdict_payload(verdict: jury.StabilityVerdict) -> dict:
    return {"status": verdict.status, "witness": verdict.witness,
            "method": verdict.method}


def _evidence_payload(verdict: jury.StabilityVerdict) -> dict:
    """What the verdict rests on: the conditions read off its table, or the
    root moduli with their residual and, after a fallback, why the table
    could not decide.

    The residual is max |P(root)|; it is null when that overflows a double.
    """
    if verdict.table is not None:
        return {"conditions": [c._asdict() for c in jury.jury_conditions(verdict.table)]}
    payload: dict = {}
    if verdict.reason is not None:
        payload["note"] = f"{verdict.reason}; verdict taken from the root oracle"
    roots = verdict.root_set
    payload["root_moduli"] = sorted((abs(z) for z in roots.roots), reverse=True)
    payload["root_residual"] = roots.residual if math.isfinite(roots.residual) else None
    return payload


def _json_float(x: float) -> str:
    """A float as `json.dumps` writes a finite one, and ``null`` for the
    non-finite sample that ends a diverged run, so the document stays
    strict JSON."""
    return repr(x) if math.isfinite(x) else "null"


def _cmd_simulate(args: argparse.Namespace) -> dict | list[str]:
    params = delay_map.DelayParams(r=args.r, K=args.K, tau=args.tau)
    if args.history is not None:
        if len(args.history) != args.tau + 1:
            raise UsageError(
                f"--history needs exactly tau + 1 = {args.tau + 1} values, "
                f"got {len(args.history)}")
        init = args.history
    else:
        init = [args.x0] * (args.tau + 1)
    trajectory = delay_map.simulate(params, init, args.steps)
    samples = enumerate(trajectory.values, trajectory.first_step)
    if args.format == "csv":
        return ["step,x"] + [f"{n},{x:.17g}" for n, x in samples]
    # json.dumps(indent=2) never uses the C encoder, so the samples, which
    # are nearly all of the document, are laid out here exactly as it would
    # lay them out, around a frame it renders with one placeholder sample
    head, tail = json.dumps({
        "r": params.r, "K": params.K, "tau": params.tau,
        "diverged": trajectory.diverged,
        "samples": [0],
    }, indent=2).split("\n    0\n")
    body = ",\n".join(
        f'    {{\n      "step": {n},\n      "x": {_json_float(x)}\n    }}'
        for n, x in samples)
    return [head, body, tail]


def _cmd_stability(args: argparse.Namespace) -> dict | list[str]:
    p = delay_map.char_poly(delay_map.DelayParams(r=args.r, K=1.0, tau=args.tau),
                            args.point)
    if args.method == jury.JURY:
        verdict = jury.jury_verdict(p)
    else:
        verdict = jury.oracle_verdict(p)

    payload: dict = {
        "tau": args.tau, "r": args.r, "point": args.point,
        "requested_method": args.method,
        "char_poly": list(p.coeffs),
        "verdict": _verdict_payload(verdict),
    }
    payload.update(_evidence_payload(verdict))
    return payload


def _cmd_boundary(args: argparse.Namespace) -> dict | list[str]:
    table = sweep.boundary_table(args.tau_max, tol=args.tol)
    if args.format == "csv":
        lines = ["tau,r_critical,bracket_width,method"]
        lines += [f"{p.tau},{p.r_critical:.17g},{p.bracket_width:.17g},{p.method}"
                  for p in table.points]
        lines.append(f"# monotone_decreasing={str(table.monotone_decreasing).lower()}")
        return lines
    return {"points": [{"tau": p.tau, "r_critical": p.r_critical,
                        "bracket_width": p.bracket_width, "method": p.method}
                       for p in table.points],
            "monotone_decreasing": table.monotone_decreasing}


def _cmd_tables(args: argparse.Namespace) -> dict | list[str]:
    taus = range(_TABLES_TAU_MAX + 1)
    trivial = [delay_map.trivial_stability_range(tau) for tau in taus]
    boundary = sweep.boundary_table(_TABLES_TAU_MAX)
    if args.format == "csv":
        lines = ["trivial fixed point: stable r range", "tau,r_min,r_max"]
        lines += [f"{tau},{lo:.6f},{hi:.6f}" for tau, (lo, hi) in zip(taus, trivial)]
        lines.append("")
        lines.append("nontrivial fixed point: stable for 0 < r < r_critical")
        lines.append("tau,r_critical")
        lines += [f"{p.tau},{p.r_critical:.6f}" for p in boundary.points]
        return lines
    return {
        "trivial": [{"tau": tau, "r_min": round(lo, 6), "r_max": round(hi, 6)}
                    for tau, (lo, hi) in zip(taus, trivial)],
        "nontrivial": [{"tau": p.tau, "r_critical": round(p.r_critical, 6)}
                       for p in boundary.points],
    }


def _cmd_jury(args: argparse.Namespace) -> dict | list[str]:
    p = polynomial.Polynomial(tuple(args.coeffs))
    normalized = polynomial.normalize_leading(p)
    verdict = jury.jury_verdict(normalized)
    payload: dict = {
        "coeffs": list(p.coeffs),
        "normalized_coeffs": list(normalized.coeffs),
        "verdict": _verdict_payload(verdict),
    }
    table = verdict.table  # None when the table was singular
    payload["table_rows"] = None if table is None else [list(row) for row in table.rows]
    payload["table_shifts"] = None if table is None else list(table.shifts)
    payload.update(_evidence_payload(verdict))
    return payload


def _cmd_discretize(args: argparse.Namespace) -> dict | list[str]:
    params = discretization.SchemeParams(r=args.r, K=args.K, h=args.h,
                                         scheme=args.scheme)
    at_zero, at_capacity = discretization.scheme_stability(params)
    return {
        "scheme": params.scheme, "r": params.r, "h": params.h, "K": params.K,
        "fixed_points": [
            {"x": 0.0, "derivative": at_zero.witness,
             "verdict": _verdict_payload(at_zero)},
            {"x": params.K, "derivative": at_capacity.witness,
             "verdict": _verdict_payload(at_capacity)},
        ],
    }


# each returns a JSON document (a dict) or the lines of a text report, and
# `run` alone turns either into bytes
_COMMANDS = {
    "simulate": _cmd_simulate,
    "stability": _cmd_stability,
    "boundary": _cmd_boundary,
    "tables": _cmd_tables,
    "jury": _cmd_jury,
    "discretize": _cmd_discretize,
}

_NUMERIC_ERRORS = (
    sweep.BracketingError,
    discretization.PoleError,
    ValueError,
)


def run(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
        result = _COMMANDS[args.command](args)
    except SystemExit:  # -h/--help has printed the help; bad usage raises UsageError
        return 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"delaylogistic: error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, dict):
        output = json.dumps(result, indent=2) + "\n"
    else:
        output = "\n".join(result) + "\n"
    if args.out is None:
        sys.stdout.write(output)
        return 0
    try:
        Path(args.out).write_text(output, encoding="utf-8")
    except OSError as exc:
        print(f"delaylogistic: error: cannot write {args.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
