"""Command-line front end: stability queries, sweeps, simulations.

Every input is a flag (no config files, no environment), so a run is fully
reproducible from its argv. Exit codes: 0 success (``-h`` too), 1 usage
error (also an ``--out`` path that cannot be written), 2 numeric failure
(bracketing failure, degenerate or out-of-range input, such as an
``r * h`` that overflows in ``discretize``, or a ``jury`` input of degree 0
or with a zero leading coefficient).

Every `stability`, `jury` and `discretize` verdict comes from the reduction
table, which reads any polynomial of degree >= 1 (its trailing zeros
dropped), however widely its coefficients range; no command loads numpy.
A `jury` payload's `table_rows` and `table_shifts` are always the double
table, each row defined up to a positive factor; where the 60-digit
re-read gave the readings, the `conditions` records come from the 60-digit
table of the unrounded input instead.

The argument parser is built once per process, at import, and `run` keeps
no state between calls, so a process may call it any number of times. An
argv that starts with a command name is parsed by that command's parser
alone, as the top parser would hand it on.

Every JSON document is written by `_json`, byte for byte what
``json.dumps(value, indent=2)`` writes. json's own indenting encoder is
pure Python (its C encoder only writes unindented JSON) and took about a
third of the time of a small `stability` or `jury` query; `_json` joins
each container at C level instead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys

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
    parser.commands = sub.choices  # type: ignore[attr-defined]
    return parser


# argparse keeps nothing from one parse to the next (each parse fills a new
# namespace, and no default is mutable), so one parser serves every call
_PARSER = _build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, by the named command's parser alone."""
    command = _PARSER.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    # the top parser, which words the error for a word left over
    return _PARSER.parse_args(argv)


# json's spellings of the non-finite floats, keyed by float.__repr__
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_quote = json.encoder.encode_basestring_ascii


def _json(value, pad: str = "\n") -> str:
    """`value` as JSON, byte for byte what ``json.dumps(value, indent=2)``
    writes, where `pad` is the newline and indent of the line the value
    starts on. Dict keys must be str; a value of a type json would refuse
    raises TypeError.

    Each scalar and float list is one C-level call. A `json.JSONEncoder`
    call per container of scalars measured slower: its setup outweighs so few items.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    inner = pad + "  "
    separator = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:  # a list of floats, at C level; no finite repr holds an "n"
            text = separator.join(map(float.__repr__, value))
            if "n" in text:
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
        except TypeError:
            text = separator.join([_json(item, inner) for item in value])
        return "[" + inner + text + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + separator.join([_quote(key) + ": " + _json(item, inner)
                                              for key, item in value.items()]) + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _verdict_payload(verdict: jury.StabilityVerdict) -> dict:
    return {"status": verdict.status, "witness": verdict.witness,
            "method": verdict.method}


def _evidence_payload(verdict: jury.StabilityVerdict) -> dict:
    """What the verdict rests on: the radius of its table's run and the
    conditions read off that table."""
    return {"radius": verdict.table.radius,
            "conditions": jury.jury_conditions(verdict.table)}


# one sample of each trajectory format, as a %-template of its step and x:
# %.17g round-trips every double, and %r of a float is what json.dumps writes
_CSV_SAMPLE = "%d,%.17g"
_JSON_SAMPLE = '    {\n      "step": %d,\n      "x": %r\n    }'
# the non-finite sample that can end a diverged run, so the JSON stays strict
_JSON_NULL_SAMPLE = _JSON_SAMPLE.replace("%r", "null")


def _render_samples(trajectory: delay_map.Trajectory, sample: str, separator: str,
                    null_sample: str | None = None) -> str:
    """Every sample of the run by the template `sample`, between
    `separator`s, in one C-level format. With `null_sample`, a non-finite
    last sample is rendered by it from its step alone; only the last sample
    of a run can be non-finite.

    The run of equal values that ends the record, which is most of a run
    that settles, has its x formatted once, into the template, so that
    tail formats only its steps; the head before it goes by (step, x)
    pairs.
    """
    values = trajectory.values
    n = len(values)
    x = values[-1]
    if null_sample is not None and not math.isfinite(x):
        last = null_sample
    else:  # the step conversion, escaped, outlives formatting x in
        last = sample.replace("%d", "%%d") % x
    # == takes -0.0 for 0.0, so a zero tail is only its last sample
    tail = (len(list(next(itertools.groupby(reversed(values)))[1]))
            if x and math.isfinite(x) else 1)
    head = n - tail
    first = trajectory.first_step
    flat: list = [0] * (2 * head)
    flat[::2] = range(first, first + head)
    flat[1::2] = values[:head]
    flat += range(first + head, first + n)
    return ((sample + separator) * head + (last + separator) * (tail - 1)
            + last) % tuple(flat)


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
    if args.format == "csv":
        return ["step,x", _render_samples(trajectory, _CSV_SAMPLE, "\n")]
    # the samples are nearly all of the document, so they are rendered in
    # one format, laid out exactly as json.dumps(indent=2) lays them out,
    # inside a frame that `_json` renders around one placeholder sample
    head, tail = _json({
        "r": params.r, "K": params.K, "tau": params.tau,
        "diverged": trajectory.diverged,
        "samples": [0],
    }).split("\n    0\n")
    body = _render_samples(trajectory, _JSON_SAMPLE, ",\n", _JSON_NULL_SAMPLE)
    return [head, body, tail]


def _cmd_stability(args: argparse.Namespace) -> dict | list[str]:
    p = delay_map.char_poly(args.tau, args.r, args.point)
    verdict = jury.jury_verdict(p)
    payload: dict = {
        "tau": args.tau, "r": args.r, "point": args.point,
        "char_poly": p.coeffs,
        "verdict": _verdict_payload(verdict),
    }
    payload.update(_evidence_payload(verdict))
    return payload


def _cmd_boundary(args: argparse.Namespace) -> dict | list[str]:
    table = sweep.boundary_table(args.tau_max, tol=args.tol)
    if args.format == "csv":
        lines = ["tau,r_critical,bracket_width,method"]
        lines += [f"{p.tau},{p.r_critical:.17g},{p.bracket_width:.17g},{jury.JURY}"
                  for p in table.points]
        lines.append(f"# monotone_decreasing={str(table.monotone_decreasing).lower()}")
        return lines
    return {"points": [{"tau": p.tau, "r_critical": p.r_critical,
                        "bracket_width": p.bracket_width, "method": jury.JURY}
                       for p in table.points],
            "monotone_decreasing": table.monotone_decreasing}


def _cmd_tables(args: argparse.Namespace) -> dict | list[str]:
    taus = range(_TABLES_TAU_MAX + 1)
    lo, hi = delay_map.TRIVIAL_STABLE_RATES  # the same at every delay
    boundary = sweep.boundary_table(_TABLES_TAU_MAX)
    if args.format == "csv":
        lines = ["trivial fixed point: stable r range", "tau,r_min,r_max"]
        lines += [f"{tau},{lo:.6f},{hi:.6f}" for tau in taus]
        lines.append("")
        lines.append("nontrivial fixed point: stable for 0 < r < r_critical")
        lines.append("tau,r_critical")
        lines += [f"{p.tau},{p.r_critical:.6f}" for p in boundary.points]
        return lines
    return {
        "trivial": [{"tau": tau, "r_min": round(lo, 6), "r_max": round(hi, 6)}
                    for tau in taus],
        "nontrivial": [{"tau": p.tau, "r_critical": round(p.r_critical, 6)}
                       for p in boundary.points],
    }


def _cmd_jury(args: argparse.Namespace) -> dict | list[str]:
    p = polynomial.Polynomial(tuple(args.coeffs))
    normalized = polynomial.normalize_leading(p)
    verdict = jury.jury_verdict(normalized)
    payload: dict = {
        "coeffs": p.coeffs,
        "normalized_coeffs": normalized.coeffs,
        "verdict": _verdict_payload(verdict),
        "table_rows": verdict.table.rows,
        "table_shifts": verdict.table.shifts,
    }
    payload.update(_evidence_payload(verdict))
    return payload


def _cmd_discretize(args: argparse.Namespace) -> dict | list[str]:
    params = discretization.SchemeParams(r=args.r, K=args.K, h=args.h,
                                         scheme=args.scheme)
    derivatives = discretization.fixed_point_derivatives(params)
    verdicts = discretization.scheme_stability(derivatives)
    return {
        "scheme": params.scheme, "r": params.r, "h": params.h, "K": params.K,
        "fixed_points": [
            {"x": x, "derivative": derivative, "verdict": _verdict_payload(verdict)}
            for x, derivative, verdict in zip((0.0, params.K), derivatives, verdicts)
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

def run(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    try:
        args = _parse(argv)
        result = _COMMANDS[args.command](args)
    except SystemExit:  # -h/--help has printed the help; bad usage raises UsageError
        return 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:  # BracketingError and PoleError too
        print(f"delaylogistic: error: {exc}", file=sys.stderr)
        return 2
    lines = [_json(result)] if isinstance(result, dict) else result
    output = "\n".join([*lines, ""])  # one copy of a document that may run to MBs
    if args.out is None:
        sys.stdout.write(output)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    except OSError as exc:
        print(f"delaylogistic: error: cannot write {args.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
