"""Reference answers for the benchmark, sharing no code with delaylogistic.

Each oracle is derived from the mathematics, not from the package:

- the stability threshold of the capacity point has the closed form
  ``f(tau) = 2 sin(pi / (2 (2 tau + 1)))`` (Levin & May 1976,
  Theor. Pop. Biol. 9:178);
- the zero point is stable exactly for ``-2 < r < 0`` at every delay;
- a ``jury --coeffs`` verdict is read off the root moduli from
  ``numpy.roots``;
- a trajectory is the plain recurrence ``x + r*x*(1 - x_old/K)`` over
  its last tau + 1 samples, formatted as the CLI documents its CSV and
  JSON output and compared by SHA-256 digest.

Every ``check_*`` function takes a command's stdout and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
from typing import Callable, Iterable, Iterator

import numpy as np

THRESHOLD_TOL = 1e-9
UNDECIDABLE_BAND = 1e-9
DIVERGENCE_FACTOR = 1e12

STABLE = "stable"
UNSTABLE = "unstable"


def closed_form_threshold(tau: int) -> float:
    return 2.0 * math.sin(math.pi / (2.0 * (2 * tau + 1)))


def nontrivial_status(tau: int, r: float) -> str:
    return STABLE if 0.0 < r < closed_form_threshold(tau) else UNSTABLE


def trivial_status(r: float) -> str:
    return STABLE if -2.0 < r < 0.0 else UNSTABLE


def coeffs_status(coeffs: list[float]) -> str | None:
    """Verdict from the largest root modulus; None inside the undecidable band."""
    rho = float(np.max(np.abs(np.roots(coeffs))))
    if abs(rho - 1.0) <= UNDECIDABLE_BAND:
        return None
    return STABLE if rho < 1.0 else UNSTABLE


def trajectory(r: float, K: float, tau: int, x0: float, steps: int) -> Iterator[float]:
    """Samples for steps -tau..steps; raises if the run would diverge.

    Only the last tau + 1 samples are kept, so a long reference costs no
    memory that would show in the benchmark's peak RSS.
    """
    history = collections.deque([x0] * (tau + 1), maxlen=tau + 1)
    yield from history
    limit = DIVERGENCE_FACTOR * K
    for _ in range(steps):
        x = history[-1]
        x_new = x + r * x * (1.0 - history[0] / K)
        if not math.isfinite(x_new) or abs(x_new) > limit:
            raise ValueError(f"reference trajectory diverges (r={r}, tau={tau})")
        history.append(x_new)
        yield x_new


def trajectory_chunks(r: float, K: float, tau: int, x0: float, steps: int,
                      fmt: str) -> Iterator[str]:
    """The CLI's CSV or JSON trajectory output, one sample per chunk."""
    samples = enumerate(trajectory(r, K, tau, x0, steps), start=-tau)
    if fmt == "csv":
        yield "step,x\n"
        for n, x in samples:
            yield f"{n},{x:.17g}\n"
        return
    # json.dumps(..., indent=2) around one placeholder sample gives the frame
    head, tail = json.dumps({"r": r, "K": K, "tau": tau, "diverged": False,
                             "samples": [0]}, indent=2).split("\n    0\n")
    sep = head + "\n"
    for n, x in samples:
        yield f'{sep}    {{\n      "step": {n!r},\n      "x": {x!r}\n    }}'
        sep = ",\n"
    yield "\n" + tail + "\n"


def trajectory_csv(r: float, K: float, tau: int, x0: float, steps: int) -> str:
    return "".join(trajectory_chunks(r, K, tau, x0, steps, "csv"))


def trajectory_json(r: float, K: float, tau: int, x0: float, steps: int) -> str:
    return "".join(trajectory_chunks(r, K, tau, x0, steps, "json"))


def digest(chunks: Iterable[str]) -> bytes:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return h.digest()


def text_digest(text: str, chunk: int = 1 << 16) -> bytes:
    """`digest` of a long string, encoded a slice at a time."""
    return digest(text[i:i + chunk] for i in range(0, len(text), chunk))


def parse_boundary(out: str, fmt: str) -> tuple[list[tuple[int, float]], bool]:
    """(tau, r_critical) pairs and the monotone flag from `boundary` output."""
    if fmt == "json":
        doc = json.loads(out)
        points = [(int(p["tau"]), float(p["r_critical"])) for p in doc["points"]]
        return points, doc["monotone_decreasing"] is True
    lines = out.splitlines()
    if not lines or lines[0] != "tau,r_critical,bracket_width,method":
        raise ValueError("unexpected CSV header")
    points = [(int(line.split(",")[0]), float(line.split(",")[1]))
              for line in lines[1:] if not line.startswith("#")]
    return points, lines[-1] == "# monotone_decreasing=true"


PARSE_ERRORS = (ValueError, KeyError, TypeError, IndexError)


def max_threshold_error(out: str, fmt: str) -> float | None:
    """Largest |r_critical - f(tau)| in `boundary` output, NaN read as inf.

    None when the output does not parse or holds no threshold.
    """
    try:
        points, _ = parse_boundary(out, fmt)
    except PARSE_ERRORS:
        return None
    errors = (abs(r - closed_form_threshold(tau)) for tau, r in points)
    return max((math.inf if math.isnan(e) else e for e in errors), default=None)


def check_boundary(out: str, fmt: str, tau_max: int) -> list[str]:
    try:
        points, monotone = parse_boundary(out, fmt)
    except PARSE_ERRORS as exc:
        return [f"unparseable boundary output: {exc}"]
    problems = []
    if [tau for tau, _ in points] != list(range(tau_max + 1)):
        problems.append(f"taus are not 0..{tau_max}")
    for tau, r in points:
        err = abs(r - closed_form_threshold(tau))
        if not err <= THRESHOLD_TOL:
            problems.append(f"tau={tau}: r_critical {r!r} is {err:.3e} off the closed form")
    if not monotone:
        problems.append("monotone_decreasing is false")
    return problems


def check_status(out: str, expected: str | None) -> list[str]:
    """Compare the verdict status; ``expected=None`` only checks the shape."""
    try:
        status = json.loads(out)["verdict"]["status"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable verdict output: {exc}"]
    if expected is not None and status != expected:
        return [f"verdict {status!r}, oracle says {expected!r}"]
    return []


def check_exact(out: str, expected: bytes, reference: Callable[[], str]) -> list[str]:
    """Compare `out` with the reference by its `digest`; the reference text is
    rebuilt only on a mismatch, to locate the first differing character."""
    if text_digest(out) == expected:
        return []
    expected = reference()
    at = next((i for i, (a, b) in enumerate(zip(out, expected)) if a != b),
              min(len(out), len(expected)))
    return [f"output differs from the reference at character {at}"]


def self_test() -> list[str]:
    """Feed the checkers known-bad outputs; returns what they failed to catch.

    Each case is first checked unperturbed (it must pass), then with one
    defect: a threshold shifted by 1e-6 (which must also read as a max
    threshold error of 1e-6), a flipped verdict, and one trajectory sample
    moved by one ulp. The streamed JSON reference is compared with
    `json.dumps` of the whole document.
    """
    missed = []

    tau_max = 4
    rows = [f"{tau},{closed_form_threshold(tau)!r},1e-10,jury" for tau in range(tau_max + 1)]
    good = "\n".join(["tau,r_critical,bracket_width,method", *rows,
                      "# monotone_decreasing=true"]) + "\n"
    shifted_r = closed_form_threshold(2) + 1e-6
    bad = good.replace(f"2,{closed_form_threshold(2)!r},", f"2,{shifted_r!r},")
    if check_boundary(good, "csv", tau_max):
        missed.append("a correct boundary table was rejected")
    if not check_boundary(bad, "csv", tau_max):
        missed.append("a threshold shifted by 1e-6 passed")

    expected = nontrivial_status(5, 0.1)
    flipped = UNSTABLE if expected == STABLE else STABLE
    if check_status(json.dumps({"verdict": {"status": expected}}), expected):
        missed.append("a correct verdict was rejected")
    if not check_status(json.dumps({"verdict": {"status": flipped}}), expected):
        missed.append("a flipped verdict passed")

    max_err = max_threshold_error(bad, "csv")
    if max_err is None or not max_err >= 1e-6 * (1 - 1e-6):
        missed.append(f"the 1e-6 shift read as a max threshold error of {max_err}")

    args = (0.106, 2800.0, 17, 1400.0, 300)
    reference = trajectory_csv(*args)
    expected = text_digest(reference)
    xs = list(trajectory(*args))
    lines = reference.splitlines(keepends=True)
    k = len(lines) // 2
    step = lines[k].split(",")[0]
    lines[k] = f"{step},{math.nextafter(xs[k - 1], math.inf):.17g}\n"
    if check_exact(reference, expected, lambda: reference):
        missed.append("a correct trajectory was rejected")
    if not check_exact("".join(lines), expected, lambda: reference):
        missed.append("a trajectory with one ulp changed passed")
    plain_json = json.dumps({"r": args[0], "K": args[1], "tau": args[2], "diverged": False,
                             "samples": [{"step": n - args[2], "x": x}
                                         for n, x in enumerate(xs)]}, indent=2) + "\n"
    if trajectory_json(*args) != plain_json:
        missed.append("the streamed JSON trajectory differs from json.dumps")
    return missed
