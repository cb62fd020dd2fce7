import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

from delaylogistic import cli, jury, polynomial
from delaylogistic.delay_map import DelayParams, simulate, step


def _run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Output bytes pinned by SHA-256: a change to the reduction table, to the
# condition records or to the trajectory record must leave every one of
# them as it was. The tau=40 negative-rate table has rows whose interior is
# all -0.0; the last simulate run diverges to a nan, printed as null.
@pytest.mark.parametrize("argv,digest", [
    (["boundary", "--tau-max", "30", "--format", "json"],
     "7e0c477509cef254f25a3017e45ba4966af46f85d095d78e6148c55312dbbebd"),
    (["boundary", "--tau-max", "30", "--format", "csv"],
     "ca918fad2f23de03d019499b58769993105aa21351340dbb4484662841be6114"),
    (["stability", "--tau", "40", "--r", "-0.05", "--point", "nontrivial"],
     "691d539101023254e8b2f447dd83551e86027d8e3b90fa67573de5ba607da513"),
    (["stability", "--tau", "17", "--r", "0.05", "--point", "nontrivial"],
     "fd14fbfdbee62b64c5bf3b4430cb8ccc35c0070ba30067ea83aadd452fcda020"),
    (["jury", "--coeffs", "1,-1,0,0,0,0,-0.3"],
     "5880a4cf961b613410f0a280e2bda4b25ca60f2ff324506f0115c7bfe71c8099"),
    (["simulate", "--r", "0.106", "--K", "2800", "--tau", "17", "--x0", "1400",
      "--steps", "2000"],
     "8c5292a6ba465eafcd4c7cae2e1b93f076b2128e2a17f3cf49f233172922245e"),
    (["simulate", "--r", "0.5", "--K", "1", "--tau", "1", "--history", "0.5,0.8",
      "--steps", "10", "--format", "json"],
     "bd39c98dadf41608d41ec0e2e3e523715a68f1f09cdb8ab7a1afc00194d4a395"),
    (["simulate", "--r", "1e308", "--K", "1", "--tau", "2", "--history", "1,-3,1e300",
      "--steps", "5", "--format", "json"],
     "c735d3fde39379c35d27138bc337e5cbc7d53260a4cae195f065f9f9b3600edc"),
])
def test_golden_output_bytes(capsys, argv, digest):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_boundary_json_reproduces_thresholds(capsys):
    code, out, err = _run(capsys, ["boundary", "--tau-max", "3"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    values = {p["tau"]: p["r_critical"] for p in payload["points"]}
    assert values[0] == pytest.approx(2.0, abs=1e-5)
    assert values[1] == pytest.approx(1.0, abs=1e-5)
    assert values[2] == pytest.approx(0.618034, abs=1e-5)
    assert values[3] == pytest.approx(0.445042, abs=1e-5)
    assert payload["monotone_decreasing"] is True
    assert all(p["method"] == "jury" for p in payload["points"])
    assert all(p["bracket_width"] <= 1e-10 for p in payload["points"])


def _env_with_package() -> dict[str, str]:
    """The environment for a fresh interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_boundary_tol_below_float_spacing_stops_at_adjacent_doubles():
    # a bisection that cannot meet its tol would never return, so it runs
    # in a child that the timeout kills, failing instead of hanging
    proc = subprocess.run([sys.executable, "-m", "delaylogistic.cli", "boundary",
                           "--tau-max", "3", "--tol", "1e-300"],
                          capture_output=True, text=True, env=_env_with_package(),
                          timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    points = json.loads(proc.stdout)["points"]
    assert [p["tau"] for p in points] == [0, 1, 2, 3]
    for p in points:
        assert p["bracket_width"] == math.ulp(p["r_critical"]), p


def test_boundary_csv_format(capsys):
    code, out, _ = _run(capsys, ["boundary", "--tau-max", "1", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tau,r_critical,bracket_width,method"
    assert lines[1].startswith("0,")
    assert lines[-1] == "# monotone_decreasing=true"


def test_identical_argv_gives_identical_bytes(capsys):
    argv = ["boundary", "--tau-max", "2", "--tol", "1e-8"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    argv = ["simulate", "--r", "1.9", "--K", "1", "--tau", "1",
            "--x0", "0.37", "--steps", "64"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_simulate_csv_roundtrip_reverifies_against_the_map(capsys):
    code, out, _ = _run(capsys, ["simulate", "--r", "0.3", "--K", "2.5",
                                 "--tau", "3", "--x0", "1.1", "--steps", "50"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step,x"
    rows = [(int(s), float(x)) for s, x in (line.split(",") for line in lines[1:])]
    assert [n for n, _ in rows[:4]] == [-3, -2, -1, 0]
    assert rows[-1][0] == 50
    params = DelayParams(r=0.3, K=2.5, tau=3)
    state = tuple(x for _, x in rows[:4])
    for _, expected in rows[4:]:
        state = step(params, state)
        assert state[-1] == expected  # lossless 17-digit round trip


def test_simulate_frozen_when_rate_is_zero(capsys):
    code, out, _ = _run(capsys, ["simulate", "--r", "0", "--K", "1",
                                 "--tau", "2", "--x0", "0.3", "--steps", "5"])
    assert code == 0
    values = {float(line.split(",")[1]) for line in out.splitlines()[1:]}
    assert values == {0.3}


def test_simulate_json_carries_divergence_flag(capsys):
    code, out, _ = _run(capsys, ["simulate", "--r", "3", "--K", "1", "--tau", "1",
                                 "--x0", "0.5", "--steps", "100", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["diverged"] is True
    assert payload["samples"][0] == {"step": -1, "x": 0.5}


def test_simulate_explicit_history(capsys):
    code, out, _ = _run(capsys, ["simulate", "--r", "0.5", "--K", "1", "--tau", "1",
                                 "--history", "0.5,0.8", "--steps", "1"])
    assert code == 0
    assert out.splitlines()[-1] == "1,1"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("r, K, tau, seeding, steps", [
    ("0.106", "2800", 17, ["--x0", "1400"], 300),
    ("0.3", "2.5", 3, ["--x0", "1.1"], 0),
    ("0.3", "2.5", 2, ["--history", "-0.0,0.0,-0.0"], 5),
    ("0.5", "1", 1, ["--history", "0.5,0.8"], 10),
    ("1e308", "1", 0, ["--x0", "2"], 5),  # ends in -inf
    ("1e308", "1", 2, ["--history", "2,-3,1e300"], 5),  # ends in -inf
    ("1e308", "1", 2, ["--history", "1,-3,1e300"], 5),  # ends in nan
])
def test_simulate_output_is_what_the_plain_encoders_write(capsys, fmt, r, K, tau,
                                                          seeding, steps):
    argv = ["simulate", "--r", r, "--K", K, "--tau", str(tau), *seeding,
            "--steps", str(steps), "--format", fmt]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    params = DelayParams(r=float(r), K=float(K), tau=tau)
    init = ([float(v) for v in seeding[1].split(",")] if seeding[0] == "--history"
            else [float(seeding[1])] * (tau + 1))
    trajectory = simulate(params, init, steps)
    samples = list(enumerate(trajectory.values, -tau))
    if fmt == "csv":
        lines = ["step,x"] + [f"{n},{x:.17g}" for n, x in samples]
        assert out == "\n".join(lines) + "\n"
    else:
        # strict JSON: the non-finite sample that ends a diverged run is null
        assert out == json.dumps({
            "r": params.r, "K": params.K, "tau": params.tau,
            "diverged": trajectory.diverged,
            "samples": [{"step": n, "x": x if math.isfinite(x) else None}
                        for n, x in samples],
        }, indent=2, allow_nan=False) + "\n"
        json.loads(out, parse_constant=_reject_non_finite)


def _reject_non_finite(name):
    raise ValueError(f"not strict JSON: {name}")


def test_simulate_history_length_mismatch_is_usage_error(capsys):
    code, _, err = _run(capsys, ["simulate", "--r", "0.5", "--K", "1", "--tau", "2",
                                 "--history", "0.5,0.8", "--steps", "1"])
    assert code == 1
    assert "tau + 1" in err


def test_simulate_needs_exactly_one_seeding_flag(capsys):
    base = ["simulate", "--r", "0.5", "--K", "1", "--tau", "1", "--steps", "1"]
    assert _run(capsys, base)[0] == 1
    assert _run(capsys, base + ["--x0", "0.2", "--history", "0.1,0.2"])[0] == 1


def test_tables_report_contains_six_decimal_thresholds(capsys):
    code, out, _ = _run(capsys, ["tables"])
    assert code == 0
    for needle in ("2.000000", "1.000000", "0.618034", "0.445042"):
        assert needle in out
    assert out.count("-2.000000") == 6  # delays 0..5 share the trivial range


def test_tables_json_variant(capsys):
    code, out, _ = _run(capsys, ["tables", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [row["tau"] for row in payload["trivial"]] == [0, 1, 2, 3, 4, 5]
    assert all(row["r_min"] == -2.0 and row["r_max"] == 0.0
               for row in payload["trivial"])
    assert payload["nontrivial"][2]["r_critical"] == 0.618034


def test_stability_trivial_point_is_stable_at_negative_rate(capsys):
    code, out, _ = _run(capsys, ["stability", "--tau", "4", "--r", "-1",
                                 "--point", "trivial"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["status"] == "stable"
    assert payload["char_poly"] == [1.0, -0.0, 0.0, 0.0, 0.0, 0.0]


def test_stability_jury_payload_lists_conditions(capsys):
    code, out, _ = _run(capsys, ["stability", "--tau", "1", "--r", "0.5",
                                 "--point", "nontrivial"])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == {"status": "stable", "witness": None,
                                  "method": "jury"}
    assert [c["index"] for c in payload["conditions"]] == [1, 2, 3]
    assert all(c["satisfied"] for c in payload["conditions"])


def test_stability_long_delay_is_decided_by_the_table(capsys):
    code, out, _ = _run(capsys, ["stability", "--tau", "20", "--r", "0.05",
                                 "--point", "nontrivial"])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == {"status": "stable", "witness": None,
                                  "method": "jury"}
    assert len(payload["conditions"]) == 22
    assert "root_moduli" not in payload


def test_stability_oracle_payload_lists_root_moduli(capsys):
    code, out, _ = _run(capsys, ["stability", "--tau", "2", "--r", "0.7",
                                 "--point", "nontrivial", "--method", "oracle"])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"]["status"] == "unstable"
    moduli = payload["root_moduli"]
    assert moduli == sorted(moduli, reverse=True)
    assert moduli[0] > 1.0


def test_stability_oracle_payload_shows_the_root_residual(capsys):
    code, out, _ = _run(capsys, ["stability", "--method", "oracle", "--tau", "2",
                                 "--r", "0.5", "--point", "nontrivial"])
    payload = json.loads(out)
    assert code == 0
    assert list(payload)[-2:] == ["root_moduli", "root_residual"]
    assert 0.0 <= payload["root_residual"] <= 1e-12


def test_root_residual_that_overflows_is_null(capsys):
    # singular tables whose |P(root)| overflows: to nan for roots that span
    # 1e295, which strict JSON cannot hold, and, for the second input, to a
    # modulus past the largest double, where abs() of the finite complex
    # value raises OverflowError
    for coeffs in ("-1e9,1e238,1e295,0,0,0",
                   "-3.577118588599464e+199,1.0789394941118804e-200,0,"
                   "1.267842439400661e-300,1.2167013899152557,0,0,0,0,"
                   "-1.465630494362098e+300,8.530112605216762e+199,0"):
        code, out, err = _run(capsys, ["jury", f"--coeffs={coeffs}"])
        assert (code, err) == (0, ""), coeffs
        payload = json.loads(out, parse_constant=_reject_non_finite)
        assert payload["verdict"]["method"] == "oracle"
        assert payload["root_residual"] is None


def test_root_residual_flags_roots_the_oracle_lost():
    # two roots of modulus ~1 come out as 0 next to the one at 1e308; the
    # residual is the only sign of it
    verdict = jury.oracle_verdict(polynomial.Polynomial((1.0, 1e308, 0.0, 1e308)))
    evidence = cli._evidence_payload(verdict)
    assert evidence["root_moduli"] == [1e308, 0.0, 0.0]
    assert evidence["root_residual"] == 1e308


def test_jury_subcommand_full_payload(capsys):
    code, out, _ = _run(capsys, ["jury", "--coeffs", "1,-1,0,0.5"])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"]["status"] == "stable"
    assert payload["table_rows"] == [[1.0, -1.0, 0.0, 0.5], [-0.5, 1.0, -0.75]]
    assert len(payload["conditions"]) == 4


def test_jury_subcommand_low_degree_table_is_the_input_row(capsys):
    code, out, _ = _run(capsys, ["jury", "--coeffs", "1,0.999"])
    payload = json.loads(out)
    assert code == 0
    assert payload["table_rows"] == [[1.0, 0.999]]
    assert payload["table_shifts"] == [0]
    assert payload["verdict"]["status"] == "stable"


def test_jury_subcommand_singular_table_notes_fallback(capsys):
    code, out, _ = _run(capsys, ["jury", "--coeffs", "1,1,0,0,1.25,0.5"])
    payload = json.loads(out)
    assert code == 0
    assert payload["table_rows"] is None
    assert payload["table_shifts"] is None
    assert "singular" in payload["note"]
    assert payload["verdict"]["method"] == "oracle"
    assert "root_moduli" in payload


@pytest.mark.parametrize("coeffs, note", [
    # the input row is scaled by 2**-664, which takes 1e-300 to 0: the note
    # quotes the coefficient as given
    ("1,1e200,0,1e-300", "singular table: input row ends in 1.000e-300"),
    # reduced row 1 is scaled by 2**465 and ends in an exact 0
    ("1e-70,2e-70,3e-70,4e-70,1e-70",
     "singular table: reduced row 1 ends in 0.000e+00 (row scaled by 2**465)"),
    # no row is rescaled: the note is as it always was
    ("1,1,0,0,1.25,0.5", "singular table: reduced row 2 ends in 0.000e+00"),
], ids=["input-row", "rescaled-reduced-row", "reduced-row"])
def test_singular_note_is_in_the_input_units(capsys, coeffs, note):
    code, out, _ = _run(capsys, ["jury", "--coeffs", coeffs])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"]["method"] == "oracle"
    assert payload["note"] == f"{note}; verdict taken from the root oracle"


def test_jury_payload_carries_the_row_shifts(capsys):
    # tau = 30 delay polynomial at half its threshold: row 19 is scaled by
    # 2**503, and the payload alone recomputes it from row 18
    r = 2.0 * math.sin(math.pi / 122.0) * 0.5
    coeffs = (1.0, -1.0) + (0.0,) * 29 + (r,)
    code, out, _ = _run(capsys, ["jury", "--coeffs", ",".join(map(repr, coeffs))])
    payload = json.loads(out)
    assert code == 0
    rows, shifts = payload["table_rows"], payload["table_shifts"]
    assert len(shifts) == len(rows) == 30
    assert [i for i, shift in enumerate(shifts) if shift] == [19]
    assert shifts[19] == 503
    row = rows[18]
    m = len(row) - 1
    assert rows[19] == [math.ldexp(row[m] * row[k + 1] - row[m - 1 - k] * row[0], 503)
                        for k in range(m)]


def test_jury_overflowing_root_oracle_is_numeric_failure(capsys):
    # the singular table sends this to the oracle, whose monic coefficients
    # overflow: exit 2 and no output, not a NaN witness, and the message
    # names the input and the cause before numpy can warn
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["jury", "--coeffs", "1e-310,1,0,0"])
    assert code == 2
    assert out == ""
    assert "error" in err
    assert "(1e-310, 1.0, 0.0, 0.0)" in err and "overflows the monic form" in err
    assert [str(w.message) for w in caught] == []


def test_stability_notes_why_the_oracle_decided(capsys):
    code, out, _ = _run(capsys, ["stability", "--tau", "12", "--r", "-1",
                                 "--point", "trivial"])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"]["method"] == "oracle"
    assert payload["note"].startswith("singular table: input row")
    assert list(payload)[-3:] == ["note", "root_moduli", "root_residual"]
    for argv in (["stability", "--tau", "5", "--r", "0.2", "--point", "nontrivial"],
                 ["stability", "--tau", "12", "--r", "-1", "--point", "trivial",
                  "--method", "oracle"]):
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert "note" not in json.loads(out)


# One call of each command the reduction table decides; none calls numpy.
_TABLE_DECIDED_ARGV = [
    ["jury", "--coeffs", "1,-1,0,0.5"],
    ["stability", "--tau", "3", "--r", "0.3", "--point", "nontrivial"],
    ["boundary", "--tau-max", "5"],
    ["tables"],
    ["simulate", "--r", "0.5", "--K", "1", "--tau", "2", "--x0", "0.5", "--steps", "20"],
    ["discretize", "--scheme", "ratio", "--r", "1", "--h", "1", "--K", "1"],
]

_IN_FRESH_INTERPRETER = """
import contextlib, io, json, sys
from delaylogistic import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_table_decided_commands_start_without_numpy(capsys):
    # this process has numpy loaded already, so the check runs in fresh
    # interpreters: one that calls every command through cli.run, and the
    # `python -m` start that the benchmark times, logged by -X importtime
    env = _env_with_package()
    proc = subprocess.run([sys.executable, "-c", _IN_FRESH_INTERPRETER,
                           json.dumps(_TABLE_DECIDED_ARGV)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * len(_TABLE_DECIDED_ARGV),
                                       "numpy": False}

    argv = _TABLE_DECIDED_ARGV[0]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "delaylogistic.cli",
                           *argv], capture_output=True, text=True, env=env, timeout=60)
    code, out, _ = _run(capsys, argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "delaylogistic.jury" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []


def _count_calls(monkeypatch, names):
    """Count calls of the named package functions wherever they are looked up."""
    counts: Counter[str] = Counter()
    modules = [m for name, m in sys.modules.items()
               if m is not None and name.startswith("delaylogistic")]
    for owner, name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("argv, tables, roots", [
    (["jury", "--coeffs", "1,-1,0,0.5"], 1, 0),
    (["jury", "--coeffs", "1,1,0,0,1.25,0.5"], 1, 1),
    (["stability", "--tau", "5", "--r", "0.2", "--point", "nontrivial"], 1, 0),
    (["stability", "--tau", "12", "--r", "-1", "--point", "trivial"], 1, 1),
    (["stability", "--tau", "5", "--r", "0.2", "--point", "nontrivial",
      "--method", "oracle"], 0, 1),
], ids=["jury", "jury-singular", "stability", "stability-trivial",
        "stability-oracle"])
def test_each_query_builds_one_table_and_roots_once(capsys, monkeypatch, argv,
                                                    tables, roots):
    counts = _count_calls(monkeypatch, [(jury, "jury_table"),
                                        (polynomial, "roots")])
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert counts["jury_table"] == tables
    assert counts["roots"] == roots


def test_jury_degenerate_polynomial_is_numeric_failure(capsys):
    code, _, err = _run(capsys, ["jury", "--coeffs", "0,1,1"])
    assert code == 2
    assert "degenerate" in err


def test_discretize_payload(capsys):
    code, out, _ = _run(capsys, ["discretize", "--scheme", "forward",
                                 "--r", "1", "--h", "1", "--K", "1"])
    payload = json.loads(out)
    assert code == 0
    zero, capacity = payload["fixed_points"]
    assert zero["x"] == 0.0 and zero["verdict"]["status"] == "unstable"
    assert capacity["x"] == 1.0 and capacity["verdict"]["status"] == "stable"
    assert capacity["derivative"] == 0.0  # 1 - rh at r = h = 1


def test_discretize_ratio_large_rate_stays_stable(capsys):
    code, out, _ = _run(capsys, ["discretize", "--scheme", "ratio",
                                 "--r", "100", "--h", "1", "--K", "1"])
    payload = json.loads(out)
    assert payload["fixed_points"][1]["verdict"]["status"] == "stable"


@pytest.mark.parametrize("scheme", ["forward", "ratio"])
def test_discretize_payload_is_strict_json(capsys, scheme):
    for r, h in (("1", "1"), ("1e154", "1e154"), ("-3", "0.5")):
        code, out, _ = _run(capsys, ["discretize", "--scheme", scheme,
                                     "--r", r, "--h", h, "--K", "1"])
        assert code == 0
        json.loads(out, parse_constant=_reject_non_finite)


@pytest.mark.parametrize("scheme", ["forward", "ratio"])
def test_discretize_overflowing_rate_step_is_numeric_failure(capsys, scheme):
    code, out, err = _run(capsys, ["discretize", "--scheme", scheme,
                                   "--r", "1e308", "--h", "1e308", "--K", "1"])
    assert (code, out) == (2, "")
    assert err == "delaylogistic: error: r * h overflows: r=1e+308, h=1e+308\n"
    if scheme == "ratio":  # and the pole of f'(K) = 1 / (1 + rh)
        code, out, err = _run(capsys, ["discretize", "--scheme", scheme,
                                       "--r", "-1", "--h", "1", "--K", "1"])
        assert (code, out) == (2, "")
        assert err == "delaylogistic: error: ratio map degenerates at r*h = -1\n"


@pytest.mark.parametrize("argv", [
    [],
    ["jacobian"],
    ["boundary"],
    ["boundary", "--tau-max", "-1"],
    ["boundary", "--tau-max", "two"],
    ["simulate", "--r", "inf", "--K", "1", "--tau", "0", "--x0", "1", "--steps", "1"],
    ["stability", "--tau", "1", "--r", "0.5", "--point", "saddle"],
    ["tables", "--format", "yaml"],
    ["jury", "--coeffs", "-x"],
    ["jury", "--coeffs=1,,-0.5"],  # an empty list item is an error, not skipped
    ["jury", "--coeffs=1,2,"],
    ["jury", "--coeffs="],
    ["simulate", "--r", "0.5", "--K", "1", "--tau", "1", "--history", "0.5,,0.8",
     "--steps", "1"],
])
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err != ""


@pytest.mark.parametrize("argv, joined", [
    (["jury", "--coeffs", "-1,0.5"], ["jury", "--coeffs=-1,0.5"]),
    (["simulate", "--r", "0.5", "--K", "1", "--tau", "1", "--history", "-0.1,0.2",
      "--steps", "3"],
     ["simulate", "--r", "0.5", "--K", "1", "--tau", "1", "--history=-0.1,0.2",
      "--steps", "3"]),
    (["stability", "--tau", "2", "--r", "-0.5", "--point", "trivial"],
     ["stability", "--tau", "2", "--r=-0.5", "--point", "trivial"]),
    (["stability", "--tau", "2", "--r", "-1e-3", "--point", "trivial"],
     ["stability", "--tau", "2", "--r=-1e-3", "--point", "trivial"]),
])
def test_a_value_may_start_with_a_minus(capsys, argv, joined):
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert out == _run(capsys, joined)[1]


def test_out_flag_writes_file_and_keeps_stdout_clean(tmp_path, capsys):
    # every command takes --out, and the file holds exactly what stdout would
    for argv in (
        ["simulate", "--r", "0.5", "--K", "1", "--tau", "1", "--x0", "0.5",
         "--steps", "9", "--format", "json"],
        ["stability", "--tau", "2", "--r", "0.5", "--point", "nontrivial"],
        ["boundary", "--tau-max", "1", "--tol", "1e-6"],
        ["tables"],
        ["jury", "--coeffs", "1,-1,0,0.5"],
        ["discretize", "--scheme", "ratio", "--r", "2", "--h", "1", "--K", "1"],
    ):
        target = tmp_path / f"{argv[0]}.out"
        code, out, err = _run(capsys, argv + ["--out", str(target)])
        assert (code, out, err) == (0, "", "")
        assert target.read_bytes() == _run(capsys, argv)[1].encode("utf-8")


def test_out_path_that_cannot_be_written_exits_one(tmp_path, capsys):
    # a missing directory, and a directory in place of a file
    for target, reason in ((tmp_path / "missing_dir" / "x.csv", "No such file or directory"),
                           (tmp_path, "Is a directory")):
        code, out, err = _run(capsys, ["tables", "--out", str(target)])
        assert (code, out) == (1, "")
        assert err == f"delaylogistic: error: cannot write {target}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def test_readme_commands_run(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("delaylogistic ")]
    assert commands
    for argv in commands:
        code, _, err = _run(capsys, argv)
        assert (code, err) == (0, ""), argv


# One parser serves every call in a process: these make several calls in a
# row and check that none of them sees what an earlier one parsed.

def test_out_is_not_carried_to_the_next_call(tmp_path, capsys):
    argv = ["stability", "--tau", "2", "--r", "0.5", "--point", "nontrivial"]
    target = tmp_path / "first.json"
    assert _run(capsys, argv + ["--out", str(target)]) == (0, "", "")
    written = target.read_text(encoding="utf-8")
    target.unlink()
    assert _run(capsys, argv) == (0, written, "")
    assert list(tmp_path.iterdir()) == []


def test_seeding_flags_stay_exclusive_across_calls(capsys):
    base = ["simulate", "--r", "0.5", "--K", "1", "--tau", "1", "--steps", "3"]
    history, x0 = ["--history", "0.5,0.8"], ["--x0", "0.2"]
    code, from_history, _ = _run(capsys, base + history)
    assert code == 0 and from_history.startswith("step,x\n-1,0.5\n")
    code, from_x0, _ = _run(capsys, base + x0)
    assert code == 0
    assert from_x0 == _run(capsys, base + ["--history", "0.2,0.2"])[1] != from_history
    for seeding in (history, x0):
        assert _run(capsys, base + seeding)[0] == 0
        code, out, err = _run(capsys, base + history + x0)
        assert (code, out) == (1, "")
        assert "not allowed with argument" in err


def test_a_usage_error_leaves_the_next_call_untouched(capsys):
    argv = ["stability", "--tau", "2", "--r", "0.5", "--point", "nontrivial"]
    expected = _run(capsys, argv)
    assert expected[0] == 0 and json.loads(expected[1])["requested_method"] == "jury"
    # fails for want of --point, after --method has been read
    assert _run(capsys, argv[:-2] + ["--method", "oracle"])[0] == 1
    assert _run(capsys, ["jury", "--coeffs", "1,,2"])[0] == 1
    assert _run(capsys, argv) == expected


def test_help_returns_zero_and_leaves_the_next_call_untouched(tmp_path, capsys):
    # argparse prints the help and exits; run returns 0 instead, writes no
    # --out file, and the next call gives the same bytes as before
    expected = _run(capsys, ["tables"])
    assert expected[0] == 0
    target = tmp_path / "tables.csv"
    helps = []
    for argv in (["-h"], ["tables", "-h"], ["tables", "--out", str(target), "-h"]):
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, ""), argv
        helps.append(out)
        assert _run(capsys, ["tables"]) == expected
    assert helps[0] == cli._PARSER.format_help()
    assert helps[1].startswith("usage: delaylogistic tables [-h] [--format {csv,json}]")
    assert helps[2] == helps[1]
    assert list(tmp_path.iterdir()) == []


def test_format_default_returns_after_an_explicit_format(capsys):
    argv = ["boundary", "--tau-max", "1"]
    code, out, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0 and out.startswith("tau,r_critical")
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["points"][1]["tau"] == 1


def test_usage_text_matches_a_fresh_parser_after_many_calls(capsys, monkeypatch):
    bad = [[], ["simulate"], ["stability"], ["boundary"], ["tables", "--format", "yaml"],
           ["jury"], ["discretize"]]
    expected = []
    for argv in bad:
        with pytest.raises(cli.UsageError) as excinfo:
            cli._build_parser().parse_args(argv)
        expected.append(f"{excinfo.value}\n")

    def no_second_parser():
        raise AssertionError("run builds a parser per call")

    monkeypatch.setattr(cli, "_build_parser", no_second_parser)
    for argv in (["tables", "--format", "json"],
                 ["simulate", "--r", "0.5", "--K", "1", "--tau", "0", "--x0", "0.5",
                  "--steps", "2", "--format", "json"],
                 ["stability", "--tau", "1", "--r", "-0.5", "--point", "trivial",
                  "--method", "oracle"],
                 ["discretize", "--scheme", "ratio", "--r", "1", "--h", "2", "--K", "3"],
                 ["boundary", "--tau-max", "0", "--tol", "1e-6"]):
        assert _run(capsys, argv)[0] == 0
    for argv, usage in zip(bad, expected):
        assert _run(capsys, argv) == (1, "", usage)
        prog = " ".join(["delaylogistic", *argv[:1]])
        assert usage.startswith(f"{prog}: ") and f"usage: {prog} [-h]" in usage
