import json
import math
import re
import shlex
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
    ("1e308", "1", 0, ["--x0", "2"], 5),  # ends in -Infinity
    ("1e308", "1", 2, ["--history", "2,-3,1e300"], 5),  # ends in -Infinity
    ("1e308", "1", 2, ["--history", "1,-3,1e300"], 5),  # ends in NaN
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
    if fmt == "csv":
        lines = ["step,x"] + [f"{n},{x:.17g}" for n, x in trajectory.samples]
        assert out == "\n".join(lines) + "\n"
    else:
        assert out == json.dumps({
            "r": params.r, "K": params.K, "tau": params.tau,
            "diverged": trajectory.diverged,
            "samples": [{"step": n, "x": x} for n, x in trajectory.samples],
        }, indent=2) + "\n"


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
    assert list(payload)[-2:] == ["note", "root_moduli"]
    for argv in (["stability", "--tau", "5", "--r", "0.2", "--point", "nontrivial"],
                 ["stability", "--tau", "12", "--r", "-1", "--point", "trivial",
                  "--method", "oracle"]):
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert "note" not in json.loads(out)


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


def test_readme_commands_run(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("delaylogistic ")]
    assert commands
    for argv in commands:
        code, _, err = _run(capsys, argv)
        assert (code, err) == (0, ""), argv
