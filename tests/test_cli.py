import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from collections import Counter
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaylogistic import cli, discretization, jury, polynomial, sweep
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
     "12c5f3f967426aa4e3b269acd6b43a7cf98ea49fa573d3ecaefedcbf5248289b"),
    (["boundary", "--tau-max", "30", "--format", "csv"],
     "e822d0a6ec0aeec22c6db4fca6adb5fe793fa2a22187a353f845fa885c79f10c"),
    (["stability", "--tau", "40", "--r", "-0.05", "--point", "nontrivial"],
     "821c9b14b273042e15c1c57a12cb96983e75f5e5d5b025ddef456afe01015795"),
    (["stability", "--tau", "17", "--r", "0.05", "--point", "nontrivial"],
     "2d748f29c710154aede0bc4dfd14c9f3507b34bc98a73b5f299a3aa44ab74100"),
    (["jury", "--coeffs", "1,-1,0,0,0,0,-0.3"],
     "d0c564f29e962d93af624dec7caa7399fac9e21fa42db13a0f394de39c7954c9"),
    (["simulate", "--r", "0.106", "--K", "2800", "--tau", "17", "--x0", "1400",
      "--steps", "2000"],
     "8c5292a6ba465eafcd4c7cae2e1b93f076b2128e2a17f3cf49f233172922245e"),
    (["simulate", "--r", "0.5", "--K", "1", "--tau", "1", "--history", "0.5,0.8",
      "--steps", "10", "--format", "json"],
     "bd39c98dadf41608d41ec0e2e3e523715a68f1f09cdb8ab7a1afc00194d4a395"),
    (["simulate", "--r", "1e308", "--K", "1", "--tau", "2", "--history", "1,-3,1e300",
      "--steps", "5", "--format", "json"],
     "c735d3fde39379c35d27138bc337e5cbc7d53260a4cae195f065f9f9b3600edc"),
    # DIVERGENCE_FACTOR * K overflows here; the run still stops at its -inf
    (["simulate", "--r", "1e10", "--K", "1e299", "--tau", "0", "--x0", "1e298",
      "--steps", "20", "--format", "json"],
     "1a885b20257f2d382cc2008a6586cfa4dba29bcb58dcc4283567c308f92318b1"),
    # the two trajectories of the benchmark's simulate workload, at x0 = 1400
    (["simulate", "--r", "0.106", "--K", "2800", "--tau", "17", "--x0", "1400",
      "--steps", "200000"],
     "1389ad5470a77faa6919372c1f9c2674a1ae1aec3db4543d8577e54c030e8539"),
    (["simulate", "--r", "0.005", "--K", "2800", "--tau", "200", "--x0", "1400",
      "--steps", "50000", "--format", "json"],
     "266ff19047b6479d25248b8592716d7dd5c8b29d4999ab1a2c8173e619320e3f"),
    # the payload shapes below were pinned from the json.dumps(indent=2)
    # output, before the CLI wrote its documents with its own writer: a
    # trivial point (the degree-1 table of lambda - (1 + r), its trailing
    # zeros dropped), an unstable verdict's table, the table of an input
    # with trailing zeros that span 1e286, a marginal verdict from the
    # decimal re-read, and the tables and discretize reports
    (["stability", "--tau", "3", "--r", "0.5", "--point", "trivial"],
     "5d39959e3a4fcec9dedd571d544fcdfb320e57e592c1fed06410daef060fb322"),
    (["stability", "--tau", "2", "--r", "0.7", "--point", "nontrivial"],
     "aeae503c67deec307704957c2f90d4555b20ba7528aa089a45cba138bc280fab"),
    (["jury", "--coeffs=-1e9,1e238,1e295,0,0,0"],
     "c39f251d2c77062ff9cc869f9f8a0e44939eb75c827873e5affaf8b63d4e035f"),
    (["jury", "--coeffs", "1,0,2,0,1"],
     "8975682ccbbd3de8977779345aeba94b44cbc422e1e89038de58d9015268ee02"),
    (["tables", "--format", "json"],
     "a8356bed9c13ee93ed28c9fe150555ceab5f830067e15ea73ee1dc17ff03e2bc"),
    (["discretize", "--scheme", "ratio", "--r", "100", "--h", "1", "--K", "1"],
     "3cea94a0b9ae388edbcb0882bc734d05116e04e79e4d9a0645f299ccf3ed4cd9"),
    # a re-read table far outside a double's range: the double table loses
    # the 1e-300, so its records are the decimal re-read's terms
    (["jury", "--coeffs", "1,1e200,0,1e-300"],
     "b312256d6279af3024a80383b233504a70162f42c888af0c7be74f2372cfc285"),
])
def test_golden_output_bytes(capsys, argv, digest):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.225073858507201e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
_EDGE_TEXT = ['"', "\\", "\x00\x1f\x7f\n\t", "caf\u00e9", "\U0001f600", "\ud800", ""]
_json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-2 ** 200, 2 ** 200),
    st.floats(), st.sampled_from(_EDGE_FLOATS),
    st.text(), st.sampled_from(_EDGE_TEXT),
)
_json_keys = st.one_of(st.text(), st.sampled_from(_EDGE_TEXT))


class _Pair(NamedTuple):  # json writes a named tuple as a list
    first: object
    second: object


class _Tuple(tuple):
    pass


class _Dict(dict):
    pass


def _containers(children):
    """Every container json writes, of `children`: lists, tuples, dicts,
    their subclasses and a named tuple."""
    return st.one_of(
        st.lists(children), st.lists(children).map(tuple), st.lists(children).map(_Tuple),
        st.dictionaries(_json_keys, children), st.dictionaries(_json_keys, children).map(_Dict),
        st.builds(_Pair, children, children))


_json_values = st.recursive(_json_scalars, _containers, max_leaves=30)


@st.composite
def _scalars_at_depth(draw):
    """A container of scalars only, at depth 0 to 4: inside up to four
    containers, each beside scalars of its own."""
    value = draw(_containers(_json_scalars))
    for _ in range(draw(st.integers(0, 4))):
        siblings = draw(st.lists(_json_scalars, max_size=3))
        siblings.insert(draw(st.integers(0, len(siblings))), value)
        value = draw(st.sampled_from([
            list, tuple, _Tuple, lambda items: _Pair(*items) if len(items) == 2 else items,
            lambda items: {f"k{i}": item for i, item in enumerate(items)},
            lambda items: _Dict({f"k{i}": item for i, item in enumerate(items)}),
        ]))(siblings)
    return value


_EMPTY = [[], (), {}, _Tuple(), _Dict(), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()],
          [[[[]]]], {"a": {"b": {"c": {}}}}, _Pair([], {}), [1, [], 2.5, {}]]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=st.one_of(_json_values, _scalars_at_depth(), st.sampled_from(_EMPTY),
                       st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)))))
def test_json_writer_is_what_json_dumps_writes(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {1, 2}, 1j, Decimal("0.1"), [0.5, {2.5}], {"a": [1.0, Decimal(1)]},
    # a refused type in a container of scalars only, at the top and deeper
    [1, 2j], (0.5, frozenset()), {"a": 1, "b": Decimal("0.1")}, _Pair(1, {2}),
    [[1.0, 2.0], [3.0, 1j]], {"a": {"b": {0.5}}}, _Dict(a=set()),
])
def test_json_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        cli._json(value)


@pytest.mark.parametrize("key", [1, 1.5, True, None, math.nan, (1, 2)])
def test_json_writer_takes_str_keys_only(key):
    # json.dumps writes a scalar key quoted; the writer refuses every key
    # but a str, whether the dict holds only scalars or holds a container
    for value in ({key: 0.5}, {"a": 1, key: "b"}, {key: [0.5]}, {"a": {}, key: 1},
                  [{key: 0.5}], {"a": {key: None}}):
        with pytest.raises(TypeError):
            cli._json(value)


def test_json_documents_do_not_go_through_json_dumps(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    for argv in (["stability", "--tau", "3", "--r", "0.3", "--point", "nontrivial"],
                 ["stability", "--tau", "3", "--r", "0.5", "--point", "trivial"],
                 ["jury", "--coeffs", "1,-1,0,0.5"],
                 ["boundary", "--tau-max", "3", "--format", "json"],
                 ["tables", "--format", "json"],
                 ["simulate", "--r", "0.5", "--K", "1", "--tau", "1", "--x0", "0.5",
                  "--steps", "3", "--format", "json"]):
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert json.loads(out)


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


def _plain_encoder_output(fmt, params, trajectory):
    """The trajectory document written one sample at a time by the plain
    encoders: an f-string per CSV row, json.dumps for the JSON document."""
    samples = list(enumerate(trajectory.values, trajectory.first_step))
    if fmt == "csv":
        lines = ["step,x"] + [f"{n},{x:.17g}" for n, x in samples]
        return "\n".join(lines) + "\n"
    # strict JSON: the non-finite sample that ends a diverged run is null
    return json.dumps({
        "r": params.r, "K": params.K, "tau": params.tau,
        "diverged": trajectory.diverged,
        "samples": [{"step": n, "x": x if math.isfinite(x) else None}
                    for n, x in samples],
    }, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("r, K, tau, seeding, steps", [
    ("0.106", "2800", 17, ["--x0", "1400"], 300),
    ("0.3", "2.5", 3, ["--x0", "1.1"], 0),
    ("0.3", "2.5", 2, ["--history", "-0.0,0.0,-0.0"], 5),
    ("0.5", "1", 1, ["--history", "0.5,0.8"], 10),
    ("1e308", "1", 0, ["--x0", "2"], 5),  # ends in -inf
    ("1e308", "1", 2, ["--history", "2,-3,1e300"], 5),  # ends in -inf
    ("1e308", "1", 2, ["--history", "1,-3,1e300"], 5),  # ends in nan
    ("0.5", "1e-3", 1, ["--x0", "1e-5"], 40),  # from below 1e-4 into fixed notation
    ("0.5", "1e18", 1, ["--x0", "1e16"], 40),  # from fixed notation to 1e17 and above
    ("0.3", "2.5", 0, ["--x0", "1.1"], 0),  # a single sample
    ("1e308", "1", 1, ["--history", "-1e300,1e300"], 5),  # ends in inf
    ("3", "1", 1, ["--x0", "0.5"], 100),  # stops on a finite -2.6e16
    ("-0.5", "1", 2, ["--history", "-0.0,-0.0,-0.0"], 5),  # a +0.0 tail after -0.0
    ("0", "1", 2, ["--x0", "0.3"], 5),  # one value throughout: no head
    ("0.005", "2800", 200, ["--x0", "1400"], 30_000),  # a long head, a long tail
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
    assert out == _plain_encoder_output(fmt, params, trajectory)
    if fmt == "json":
        json.loads(out, parse_constant=_reject_non_finite)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fmt=st.sampled_from(["csv", "json"]),
       r=st.one_of(st.floats(-3.0, 3.0), _finite),
       K=st.floats(min_value=5e-324, allow_infinity=False),
       tau=st.integers(0, 30), steps=st.integers(0, 300), data=st.data())
def test_simulate_output_matches_the_plain_encoders_on_drawn_runs(fmt, r, K, tau, steps,
                                                                  data):
    """The batch renderer against the one-sample-at-a-time reference, on
    runs that settle, oscillate, run away or overflow."""
    if data.draw(st.booleans(), label="explicit history"):
        init = data.draw(st.lists(_finite, min_size=tau + 1, max_size=tau + 1))
        seeding = "--history=" + ",".join(map(repr, init))
    else:
        x0 = data.draw(st.one_of(st.floats(0.0, min(2.0 * K, sys.float_info.max)), _finite),
                       label="x0")
        init = [x0] * (tau + 1)
        seeding = f"--x0={x0!r}"
    argv = ["simulate", f"--r={r!r}", f"--K={K!r}", f"--tau={tau}", seeding,
            f"--steps={steps}", f"--format={fmt}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    params = DelayParams(r=r, K=K, tau=tau)
    assert out.getvalue() == _plain_encoder_output(fmt, params, simulate(params, init, steps))


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
    assert [c["index"] for c in payload["conditions"]] == [1, 2]
    assert all(c["satisfied"] for c in payload["conditions"])
    assert payload["radius"] == jury.INNER_RADIUS


def test_stability_reads_marginal_just_past_a_deep_threshold(capsys):
    # 2.1e-13 (relative) above f(1000), inside the marginal band: both
    # radius tables are needed, and the payload names the one the witness
    # indexes
    code, out, err = _run(capsys, ["stability", "--tau", "1000", "--r",
                                   "0.0015700111598856298", "--point", "nontrivial"])
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert payload["verdict"] == {"status": "marginal", "witness": 1000,
                                  "method": "jury"}
    assert payload["radius"] == jury.INNER_RADIUS
    assert payload["conditions"][999]["satisfied"] is False


def test_jury_records_past_the_first_failure_are_read_in_doubles(capsys):
    # the outer table fails its first condition, so no record is read again
    # in decimal arithmetic, and the one whose margin is within its
    # rounding estimate stays null
    code, out, err = _run(capsys, ["jury", "--coeffs", "1,-3,2,-6,1,-3"])
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert payload["verdict"] == {"status": "unstable", "witness": 1, "method": "jury"}
    assert [c["satisfied"] for c in payload["conditions"]] == [
        False, False, True, None, True]
    assert payload["conditions"][3]["description"] == "|last| > |first| on reduced row 3"


def test_jury_at_the_largest_doubles_reads_marginal(capsys):
    # the input row is brought into range before the radius scales it, so
    # nothing overflows; the root is -1
    code, out, err = _run(capsys, ["jury", "--coeffs",
                                   "1.7976931348623157e308,1.7976931348623157e308"])
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == {"status": "marginal", "witness": 1,
                                          "method": "jury"}


def test_stability_long_delay_is_decided_by_the_table(capsys):
    code, out, _ = _run(capsys, ["stability", "--tau", "20", "--r", "0.05",
                                 "--point", "nontrivial"])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == {"status": "stable", "witness": None,
                                  "method": "jury"}
    assert len(payload["conditions"]) == 21
    assert "root_moduli" not in payload


def test_stability_method_oracle_is_a_usage_error(capsys):
    argv = ["stability", "--tau", "2", "--r", "0.7", "--point", "nontrivial"]
    for method in ("jury", "oracle"):
        code, out, err = _run(capsys, argv + ["--method", method])
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: --method {method}" in err
    code, out, _ = _run(capsys, argv)
    assert code == 0 and "requested_method" not in json.loads(out)


def test_jury_subcommand_full_payload(capsys):
    code, out, _ = _run(capsys, ["jury", "--coeffs", "1,-1,0,0.5"])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"]["status"] == "stable"
    # a stable verdict shows the table of p((1 - 1e-12) z), whose rows are
    # those of p itself to within 1e-11
    assert payload["radius"] == jury.INNER_RADIUS
    table = jury.jury_table(polynomial.Polynomial((1.0, -1.0, 0.0, 0.5)),
                            jury.INNER_RADIUS)
    assert payload["table_rows"] == [list(row) for row in table.rows]
    assert payload["table_rows"][1] == pytest.approx([-0.5, 1.0, -0.75], rel=1e-11)
    assert len(payload["conditions"]) == 3


def test_jury_subcommand_low_degree_table_is_the_input_row(capsys):
    code, out, _ = _run(capsys, ["jury", "--coeffs", "1,0.999"])
    payload = json.loads(out)
    assert code == 0
    assert payload["table_rows"] == [[jury.INNER_RADIUS, 0.999]]
    assert payload["table_shifts"] == [0]
    assert payload["verdict"]["status"] == "stable"


def test_jury_subcommand_singular_table_shows_its_rows(capsys):
    # a zero pivot is a condition that does not hold; the payload shows the
    # table the witness indexes, as for any other input
    code, out, _ = _run(capsys, ["jury", "--coeffs", _SINGULAR_AT_EVERY_RADIUS])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == {"status": "unstable", "witness": 2, "method": "jury"}
    assert len(payload["table_rows"]) == len(payload["table_shifts"]) == 5
    assert payload["table_rows"][3][-1] == 0.0
    assert list(payload)[-2:] == ["radius", "conditions"]


# singular at both radii 1 -+ 1e-12: reduced row 3 ends in an exact zero
# (a root at -1), and a power of two times it keeps that row exactly
_SINGULAR_AT_EVERY_RADIUS = "1,-2,-2,-2,-2,2,1"


@pytest.mark.parametrize("coeffs, rows, verdict", [
    # the input row is scaled by 2**-664, which takes 1e-300 to 0, so the
    # table is read again in decimal from the input, and the root near
    # -1e200 fails condition 3 on the three-entry row
    ("1,1e200,0,1e-300", 2, {"status": "unstable", "witness": 3, "method": "jury"}),
    # 2**-40 times the input: reduced row 3 is scaled by 2**350 and ends
    # in an exact 0
    (",".join(repr(2.0 ** -40 * float(c)) for c in _SINGULAR_AT_EVERY_RADIUS.split(",")),
     5, {"status": "unstable", "witness": 2, "method": "jury"}),
    (_SINGULAR_AT_EVERY_RADIUS, 5, {"status": "unstable", "witness": 2, "method": "jury"}),
    # trailing zeros dropped, the table of 1e-310 z + 1 has one condition,
    # which the root near -1e310 fails
    ("1e-310,1,0,0", 1, {"status": "unstable", "witness": 1, "method": "jury"}),
], ids=["input-row", "rescaled-reduced-row", "reduced-row", "tiny-leading"])
def test_singular_inputs_are_read_by_the_table(capsys, coeffs, rows, verdict):
    code, out, err = _run(capsys, ["jury", "--coeffs", coeffs])
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert payload["verdict"] == verdict
    assert len(payload["table_rows"]) == rows
    assert "note" not in payload and "root_moduli" not in payload


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


_OVERFLOWING_MONIC_FORM = ("1.1624677973629155e-151,1.2727894204325296e-36,"
                           "9.326117272407438e+250,-5.868211100992056e-81")


def _records_agree_with_their_margins(records) -> bool:
    """Whether every decided condition record has the sign of its margin."""
    return all(c["satisfied"] is None or (c["margin"] > 0 if c["satisfied"] else c["margin"] < 0)
               for c in records)


def test_jury_overflowing_root_oracle_is_numeric_failure(capsys, monkeypatch):
    # the monic coefficients overflow: numpy's companion matrix does, so the
    # root reference warns, then raises LinAlgError, a ValueError. The table
    # needs no monic form: its input row loses the small coefficients, so
    # it is read again in decimal from the unrounded input, which fails
    # condition 1 at the root of modulus 9e200
    p = polynomial.Polynomial(tuple(map(float, _OVERFLOWING_MONIC_FORM.split(","))))
    counts = _count_calls(monkeypatch, [(polynomial, "roots")])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["jury", "--coeffs", _OVERFLOWING_MONIC_FORM])
    assert (code, err, counts["roots"]) == (0, "", 0)
    assert [str(w.message) for w in caught] == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(np.linalg.LinAlgError):
            polynomial.roots(p)
    payload = json.loads(out)
    assert payload["verdict"] == {"status": "unstable", "witness": 1, "method": "jury"}
    assert _records_agree_with_their_margins(payload["conditions"])


# coefficients that span 1e-+300: the roots of modulus 8e174, 2e105 and
# 9e120 leave the circle far behind, but the rescaled double table
# underflows their small coefficients and reads no condition failing
_WIDE_RANGE_INPUTS = [
    (1.6893324440860822e-156, 2.328268952063026e-294, -1.0797154990435066e+194,
     -5.646867859020861e-171),
    (-3.278603175749932e-168, -1.7081914275642394e-103, 1.6889569391131246e-136,
     4.081221347078574e-80, 1.1260326919728424e+254, 1.3931956139273072e-123),
    (1.4334285153481608e-210, 1.628568155988399e-113, 1.1572133898000305e-06,
     -9.316360846235482e+152, -1.03059647761346e-256),
]


@pytest.mark.parametrize("coeffs", _WIDE_RANGE_INPUTS, ids=["8e174", "2e105", "9e120"])
def test_a_wide_range_input_reads_unstable_and_never_marginal(capsys, monkeypatch, coeffs):
    # the decimal re-read starts from the unrounded input, and fails a
    # condition the doubles lost, with neither a monic form nor the root
    # oracle
    argv = ["jury", "--coeffs=" + ",".join(map(repr, coeffs))]
    counts = _count_calls(monkeypatch, [(polynomial, "roots")])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, argv)
    assert (code, err, counts["roots"]) == (0, "", 0)
    assert [str(w.message) for w in caught] == []
    payload = json.loads(out)
    assert payload["verdict"]["status"] == "unstable"
    assert _records_agree_with_their_margins(payload["conditions"])
    rereads = _count_calls(monkeypatch, [(jury, "_precise_readings")])
    outer = jury.jury_table(polynomial.Polynomial(coeffs), jury.OUTER_RADIUS)
    doubles = jury._readings(jury._condition_terms(outer.live, jury._UNIT_ROUNDOFF))
    assert rereads["_precise_readings"] == 1 and False not in doubles


def test_stability_trivial_point_is_decided_by_the_table(capsys):
    # lambda**12 (lambda - (1 + r)) at r = -1 is lambda**13: its table is
    # that of lambda, whose one condition holds
    code, out, _ = _run(capsys, ["stability", "--tau", "12", "--r", "-1",
                                 "--point", "trivial"])
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == {"status": "stable", "witness": None, "method": "jury"}
    assert [c["lhs"] for c in payload["conditions"]] == [0.0]
    assert list(payload)[-2:] == ["radius", "conditions"]


# One call of each command the reduction table decides; none calls numpy.
_TABLE_DECIDED_ARGV = [
    ["jury", "--coeffs", "1,-1,0,0.5"],
    ["jury", "--coeffs", "1,-5,10,-10,5,-1"],
    ["stability", "--tau", "3", "--r", "0.3", "--point", "nontrivial"],
    ["stability", "--tau", "2", "--r", "0.7", "--point", "nontrivial"],
    ["stability", "--tau", "12", "--r", "-0.5", "--point", "trivial"],
    ["boundary", "--tau-max", "5"],
    ["tables"],
    ["simulate", "--r", "0.5", "--K", "1", "--tau", "2", "--x0", "0.5", "--steps", "20"],
    ["discretize", "--scheme", "ratio", "--r", "1", "--h", "1", "--K", "1"],
    # f'(K) = 1 / (1 + 1e308) is subnormal, so its table is read in decimal
    ["discretize", "--scheme", "ratio", "--r", "1e154", "--h", "1e154", "--K", "1"],
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
    # its table reads in doubles alone, so the decimal re-read's import stays out
    assert [name for name in imported
            if name.split(".")[0] in ("numpy", "decimal", "_decimal", "_pydecimal")] == []


@pytest.mark.parametrize("argv", _TABLE_DECIDED_ARGV, ids=" ".join)
def test_a_fresh_start_loads_neither_dataclasses_nor_inspect(capsys, argv):
    # the records are named tuples, so a start pays neither for dataclasses
    # nor for the inspect, ast, dis and tokenize it pulls in
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "delaylogistic.cli",
                           *argv], capture_output=True, text=True,
                          env=_env_with_package(), timeout=60)
    code, out, _ = _run(capsys, argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "delaylogistic.jury" in imported
    assert {"dataclasses", "inspect"} & imported == set()


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
    (["jury", "--coeffs", _SINGULAR_AT_EVERY_RADIUS], 2, 0),
    (["stability", "--tau", "5", "--r", "0.2", "--point", "nontrivial"], 1, 0),
    (["stability", "--tau", "12", "--r", "-1", "--point", "trivial"], 1, 0),
], ids=["jury", "jury-singular", "stability", "stability-trivial"])
def test_each_query_builds_one_table_and_roots_once(capsys, monkeypatch, argv,
                                                    tables, roots):
    counts = _count_calls(monkeypatch, [(jury, "jury_table"),
                                        (polynomial, "roots")])
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert counts["jury_table"] == tables
    assert counts["roots"] == roots


@pytest.mark.parametrize("argv, tables", [
    (["jury", "--coeffs", "1,-1,0,0.5"], 1),
    (["jury", "--coeffs", "1,-1,0,0,0,0,-0.3"], 2),
    (["jury", "--coeffs", "1,0,1"], 2),
    (["stability", "--tau", "5", "--r", "0.2", "--point", "nontrivial"], 1),
    (["stability", "--tau", "2", "--r", "0.7", "--point", "nontrivial"], 2),
    (["stability", "--tau", "1000", "--r", "0.0015700111598856298",
      "--point", "nontrivial"], 2),
], ids=["jury-stable", "jury-unstable", "jury-marginal", "stability-stable",
        "stability-unstable", "stability-marginal"])
def test_a_table_decided_query_reads_each_table_once(capsys, monkeypatch, argv, tables):
    # each table computes its condition terms in doubles once, where it is
    # built, and the condition records reuse those terms and readings; a
    # decimal re-read computes them once more, in its own arithmetic
    counts = _count_calls(monkeypatch, [(jury, "jury_table"), (jury, "_condition_terms"),
                                        (jury, "_precise_readings"),
                                        (jury, "jury_conditions")])
    records = jury.jury_conditions

    def records_without_terms(table):
        def refuse(*args, **kwargs):
            raise AssertionError("the condition records computed terms")

        with monkeypatch.context() as patch:
            patch.setattr(jury, "_condition_terms", refuse)
            return records(table)

    monkeypatch.setattr(jury, "jury_conditions", records_without_terms)
    code, out, _ = _run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["method"] == "jury" and payload["conditions"]
    assert counts["jury_conditions"] == 1
    assert (counts["jury_table"] == counts["_condition_terms"] - counts["_precise_readings"]
            == tables)


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
    # each fixed point is the degree-1 table of lambda - derivative
    assert zero["verdict"] == {"status": "unstable", "witness": 1, "method": "jury"}
    assert capacity["verdict"] == {"status": "stable", "witness": None, "method": "jury"}


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


@pytest.mark.parametrize("argv, message", [
    ("boundary --tau-max 2 --tol 0", "tol must be positive, got 0.0"),
    ("boundary --tau-max 2 --tol -1e-10", "tol must be positive, got -1e-10"),
    ("simulate --r 0.5 --K 0 --tau 1 --x0 1 --steps 1",
     "K must be positive and finite, got 0.0"),
    ("discretize --scheme forward --r 1 --h 0 --K 1",
     "h must be positive and finite, got 0.0"),
    ("discretize --scheme ratio --r 1 --h 1 --K -1",
     "K must be positive and finite, got -1.0"),
    ("jury --coeffs 5", "reduction table needs degree >= 1, got 0"),
])
def test_out_of_range_input_is_numeric_failure(capsys, argv, message):
    # parsed, then refused by the record or the table it builds: exit 2
    code, out, err = _run(capsys, argv.split())
    assert (code, out) == (2, "")
    assert err == f"delaylogistic: error: {message}\n"


def test_every_numeric_error_is_a_value_error():
    # `run` turns a ValueError into exit 2, and these are the package's own
    assert issubclass(sweep.BracketingError, ValueError)
    assert issubclass(discretization.PoleError, ValueError)


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
    assert expected[0] == 0 and json.loads(expected[1])["tau"] == 2
    # fails for want of --point, after a second --tau has been read
    assert _run(capsys, argv[:-2] + ["--tau", "3"])[0] == 1
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
                 ["stability", "--tau", "1", "--r", "-0.5", "--point", "trivial"],
                 ["discretize", "--scheme", "ratio", "--r", "1", "--h", "2", "--K", "3"],
                 ["boundary", "--tau-max", "0", "--tol", "1e-6"]):
        assert _run(capsys, argv)[0] == 0
    for argv, usage in zip(bad, expected):
        assert _run(capsys, argv) == (1, "", usage)
        prog = " ".join(["delaylogistic", *argv[:1]])
        assert usage.startswith(f"{prog}: ") and f"usage: {prog} [-h]" in usage


# run parses an argv that starts with a command name by that command's
# parser alone; every outcome must be what the top parser gives, on each
# Python's argparse
_SIMULATE = ["simulate", "--r", "0.5", "--K", "1", "--tau", "1", "--steps", "3"]
_STABILITY = ["stability", "--tau", "1", "--r", "1", "--point", "trivial"]


@pytest.mark.parametrize("argv", [
    _SIMULATE + ["--x0", "0.5"],
    _STABILITY,
    ["boundary", "--tau-max", "2", "--format", "csv"],
    ["tables"],
    ["jury", "--coeffs", "1,-1,0,0.5"],
    ["discretize", "--scheme", "forward", "--r", "1", "--h", "1", "--K", "1"],
    *[[command, "-h"] for command in cli._COMMANDS],
    ["-h"], ["--help"], [], ["jacobian"], ["Tables"], ["--out", "x", "tables"],
    ["-x", "tables"], ["--", "tables"],
    _STABILITY + ["extra"], ["tables", "extra", "words"], ["tables", "--format", "csv", "-y"],
    ["tables", "--", "x"], _STABILITY + ["--", "x"], ["tables", "--"],
    ["jury", "--coeffs", "1,2", "--", "--coeffs", "3"],
    ["stability", "--ta=1", "--r", "1", "--po", "trivial"],
    ["boundary", "--tau=2", "--format=csv"], ["boundary", "--t", "2"],
    _SIMULATE + ["--x0", "0.5", "--history", "0.5,0.5"],
    _SIMULATE + ["--history", "0.5,0.5", "--x0", "0.5", "extra"],
    ["stability", "--tau", "1", "extra"], ["tables", "extra", "-h"],
])
def test_a_command_parser_gives_what_the_top_parser_gives(capsys, monkeypatch, argv):
    outcome = _run(capsys, argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
    assert outcome == _run(capsys, argv)
