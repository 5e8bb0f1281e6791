import argparse
import dataclasses
import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reebtwist
from reebtwist.cli import COMMANDS, _json_text, _round_floats, build_parser, main
from reebtwist.complexes import validate
from reebtwist.geometry import RadialProfile, RotationTwist, RoundSphere
from reebtwist.lazy import lazy_module
from reebtwist.lifting import MAX_LIFT_PAIRS, QuotientLoop
from reebtwist.orbits import MAX_SPECTRUM_CELLS, SolverSettings
from reebtwist.pearls import build_pearl_complex, compare_with_oracle

from oracles import rotation_index


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def parse_error(capsys, *argv):
    """The parser's message for argv, which must stop it with exit 2 and no output."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    return out.err


def test_spectrum_values_and_round_trip(capsys):
    payload = run_json(capsys, "spectrum", "--m", "2", "--k", "1,1",
                       "--n", "2", "--window", "0:3")
    taus = [row["tau"] for row in payload["data"]["rows"]]
    expected = [-math.pi / 2, math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]
    assert taus == pytest.approx(expected, abs=1e-9)
    # JSON output re-read equals the in-memory table
    again = run_json(capsys, "spectrum", "--m", "2", "--k", "1,1",
                     "--n", "2", "--window", "0:3")
    assert again == payload


def test_spectrum_untwisted_single_branch(capsys):
    payload = run_json(capsys, "spectrum", "--m", "1", "--k", "1,1",
                       "--n", "2", "--window", "1:1")
    rows = payload["data"]["rows"]
    assert len(rows) == 1
    assert rows[0]["tau"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_csv_without_a_tabular_view_is_rejected_before_the_command_runs(
        capsys, monkeypatch, tmp_path, source):
    # tau = 40 lies outside the seed's multiplier trust interval: shot, the
    # orbit exits 3 with a solver error
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": "csv"}))
    calls = []
    shoot = reebtwist.cli.shoot_orbit

    def spy(*args, **kwargs):
        calls.append(args)
        return shoot(*args, **kwargs)

    monkeypatch.setattr(reebtwist.cli, "shoot_orbit", spy)
    fmt = ["--format", "csv"] if source == "flag" else ["--config", str(cfg)]
    code, out, err = run(capsys, "orbit", "--m", "2", "--n", "2", "--tau", "40",
                         "--z", "0.3,0.1,0.2,0.9", *fmt)
    assert (code, out, err) == (2, "", "error: no tabular view for this command\n")
    assert calls == []


def test_spectrum_formats(capsys):
    code, out, _ = run(capsys, "spectrum", "--m", "2", "--k", "1,1", "--n", "2",
                       "--window", "0:1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,support,dim,index"
    assert len(lines) == 3
    code, out, _ = run(capsys, "spectrum", "--m", "2", "--k", "1,1", "--n", "2",
                       "--window", "0:1", "--format", "table")
    assert code == 0 and "tau" in out


def test_byte_identical_reruns(capsys, tmp_path):
    args = ("homology", "--m", "4", "--n", "2", "--window", "0:3")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def stdlib_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, math.inf, -math.inf]
_BIG_INTS = st.integers(2 ** 64, 2 ** 200) | st.integers(-(2 ** 200), -1)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 200), 2 ** 200) | _BIG_INTS
    | st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "\u00e9\u20ac\U0001f600", "\u2028"])
    | st.floats(allow_nan=False) | st.sampled_from(_EDGE_FLOATS)
    # lists of ints alone, and ints mixed with bools, floats or nothing
    | st.lists(st.integers(-(2 ** 200), 2 ** 200)) | st.tuples(_BIG_INTS, _BIG_INTS)
    | st.lists(st.integers(-3, 3) | st.booleans() | st.sampled_from(_EDGE_FLOATS)),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_text_is_stdlib_json(value):
    # the writer rounds as it goes: its text of the unrounded value is stdlib
    # json's text of the rounded copy that csv and table print from
    assert _json_text(value) == stdlib_json(_round_floats(value))


@settings(max_examples=200, deadline=None)
@given(json_values, st.lists(st.lists(st.integers(-3, 3), min_size=1), max_size=4))
def test_json_text_writes_a_shared_list_like_stdlib_json(value, rows):
    # rows of ints twice at one depth and once at another, as a pearl complex's
    # degrees share a stencil's rows, and any list or dict shared that way, are
    # written as stdlib json writes the rounded copy
    for shared in (rows, value, [value, rows]):
        payload = {"a": shared, "b": shared, "c": [value, shared]}
        assert _json_text(payload) == stdlib_json(_round_floats(payload))


@settings(deadline=None)
@given(json_values, st.sampled_from([math.inf, -math.inf]))
def test_json_text_rejects_what_stdlib_json_rejects(value, unbounded):
    # NaN is rejected as stdlib json rejects it
    for encode in (_json_text, stdlib_json):
        with pytest.raises(ValueError, match="not JSON compliant"):
            encode({"value": value, "bad": [value, math.nan]})
    # an unbounded float is written null, as _round_floats maps it
    payload = {"value": value, "unbounded": [value, unbounded]}
    assert _round_floats(payload)["unbounded"][1] is None
    assert _json_text(payload) == stdlib_json(_round_floats(payload))


def test_output_file_and_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REEBTWIST_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "tate", "--m", "2", "--degrees", "0:4",
                       "--out", "tate.json")
    assert code == 0 and out == ""
    payload = json.loads((tmp_path / "tate.json").read_text())
    dims = [row["dim"] for row in payload["data"]["degrees"]]
    assert dims == [1, 1, 1, 1, 1]


def test_homology_even_odd(capsys):
    even = run_json(capsys, "homology", "--m", "2", "--n", "2", "--window", "0:3")
    assert even["data"]["all_match"] is True
    assert all(e["dim_quotient"] == 1 for e in even["data"]["degrees"])
    odd = run_json(capsys, "homology", "--m", "5", "--n", "2", "--window", "0:3")
    assert all(e["dim_quotient"] == 0 for e in odd["data"]["degrees"])


def test_homology_untwisted_is_an_ordinary_quotient(capsys):
    # m = 1 once printed a separate untwisted table with a note instead of
    # the oracle comparison
    data = run_json(capsys, "homology", "--m", "1", "--n", "2",
                    "--window", "0:3")["data"]
    twisted = run_json(capsys, "homology", "--m", "2", "--n", "2",
                       "--window", "0:3")["data"]
    assert data.keys() == twisted.keys()
    assert data["m"] == 1 and data["all_match"] is True and data["degrees"]
    assert all(e["dim_quotient"] == e["dim_tate"] == 0 for e in data["degrees"])


def test_sweep_from_the_trivial_group(capsys):
    # the command once refused m = 1
    data = run_json(capsys, "sweep", "--m-range", "1:3", "--n-list", "2")["data"]
    assert [r["m"] for r in data["sweep"]] == [1, 2, 3]
    assert data["all_match"] is True


def test_tolerance_override_recorded(capsys):
    payload = run_json(capsys, "spectrum", "--m", "2", "--k", "1,1", "--n", "2",
                       "--window", "0:1", "--tol", "residual=1e-10")
    assert payload["meta"]["tolerances"]["residual"] == pytest.approx(1e-10)


def test_config_file_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"m": 2, "k": [1, 1], "n": 2, "window": "0:1"}))
    payload = run_json(capsys, "spectrum", "--config", str(cfg))
    assert len(payload["data"]["rows"]) == 2
    # explicit flag overrides the config value
    payload = run_json(capsys, "spectrum", "--config", str(cfg),
                       "--window", "0:3")
    assert len(payload["data"]["rows"]) == 4


def test_orbit_command(capsys):
    payload = run_json(capsys, "orbit", "--m", "2", "--k", "1,1", "--n", "2",
                       "--tau", "1.5")
    orbit = payload["data"]["orbit"]
    assert orbit["tau"] == pytest.approx(math.pi / 2, abs=1e-8)
    assert orbit["residual"] <= 1e-8


def test_orbit_solver_failure_exit_code(capsys):
    code, _, err = run(capsys, "orbit", "--m", "2", "--k", "1,1", "--n", "2",
                       "--tau", "0.1")
    assert code == 3
    assert "solver" in err


def test_action_command(capsys):
    payload = run_json(capsys, "action", "--m", "2", "--k", "1,1", "--n", "2",
                       "--tau", "1.5", "--samples", "1000")
    assert payload["data"]["difference"] <= 1e-5


def test_cz_index_command(capsys):
    payload = run_json(capsys, "cz-index", "--m", "2", "--k", "1,1", "--n", "2",
                       "--window=-1:2")
    rows = {row["k"]: row["index"] for row in payload["data"]["rows"]}
    assert rows == {-1: -6, 0: -2, 1: 2, 2: 6}


def test_complex_command_round_trip(capsys):
    payload = run_json(capsys, "complex", "--m", "3", "--n", "2",
                       "--window", "0:1")
    complex_ = build_pearl_complex(RoundSphere(2), RotationTwist(3, (1, 1)), (0, 1))
    assert payload["data"] == complex_.to_json_dict()
    validate(complex_)
    assert complex_.dim(complex_.d_min) == 3


def test_certify_even_twist(capsys):
    payload = run_json(capsys, "certify", "--m", "2", "--k", "1,1", "--n", "2")
    data = payload["data"]
    assert data["deck"] == 1
    assert data["noncontractible"] is True
    assert data["margin"] > 0
    assert data["index"] == 2
    assert abs(data["action"] - data["orbit"]["tau"]) <= 1e-5


def test_certify_untwisted(capsys):
    payload = run_json(capsys, "certify", "--m", "1", "--k", "1,1", "--n", "2",
                       "--pearl", "2")
    data = payload["data"]
    assert data["deck"] == 0
    assert data["noncontractible"] is False


def test_lift_command(capsys, tmp_path):
    twist = RotationTwist(2, (1, 1))
    t = np.linspace(0.0, 1.0, 64)
    arc = np.stack([np.exp(1j * math.pi * s) * np.array([1.0 + 0j, 0j])
                    for s in t])
    loop = QuotientLoop(samples=arc, twist=twist)
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop.to_json_dict()))
    payload = run_json(capsys, "lift", "--input", str(path))
    assert payload["data"]["deck"] == 1
    assert payload["data"]["noncontractible"] is True


def test_lift_undersampled_exit_code(capsys):
    # three points on a half turn of the flow circle: each step is a quarter
    # turn, sqrt(2) long, and the antipodal rotation bounds steps by 1
    path = Path(__file__).parent / "models" / "loop_m2_undersampled.json"
    code, out, err = run(capsys, "lift", "--input", str(path))
    assert (code, out) == (5, "")
    assert err == ("lifting error: step 1 has length 1.414e+00, not below the "
                   "half-separation bound 1.000e+00\n")


def test_malformed_loop_file_rejected(capsys, tmp_path):
    # once a TypeError traceback with exit 1
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"twist": [1], "samples": [[1.0, 0.0, 0.0, 0.0]] * 2}))
    code, out, err = run(capsys, "lift", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed loop file") and err.count("\n") == 1


def test_sweep_command(capsys):
    payload = run_json(capsys, "sweep", "--m-range", "2:4", "--n-list", "2",
                       "--window", "0:3")
    results = payload["data"]["sweep"]
    assert [r["m"] for r in results] == [2, 3, 4]
    assert payload["data"]["all_match"] is True


def test_config_error_exit_codes(capsys):
    code, _, err = run(capsys, "spectrum", "--m", "4", "--k", "2,1", "--n", "2")
    assert code == 2 and "error" in err
    flags = ("spectrum", "--m", "2", "--k", "1,1", "--n", "2")
    assert "LO exceeds HI" in parse_error(capsys, *flags, "--window", "5:1")
    assert "unknown tolerance name 'bogus'" in parse_error(capsys, *flags, "--tol", "bogus=1")


def test_model_file_radial(capsys, tmp_path):
    model = {"kind": "radial_profile", "n": 2, "twist": {"m": 2, "k": [1, 1]},
             "profile": {"type": "constant", "value": 1.0}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    payload = run_json(capsys, "certify", "--model", str(path))
    assert payload["data"]["deck"] == 1
    assert payload["data"]["noncontractible"] is True


def write_model(tmp_path, m, k, profile):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "radial_profile", "n": len(k),
                                "twist": {"m": m, "k": list(k)}, "profile": profile}))
    return str(path)


def in_progression(tau_a, m, k):
    """tau a_j in pi (m Z - k_j) / m."""
    x = tau_a * m / math.pi + k
    return abs(x - m * round(x / m)) <= 1e-9 * m


def test_certify_seeds_with_the_twists_residue(capsys):
    # k = (2, 2) has no exponent in class 1; seeding with residue 1 left the
    # multiplier trust interval and cz-index printed the class-1 multipliers
    flags = ("--m", "5", "--k", "2,2", "--n", "2")
    data = run_json(capsys, "certify", *flags)["data"]
    assert data["orbit"]["tau"] == pytest.approx(3 * math.pi / 5, abs=1e-9)
    cz = run_json(capsys, "cz-index", *flags, "--window", "0:3")["data"]["rows"]
    spectrum = run_json(capsys, "spectrum", *flags, "--window", "0:3")["data"]["rows"]
    assert [row["tau"] for row in cz] == [row["tau"] for row in spectrum]
    assert cz[1]["tau"] == data["orbit"]["tau"]


def test_certify_index_from_the_model(capsys, tmp_path):
    # the linearised ellipsoid flow rotates coordinate j at rate 2 tau a_j:
    # on a = (1, 2.5) at tau = pi/2 that is 1 + 3, not the round sphere's 1 + 1
    path = write_model(tmp_path, 2, (1, 1),
                       {"type": "ellipsoid", "coefficients": [1.0, 2.5]})
    data = run_json(capsys, "certify", "--model", path)["data"]
    tau = data["orbit"]["tau"]
    assert tau == pytest.approx(math.pi / 2, abs=1e-9)
    assert data["index"] == rotation_index(2 * tau) + rotation_index(5 * tau) == 4


def test_resonant_seed_converges(capsys, tmp_path):
    # seeded at tau = -pi/2, coordinate 2 (a_2 = 1, same class as k_1) is
    # resonant and its flow block vanishes; the forward-difference surface
    # row once gave its columns a spurious slope, and damping stalled
    path = write_model(tmp_path, 2, (1, 1),
                       {"type": "ellipsoid", "coefficients": [1.001, 1.0]})
    data = run_json(capsys, "orbit", "--model", path, "--tau=-1.5707963267948966")["data"]
    assert data["orbit"]["residual"] <= 1e-8
    data = run_json(capsys, "orbit", "--model", path, "--tau=-1.5707963267948966",
                    "--tol", "residual=1e-12")["data"]
    assert data["orbit"]["tau"] == pytest.approx(-math.pi / 2 / 1.001, abs=1e-9)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 5), st.integers(2, 3), st.integers(-1, 2),
       st.floats(-8.0, -3.0), st.sampled_from([-1.0, 1.0]))
def test_resonant_seeds_converge(capsys, tmp_path, m, n, branch, log_eps, sign):
    # a_1 = 1 + eps: seeded at the sphere's multiplier, every other coordinate
    # of the class is exactly resonant
    a = [1.0 + sign * 10.0 ** log_eps] + [1.0] * (n - 1)
    path = write_model(tmp_path, m, [1] * n, {"type": "ellipsoid", "coefficients": a})
    seed = math.pi * (m * branch - 1) / m
    data = run_json(capsys, "orbit", "--model", path, f"--tau={seed!r}")["data"]
    assert data["orbit"]["residual"] <= 1e-8
    assert data["orbit"]["tau"] * a[0] == pytest.approx(seed, abs=1e-6)


def radial_model(profile, twist=None):
    return {"kind": "radial_profile", "n": 2, "twist": twist or {"m": 2, "k": [1, 1]},
            "profile": profile}


@pytest.mark.parametrize("model", [
    radial_model({"type": "constant", "value": 0}),
    radial_model({"type": "constant", "value": -0.7}),
    radial_model({"type": "ellipsoid", "coefficients": [1, -1]}),
    radial_model({"type": "ellipsoid", "coefficients": [1, 0]}),
    radial_model({"type": "ellipsoid", "coefficients": [1]}),
    radial_model({"type": "ellipsoid", "coefficients": [1, "inf"]}),
    [radial_model({"type": "constant"})],
    radial_model({"type": "constant"}, twist={"m": 2, "k": 5}),
    radial_model({"type": "ellipsoid", "coefficients": 1.0}),
    radial_model("x"),
], ids=["value0", "value-0.7", "coeffs1,-1", "coeffs1,0", "coeffs1", "coeffs1,inf",
        "list", "k5", "coeffs1.0", "profile-x"])
@pytest.mark.parametrize("command", ["certify", "spectrum", "cz-index"])
def test_malformed_model_file_rejected(capsys, tmp_path, model, command):
    # each once crashed with a traceback or printed a result
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, command, "--model", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key, model", [
    ("n", {"kind": "radial_profile", "twist": {"m": 2, "k": [1, 1]}}),
    ("coefficients", {"kind": "radial_profile", "n": 2, "twist": {"m": 2, "k": [1, 1]},
                      "profile": {"type": "ellipsoid"}}),
    ("m", {"kind": "round_sphere", "n": 2, "twist": {"k": [1, 1]}}),
    ("k", {"kind": "round_sphere", "n": 2, "twist": {"m": 2}}),
], ids=["n", "coefficients", "m", "k"])
def test_model_file_missing_key_rejected(capsys, tmp_path, key, model):
    # each once ended in a KeyError traceback with exit 1
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "spectrum", "--model", str(path))
    assert (code, out, err) == (2, "", f"error: model file lacks the key {key!r}\n")


@pytest.mark.parametrize("model, message", [
    ({**radial_model({"type": "ellipsoid", "coefficients": [1.0, 1.3]},
                     twist={"m": 2.9, "k": [1.5, 1]}), "n": 2.7},
     "dimension n must be an integer, got 2.7"),
    ({**radial_model({"type": "constant"}, twist={"m": 3, "k": [1]}), "n": True},
     "dimension n must be an integer, got True"),
    ({**radial_model({"type": "constant"}), "n": "2"},
     "dimension n must be an integer, got '2'"),
    (radial_model({"type": "constant"}, twist={"m": 2.9, "k": [1, 1]}),
     "modulus must be an integer, got 2.9"),
    (radial_model({"type": "constant"}, twist={"m": True, "k": [1, 1]}),
     "modulus must be an integer, got True"),
    (radial_model({"type": "constant"}, twist={"m": 3, "k": [1.5, 1]}),
     "exponent must be an integer, got 1.5"),
    (radial_model({"type": "constant"}, twist={"m": 3, "k": [1, True]}),
     "exponent must be an integer, got True"),
], ids=["n2.7", "n-true", "n-string", "m2.9", "m-true", "k1.5", "k-true"])
def test_model_file_integers_are_not_truncated(capsys, tmp_path, model, message):
    # each once ran on the truncated value and exited 0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "spectrum", "--model", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("twist, message", [
    ({"m": 3.7, "k": [1.2, 1]}, "modulus must be an integer, got 3.7"),
    ({"m": 3, "k": [1.2, 1]}, "exponent must be an integer, got 1.2"),
    ({"m": True, "k": [1, 1]}, "modulus must be an integer, got True"),
], ids=["m3.7", "k1.2", "m-true"])
def test_loop_file_integers_are_not_truncated(capsys, tmp_path, twist, message):
    # m = 3.7 once lifted as m = 3 and exited 0
    path = tmp_path / "loop.json"
    data = json.loads(Path(half_turn_loop(tmp_path)).read_text())
    path.write_text(json.dumps({**data, "twist": twist}))
    code, out, err = run(capsys, "lift", "--input", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("profile, message", [
    ({"type": "constant", "value": "1.1"}, "profile value must be a finite number, got '1.1'"),
    ({"type": "constant", "value": True}, "profile value must be a finite number, got True"),
    ({"type": "constant", "value": 10 ** 400},
     f"profile value must be a finite number, got {10 ** 400}"),
    ({"type": "ellipsoid", "coefficients": [True, 1.3]},
     "ellipsoid coefficient must be a finite number, got True"),
    ({"type": "ellipsoid", "coefficients": [1, "inf"]},
     "ellipsoid coefficient must be a finite number, got 'inf'"),
    ({"type": "ellipsoid", "coefficients": "12"},
     "ellipsoid coefficients must be a list, got '12'"),
], ids=["value-string", "value-true", "value-huge", "coeffs-true", "coeffs-inf-string",
        "coeffs-string"])
def test_model_file_numbers_must_be_json_numbers(capsys, tmp_path, profile, message):
    # the first, second, fourth and last once ran on rho = 1.1, rho = 1,
    # a = (1, 1.3) and a = (1, 2); the huge integer ended in an OverflowError
    path = write_model(tmp_path, 3, (1, 1), profile)
    code, out, err = run(capsys, "spectrum", "--model", path, "--window", "0:0")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("sample, message", [
    ("0.6", "loop sample must be a finite number, got '0.6'"),
    (True, "loop sample must be a finite number, got True"),
    (math.nan, "loop sample must be a finite number, got nan"),
], ids=["string", "true", "nan"])
def test_loop_file_samples_must_be_finite_json_numbers(capsys, tmp_path, sample, message):
    # each once lifted with deck 1, the nan sample with margin null
    path = Path(half_turn_loop(tmp_path))
    data = json.loads(path.read_text())
    data["samples"][5][0] = sample
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "lift", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_loop_file_sample_whose_norm_overflows_prints_one_line(capsys, tmp_path):
    # numpy's "overflow encountered in multiply" warning once came before the
    # error line
    path = Path(half_turn_loop(tmp_path))
    data = json.loads(path.read_text())
    data["samples"][5][0] = 1e308
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "lift", "--input", str(path))
    assert (code, out, err) == (2, "", "error: samples must lie on the unit sphere\n")


@pytest.mark.parametrize("bad, message", [
    ("one", "loop sample 1 has 3 reals, needs 4 interleaved reals"),
    ("all", "loop sample 0 has 3 reals, needs 4 interleaved reals"),
], ids=["one-sample", "all-samples"])
def test_loop_file_samples_need_2n_reals(capsys, tmp_path, bad, message):
    # numpy's "setting an array element with a sequence" and "When changing
    # to a larger dtype" errors once came through unexplained
    path = Path(half_turn_loop(tmp_path))
    data = json.loads(path.read_text())
    if bad == "one":
        data["samples"][1] = data["samples"][1][:3]
    else:
        data["samples"] = [row[:3] for row in data["samples"]]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "lift", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("bad", ["string", "object", "string-row"])
def test_loop_file_samples_must_be_a_list_of_lists(capsys, tmp_path, bad):
    # each was once read character by character or key by key: "abc" exited
    # with "loop sample must be a finite number, got 'a'"
    path = Path(half_turn_loop(tmp_path))
    data = json.loads(path.read_text())
    if bad == "string":
        data["samples"] = "abc"
    elif bad == "object":
        data["samples"] = dict(enumerate(data["samples"]))
    else:
        data["samples"][3] = "abcd"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "lift", "--input", str(path))
    assert (code, out, err) == (2, "", "error: loop samples must be a list of lists of reals\n")


@pytest.mark.parametrize("profile, message", [
    ({"type": "ellipsoid", "coefficients": [1e308, 1.0]}, "ellipsoid coefficient 1e+308"),
    ({"type": "ellipsoid", "coefficients": [1e-320, 1.0]}, "ellipsoid coefficient 1e-320"),
    ({"type": "constant", "value": 1e-200}, "profile value 1e-200"),
    ({"type": "constant", "value": 1e200}, "profile value 1e+200"),
], ids=["ellipsoid-huge", "ellipsoid-subnormal", "constant-tiny", "constant-huge"])
@pytest.mark.parametrize("command", ["spectrum", "homology", "complex", "certify"])
def test_extreme_quadric_coefficients_rejected(capsys, tmp_path, profile, message, command):
    # each once ended in an OverflowError or ZeroDivisionError with exit 1, or
    # in certify after LAPACK's own complaint on stderr
    path = write_model(tmp_path, 3, (1, 2), profile)
    code, out, err = run(capsys, command, "--model", path)
    assert (code, out, err) == (2, "", f"error: {message} puts a quadric coefficient outside "
                                       "1e-100..1e100, where multipliers or turn counts overflow\n")


@pytest.mark.parametrize("argv, message", [
    ("homology --window=0:{big}", "argument --window: window with 400 digits does not convert "
     "to a float"),
    ("complex --window=0:{big}", "argument --window: window with 400 digits does not convert "
     "to a float"),
    ("certify --pearl {big}", "argument --pearl: branch with 400 digits does not convert "
     "to a float"),
], ids=["homology", "complex", "certify"])
def test_branches_must_convert_to_floats(capsys, argv, message):
    # each once raised "OverflowError: int too large to convert to float", exit 1
    big = "9" * 400
    err = parse_error(capsys, *argv.format(big=big).split(), "--m", "3", "--k", "1,2")
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    ("homology --m {big} --n 2", "modulus"),
    ("spectrum --m {big} --n 2", "modulus"),
    ("certify --m 3 --k 1,{big}", "exponent"),
    ("orbit --m 3 --k 1,{big} --tau 1.5", "exponent"),
], ids=["homology-m", "spectrum-m", "certify-k", "orbit-k"])
def test_twist_integers_must_convert_to_floats(capsys, argv, message):
    # each once raised "OverflowError: int too large to convert to float", exit 1
    big = 10 ** 400
    code, out, err = run(capsys, *argv.format(big=big).split())
    assert (code, out, err) == (2, "", f"error: {message} with 401 digits does not convert "
                                       "to a float\n")


def test_model_file_exponent_must_convert_to_float(capsys, tmp_path):
    # certify once raised OverflowError with exit 1
    path = write_model(tmp_path, 3, (1, 10 ** 400), {"type": "constant"})
    code, out, err = run(capsys, "certify", "--model", path)
    assert (code, out, err) == (2, "", "error: exponent with 401 digits does not convert "
                                       "to a float\n")


@pytest.mark.parametrize("argv, lo, hi", [
    ("homology --model {path}", -666666666667, 2333333333334),
    ("complex --model {path}", -666666666667, 1333333333334),
    ("spectrum --m 2 --n 2 --window 0:10000000000", 0, 10000000000),
], ids=["homology", "complex", "spectrum"])
def test_windows_above_the_branch_cap_rejected(capsys, tmp_path, argv, lo, hi):
    # each once ran past a 10 s timeout: a = 1e12 widens the pearl window
    # to ~10^12 branches of line 2
    path = write_model(tmp_path, 3, (1, 2), {"type": "ellipsoid", "coefficients": [1e12, 1.0]})
    code, out, err = run(capsys, *argv.format(path=path).split())
    assert (code, out, err) == (2, "", f"error: branch window {lo}:{hi} holds 2 x "
                                       f"{hi - lo + 1} line branches, above the cap of 100000\n")


@pytest.mark.parametrize("argv, message", [
    ("spectrum --m 2 --n 1000000 --window 0:0", "argument --n: complex dimension"),
    ("spectrum --m 2 --n 100000000 --window 0:0", "argument --n: complex dimension"),
    ("sweep --n-list 2,100001", "argument --n-list: complex dimension"),
    ("spectrum --m 3 --window 0:0 --k 1" + ",1" * 100_000, "argument --k: exponent count"),
], ids=["n", "n-huge", "n-list", "k"])
def test_dimensions_above_the_cap_rejected_at_parse_time(capsys, argv, message):
    # --n 1000000 once spent 0.32 s and 52 MB on its twist and model before the
    # branch cap stopped it; --n 100000000 ended in a 763 MiB MemoryError
    err = parse_error(capsys, *argv.split())
    assert err.endswith(f"error: {message} exceeds the cap of 100000\n")
    assert build_parser().parse_args(["sweep", "--n-list", "100000"]).n_list == (100000,)


@pytest.mark.parametrize("kind", ["round_sphere", "radial_profile"])
def test_model_file_dimension_above_the_cap_rejected(capsys, tmp_path, kind):
    # round_sphere once failed with "Unable to allocate 7.28 TiB", exit 1
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": kind, "n": 10 ** 12}))
    code, out, err = run(capsys, "spectrum", "--m", "2", "--model", str(path))
    assert (code, out, err) == (2, "", "error: dimension n exceeds the cap of 100000\n")


@pytest.mark.parametrize("argv, message", [
    ("orbit --m 2 --n 20000 --tau 1.5",
     "a Newton step at n = 20000 needs a 40002 x 40001 system, above the cap of 1048576 cells"),
    ("action --m 2 --k 1,1 --n 2 --tau 1.5 --samples 1000000000",
     "1000000001 samples of 2 coordinates exceed the cap of 25000000 orbit points"),
    ("tate --m 4 --degrees 0:100000000",
     "degree window 0:100000000 holds 100000001 degrees, above the cap of 200000"),
    ("homology --m 32768 --n 2 --window 0:1",
     "rotation order 32768 needs 2 m^2 stencil entries, above the cap of 8388608"),
    ("sweep --m-range 2:32768", "rotation order 32768 needs 2 m^2 stencil entries, "
                                "above the cap of 8388608"),
    ("complex --m 1024 --n 3 --window 0:1",
     "the complex lists 11534336 boundary entries, above the cap of 8388608"),
], ids=["orbit-jacobian", "action-samples", "tate-degrees", "homology-order", "sweep-order",
        "complex-entries"])
def test_flag_sized_allocations_checked_before_they_are_made(capsys, argv, message):
    # under a 2.5 GB address-space limit each once ended in a traceback, exit 1:
    # an 11.9 GiB Jacobian, 7.45 GiB of samples, a MemoryError; homology at
    # m = 32768 spent 8.3 s and 442 MB, and complex at m = 1024, n = 2 printed 96 MB
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_stencil_cap_admits_its_largest_order(capsys):
    data = run_json(capsys, "homology", "--m", "2048", "--n", "2", "--window", "0:1")["data"]
    assert data["all_match"] is True


def test_certify_above_the_jacobian_cap_needs_no_newton_step(capsys):
    # the seed at the line multiplier is already an orbit, so no system is built
    data = run_json(capsys, "certify", "--m", "2", "--n", "600")["data"]
    assert data["deck"] == 1 and data["orbit"]["tau"] == pytest.approx(math.pi / 2, abs=1e-9)


class _CapPassed(Exception):
    pass


def lift_argv(tmp_path, argv, m, points):
    """``argv``, or for ``lift`` a loop file of ``points`` copies of the point 1 of C
    under the twist of order m."""
    if argv != "lift":
        return argv.split()
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"twist": {"m": m, "k": [1]}, "samples": [[1.0, 0.0]] * points}))
    return ["lift", "--input", str(path)]


# certify lifts --samples + 1 loop points, lift a file's points
@pytest.mark.parametrize("argv, points, m", [
    ("certify --m 2048 --n 2 --samples 255", 256, 2048),
    ("lift", 2, 2 ** 18),
], ids=["certify", "lift-file"])
def test_lift_pair_cap_admits_its_largest_product(capsys, tmp_path, monkeypatch, argv, points, m):
    assert points * m == MAX_LIFT_PAIRS

    def past_the_cap(*_args):
        raise _CapPassed

    # the first rotation lift_loop forms is in orbit_separation, after the check
    monkeypatch.setattr("reebtwist.lifting.orbit_separation", past_the_cap)
    with pytest.raises(_CapPassed):
        main(lift_argv(tmp_path, argv, m, points))


@pytest.mark.parametrize("argv, points, m", [
    ("certify --m 3 --n 2 --samples 174762", 174763, 3),
    ("lift", 3, 174763),
], ids=["certify", "lift-file"])
def test_lift_above_the_pair_cap_rejected_at_once(capsys, tmp_path, argv, points, m):
    # certify --m 131072 ran for over 100 s, and --samples 1000000 at m = 2
    # for 12.5 s, before any cap applied to the lift
    assert points * m == MAX_LIFT_PAIRS + 1
    start = time.perf_counter()
    code, out, err = run(capsys, *lift_argv(tmp_path, argv, m, points))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: a lift compares each of {points} loop points "
                                       f"with {m} rotations: {points * m} pairs, above the cap "
                                       f"of {MAX_LIFT_PAIRS}\n")


def cycled_residues_argv(m, residues, n):
    """``spectrum`` at branch 1 of n lines whose exponents cycle through 1..residues:
    ``residues`` distinct multipliers on n lines."""
    k = ",".join(str(j % residues + 1) for j in range(n))
    return ["spectrum", "--m", str(m), "--k", k, "--window", "1:1"]


def test_spectrum_cell_cap_admits_its_largest_product(capsys, monkeypatch):
    assert 16 * 65536 == MAX_SPECTRUM_CELLS

    def past_the_cap(*_args):
        raise _CapPassed

    # each row's index comes after the check
    monkeypatch.setattr("reebtwist.orbits.orbit_index", past_the_cap)
    with pytest.raises(_CapPassed):
        main(cycled_residues_argv(17, 16, 65536))


def test_spectrum_above_the_cell_cap_rejected_at_once(capsys):
    assert 17 * 61681 == MAX_SPECTRUM_CELLS + 1
    start = time.perf_counter()
    code, out, err = run(capsys, *cycled_residues_argv(19, 17, 61681))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: 17 distinct multipliers on 61681 lines make "
                                       f"{MAX_SPECTRUM_CELLS + 1} (row, line) pairs, above the "
                                       f"cap of {MAX_SPECTRUM_CELLS}\n")


@pytest.mark.parametrize("argv", ["spectrum --window 0:9", "homology --window 0:1"])
def test_distinct_coefficients_at_large_n_rejected_at_once(capsys, tmp_path, argv):
    # 1000 distinct a_j give a multiplier per (line, branch): these ran for
    # 15 s and 24 s, one O(n) pass per row, before the cell cap
    a = [1 + 0.0007 * j + 1e-5 * j * j for j in range(1000)]
    path = write_model(tmp_path, 3, [1] * 1000, {"type": "ellipsoid", "coefficients": a})
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split(), "--model", path)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "") and err.endswith(f"above the cap of {MAX_SPECTRUM_CELLS}\n")


def test_sphere_spectrum_at_large_n_has_few_rows(capsys):
    # one exponent class: 10 distinct multipliers on 1000 lines
    assert len(run_json(capsys, "spectrum", "--m", "2", "--n", "1000", "--window", "0:9")
               ["data"]["rows"]) == 10


@pytest.mark.parametrize("argv, text, message", [
    ("spectrum --model", "[", "cannot read model file: Expecting value: line 1 column 2 (char 1)"),
    ("spectrum --model", "[2]", "malformed model file: 'list' object has no attribute 'get'"),
    ("spectrum --model", '{"kind": "torus", "n": 2}', "unknown model kind 'torus'"),
    ("sweep --model", '{"kind": "round_sphere"}', "model file lacks the key 'n'"),
    ("lift --input", '{"twist": {"m": 2, "k": [1, 1]}}', "loop file lacks the key 'samples'"),
    ("spectrum --m 2 --n 2 --config", "[", "cannot read config file: Expecting value: "
     "line 1 column 2 (char 1)"),
], ids=["model-json", "model-type", "model-value", "sweep-model-key", "loop-key",
        "config-json"])
def test_input_files_share_one_reader(capsys, tmp_path, argv, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv.split(), str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_k_without_m_rejected(capsys, tmp_path):
    # --k was once dropped in favour of the model's exponents, with exit 0
    path = write_model(tmp_path, 3, (1, 1), {"type": "ellipsoid", "coefficients": [1.0, 1.3]})
    code, out, err = run(capsys, "spectrum", "--model", path, "--k", "2,2", "--window", "0:0")
    assert (code, out, err) == (2, "", "error: --k needs --m\n")


@pytest.mark.parametrize("argv, flag, value", [
    ("tate --m 3", "k", "1"),
    ("tate --m 3", "n", "2"),
    ("tate --m 3", "model", "model.json"),
    ("lift --input loop.json", "m", "2"),
    ("lift --input loop.json", "k", "1,1"),
    ("lift --input loop.json", "n", "2"),
    ("lift --input loop.json", "model", "model.json"),
    ("sweep --m-range 2:3 --n-list 2", "m", "7"),
    ("sweep --m-range 2:3 --n-list 2", "k", "1,3"),
    ("sweep --m-range 2:3 --n-list 2", "n", "5"),
])
def test_unread_flags_rejected(capsys, tmp_path, argv, flag, value):
    # each command takes only the flags it reads; sweep once ignored all three
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), f"--{flag}", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({flag: value}))
    code, out, err = run(capsys, *argv.split(), "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"unknown config key {flag!r}" in err


@pytest.mark.parametrize("argv, dim", [
    ("homology --m 5 --k 1,2 --n 2 --window 0:3", 0),
    ("homology --m 4 --k 1,3 --n 2", 1),
])
def test_homology_accepts_mixed_exponent_classes(capsys, argv, dim):
    # both once exited 2: "requires all twist exponents congruent"
    data = run_json(capsys, *argv.split())["data"]
    assert data["all_match"] is True
    assert {e["dim_quotient"] for e in data["degrees"]} == {dim}


def test_complex_follows_the_model(capsys, tmp_path):
    # on a = (1, 1.3) coordinate 2 closes up at pi/2.6, before coordinate 1
    # at pi/2, so its circle comes first in degrees 4-7
    path = write_model(tmp_path, 2, (1, 1), {"type": "ellipsoid", "coefficients": [1.0, 1.3]})
    gens = run_json(capsys, "complex", "--model", path, "--window", "0:2")["data"]["generators"]
    assert [gens[str(d)][0] for d in range(4, 8)] == [
        "k1.c2.h0.s0", "k1.c2.h1.s0", "k1.c1.h0.s0", "k1.c1.h1.s0"]


def test_sweep_follows_the_model(capsys, tmp_path):
    # a = (1, 2) closes coordinate 2 up twice as often: more degrees than the sphere
    a = [1.0, 2.0]
    path = write_model(tmp_path, 2, (1, 1), {"type": "ellipsoid", "coefficients": a})
    argv = ["sweep", "--m-range", "2:3", "--n-list", "2", "--window", "0:2"]
    data = run_json(capsys, *argv, "--model", path)["data"]
    assert data["all_match"] is True
    for entry in data["sweep"]:
        report = compare_with_oracle(RadialProfile(a), RotationTwist(entry["m"], (1, 1)), (0, 2))
        assert entry["degrees"] == report["degrees"]
    sphere = run_json(capsys, *argv)["data"]["sweep"]
    assert [len(e["degrees"]) for e in data["sweep"]] == [12, 12]
    assert [len(e["degrees"]) for e in sphere] == [10, 10]
    code, out, err = run(capsys, "sweep", "--model", path, "--n-list", "2,3")
    assert code == 2 and out == "" and "n-list" in err


def test_cz_index_at_a_huge_branch(capsys):
    # the index once came from about 4 |branch| stored angle samples per line
    rows = run_json(capsys, "cz-index", "--m", "2", "--k", "1,1", "--n", "2",
                    "--window", "10000000:10000000")["data"]["rows"]
    assert rows == [{"k": 10000000, "tau": pytest.approx(math.pi * 19999999 / 2),
                     "index": 4 * 10000000 - 2}]


@pytest.mark.parametrize("name", ["rtol", "atol", "fd_step", "dedup", "kernel"])
def test_removed_tolerance_names_rejected(capsys, name):
    err = parse_error(capsys, "spectrum", "--m", "2", "--k", "1,1", "--n", "2",
                      "--tol", f"{name}=1e-6")
    assert f"unknown tolerance name {name!r}" in err


@pytest.mark.parametrize("pair, message", [
    ("residual=nan", "need a finite number, got 'nan'"),
    ("surface=-1", "need a positive tolerance, got 'surface=-1'"),
    ("tau_travel=0", "need a positive tolerance, got 'tau_travel=0'"),
    ("lift_match=inf", "need a finite number, got 'inf'"),
    ("residual", "bad tolerance override 'residual', expected NAME=VALUE"),
])
def test_bad_tolerance_values_rejected_at_parse_time(capsys, tmp_path, pair, message):
    # these once exited 3 or 0, or certify printed a wrong deck
    flags = ("certify", "--m", "2", "--k", "1,1", "--n", "2")
    assert message in parse_error(capsys, *flags, "--tol", pair)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tol": ["residual=1e-9", pair]}))
    assert message in parse_error(capsys, *flags, "--config", str(cfg))


def test_certify_lifts_with_lift_match(capsys):
    # certify once echoed lift_match in its metadata and lifted with the default
    code, out, err = run(capsys, "certify", "--m", "2", "--k", "1,1", "--n", "2",
                         "--tol", "lift_match=1e-300")
    assert code == 5 and out == ""
    assert err.startswith("lifting error: lift ends ") and "lift_match 1.000e-300" in err


def half_turn_loop(tmp_path):
    """Loop file of the half turn from e_1 to its rotation -e_1 under m = 2."""
    arc = np.stack([np.exp(1j * math.pi * s) * np.array([1.0 + 0j, 0j])
                    for s in np.linspace(0.0, 1.0, 64)])
    path = tmp_path / "loop.json"
    loop = QuotientLoop(samples=arc, twist=RotationTwist(2, (1, 1)))
    path.write_text(json.dumps(loop.to_json_dict()))
    return str(path)


def test_lift_reports_the_nearest_rotation(capsys, tmp_path):
    # the arc ends on the rotated start, 2 from the start: the first power
    # within lift_match = 5 once gave deck 0
    data = run_json(capsys, "lift", "--input", half_turn_loop(tmp_path),
                    "--tol", "lift_match=5")["data"]
    assert data["deck"] == 1 and data["noncontractible"] is True


@pytest.mark.parametrize("argv, message", [
    ("spectrum --m 2 --n 2 --k 1,x", "need an integer, got 'x'"),
    ("sweep --n-list 2,0", "need at least 1 complex coordinate, got 0"),
    ("spectrum --m 2 --k 1,1 --window 0:x", "bad window '0:x', expected LO:HI"),
    ("tate --m 2 --degrees 3", "bad degrees '3', expected LO:HI"),
    ("orbit --m 2 --n 2 --tau 1.5 --z 1,0,x,0", "need a finite number, got 'x'"),
])
def test_malformed_lists_and_windows_rejected_at_parse_time(capsys, argv, message):
    assert message in parse_error(capsys, *argv.split())


def test_tolerance_metadata_names_the_settings_fields(capsys, tmp_path):
    sphere = "--m 2 --k 1,1 --n 2"
    cases = {
        "spectrum": sphere, "orbit": f"{sphere} --tau 1.5",
        "action": f"{sphere} --tau 1.5 --samples 20", "cz-index": sphere,
        "complex": "--m 3 --n 2 --window 0:1", "homology": "--m 2 --n 2 --window 0:1",
        "tate": "--m 2", "lift": f"--input {half_turn_loop(tmp_path)}", "certify": sphere,
        "sweep": "--m-range 2:2 --window 0:1",
    }
    assert set(cases) == set(COMMANDS)
    fields = {f.name for f in dataclasses.fields(SolverSettings)}
    assert fields == {"residual", "tau_travel", "surface", "lift_match"}
    for command, flags in cases.items():
        meta = run_json(capsys, command, *flags.split(), "--tol", "surface=0.01")["meta"]
        assert meta["tolerances"] == {**dataclasses.asdict(SolverSettings()), "surface": 0.01}


def _store(flag, default=None):
    return (f"--{flag}",), (flag.replace("-", "_"), default, None, None, "_StoreAction")


_GEOMETRY_ACTIONS = [_store("m"), _store("k"), _store("n"), _store("model")]
_SHARED_ACTIONS = [_store("config"), (("--tol",), ("tol", [], None, "NAME=VALUE", "_AppendAction")),
                   (("--format",), ("format", None, ("json", "csv", "table"), None,
                                    "_StoreAction")),
                   _store("out")]
PINNED_PARSER = {
    "spectrum": [*_GEOMETRY_ACTIONS, *_SHARED_ACTIONS, _store("window", (0, 3))],
    "orbit": [*_GEOMETRY_ACTIONS, *_SHARED_ACTIONS, _store("tau"), _store("z")],
    "action": [*_GEOMETRY_ACTIONS, *_SHARED_ACTIONS, _store("tau"), _store("z"),
               _store("samples", 1000)],
    "cz-index": [*_GEOMETRY_ACTIONS, *_SHARED_ACTIONS, _store("window", (0, 3))],
    "complex": [*_GEOMETRY_ACTIONS, *_SHARED_ACTIONS, _store("window", (0, 2))],
    "homology": [*_GEOMETRY_ACTIONS, *_SHARED_ACTIONS, _store("window", (0, 3))],
    "tate": [_store("m"), *_SHARED_ACTIONS, _store("degrees", (0, 9))],
    "lift": [*_SHARED_ACTIONS, _store("input"), _store("basepoint", 0)],
    "certify": [*_GEOMETRY_ACTIONS, *_SHARED_ACTIONS, _store("pearl", 1),
                _store("samples", 256)],
    "sweep": [_store("model"), *_SHARED_ACTIONS, _store("window", (0, 3)),
              _store("m-range", (2, 6)), _store("n-list", (2,))],
}


def test_parser_is_pinned(capsys):
    # every subcommand's actions, field by field, with no abbreviations and a
    # fresh --tol list in every parser built
    parsers = [next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices for _ in range(2)]
    assert list(parsers[0]) == list(PINNED_PARSER) == list(COMMANDS)
    help_action = (("-h", "--help"), ("help", argparse.SUPPRESS, None, None, "_HelpAction"))
    for command, expected in PINNED_PARSER.items():
        sub = parsers[0][command]
        assert sub.allow_abbrev is False
        assert len(sub._actions) == len(expected) + 1
        assert {tuple(a.option_strings): (a.dest, a.default, a.choices, a.metavar,
                                          type(a).__name__)
                for a in sub._actions} == dict([help_action, *expected])
        tol = [a.default for p in parsers for a in p[command]._actions if a.dest == "tol"]
        assert tol == [[], []] and tol[0] is not tol[1]
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: reebtwist {command} ")
    assert sum(len(actions) + 1 for actions in PINNED_PARSER.values()) == 97


def test_main_frees_its_parser_in_the_youngest_generation():
    # a parser is cyclic garbage; with a collection at almost every
    # allocation, one built while the collector ran reached the oldest
    # generation, which only a full collection frees
    def old_parsers():
        return [o for o in gc.get_objects(generation=2)
                if isinstance(o, argparse.ArgumentParser) and o.prog.startswith("reebtwist")]

    thresholds = gc.get_threshold()
    gc.collect()
    gc.set_threshold(1, 1, 10 ** 9)
    try:
        assert main(["tate", "--m", "2", "--degrees", "0:1"]) == 0
        assert old_parsers() == [] and gc.isenabled()
        gc.disable()
        assert main(["tate", "--m", "2", "--degrees", "0:1"]) == 0
        assert not gc.isenabled()
    finally:
        gc.set_threshold(*thresholds)
        gc.enable()


@pytest.mark.parametrize("profile, a", [
    ({"type": "constant", "value": 0.7}, 1 / 0.49),
    ({"type": "ellipsoid", "coefficients": [2.0, 2.0]}, 2.0),
], ids=["constant", "ellipsoid"])
def test_certify_seeds_at_the_models_multiplier(capsys, tmp_path, profile, a):
    # seeded at the sphere's pi/2, these left the multiplier trust interval
    path = write_model(tmp_path, 2, (1, 1), profile)
    data = run_json(capsys, "certify", "--model", path)["data"]
    assert data["orbit"]["tau"] == pytest.approx(math.pi / (2 * a), abs=1e-9)
    assert data["index"] == 2 * rotation_index(math.pi)


@pytest.mark.parametrize("pearl", [1, 2, 3])
def test_certify_labels_the_component_by_its_closing_branch(capsys, tmp_path, pearl):
    # the round sphere's branch formula once labelled these l=2, l=4 and l=7
    path = write_model(tmp_path, 3, (1, 2), {"type": "ellipsoid", "coefficients": [0.4, 1.3]})
    data = run_json(capsys, "certify", "--model", path, "--pearl", str(pearl))["data"]
    assert data["orbit"]["component"] == f"supp(1)|l={pearl}"


def test_spectrum_and_cz_index_follow_the_model(capsys, tmp_path):
    # both once printed the round sphere's rows on any model file
    path = write_model(tmp_path, 2, (1, 1),
                       {"type": "ellipsoid", "coefficients": [1.0, 2.5]})
    cz = run_json(capsys, "cz-index", "--model", path, "--window", "1:1")["data"]["rows"]
    assert cz == [{"k": 1, "tau": pytest.approx(math.pi / 2), "index": 4}]
    rows = run_json(capsys, "spectrum", "--model", path, "--window", "1:1")["data"]["rows"]
    assert [(row["tau"], row["support"], row["index"]) for row in rows] == [
        (pytest.approx(math.pi / 5), [2], 2), (pytest.approx(math.pi / 2), [1], 4)]


@pytest.mark.parametrize("argv, index", [
    ("cz-index --m 2 --k 1,1 --n 2 --window 17:17", 66),
    ("cz-index --m 2 --k 1,1 --n 2 --window=-16:-16", -66),
    ("spectrum --m 2 --k 1,1 --n 2 --window 17:17", 66),
    ("certify --m 2 --k 1,1 --n 2 --pearl 17", 66),
])
def test_rotation_paths_at_any_branch(capsys, argv, index):
    # rates above 32 pi once made 33-sample tracks discontinuous
    data = run_json(capsys, *argv.split())["data"]
    assert [row["index"] for row in data.get("rows", [data])] == [index]


@pytest.mark.parametrize("argv", [
    "cz-index --m 2 --k 1,1 --n 2 --window 3:1",
    "sweep --m-range 6:2",
    "tate --m 2 --degrees 3:1",
])
def test_reversed_windows_rejected(capsys, argv):
    assert "LO exceeds HI" in parse_error(capsys, *argv.split())


@pytest.mark.parametrize("m_range, lo", [("--m-range 0:2", 0), ("--m-range=-3:-1", -3)])
def test_m_range_below_one_rejected_at_parse_time(capsys, m_range, lo):
    # both once stopped only at run time, on "modulus must be a positive integer"
    err = parse_error(capsys, "sweep", *m_range.split(), "--n-list", "2")
    assert err.endswith(f"error: argument --m-range: need at least 1 group element, got {lo}\n")
    assert parse_error(capsys, "tate", "--m", str(lo)).endswith(
        f"error: argument --m: need at least 1 group element, got {lo}\n")


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_non_finite_tau_rejected_at_parse_time(capsys, tau):
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--m", "2", "--n", "2", f"--tau={tau}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "need a finite number" in err and "DLASCL" not in err


@pytest.mark.parametrize("argv", [
    "spectrum --m 2 --k 1,1 --n 2 --window -1:2",
    "tate --m 2 --degrees -2:3",
    "spectrum --m 2 --k -1,1 --n 2",
    "orbit --m 2 --k 1,1 --n 2 --tau 1.5 --z -0.6,0,0.8,0",
    "orbit --m 2 --k 1,1 --n 2 --tau -1.5",
], ids=["window", "degrees", "k", "z", "tau"])
def test_negative_value_binds_to_its_flag(capsys, argv):
    # all but --tau once stopped with "expected one argument"
    joined = re.sub(r" (-\d)", r"=\1", argv)
    assert joined != argv
    assert run(capsys, *argv.split()) == run(capsys, *joined.split())
    assert run(capsys, *argv.split())[0] == 0


def test_flag_followed_by_a_flag_still_rejected(capsys):
    err = parse_error(capsys, "spectrum", "--m", "2", "--k", "1,1", "--window", "--n", "2")
    assert "argument --window: expected one argument" in err


def test_config_supplies_tau_and_input(capsys, tmp_path):
    # both once exited 2: the parse that checked them ran before the config
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"m": 2, "k": [1, 1], "n": 2, "tau": 1.5}))
    data = run_json(capsys, "orbit", "--config", str(cfg))["data"]
    assert data["orbit"]["tau"] == pytest.approx(math.pi / 2, abs=1e-8)
    cfg.write_text(json.dumps({"input": half_turn_loop(tmp_path)}))
    assert run_json(capsys, "lift", "--config", str(cfg))["data"]["deck"] == 1


@pytest.mark.parametrize("argv, message", [
    ("orbit --m 2 --k 1,1 --n 2", "error: orbit needs --tau\n"),
    ("action --m 2 --k 1,1 --n 2", "error: action needs --tau\n"),
    ("lift", "error: lift needs --input\n"),
    ("tate", "error: tate needs --m\n"),
], ids=["orbit", "action", "lift", "tate"])
def test_missing_needed_flag_is_one_error_line(capsys, argv, message):
    assert run(capsys, *argv.split()) == (2, "", message)


def test_missing_output_directory_is_one_error_line(capsys, tmp_path):
    code, out, err = run(capsys, "tate", "--m", "2", "--out", str(tmp_path / "none" / "x.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


def test_full_stdout_is_one_error_line(capsys, monkeypatch):
    # writing to /dev/full once ended in a traceback with exit 1
    class FullDevice(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", FullDevice())
    code = main(["tate", "--m", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_untwisted_margin_is_standard_json(capsys, tmp_path):
    # the trivial group's unbounded margin was once printed as Infinity
    code, out, _ = run(capsys, "certify", "--m", "1", "--k", "1,1", "--n", "2")
    assert code == 0 and strict_json(out)["data"]["margin"] is None
    arc = np.stack([np.exp(2j * math.pi * s) * np.array([1.0 + 0j, 0j])
                    for s in np.linspace(0.0, 1.0, 64)])
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(QuotientLoop(samples=arc, twist=RotationTwist(1, (1, 1)))
                               .to_json_dict()))
    code, out, _ = run(capsys, "lift", "--input", str(path))
    data = strict_json(out)["data"]
    assert code == 0 and data["margin"] is None and data["deck"] == 0


def test_config_keys_apply_over_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"samples": 10, "m": 2, "n": 2}))
    data = run_json(capsys, "action", "--config", str(cfg), "--tau", "1.5")["data"]
    assert data["samples"] == 10
    # a flag wins even when it repeats the default
    data = run_json(capsys, "action", "--config", str(cfg), "--tau", "1.5",
                    "--samples", "1000")["data"]
    assert data["samples"] == 1000
    cfg.write_text(json.dumps({"degrees": "0:2"}))
    data = run_json(capsys, "tate", "--m", "3", "--config", str(cfg))["data"]
    assert [row["d"] for row in data["degrees"]] == [0, 1, 2]


def test_config_tolerances_merge_with_flags(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"m": 2, "k": [1, 1], "n": 2,
                               "tol": ["residual=1e-10", "surface=1e-4"]}))
    tols = run_json(capsys, "spectrum", "--config", str(cfg),
                    "--tol", "residual=1e-9")["meta"]["tolerances"]
    assert tols["residual"] == 1e-9 and tols["surface"] == 1e-4


def test_config_values_pass_flag_validation(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"samples": 1, "m": 2, "n": 2}))
    with pytest.raises(SystemExit) as exc:
        main(["action", "--config", str(cfg), "--tau", "1.5"])
    assert exc.value.code == 2
    assert "need at least 2 samples" in capsys.readouterr().err
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(capsys, "tate", "--m", "3", "--config", str(cfg))
    assert code == 2 and "unknown config key" in err


@st.composite
def twisted_pearls(draw):
    m = draw(st.integers(2, 8))
    units = [k for k in range(1, 2 * m + 1) if math.gcd(k, m) == 1]
    k = draw(st.lists(st.sampled_from(units), min_size=2, max_size=3))
    return m, k, draw(st.integers(-1, 2))


def _flags(m, k):
    return ["--m", str(m), "--k", ",".join(map(str, k)), "--n", str(len(k))]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(twisted_pearls())
def test_certify_cz_index_and_spectrum_agree(capsys, case):
    m, k, pearl = case
    window = f"--window={pearl}:{pearl}"
    tau = run_json(capsys, "certify", *_flags(m, k), "--pearl", str(pearl))["data"]["orbit"]["tau"]
    cz = run_json(capsys, "cz-index", *_flags(m, k), window)["data"]["rows"]
    assert cz[0]["tau"] == pytest.approx(tau, abs=1e-9)
    rows = run_json(capsys, "spectrum", *_flags(m, k), window)["data"]["rows"]
    assert any(1 in row["support"] and row["tau"] == pytest.approx(tau, abs=1e-9)
               for row in rows)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(twisted_pearls(), st.lists(st.integers(-50, 50), min_size=3, max_size=3))
def test_certify_index_matches_ellipsoid_closed_form(capsys, tmp_path, case, offsets):
    m, k, pearl = case
    a = [1.0 + d / 1000 for d in offsets[:len(k)]]
    path = write_model(tmp_path, m, k, {"type": "ellipsoid", "coefficients": a})
    data = run_json(capsys, "certify", "--model", path, "--pearl", str(pearl))["data"]
    tau = data["orbit"]["tau"]
    assert in_progression(tau * a[0], m, k[0])
    assert data["index"] == sum(rotation_index(2 * tau * aj) for aj in a)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(twisted_pearls(), st.lists(st.floats(0.5, 3.0), min_size=3, max_size=3))
def test_ellipsoid_certify_cz_index_and_spectrum_agree(capsys, tmp_path, case, coeffs):
    m, k, pearl = case
    path = write_model(tmp_path, m, k, {"type": "ellipsoid", "coefficients": coeffs[:len(k)]})
    window = f"--window={pearl}:{pearl}"
    data = run_json(capsys, "certify", "--model", path, "--pearl", str(pearl))["data"]
    tau = data["orbit"]["tau"]
    cz = run_json(capsys, "cz-index", "--model", path, window)["data"]["rows"]
    assert cz[0]["tau"] == pytest.approx(tau, abs=1e-9)
    assert cz[0]["index"] == data["index"]
    rows = run_json(capsys, "spectrum", "--model", path, window)["data"]["rows"]
    assert any(1 in row["support"] and row["tau"] == pytest.approx(tau, abs=1e-9)
               for row in rows)


@pytest.mark.parametrize("argv, message", [
    (["certify", "--m", "2", "--k", "1,1", "--n", "2", "--samples", "1"], "2 samples"),
    (["action", "--m", "2", "--k", "1,1", "--n", "2", "--tau", "1.5", "--samples", "0"],
     "2 samples"),
    (["spectrum", "--m", "2", "--n", "0", "--k", "1,1"], "1 complex coordinate"),
    (["spectrum", "--m", "2", "--n", "-1"], "1 complex coordinate"),
    (["tate", "--m", "0"], "1 group element"),
    (["tate", "--m", "-2"], "1 group element"),
    (["spectrum", "--m", "-3", "--k", "1,1"], "1 group element"),
], ids=["certify", "action", "n0", "n-1", "m0-tate", "m-2-tate", "m-3-spectrum"])
def test_too_few_samples_rejected_at_parse_time(capsys, argv, message):
    # --n 0 was once read as "no --n" and replaced by the twist's n; --m 0
    # and below once got past the parser to RotationTwist or tate_homology
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"need at least {message}" in capsys.readouterr().err


def test_entry_point_subprocess():
    src = Path(reebtwist.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "reebtwist.cli", "tate", "--m", "3",
         "--degrees", "0:3", "--format", "csv"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "d,dim,reliable"


def test_cli_import_loads_no_scipy():
    src = Path(reebtwist.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, reebtwist.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


# Runs each argv through main in one fresh interpreter and prints, after the
# import and after each command, whether numpy has executed: the lazy binding
# puts a stub "numpy" in sys.modules, but "numpy._core" only once it runs.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import reebtwist.cli
seen = ["numpy._core" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert reebtwist.cli.main(argv) == 0, argv
    seen.append("numpy._core" in sys.modules)
print(json.dumps(seen))
"""

_PEARL_AND_SPECTRUM = ["tate --m 4", "homology --m 4 --n 2", "complex --m 3 --n 2 --window 0:1",
                       "sweep --m-range 2:5 --n-list 2,3", "spectrum --m 2 --k 1,1 --n 2",
                       "spectrum --m 3 --n 2 --format csv"]
_ELLIPSOID = Path(__file__).parent / "models" / "ellipsoid_m3.json"


@pytest.mark.parametrize("commands, loaded", [
    (_PEARL_AND_SPECTRUM, [False] * 7),
    ([*_PEARL_AND_SPECTRUM, "certify --m 2 --k 1,1"], [False] * 7 + [True]),
    ([f"spectrum --model {_ELLIPSOID}"], [False, False]),
    ([f"homology --model {_ELLIPSOID}"], [False, False]),
    ([f"sweep --model {_ELLIPSOID} --m-range 3:3 --n-list 2"], [False, False]),
    ([f"complex --model {_ELLIPSOID}"], [False, False]),
    ([f"cz-index --model {_ELLIPSOID}"], [False, False]),
    ([f"certify --model {_ELLIPSOID}"], [False, True]),
], ids=["flag-commands", "then-certify", "spectrum-model", "homology-model", "sweep-model",
        "complex-model", "cz-index-model", "certify-model"])
def test_numpy_executes_only_for_commands_that_compute_arrays(commands, loaded):
    # the homology side runs on pure-Python GF(2) integers; numpy's import
    # was once half of every process's start-up
    src = Path(reebtwist.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps([c.split() for c in commands])],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert json.loads(out.stdout) == loaded


def test_deferred_import_of_a_missing_module_fails_at_once():
    with pytest.raises(ModuleNotFoundError, match="reebtwist_no_such_module"):
        lazy_module("reebtwist_no_such_module")


_BIG = str(10 ** 400)
_HUGE = "1" + "0" * 5000  # beyond int()'s default limit of 4300 digits


@pytest.mark.parametrize("argv, message", [
    (f"spectrum --m 2 --n 2 --window 0:-{_BIG}",
     "argument --window: empty window '0:-1" + "0" * 36 + "...' (404 characters): LO exceeds HI"),
    (f"certify --m 3 --k 1,x{_BIG} --n 2",
     "argument --k: need an integer, got 'x1" + "0" * 38 + "...' (402 characters)"),
    (f"homology --m {_HUGE} --n 2",
     "argument --m: need an integer, got '1" + "0" * 39 + "...' (5001 characters)"),
    (f"tate --m 2 --degrees 0:{_HUGE}",
     "argument --degrees: bad degrees '0:1" + "0" * 37 + "...' (5003 characters), "
     "expected LO:HI"),
    (f"sweep --n-list 2,-{_BIG}",
     "argument --n-list: need at least 1 complex coordinate, got -1" + "0" * 38
     + "... (402 characters)"),
    (f"orbit --m 2 --n 2 --tau 1.5 --z 1,0,x{_BIG},0",
     "argument --z: need a finite number, got 'x1" + "0" * 38 + "...' (402 characters)"),
    (f"spectrum --m 2 --n 2 --tol x{_BIG}",
     "argument --tol: bad tolerance override 'x1" + "0" * 38 + "...' (402 characters), "
     "expected NAME=VALUE"),
    (f"lift --input loop.json --basepoint x{_BIG}",
     "argument --basepoint: need an integer, got 'x1" + "0" * 38 + "...' (402 characters)"),
], ids=["window", "k", "m-beyond-int-limit", "degrees", "n-list", "z", "tol", "basepoint"])
def test_long_rejected_values_are_cut_in_the_message(capsys, argv, message):
    # each once echoed the whole value: 481 bytes for the window, 466 for --k
    err = parse_error(capsys, *argv.split())
    assert err.splitlines()[-1].endswith(f"error: {message}")
    assert len(err.splitlines()[-1]) < 200
