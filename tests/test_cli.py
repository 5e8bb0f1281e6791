import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reebtwist
from reebtwist.cli import main
from reebtwist.geometry import RotationTwist
from reebtwist.lifting import QuotientLoop

from oracles import rotation_index


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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


def test_homology_untwisted_note(capsys):
    payload = run_json(capsys, "homology", "--m", "1", "--n", "2",
                       "--window", "0:3")
    assert "note" in payload["data"]
    assert all(row["dim"] == 0 for row in payload["data"]["degrees"])


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
    from reebtwist.complexes import GradedF2Complex, validate

    complex_ = GradedF2Complex.from_json_dict(payload["data"])
    assert validate(complex_).ok
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


def test_lift_undersampled_exit_code(capsys, tmp_path):
    twist = RotationTwist(2, (1, 1))
    arc = np.stack([np.exp(1j * math.pi * s) * np.array([1.0 + 0j, 0j])
                    for s in np.linspace(0, 1, 3)])
    loop = QuotientLoop(samples=arc, twist=twist)
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop.to_json_dict()))
    code, _, err = run(capsys, "lift", "--input", str(path))
    assert code == 5
    assert "lifting" in err


def test_sweep_command(capsys):
    payload = run_json(capsys, "sweep", "--m-range", "2:4", "--n-list", "2",
                       "--window", "0:3")
    results = payload["data"]["sweep"]
    assert [r["m"] for r in results] == [2, 3, 4]
    assert payload["data"]["all_match"] is True


def test_config_error_exit_codes(capsys):
    code, _, err = run(capsys, "spectrum", "--m", "4", "--k", "2,1", "--n", "2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "spectrum", "--m", "2", "--k", "1,1", "--n", "2",
                       "--window", "5:1")
    assert code == 2
    code, _, err = run(capsys, "spectrum", "--m", "2", "--k", "1,1", "--n", "2",
                       "--tol", "bogus=1")
    assert code == 2


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


def test_loose_rtol_certifies_without_drift_check(capsys, tmp_path):
    # rtol 1e-6 once let the integrated ellipsoid flow drift off the level set
    # and exit 3; the flow is closed form now and no command reads rtol/atol
    path = write_model(tmp_path, 2, (1, 1),
                       {"type": "ellipsoid", "coefficients": [1.0, 1.3]})
    payload = run_json(capsys, "certify", "--model", path, "--tol", "rtol=1e-6",
                       "--tol", "atol=1e-8", "--tol", "residual=1e-4")
    assert in_progression(payload["data"]["orbit"]["tau"], 2, 1)   # a_1 = 1
    assert payload["meta"]["tolerances"]["rtol"] == 1e-6


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect: the forward-difference surface row gives a "
                          "coordinate at zero a spurious slope a_j * fd_step")
def test_resonant_seed_stalls(capsys, tmp_path):
    # seeded at tau = -pi/2, coordinate 2 (a_2 = 1, same class as k_1) is
    # resonant, its flow block vanishes, and Newton's step in z_2 is huge
    path = write_model(tmp_path, 2, (1, 1),
                       {"type": "ellipsoid", "coefficients": [1.001, 1.0]})
    data = run_json(capsys, "orbit", "--model", path, "--tau=-1.5707963267948966")["data"]
    assert data["orbit"]["tau"] == pytest.approx(-math.pi / 2 / 1.001, abs=1e-9)


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
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert "LO exceeds HI" in err


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_non_finite_tau_rejected_at_parse_time(capsys, tau):
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--m", "2", "--n", "2", f"--tau={tau}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "need a finite number" in err and "DLASCL" not in err


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
                               "tol": ["residual=1e-10", "fd_step=1e-7"]}))
    tols = run_json(capsys, "spectrum", "--config", str(cfg),
                    "--tol", "residual=1e-9")["meta"]["tolerances"]
    assert tols["residual"] == 1e-9 and tols["fd_step"] == 1e-7


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


@pytest.mark.parametrize("argv", [
    ["certify", "--m", "2", "--k", "1,1", "--n", "2", "--samples", "1"],
    ["action", "--m", "2", "--k", "1,1", "--n", "2", "--tau", "1.5", "--samples", "0"],
], ids=["certify", "action"])
def test_too_few_samples_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "need at least 2 samples" in capsys.readouterr().err


def test_entry_point_subprocess():
    src = Path(reebtwist.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "reebtwist.cli", "tate", "--m", "3",
         "--degrees", "0:3", "--format", "csv"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "d,dim,reliable"
