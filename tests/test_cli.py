import json
import math
import subprocess
import sys

import numpy as np
import pytest

from reebtwist.cli import main
from reebtwist.geometry import RotationTwist
from reebtwist.lifting import QuotientLoop


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


def test_integration_drift_exit_code(capsys, tmp_path):
    # at rtol 1e-6 the ellipsoid flow drifts off the level set beyond 1e-8
    model = {"kind": "radial_profile", "n": 2, "twist": {"m": 2, "k": [1, 1]},
             "profile": {"type": "ellipsoid", "coefficients": [1.0, 1.3]}}
    path = tmp_path / "ell.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "certify", "--model", str(path), "--tol", "rtol=1e-6",
                         "--tol", "atol=1e-8", "--tol", "residual=1e-4")
    assert code == 3 and out == ""
    assert err.startswith("solver error: energy drift") and err.count("\n") == 1


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
    out = subprocess.run(
        [sys.executable, "-m", "reebtwist.cli", "tate", "--m", "3",
         "--degrees", "0:3", "--format", "csv"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "d,dim,reliable"
