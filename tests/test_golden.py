"""Byte-for-byte CLI output on the round sphere, pinned to JSON files.

The files in ``tests/golden/`` were first captured before the star-shaped
model protocol replaced the sphere's special cases.  They were re-captured
once, when the shooting's forward-difference Newton Jacobian gave way to
its closed form and five unused tolerance names left ``meta.tolerances``:
nine files lost only those five keys, and the floats of ``orbit``,
``orbit_off_axis``, ``action`` and ``action_off_axis`` moved by at most
6.4e-12, except the sphere orbit's stopping noise in z0 (about 2.5e-9 off
the exact orbit before, below 1e-18 after).  The commands are the README
examples plus off-axis seeds, higher pearls and mixed exponent classes.
``homology_mixed`` was added when the pearl complex began to take its
generators from the spectrum and so accepted mixed exponent classes; no
existing file changed then.  The csv and table files were captured before
the renderers stopped rounding floats on their own and left that to one
pass in ``main``; ``certify`` has no csv view.  The ``model_*`` files run
the model files in ``tests/models/`` (two ellipsoids and a constant
profile); they were captured before the model classes collapsed into the
one coefficient record ``RadialProfile``, whose Reeb field is -2i a z in
closed form.  ``lift`` lifts the loop file ``tests/models/loop_m5.json``
(m = 5, deck 2, its samples different rotations of one path) from its
second basepoint; it was captured while the lift still measured each
(point, rotation) pair on its own.  ``homology_m1024`` (three exponent
classes at m = 1024) was captured while ``homology`` still checked, divided
and ranked the pearl complex as m x m matrices, before it was decided on
group-ring elements.  ``certify_m2040`` lifts certify's 257 loop points
against 2040 rotations, the most that ``lifting.MAX_LIFT_PAIRS`` admits; it
was captured while each lift step still called ``np.linalg.norm`` and kept
the whole lifted path.  ``certify_samples_cap`` is the cap's other end,
2^18 loop points against 2 rotations; it was captured while the lift still
walked the loop one point at a time.  ``tate_m5`` keeps a class at both
truncation ends of an odd order; it was captured while ``tate`` still ranked
its resolution as 1 x 1 matrices, before the closed form.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reebtwist
from reebtwist.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODEL_FILES = Path(__file__).parent / "models"

CASES = {
    "spectrum": "spectrum --m 2 --k 1,1 --n 2 --window 0:3",
    "orbit": "orbit --m 2 --k 1,1 --n 2 --tau 1.5",
    "action": "action --m 2 --k 1,1 --n 2 --tau 1.5 --samples 1000",
    "cz_index": "cz-index --m 2 --k 1,1 --n 2 --window=-1:2",
    "complex": "complex --m 3 --n 2 --window 0:2",
    "homology": "homology --m 4 --n 2 --window 0:3",
    "homology_mixed": "homology --m 5 --k 1,2 --n 2 --window 0:3",
    "homology_m1024": "homology --m 1024 --k 1,3,5 --n 3 --window=-1:2",
    "tate": "tate --m 4 --degrees 0:9",
    "tate_m5": "tate --m 5 --degrees 0:5",
    "certify": "certify --m 2 --k 1,1 --n 2",
    "sweep": "sweep --m-range 2:8 --n-list 2,3 --window 0:3",
    "orbit_off_axis": "orbit --m 3 --k 1,2 --n 2 --tau 1.3 --z 0.8,0.1,0.6,-0.05",
    "certify_pearl2": "certify --m 5 --k 1,2,3 --n 3 --pearl 2",
    "certify_pearl_neg": "certify --m 7 --k 1,3 --n 2 --pearl -1",
    "certify_m2040": "certify --m 2040 --k 1,1 --n 2",
    "certify_samples_cap": "certify --m 2 --k 1,1 --n 2 --samples 262143",
    "action_off_axis": "action --m 4 --k 1,3 --n 2 --tau -0.6 --z 0.9,0.2,0.1,0.3",
}


MODEL_GOLDEN = {
    "model_spectrum": ("ellipsoid_m3", "spectrum"),
    "model_certify_pearl2": ("ellipsoid_m3", "certify --pearl 2"),
    "model_homology": ("ellipsoid_m3", "homology"),
    "model_orbit": ("constant_m2", "orbit --tau 1.5"),
    "model_action": ("constant_m2", "action --tau 1.5 --samples 200"),
    "model_certify": ("ellipsoid3_m4", "certify"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_json(capsys, name):
    code = main(CASES[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(MODEL_GOLDEN))
def test_golden_model_json(capsys, name):
    model, command = MODEL_GOLDEN[name]
    code = main([*command.split(), "--model", str(MODEL_FILES / f"{model}.json")])
    assert code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_golden_lift(capsys):
    argv = ["lift", "--input", str(MODEL_FILES / "loop_m5.json"), "--basepoint", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "lift.json").read_bytes()


# A child's peak RSS counts the memory of the process that starts it, here
# the whole test session, so a bare interpreter starts the command and
# writes its output, then the command's peak in kB on stderr.
PEAK_PROBE = ("import resource, subprocess, sys; "
              "run = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, check=True); "
              "sys.stdout.buffer.write(run.stdout); "
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)")


def test_certify_at_the_pair_cap_holds_one_row_block():
    # on x86-64 Linux the per-point lift peaked at 45.1 MB RSS here and a
    # lift that formed all 2^18 lifted points at once at 75.4 MB
    src = Path(reebtwist.__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE,
         sys.executable, "-m", "reebtwist.cli", *CASES["certify_samples_cap"].split()],
        capture_output=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert probe.stdout == (GOLDEN / "certify_samples_cap.json").read_bytes()
    peak_mb = int(probe.stderr) / 1024
    assert peak_mb < 60, f"peaked at {peak_mb:.1f} MB RSS"


TABULAR = {
    "spectrum.csv": "spectrum --m 2 --k 1,1 --n 2 --window 0:3 --format csv",
    "spectrum_table.txt": "spectrum --m 2 --k 1,1 --n 2 --window 0:3 --format table",
    "certify_table.txt": "certify --m 2 --k 1,1 --n 2 --format table",
}


@pytest.mark.parametrize("name", sorted(TABULAR))
def test_golden_tabular(capsys, name):
    code = main(TABULAR[name].split())
    assert code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


MODELS = {
    "ellipsoid": {"type": "ellipsoid", "coefficients": [1.0, 1.3]},
    "constant": {"type": "constant", "value": 1.1},
}

MODEL_CASES = {
    "certify": "certify",
    "orbit": "orbit --tau 1.5",
    "action": "action --tau 1.5 --samples 200",
}


def _refuse_integration(*_args, **_kwargs):
    raise AssertionError("a CLI command reached the numeric integrator")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_commands_never_integrate(capsys, monkeypatch, name):
    monkeypatch.setattr("scipy.integrate.solve_ivp", _refuse_integration)
    assert main(CASES[name].split()) == 0


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
@pytest.mark.parametrize("profile", sorted(MODELS))
def test_model_commands_never_integrate(capsys, monkeypatch, tmp_path, profile, case):
    # every model flows in closed form; tau = 1.5 seeds within the trust
    # interval of the multiplier pi / (2 a_1)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "radial_profile", "n": 2,
                                "twist": {"m": 2, "k": [1, 1]},
                                "profile": MODELS[profile]}))
    monkeypatch.setattr("scipy.integrate.solve_ivp", _refuse_integration)
    assert main([*MODEL_CASES[case].split(), "--model", str(path)]) == 0
