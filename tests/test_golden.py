"""Byte-for-byte CLI output on the round sphere, pinned to JSON files.

The files in ``tests/golden/`` were captured before the star-shaped model
protocol replaced the sphere's special cases.  The commands are the README
examples plus off-axis seeds, higher pearls and mixed exponent classes.
"""

from pathlib import Path

import pytest

from reebtwist.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "spectrum": "spectrum --m 2 --k 1,1 --n 2 --window 0:3",
    "orbit": "orbit --m 2 --k 1,1 --n 2 --tau 1.5",
    "action": "action --m 2 --k 1,1 --n 2 --tau 1.5 --samples 1000",
    "cz_index": "cz-index --m 2 --k 1,1 --n 2 --window=-1:2",
    "complex": "complex --m 3 --n 2 --window 0:2",
    "homology": "homology --m 4 --n 2 --window 0:3",
    "tate": "tate --m 4 --degrees 0:9",
    "certify": "certify --m 2 --k 1,1 --n 2",
    "sweep": "sweep --m-range 2:8 --n-list 2,3 --window 0:3",
    "orbit_off_axis": "orbit --m 3 --k 1,2 --n 2 --tau 1.3 --z 0.8,0.1,0.6,-0.05",
    "certify_pearl2": "certify --m 5 --k 1,2,3 --n 3 --pearl 2",
    "certify_pearl_neg": "certify --m 7 --k 1,3 --n 2 --pearl -1",
    "action_off_axis": "action --m 4 --k 1,3 --n 2 --tau -0.6 --z 0.9,0.2,0.1,0.3",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_json(capsys, name):
    code = main(CASES[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
