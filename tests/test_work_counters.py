"""Deterministic work counters of fixed CLI runs, pinned exactly.

Wall time is noisy; call counts of the layers that do the work are not, so
a change that makes a command do more work shows here.  Each counter is a
spy on a package function, installed at every module attribute that holds
it, because the modules import names directly.
"""

from collections import Counter
from pathlib import Path

import numpy
import pytest

from reebtwist import cli, complexes, f2, geometry, orbits
from reebtwist.cli import main
from reebtwist.complexes import CyclicAction
from reebtwist.f2 import F2Matrix


def count_calls(monkeypatch, counts, name, owners, attr):
    """Count calls of ``attr`` under ``name``, patched in each of ``owners``."""
    original = getattr(owners[0], attr)

    def spy(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for owner in owners:
        assert getattr(owner, attr) is original
        monkeypatch.setattr(owner, attr, spy)


SPIES = {
    "matmul": ((f2, complexes), "matmul"),
    "cycles": ((CyclicAction,), "cycles"),
    "flows": ((geometry, orbits), "reeb_flow_samples"),
    "newton_steps": ((orbits,), "_shooting_jacobian"),
    "to_rows": ((F2Matrix,), "to_rows"),
    "rank": ((f2, complexes), "rank"),
    "ints_only": ((cli,), "_ints_only"),
    # lifting reaches it through its lazy numpy, the module numpy itself
    "norms": ((numpy.linalg,), "norm"),
}

LOOP_FILE = Path(__file__).parent / "models" / "loop_m5.json"


@pytest.mark.parametrize("argv, expected", [
    # validation multiplies, and homology ranks, once per distinct operand:
    # two stencils and one rotation per exponent, their quotient matrices
    # and the oracle's two matrices
    ("homology --m 64 --n 4 --window=0:3", {"matmul": 10, "cycles": 1, "rank": 4}),
    ("homology --m 64 --k 1,3,5,7 --n 4 --window=0:3",
     {"matmul": 28, "cycles": 4, "rank": 10}),
    ("certify --m 2 --k 1,1 --n 2", {"flows": 4}),
    ("orbit --m 2 --k 1,1 --n 2 --tau 1.5", {"flows": 5, "newton_steps": 3}),
    # the complex's degrees share two stencils, each listed once and each
    # rounded and written once (918 list checks when rounding took every degree)
    ("complex --m 36 --n 3 --window=-1:1", {"to_rows": 2, "ints_only": 378}),
    ("sweep --m-range 2:4 --n-list 2,3,4", {"matmul": 90, "cycles": 9, "rank": 36}),
    # one norm per lift step (256 of certify's 257 points, 40 of the loop
    # file's 41) and one for the end gap, m - 1 in orbit_separation, and the
    # rest outside the lift; a norm per (point, rotation) pair gave 1040 and 210
    ("certify --m 4 --k 1,1 --n 2", {"norms": 269}),
    (["lift", "--input", str(LOOP_FILE), "--basepoint", "2"], {"norms": 46}),
], ids=["homology", "homology_four_exponents", "certify", "orbit", "complex", "sweep",
        "certify_norms", "lift_norms"])
def test_work_counters(capsys, monkeypatch, argv, expected):
    counts = Counter()
    for name in expected:
        owners, attr = SPIES[name]
        count_calls(monkeypatch, counts, name, owners, attr)
    assert main(argv if isinstance(argv, list) else argv.split()) == 0, capsys.readouterr().err
    assert dict(counts) == expected
