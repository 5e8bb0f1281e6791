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

from reebtwist import cli, complexes, f2, geometry, orbits, pearls
from reebtwist.cli import main
from reebtwist.complexes import CyclicAction
from reebtwist.f2 import F2Matrix
from reebtwist.geometry import RotationTwist, RoundSphere


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
    "ring_mul": ((pearls,), "ring_mul"),
    "ints_only": ((cli,), "_ints_only"),
    # lifting reaches it through its lazy numpy, the module numpy itself
    "norms": ((numpy.linalg,), "norm"),
    "einsum": ((numpy,), "einsum"),
}

LOOP_FILE = Path(__file__).parent / "models" / "loop_m5.json"


@pytest.mark.parametrize("argv, expected", [
    # the pearl complex is decided on ring elements and the oracle is a
    # closed form, so no matrix is multiplied or ranked (2 and 2 while the
    # oracle ranked its resolution as 1 x 1 matrices; 10, 1 and 4, and 28, 4
    # and 10, when the pearl complex was checked, divided and ranked as m x m
    # matrices)
    ("homology --m 64 --n 4 --window=0:3", {"matmul": 0, "cycles": 0, "rank": 0}),
    ("homology --m 64 --k 1,3,5,7 --n 4 --window=0:3",
     {"matmul": 0, "cycles": 0, "rank": 0, "ring_mul": 10}),
    ("certify --m 2 --k 1,1 --n 2", {"flows": 4}),
    ("orbit --m 2 --k 1,1 --n 2 --tau 1.5", {"flows": 5, "newton_steps": 3}),
    # the complex's degrees share two stencils, each listed once and each
    # written once; the list checks are the writer's alone (918 when rounding
    # took every degree, 378 while the payload was rounded before writing)
    ("complex --m 36 --n 3 --window=-1:1", {"to_rows": 2, "ints_only": 252}),
    # none either (18 and 18 while the oracle took 2 products and 2 ranks per
    # grid point; 90, 9 and 36 on m x m matrices)
    ("sweep --m-range 2:4 --n-list 2,3,4", {"matmul": 0, "cycles": 0, "rank": 0}),
    # the closed form (2 and 2 while the oracle ranked its resolution, one
    # per distinct 1 x 1 boundary); with no product and no rank, neither
    # validate, quotient_by_action nor homology of complexes ran
    ("tate --m 5 --degrees=-3:40", {"matmul": 0, "rank": 0}),
    # the lift's steps and end gap sum their squares without a norm call, so
    # the norms left are the loop's unit check (one per row block, one block
    # here), certify's normalisation of its samples, and the rest outside the
    # lift; a norm per lift step and one for the end gap gave 266 and 42, a
    # norm per (point, rotation) pair 1040 and 210
    ("certify --m 4 --k 1,1 --n 2", {"norms": 9}),
    (["lift", "--input", str(LOOP_FILE), "--basepoint", "2"], {"norms": 1}),
    # one product per row block (one block here) for the separation and one
    # for the lift's steps; a product per lift step would give 257 and 41,
    # and the per-step norm loop, which took none, gave 1 and 1
    ("certify --m 4 --k 1,1 --n 2", {"einsum": 2}),
    (["lift", "--input", str(LOOP_FILE), "--basepoint", "2"], {"einsum": 2}),
    # at m = 2040 the lift's 256 steps take two row blocks of 128, one
    # product each, beside the separation's one
    ("certify --m 2040 --k 1,1 --n 2", {"einsum": 3}),
], ids=["homology", "homology_four_exponents", "certify", "orbit", "complex", "sweep", "tate",
        "certify_norms", "lift_norms", "certify_einsum", "lift_einsum", "certify_einsum_m2040"])
def test_work_counters(capsys, monkeypatch, argv, expected):
    counts = Counter()
    for name in expected:
        owners, attr = SPIES[name]
        count_calls(monkeypatch, counts, name, owners, attr)
    assert main(argv if isinstance(argv, list) else argv.split()) == 0, capsys.readouterr().err
    assert {name: counts[name] for name in expected} == expected


def test_one_ring_product_per_distinct_operand_tuple(capsys, monkeypatch):
    # d.d once per distinct pair of adjacent stencils and equivariance once per
    # distinct (stencil, exponent below, exponent above): the tuples that the
    # expanded complex holds as distinct objects for validate
    counts = Counter()
    count_calls(monkeypatch, counts, "ring_mul", *SPIES["ring_mul"])
    assert main("homology --m 64 --k 1,3,5,7 --n 4 --window=0:3".split()) == 0
    c = pearls.build_pearl_complex(RoundSphere(4), RotationTwist(64, (1, 3, 5, 7)), (0, 3))
    b, p = c.boundaries, c.action.perms
    pairs = {(id(b[d - 1]), id(b[d])) for d in range(c.d_min + 2, c.d_max + 1)}
    triples = {(id(b[d]), id(p[d - 1]), id(p[d])) for d in range(c.d_min + 1, c.d_max + 1)}
    assert (len(pairs), len(triples)) == (2, 8)
    assert counts["ring_mul"] == len(pairs) + len(triples)

