import math

import numpy as np
import pytest

from reebtwist.czindex import (
    DiscontinuousTrackError,
    UnitaryPath,
    cz_index_unitary,
    grading,
    relative_index,
)


def orbit_path(tau: float, n: int) -> UnitaryPath:
    """Linearized-flow path of a sphere orbit with multiplier tau."""
    return UnitaryPath.from_rotation_rates([2.0 * tau] * n)


def spectrum_value(m: int, k: int) -> float:
    return math.pi * (m * k - 1) / m


def test_index_anchor_first_pearl():
    # m = 2, n = 2: multiplier pi/2, index (2*1 - 1)*2
    assert cz_index_unitary(orbit_path(spectrum_value(2, 1), 2)) == 2


def test_constant_identity_path_is_zero():
    path = UnitaryPath.from_rotation_rates([0.0, 0.0])
    assert cz_index_unitary(path) == 0


def test_index_negative_branch():
    # multiplier -pi/2 gives -1 per eigenline: 2*floor(tau/pi) + 1 at tau/pi = -1/2
    assert cz_index_unitary(orbit_path(spectrum_value(2, 0), 2)) == -2


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", range(-2, 4))
def test_index_formula_all_branches(m, n, k):
    assert cz_index_unitary(orbit_path(spectrum_value(m, k), n)) == (2 * k - 1) * n


def test_closed_form_on_multiplier_grid():
    # n * (2 floor(tau/pi) + 1) away from integer multiples of pi
    for n in (1, 2, 3):
        for tau in np.arange(-3.3, 3.4, 0.37):
            if abs(tau / math.pi - round(tau / math.pi)) < 1e-3:
                continue
            expected = n * (2 * math.floor(tau / math.pi) + 1)
            assert cz_index_unitary(orbit_path(tau, n)) == expected


def test_degenerate_endpoint_boundary_term():
    # a full loop ends on the identity and carries the even boundary value
    assert cz_index_unitary(UnitaryPath.from_rotation_rates([2 * math.pi])) == 2
    assert cz_index_unitary(UnitaryPath.from_rotation_rates([-2 * math.pi])) == -2
    assert cz_index_unitary(orbit_path(math.pi, 2)) == 4


def test_grading_examples():
    assert grading(k=1, morse_index=0, n=2) == 4
    assert grading(k=0, morse_index=3, n=2) == 3
    assert grading(k=0, morse_index=0, n=2) == 0


def test_relative_index_consecutive_pearls():
    for n in (2, 3):
        a = orbit_path(spectrum_value(2, 1), n)
        b = orbit_path(spectrum_value(2, 0), n)
        assert relative_index(a, b) == 2 * n
    assert relative_index(orbit_path(spectrum_value(2, 1), 3),
                          orbit_path(spectrum_value(2, 0), 3)) == 6


def test_relative_index_of_equal_paths():
    p = orbit_path(1.2, 2)
    assert relative_index(p, p) == 0


def test_catenation_additivity_matching_endpoints():
    # the second piece starts where the first ends: indices telescope
    times = np.linspace(0, 1, 33)
    for r1, r2 in [(1.0, 2.2), (5.0, 1.3), (-2.0, -1.1), (3.9, 3.9)]:
        rates1 = np.array([r1, 0.7 * r1])
        rates2 = np.array([r2, 0.7 * r2])
        p1 = UnitaryPath(times, rates1[:, None] * times[None, :])
        p2 = UnitaryPath(times, rates1[:, None] + rates2[:, None] * times[None, :])
        cat = p1.concatenate(p2)
        assert cz_index_unitary(cat) == cz_index_unitary(p1) + cz_index_unitary(p2)


def test_catenation_additivity_with_loops():
    # full loops compose additively with any path, in either order
    for wind in (1, -1, 2):
        loop = UnitaryPath.from_rotation_rates([2 * math.pi * wind] * 2)
        path = orbit_path(1.3, 2)
        assert cz_index_unitary(loop.concatenate(path)) == \
            cz_index_unitary(loop) + cz_index_unitary(path)
        assert cz_index_unitary(path.concatenate(loop)) == \
            cz_index_unitary(loop) + cz_index_unitary(path)


def test_full_loop_appends_two_per_line():
    for n in (2, 3):
        base = orbit_path(1.1, n)
        loop = UnitaryPath.from_rotation_rates([2 * math.pi] * n)
        assert cz_index_unitary(base.concatenate(loop)) == cz_index_unitary(base) + 2 * n


def test_discontinuous_track_rejected():
    times = np.linspace(0, 1, 3)
    angles = np.array([[0.0, 4.0, 0.0]])
    with pytest.raises(DiscontinuousTrackError):
        cz_index_unitary(UnitaryPath(times, angles))


def test_rotation_path_at_any_branch():
    # 33 samples once made every step of a rate above 32 pi at least pi
    for rate in (33 * math.pi, -33 * math.pi, 400.0):
        path = UnitaryPath.from_rotation_rates([rate, 0.5 * rate])
        assert len(path.times) > 33
        assert float(np.max(np.abs(np.diff(path.angles, axis=1)))) < math.pi / 2
        assert cz_index_unitary(path) == sum(
            2 * math.floor(r / (2 * math.pi)) + 1 for r in (rate, 0.5 * rate))
    assert len(UnitaryPath.from_rotation_rates([1.0]).times) == 33
