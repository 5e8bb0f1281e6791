import math

import numpy as np
import pytest

from reebtwist.czindex import cz_index_unitary, relative_index

from oracles import rotation_index


def orbit_rates(tau: float, n: int) -> list[float]:
    """Rotation rates of a sphere orbit's linearized flow with multiplier tau."""
    return [2.0 * tau] * n


def spectrum_value(m: int, k: int) -> float:
    return math.pi * (m * k - 1) / m


def test_index_anchor_first_pearl():
    # m = 2, n = 2: multiplier pi/2, index (2*1 - 1)*2
    assert cz_index_unitary(orbit_rates(spectrum_value(2, 1), 2)) == 2


def test_constant_identity_path_is_zero():
    assert cz_index_unitary([0.0, 0.0]) == 0


def test_index_negative_branch():
    # multiplier -pi/2 gives -1 per eigenline: 2*floor(tau/pi) + 1 at tau/pi = -1/2
    assert cz_index_unitary(orbit_rates(spectrum_value(2, 0), 2)) == -2


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", range(-2, 4))
def test_index_formula_all_branches(m, n, k):
    assert cz_index_unitary(orbit_rates(spectrum_value(m, k), n)) == (2 * k - 1) * n


def test_closed_form_on_multiplier_grid():
    # n * (2 floor(tau/pi) + 1) away from integer multiples of pi, and the
    # sum of the per-line oracle indices for unequal rates
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        for tau in np.arange(-3.3, 3.4, 0.37):
            if abs(tau / math.pi - round(tau / math.pi)) < 1e-3:
                continue
            expected = n * (2 * math.floor(tau / math.pi) + 1)
            assert cz_index_unitary(orbit_rates(tau, n)) == expected
            rates = 2 * tau * rng.uniform(0.5, 3.0, size=n)
            assert cz_index_unitary(rates) == sum(rotation_index(r) for r in rates)


def test_degenerate_endpoint_boundary_term():
    # a full loop ends on the identity and carries the even boundary value
    assert cz_index_unitary([2 * math.pi]) == 2 == rotation_index(2 * math.pi)
    assert cz_index_unitary([-2 * math.pi]) == -2 == rotation_index(-2 * math.pi)
    assert cz_index_unitary(orbit_rates(math.pi, 2)) == 4


def test_relative_index_consecutive_pearls():
    for n in (2, 3):
        a = orbit_rates(spectrum_value(2, 1), n)
        b = orbit_rates(spectrum_value(2, 0), n)
        assert relative_index(a, b) == 2 * n
    assert relative_index(orbit_rates(spectrum_value(2, 1), 3),
                          orbit_rates(spectrum_value(2, 0), 3)) == 6


def test_relative_index_of_equal_paths():
    p = orbit_rates(1.2, 2)
    assert relative_index(p, p) == 0


def test_catenation_additivity_with_loops():
    # the loop law: appending w full turns to a track adds 2w, per track
    for wind in (1, -1, 2):
        for rates in ([2.6, 2.6], [1.3, -4.1], [0.0, 2 * math.pi]):
            looped = [r + 2 * math.pi * wind for r in rates]
            assert cz_index_unitary(looped) == cz_index_unitary(rates) + 2 * wind * len(rates)
            for r, rl in zip(rates, looped):
                assert rotation_index(rl) == rotation_index(r) + 2 * wind


def test_full_loop_appends_two_per_line():
    for n in (2, 3):
        base = orbit_rates(1.1, n)
        assert cz_index_unitary([r + 2 * math.pi for r in base]) == \
            cz_index_unitary(base) + 2 * n


def test_rotation_path_at_any_branch():
    # the index depends on the end angles only, at any branch
    for rate in (33 * math.pi, -33 * math.pi, 400.0, 2e7 * math.pi + 1.0):
        rates = [rate, 0.5 * rate]
        assert cz_index_unitary(rates) == sum(rotation_index(r) for r in rates)
