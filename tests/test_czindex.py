import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reebtwist.czindex import WINDING_TOL, cz_index_unitary, relative_index
from reebtwist.orbits import orbit_index

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


def numpy_index(rates) -> int:
    """The index as numpy once computed it: np.atleast_1d of the rates, turns over 2 np.pi."""
    total = 0
    for rate in np.atleast_1d(rates):
        theta = float(rate)
        turns = theta / (2.0 * np.pi)
        if abs(theta - round(turns) * (2.0 * np.pi)) <= WINDING_TOL:
            total += 2 * round(turns)
        else:
            total += 2 * math.floor(turns) + 1
    return total


# rates anywhere, and rates within a few WINDING_TOL of a multiple of 2 pi
_rates = st.one_of(
    st.floats(-1e6, 1e6),
    st.builds(lambda w, off: 2.0 * math.pi * w + off,
              st.integers(-10 ** 4, 10 ** 4), st.floats(-3 * WINDING_TOL, 3 * WINDING_TOL)))
_FORMS = {"list": list, "tuple": tuple, "array": np.array}
_SCALAR_FORMS = {"float": float, "float64": np.float64, "array0d": np.array}


def _as_form(values: list[float], form: str):
    return _SCALAR_FORMS[form](values[0]) if form in _SCALAR_FORMS else _FORMS[form](values)


@given(st.lists(_rates, min_size=1, max_size=6), st.sampled_from([*_FORMS, *_SCALAR_FORMS]))
def test_float_index_matches_the_numpy_formula(rates, form):
    # the pure-float index reads scalars, lists and arrays as numpy's atleast_1d did
    given_rates = _as_form(rates, form)
    assert cz_index_unitary(given_rates) == numpy_index(given_rates)


@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6), st.integers(-50, 50),
       st.floats(-3 * WINDING_TOL, 3 * WINDING_TOL), st.booleans(),
       st.sampled_from([*_FORMS, *_SCALAR_FORMS]))
def test_float_orbit_index_matches_the_numpy_formula(a, branch, offset, closing, form):
    # tau either closes line 0 up to within a few WINDING_TOL, or is arbitrary
    tau = (branch * math.pi + offset) / a[0] if closing else branch * 0.37 + offset
    coefficients = _as_form(a, form)
    expected = numpy_index(2.0 * tau * np.asarray(coefficients, dtype=float))
    assert orbit_index(tau, coefficients) == expected
