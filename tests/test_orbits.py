import math

import numpy as np
import pytest

from reebtwist.czindex import UnitaryPath, cz_index_unitary
from reebtwist.geometry import (
    ConstantProfile,
    EllipsoidProfile,
    RadialProfile,
    RotationTwist,
    RoundSphere,
)
from reebtwist.orbits import (
    ConvergenceError,
    SolverSettings,
    TwistBoundaryError,
    TwistedOrbit,
    action,
    analytic_spectrum,
    gradient_residual,
    loop_action,
    monodromy,
    orbit_multiplier,
    orbit_samples,
    shoot_orbit,
    twist_return_differential,
)

from oracles import brute_spectrum_grid

SPHERE2 = RoundSphere(2)


def make_orbit(twist, n, branch=1, direction=None):
    tau = orbit_multiplier(twist.m, 1, branch)
    z = np.zeros(n, dtype=complex)
    z[0] = 1.0
    if direction is not None:
        z = np.asarray(direction, dtype=complex)
        z /= np.linalg.norm(z)
    return TwistedOrbit(z0=z, tau=tau, support=(1,), residual=0.0,
                        component_id=f"supp(1)|l={branch}")


# -- spectrum -----------------------------------------------------------------

def test_spectrum_equal_exponents_m2():
    table = analytic_spectrum(RotationTwist(2, (1, 1)), 2, (0, 1))
    assert table.taus() == pytest.approx([-math.pi / 2, math.pi / 2])
    for row in table.rows:
        assert row.support == (1, 2)
        assert row.dim == 3


def test_spectrum_untwisted_contains_constants():
    table = analytic_spectrum(RotationTwist(1, (1, 1)), 2, (0, 3))
    assert table.taus() == pytest.approx([-math.pi, 0.0, math.pi, 2 * math.pi])
    assert any(abs(t) < 1e-12 for t in table.taus())


def test_spectrum_mixed_exponents_interleaved():
    twist = RotationTwist(4, (1, 3))
    table = analytic_spectrum(twist, 2, (0, 1))
    by_support = {}
    for row in table.rows:
        by_support.setdefault(row.support, []).append(row.tau)
    assert set(by_support) == {(1,), (2,)}
    # class residues 1 and 3: progressions -pi/4 and -3pi/4 modulo pi
    for tau in by_support[(1,)]:
        assert (tau + math.pi / 4) / math.pi == pytest.approx(round((tau + math.pi / 4) / math.pi))
    for tau in by_support[(2,)]:
        assert (tau + 3 * math.pi / 4) / math.pi == pytest.approx(round((tau + 3 * math.pi / 4) / math.pi))
    for row in table.rows:
        assert row.dim == 1


def test_spectrum_against_grid_scan():
    twist = RotationTwist(4, (1, 3))
    table = analytic_spectrum(twist, 2, (0, 2))
    scanned = brute_spectrum_grid(4, (1, 3), min(table.taus()) - 0.1,
                                  max(table.taus()) + 0.1)
    for row in table.rows:
        hits = scanned[frozenset(row.support)]
        assert any(abs(row.tau - t) < 1e-4 for t in hits), (row, hits)
    # and nothing extra was found by the scan
    total_hits = sum(len(v) for v in scanned.values())
    assert total_hits == len(table.rows)


def test_spectrum_consecutive_gap_is_pi():
    # single congruence class: consecutive multipliers differ by exactly pi
    for m in (1, 2, 5):
        taus = analytic_spectrum(RotationTwist(m, (1, 1)), 2, (-2, 3)).taus()
        gaps = np.diff(taus)
        assert np.allclose(gaps, math.pi)


def test_spectrum_csv_mirrors_json_rows():
    from reebtwist.cli import _render_csv

    table = analytic_spectrum(RotationTwist(2, (1, 1)), 2, (0, 2))
    lines = _render_csv(table.to_json_rows()).strip().splitlines()
    assert lines[0] == "tau,support,dim,index"
    assert len(lines) == 1 + len(table.rows)
    for line, row in zip(lines[1:], table.to_json_rows()):
        tau, supp, dim, index = line.split(",")
        assert float(tau) == pytest.approx(row["tau"])
        assert [int(s) for s in supp.split(";")] == row["support"]
        assert int(dim) == row["dim"] and int(index) == row["index"]


def test_ellipsoid_spectrum_per_coordinate():
    # coordinate j closes up at pi (m l - k_j) / (m a_j); a = (1, 2.5), m = 2
    table = analytic_spectrum(RotationTwist(2, (1, 1)), 2, (0, 2), (1.0, 2.5))
    by_support = {}
    for row in table.rows:
        by_support.setdefault(row.support, []).append(row.tau)
        assert row.dim == 1
        assert row.index == cz_index_unitary(UnitaryPath.from_rotation_rates(
            [2 * row.tau, 5 * row.tau]))
    assert by_support[(1,)] == pytest.approx([-math.pi / 2, math.pi / 2, 3 * math.pi / 2])
    assert by_support[(2,)] == pytest.approx([-math.pi / 5, math.pi / 5, 3 * math.pi / 5])


def test_spectrum_merges_equal_multipliers():
    # a = (1, 3): tau = pi/2 is branch 1 of coordinate 1 and branch 2 of
    # coordinate 2, outside the window, which still joins the support
    table = analytic_spectrum(RotationTwist(2, (1, 1)), 2, (1, 1), (1.0, 3.0))
    assert table.taus() == pytest.approx([math.pi / 6, math.pi / 2])
    assert [row.support for row in table.rows] == [(2,), (1, 2)]
    assert table.rows[1].dim == 3


def test_spectrum_errors():
    with pytest.raises(ValueError, match="empty"):
        analytic_spectrum(RotationTwist(2, (1, 1)), 2, (2, 1))
    with pytest.raises(ValueError, match="dimension"):
        analytic_spectrum(RotationTwist(2, (1, 1)), 3, (0, 1))
    with pytest.raises(ValueError, match="coprime"):
        RotationTwist(4, (2, 1))


# -- shooting ------------------------------------------------------------------

def test_shoot_round_sphere_first_branch():
    twist = RotationTwist(2, (1, 1))
    orbit = shoot_orbit(SPHERE2, twist, [1, 0], 1.5)
    assert orbit.tau == pytest.approx(math.pi / 2, abs=1e-9)
    assert orbit.residual <= 1e-8
    assert orbit.support == (1,)
    assert orbit.component_id == "supp(1)|l=1"


def test_shoot_radial_unit_profile_matches_analytic():
    twist = RotationTwist(2, (1, 1))
    radial = RadialProfile(2, ConstantProfile(1.0))
    orbit = shoot_orbit(radial, twist, [0.6, 0.8], math.pi / 2 + 0.1)
    assert orbit.tau == pytest.approx(math.pi / 2, abs=1e-6)
    assert orbit.residual <= 1e-8


def test_shoot_far_seed_raises_diagnostic():
    twist = RotationTwist(2, (1, 1))
    with pytest.raises(ConvergenceError) as err:
        shoot_orbit(SPHERE2, twist, [1, 0], 0.1)
    assert "iterations" in err.value.diagnostic


def test_shot_orbits_satisfy_period_action_equality():
    for m in (2, 3):
        twist = RotationTwist(m, tuple([1] * 2))
        for branch in (0, 1):
            tau_exact = orbit_multiplier(m, 1, branch)
            orbit = shoot_orbit(SPHERE2, twist, [0.6, 0.8j], tau_exact + 0.2)
            assert abs(action(orbit, SPHERE2) - orbit.tau) <= 1e-5


def test_orbit_invariance_under_time_shift_and_twist():
    twist = RotationTwist(2, (1, 1))
    orbit = shoot_orbit(SPHERE2, twist, [1, 0], 1.5)
    from reebtwist.geometry import reeb_flow

    shifted_z = reeb_flow(orbit.z0, 0.37, SPHERE2)
    shifted = shoot_orbit(SPHERE2, twist, shifted_z, orbit.tau)
    assert shifted.tau == pytest.approx(orbit.tau, abs=1e-9)
    assert shifted.residual <= 1e-8

    rotated = shoot_orbit(SPHERE2, twist, twist.apply(orbit.z0), orbit.tau)
    assert rotated.tau == pytest.approx(orbit.tau, abs=1e-9)
    assert rotated.residual <= 1e-8


def test_concurrent_shooting_sweep_merges_by_multiplier():
    from concurrent.futures import ThreadPoolExecutor

    twist = RotationTwist(2, (1, 1))
    settings = SolverSettings()
    targets = [orbit_multiplier(2, 1, k) for k in (0, 1, 2)]
    seeds = [(z, t + off) for t in targets for off in (-0.15, 0.1)
             for z in ([1, 0], [0.6, 0.8])]

    def run(seed):
        z, t = seed
        return shoot_orbit(SPHERE2, twist, z, t, settings=settings)

    with ThreadPoolExecutor(max_workers=4) as pool:
        orbits = list(pool.map(run, seeds))
    taus = sorted(o.tau for o in orbits)
    merged = [t for i, t in enumerate(taus) if i == 0 or t - taus[i - 1] > 1e-6]
    assert merged == pytest.approx(targets, abs=1e-8)


# -- action ---------------------------------------------------------------------

def test_action_positive_and_negative_branches():
    twist = RotationTwist(2, (1, 1))
    for branch, sign in ((1, 1), (0, -1)):
        orbit = make_orbit(twist, 2, branch)
        value = action(orbit, SPHERE2, quadrature_n=1000)
        assert value == pytest.approx(sign * math.pi / 2, abs=1e-5)


def test_action_second_order_convergence():
    twist = RotationTwist(2, (1, 1))
    orbit = make_orbit(twist, 2, 1)
    sizes = [250, 500, 1000, 2000]
    errors = [abs(action(orbit, SPHERE2, quadrature_n=n) - orbit.tau) for n in sizes]
    fit = np.polyfit(np.log(sizes), np.log(errors), 1)
    assert -fit[0] >= 1.9
    # doubling the sample count divides the error by about four
    for a, b in zip(errors, errors[1:]):
        assert a / b == pytest.approx(4.0, rel=0.15)


def test_loop_action_on_explicit_circle():
    # one full positively parametrized unit circle bounds area pi:
    # the line integral of the primitive is -(1/2) * 2 pi ... sign fixed by
    # the orbit convention: the Reeb circle e^{-2it} over t in [0, pi/2]
    # has action pi/2
    t = np.linspace(0.0, 0.5 * math.pi, 2001)
    circle = np.stack([np.exp(-2j * t), np.zeros_like(t)], axis=1)
    assert loop_action(circle) == pytest.approx(math.pi / 2, abs=1e-5)


# -- monodromy -------------------------------------------------------------------

def test_monodromy_identity_on_spectrum():
    twist = RotationTwist(2, (1, 1))
    orbit = make_orbit(twist, 2, 1, direction=[0.3 + 0.4j, 0.7 - 0.2j])
    report = monodromy(orbit, SPHERE2, twist)
    assert report.tangent_deviation <= 1e-12
    assert report.kernel_dim_tangent == 3
    assert report.kernel_dim_contact == 2


def test_monodromy_variational_matches_analytic():
    twist = RotationTwist(3, (1, 1))
    orbit = make_orbit(twist, 2, 1, direction=[0.5, 0.5j])
    exact = twist_return_differential(SPHERE2, twist, orbit.z0, orbit.tau,
                                      method="analytic")
    numeric = twist_return_differential(SPHERE2, twist, orbit.z0, orbit.tau,
                                        method="variational")
    assert np.max(np.abs(exact - numeric)) < 1e-8


def test_monodromy_off_spectrum_kernel_empty():
    twist = RotationTwist(2, (1, 1))
    orbit = make_orbit(twist, 2, 1)
    perturbed = TwistedOrbit(z0=orbit.z0, tau=orbit.tau + 0.1, support=orbit.support,
                             residual=0.0, component_id="off")
    report = monodromy(perturbed, SPHERE2, twist)
    assert report.kernel_dim_contact == 0
    assert report.kernel_dim_tangent == 0
    assert report.tangent_deviation > 0.05


def test_monodromy_radial_unit_profile():
    # same degeneracy certificate through the model's closed-form return map
    twist = RotationTwist(2, (1, 1))
    radial = RadialProfile(2, ConstantProfile(1.0))
    orbit = make_orbit(twist, 2, 1, direction=[0.6, 0.8])
    report = monodromy(orbit, radial, twist, kernel_tol=1e-5)
    assert report.kernel_dim_tangent == 3
    assert report.kernel_dim_contact == 2


def test_ellipsoid_variational_return_map_matches_exact_flow():
    # the ellipsoid flow e^{-2i a_j t} z_j is linear, so the return map is
    # diag(e^{2i a_j tau}) times the twist at every point
    a = np.array([1.0, 1.3])
    twist = RotationTwist(2, (1, 1))
    radial = RadialProfile(2, EllipsoidProfile(tuple(a)))
    z = radial.point_on_surface(np.array([0.6, 0.8j]))
    exact = np.diag(np.exp(2j * a * 1.1) * twist.phases())
    for method in ("variational", "auto"):
        mat = twist_return_differential(radial, twist, z, 1.1, method=method)
        assert np.max(np.abs(mat[0::2, 0::2] + 1j * mat[1::2, 0::2] - exact)) < 1e-8


def test_monodromy_untwisted_closed_orbit_identity():
    twist = RotationTwist(1, (1, 1))
    orbit = make_orbit(twist, 2, 2)  # tau = pi
    assert orbit.tau == pytest.approx(math.pi)
    report = monodromy(orbit, SPHERE2, twist)
    assert report.tangent_deviation <= 1e-12
    assert report.kernel_dim_tangent == 3


# -- gradient residual ------------------------------------------------------------

def test_gradient_residual_vanishes_on_orbit():
    twist = RotationTwist(2, (1, 1))
    orbit = make_orbit(twist, 2, 1, direction=[0.6, 0.8j])
    loop = orbit_samples(orbit, SPHERE2, 500)
    assert gradient_residual(loop, orbit.tau, SPHERE2, twist) <= 1e-4


def test_gradient_residual_boundary_violation():
    twist = RotationTwist(2, (1, 1))
    z = np.array([1.0 + 0j, 0j])
    constant = np.repeat(z[None, :], 11, axis=0)
    with pytest.raises(TwistBoundaryError):
        gradient_residual(constant, 0.3, SPHERE2, twist)


def test_gradient_residual_linear_in_multiplier_perturbation():
    twist = RotationTwist(2, (1, 1))
    orbit = make_orbit(twist, 2, 1, direction=[0.8, 0.6])
    loop = orbit_samples(orbit, SPHERE2, 400)
    deltas = [0.005, 0.01, 0.02]
    values = [gradient_residual(loop, orbit.tau + d, SPHERE2, twist) for d in deltas]
    slope = np.polyfit(np.log(deltas), np.log(values), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)
    # the leading coefficient is the field magnitude: residual ~ 2 delta
    assert values[-1] == pytest.approx(2 * deltas[-1], rel=0.05)
