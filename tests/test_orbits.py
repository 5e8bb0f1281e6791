import math
import tracemalloc

import numpy as np
import pytest

from reebtwist.geometry import (
    RadialProfile,
    RotationTwist,
    RoundSphere,
    to_real,
)
from reebtwist.orbits import (
    MAX_LINE_BRANCHES,
    ConvergenceError,
    TAU_TOL,
    SolverSettings,
    SpectrumRow,
    SpectrumTable,
    TwistedOrbit,
    _complex_to_real_matrix,
    _null_space,
    _shooting_jacobian,
    _shooting_residual,
    action,
    analytic_spectrum,
    line_multiplier,
    loop_action,
    monodromy,
    orbit_multiplier,
    orbit_samples,
    shoot_orbit,
    twisted_index,
)
from reebtwist.lifting import orbit_separation

from oracles import brute_spectrum_grid, fd_jacobian, rotation_index, variational_return_map

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
    table = analytic_spectrum(SPHERE2, RotationTwist(2, (1, 1)), (0, 1))
    assert table.taus() == pytest.approx([-math.pi / 2, math.pi / 2])
    for row in table.rows:
        assert row.support == (1, 2)
        assert row.dim == 3


def test_spectrum_untwisted_contains_constants():
    table = analytic_spectrum(SPHERE2, RotationTwist(1, (1, 1)), (0, 3))
    assert table.taus() == pytest.approx([-math.pi, 0.0, math.pi, 2 * math.pi])
    assert any(abs(t) < 1e-12 for t in table.taus())


def test_spectrum_mixed_exponents_interleaved():
    twist = RotationTwist(4, (1, 3))
    table = analytic_spectrum(SPHERE2, twist, (0, 1))
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
    table = analytic_spectrum(SPHERE2, twist, (0, 2))
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
        taus = analytic_spectrum(SPHERE2, RotationTwist(m, (1, 1)), (-2, 3)).taus()
        gaps = np.diff(taus)
        assert np.allclose(gaps, math.pi)


def test_spectrum_csv_mirrors_json_rows():
    from reebtwist.cli import _render_csv

    table = analytic_spectrum(SPHERE2, RotationTwist(2, (1, 1)), (0, 2))
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
    table = analytic_spectrum(RadialProfile([1.0, 2.5]), RotationTwist(2, (1, 1)), (0, 2))
    by_support = {}
    for row in table.rows:
        by_support.setdefault(row.support, []).append(row.tau)
        assert row.dim == 1
        assert row.index == rotation_index(2 * row.tau) + rotation_index(5 * row.tau)
    assert by_support[(1,)] == pytest.approx([-math.pi / 2, math.pi / 2, 3 * math.pi / 2])
    assert by_support[(2,)] == pytest.approx([-math.pi / 5, math.pi / 5, 3 * math.pi / 5])


def test_spectrum_merges_equal_multipliers():
    # a = (1, 3): tau = pi/2 is branch 1 of coordinate 1 and branch 2 of
    # coordinate 2, outside the window, which still joins the support
    table = analytic_spectrum(RadialProfile([1.0, 3.0]), RotationTwist(2, (1, 1)), (1, 1))
    assert table.taus() == pytest.approx([math.pi / 6, math.pi / 2])
    assert [row.support for row in table.rows] == [(2,), (1, 2)]
    assert table.rows[1].dim == 3


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_twisted_index_on_the_congruent_sphere(m):
    # every line closes up at branch l and ends on 2 pi l: mu_tw = 2 l n
    for n in (1, 2, 3):
        twist = RotationTwist(m, (1 + m,) * n)
        rows = analytic_spectrum(RoundSphere(n), twist, (-2, 3)).rows
        assert [twisted_index(r, [1.0] * n, twist) for r in rows] == [
            2 * branch * n for branch in range(-2, 4)]


def test_twisted_index_takes_degenerate_lines_from_the_support():
    # a_2 = 1 + 5e-10 joins line 2 to the rows at tau = +-pi/2 although
    # theta_2 misses 2 pi l by more than 1e-9; each row starts where the
    # previous one ends (mu_tw - s + n = 0, 4, 8, 10)
    twist = RotationTwist(2, (1, 1))
    a = (1.0, 1.0 + 5e-10)
    rows = analytic_spectrum(RadialProfile(a), twist, (0, 2)).rows
    assert [(r.support, twisted_index(r, a, twist)) for r in rows] == [
        ((1, 2), 0), ((1, 2), 4), ((2,), 7), ((1,), 9)]


def test_spectrum_errors():
    with pytest.raises(ValueError, match="empty"):
        analytic_spectrum(SPHERE2, RotationTwist(2, (1, 1)), (2, 1))
    with pytest.raises(ValueError, match="dimension"):
        analytic_spectrum(RoundSphere(3), RotationTwist(2, (1, 1)), (0, 1))
    # raised before any branch is enumerated, so the test is instant
    with pytest.raises(ValueError, match="holds 2 x 50001 line branches, above the cap"):
        analytic_spectrum(SPHERE2, RotationTwist(2, (1, 1)), (0, MAX_LINE_BRANCHES // 2))
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


def test_component_label_names_the_closing_branch():
    # on a = (1, 3), m = 2 both lines close up at tau = pi/2, line 1 on
    # branch 1 and line 2 on branch 2
    twist = RotationTwist(2, (1, 1))
    model = RadialProfile([1.0, 3.0])
    assert line_multiplier(twist, 1.0, 0, 1) == line_multiplier(twist, 3.0, 1, 2) == math.pi / 2
    along_line = shoot_orbit(model, twist, [1, 0], math.pi / 2)
    assert along_line.component_id == "supp(1)|l=1"
    both = shoot_orbit(model, twist, [0.6, 0.8], math.pi / 2)
    assert both.support == (1, 2) and both.component_id == "supp(1,2)|mixed"


def test_shoot_radial_unit_profile_matches_analytic():
    twist = RotationTwist(2, (1, 1))
    radial = RadialProfile([1.0, 1.0])
    orbit = shoot_orbit(radial, twist, [0.6, 0.8], math.pi / 2 + 0.1)
    assert orbit.tau == pytest.approx(math.pi / 2, abs=1e-6)
    assert orbit.residual <= 1e-8


SHOOT_MODELS = {"sphere": RoundSphere(2),
                "constant": RadialProfile([1.3 ** -2] * 2),
                "ellipsoid": RadialProfile([1.0, 1.2, 1.5])}


@pytest.mark.parametrize("model", SHOOT_MODELS.values(), ids=SHOOT_MODELS.keys())
def test_shooting_jacobian_matches_fd(model):
    # the closed-form Newton Jacobian against central differences of the
    # shooting residual, at points off the surface and off the spectrum
    twist = RotationTwist(3, tuple([1, 2, 1][:model.n]))
    rng = np.random.default_rng(31)
    z_seed = model.point_on_surface(rng.normal(size=model.n) + 1j * rng.normal(size=model.n))
    section = to_real(model.reeb_field(z_seed))
    for _ in range(4):
        u = np.concatenate([1.4 * rng.normal(size=2 * model.n), [rng.uniform(-3, 3)]])
        expected = fd_jacobian(
            lambda uu: _shooting_residual(model, twist, z_seed, section, uu), u)
        np.testing.assert_allclose(_shooting_jacobian(model, twist, section, u),
                                   expected, atol=1e-8)


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
    from reebtwist.geometry import reeb_flow_samples

    shifted_z = reeb_flow_samples(orbit.z0, [0.37], SPHERE2)[-1]
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


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 64, 2 ** 18])
@pytest.mark.parametrize("n, samples", [(1, 2), (2, 7), (3, 1000), (5, 37)])
def test_blocked_action_equals_the_one_array_quadrature(monkeypatch, block, n, samples):
    # a block's first chord starts at the previous block's last sample, and
    # the chord terms are summed once, so every block size gives the same float
    model = RadialProfile(1.0 + 0.1 * np.arange(n))
    z = model.point_on_surface(np.exp(1j * np.arange(n)) * (1.0 + np.arange(n)))
    orbit = TwistedOrbit(z0=z, tau=1.7, support=(1,), residual=0.0, component_id="x")
    whole = loop_action(orbit_samples(orbit, model, samples))
    monkeypatch.setattr("reebtwist.geometry.BLOCK_POINTS", block)
    assert action(orbit, model, samples) == whole


def test_action_holds_one_block_of_points(monkeypatch):
    # 200 coordinates at 1001 samples are 3.2 MB of points alone; in blocks
    # of 4096 points the quadrature holds well under that
    model = RoundSphere(200)
    orbit = make_orbit(RotationTwist(2, (1,) * 200), 200)
    monkeypatch.setattr("reebtwist.geometry.BLOCK_POINTS", 4096)
    tracemalloc.start()
    try:
        value = action(orbit, model, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(orbit.tau, rel=1e-5)
    assert peak < 1_000_000


def test_orbit_separation_holds_one_real_array_of_points():
    # 257 points of 2000 coordinates are 8.2 MB complex; the closed form keeps
    # their squared moduli, half that, where a norm per rotation held three
    # complex temporaries of the points' size (24.7 MB)
    twist = RotationTwist(2, (1,) * 2000)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(257, 2000)) + 1j * rng.normal(size=(257, 2000))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    orbit_separation(twist, pts[:2])
    tracemalloc.start()
    try:
        sep = orbit_separation(twist, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sep == pytest.approx(2.0)
    assert peak < 0.6 * pts.nbytes


# -- monodromy -------------------------------------------------------------------

@pytest.mark.parametrize("rows,cols,rank", [(1, 4, 1), (2, 6, 2), (2, 6, 1), (3, 3, 0)])
def test_null_space_matches_scipy(rows, cols, rank):
    from scipy.linalg import null_space

    rng = np.random.default_rng(rows * cols + rank)
    a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    ours, ref = _null_space(a), null_space(a)
    assert ours.shape == ref.shape == (cols, cols - rank)
    assert np.allclose(ours.T @ ours, np.eye(cols - rank), atol=1e-12)
    assert np.allclose(ours @ ours.T, ref @ ref.T, atol=1e-12)


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
    exact = _complex_to_real_matrix(SPHERE2.return_map(twist, orbit.tau))
    numeric = variational_return_map(SPHERE2, twist, orbit.z0, orbit.tau)
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
    radial = RadialProfile([1.0, 1.0])
    orbit = make_orbit(twist, 2, 1, direction=[0.6, 0.8])
    report = monodromy(orbit, radial, twist)
    assert report.kernel_dim_tangent == 3
    assert report.kernel_dim_contact == 2


def test_ellipsoid_variational_return_map_matches_exact_flow():
    # the ellipsoid flow e^{-2i a_j t} z_j is linear, so the return map is
    # diag(e^{2i a_j tau}) times the twist at every point
    a = np.array([1.0, 1.3])
    twist = RotationTwist(2, (1, 1))
    radial = RadialProfile(a)
    z = radial.point_on_surface(np.array([0.6, 0.8j]))
    exact = np.diag(np.exp(2j * a * 1.1) * twist.phases())
    for mat in (variational_return_map(radial, twist, z, 1.1),
                _complex_to_real_matrix(radial.return_map(twist, 1.1))):
        assert np.max(np.abs(mat[0::2, 0::2] + 1j * mat[1::2, 0::2] - exact)) < 1e-8


def test_monodromy_untwisted_closed_orbit_identity():
    twist = RotationTwist(1, (1, 1))
    orbit = make_orbit(twist, 2, 2)  # tau = pi
    assert orbit.tau == pytest.approx(math.pi)
    report = monodromy(orbit, SPHERE2, twist)
    assert report.tangent_deviation <= 1e-12
    assert report.kernel_dim_tangent == 3


@pytest.mark.parametrize("taus", [(1.0, 0.5), (1.0, 1.0), (1.0, 1.0 + TAU_TOL / 2)],
                         ids=["unsorted", "equal", "within-tau-tol"])
def test_spectrum_table_rejects_unsorted_or_repeated_multipliers(taus):
    rows = tuple(SpectrumRow(tau=tau, support=(1,), dim=1, index=0) for tau in taus)
    with pytest.raises(ValueError) as excinfo:
        SpectrumTable(rows)
    assert str(excinfo.value) == "multiplier values not distinct/sorted"
