import math

import numpy as np
import pytest

from reebtwist.geometry import (
    CollarHamiltonian,
    ConstantProfile,
    EllipsoidProfile,
    IntegrationDriftError,
    OffSurfaceError,
    RadialProfile,
    RotationTwist,
    RoundSphere,
    SphereHamiltonian,
    integrate,
    liouville_form_eval,
    load_model,
    normalize_to_sphere,
    reeb_field,
    reeb_flow,
    reeb_flow_samples,
    to_complex,
    to_real,
)

from oracles import fd_gradient, fd_jacobian, rk45_flow


def unit_points(n, count, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# -- Liouville form ------------------------------------------------------------

def test_liouville_form_basic_value():
    assert liouville_form_eval([1, 0], [1j, 0]) == pytest.approx(-0.5)


def test_liouville_form_vanishes_radially():
    for z in unit_points(3, 5):
        assert liouville_form_eval(z, z) == pytest.approx(0.0, abs=1e-14)


def test_liouville_form_on_reeb_field_is_one():
    for z in unit_points(2, 10, seed=1):
        assert liouville_form_eval(z, reeb_field(z)) == pytest.approx(1.0)


def test_liouville_form_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        liouville_form_eval([1, 0], [1j])


# -- Reeb field and flow ---------------------------------------------------------

def test_reeb_field_value():
    np.testing.assert_allclose(reeb_field([1, 0]), [-2j, 0])


def test_reeb_field_tangency():
    for z in unit_points(3, 10, seed=2):
        assert abs(np.real(np.vdot(z, reeb_field(z)))) < 1e-14


def test_reeb_field_off_surface_error():
    with pytest.raises(OffSurfaceError):
        reeb_field([1.1, 0])


def test_round_flow_period():
    sphere = RoundSphere(2)
    for z in unit_points(2, 4, seed=3):
        np.testing.assert_allclose(reeb_flow(z, math.pi, sphere), z, atol=1e-14)


def test_round_flow_half_period():
    out = reeb_flow([1, 0], math.pi / 2, RoundSphere(2))
    np.testing.assert_allclose(out, [-1, 0], atol=1e-14)


def test_radial_unit_profile_matches_round_flow():
    round_model = RoundSphere(2)
    radial = RadialProfile(2, ConstantProfile(1.0))
    z = unit_points(2, 1, seed=4)[0]
    analytic = reeb_flow(z, 1.0, round_model)
    numeric = reeb_flow(z, 1.0, radial)
    assert np.max(np.abs(numeric - analytic)) < 1e-8


def test_radial_flow_samples_against_analytic_grid():
    radial = RadialProfile(2, ConstantProfile(1.0))
    z = unit_points(2, 1, seed=5)[0]
    times = np.linspace(0.0, math.pi, 9)
    numeric = reeb_flow_samples(z, times, radial)
    analytic = np.exp(-2j * times)[:, None] * z[None, :]
    assert np.max(np.abs(numeric - analytic)) < 1e-8


def test_flow_equivariance_under_twist():
    twist = RotationTwist(4, (1, 3))
    sphere = RoundSphere(2)
    radial = RadialProfile(2, ConstantProfile(1.0))
    z = unit_points(2, 1, seed=6)[0]
    for model in (sphere, radial):
        a = reeb_flow(twist.apply(z), 0.7, model)
        b = twist.apply(reeb_flow(z, 0.7, model))
        assert np.max(np.abs(a - b)) < 1e-8


def test_energy_conservation_along_numeric_flow():
    radial = RadialProfile(2, EllipsoidProfile((1.0, 1.3)))
    ham = CollarHamiltonian(radial)
    z = radial.point_on_surface(unit_points(2, 1, seed=7)[0])
    out = reeb_flow(z, 1.2, radial)
    assert abs(ham.value(out) - ham.value(z)) < 1e-8


def test_ellipsoid_reeb_periods():
    # on the ellipsoid a|z1|^2 + b|z2|^2 = 1 the coordinate circle through
    # e_1/sqrt(a) is a Reeb orbit of speed 2a: one full turn takes pi/a
    a, b = 1.0, 1.5
    radial = RadialProfile(2, EllipsoidProfile((a, b)))
    z = radial.point_on_surface(np.array([0.0 + 0j, 1.0 + 0j]))
    out = reeb_flow(z, math.pi / b, radial)
    assert np.max(np.abs(out - z)) < 1e-7


def test_integrator_matches_exact_ellipsoid_flow():
    # the ellipsoid's Reeb flow is e^{-2i a_j t} z_j in closed form
    a = np.array([1.0, 1.3])
    radial = RadialProfile(2, EllipsoidProfile(tuple(a)))
    z = radial.point_on_surface(unit_points(2, 1, seed=7)[0])
    sol = integrate(lambda _t, y: to_real(radial.reeb_field(to_complex(y))), math.pi,
                    to_real(z), 1e-10, 1e-12)
    out = to_complex(np.ascontiguousarray(sol.y[:, -1]))
    assert np.max(np.abs(out - np.exp(-2j * a * math.pi) * z)) < 1e-9


def test_integrator_failure_raises_drift_error():
    # y' = y^2 from y = 1 blows up at t = 1
    with pytest.raises(IntegrationDriftError, match="integration failed"):
        integrate(lambda _t, y: y ** 2, 2.0, np.array([1.0]), 1e-10, 1e-12)


# -- the defining function G and what is derived from it ----------------------------

G_MODELS = {"sphere2": RoundSphere(2), "sphere3": RoundSphere(3),
            "constant": RadialProfile(2, ConstantProfile(1.3)),
            "ellipsoid2": RadialProfile(2, EllipsoidProfile((1.0, 1.3))),
            "ellipsoid3": RadialProfile(3, EllipsoidProfile((1.0, 1.2, 1.5)))}


def _profile_defining_value(model, y):
    """|z|^2 - rho(z/|z|)^2 from the radius profile alone, never from G."""
    z = to_complex(y)
    rho = model.radius(z) if isinstance(model, RadialProfile) else 1.0
    return float(np.sum(np.abs(z) ** 2)) - rho ** 2


@pytest.mark.parametrize("model", G_MODELS.values(), ids=G_MODELS.keys())
def test_defining_function_derivatives_match_fd(model):
    rng = np.random.default_rng(21)
    for _ in range(5):
        y = rng.normal(size=2 * model.n)
        z = to_complex(y)
        # degree-2 homogeneity, and G = 1 exactly on the hypersurface
        assert model.defining_function(1.7 * z) == pytest.approx(
            1.7 ** 2 * model.defining_function(z), rel=1e-12)
        assert model.surface_row(model.point_on_surface(z)) == pytest.approx(0.0, abs=1e-12)
        grad = fd_gradient(lambda yy: model.defining_function(to_complex(yy)), y)
        np.testing.assert_allclose(model.gradient(z), grad, atol=1e-9)
        hess = fd_jacobian(lambda yy: model.gradient(to_complex(yy)), y)
        np.testing.assert_allclose(model.hessian(z), hess, atol=1e-9)
        jac = fd_jacobian(lambda yy: to_real(model.reeb_field(to_complex(yy))), y)
        np.testing.assert_allclose(model.field_jacobian(z), jac, atol=1e-9)


@pytest.mark.parametrize("model", G_MODELS.values(), ids=G_MODELS.keys())
def test_reeb_field_matches_fd_of_profile(model):
    # X_F / lambda(X_F) for F = |z|^2 - rho^2 is the Reeb field on the surface
    for u in unit_points(model.n, 5, seed=22):
        z = model.point_on_surface(u)
        grad = fd_gradient(lambda yy: _profile_defining_value(model, yy), to_real(z))
        x_f = grad[1::2] - 1j * grad[0::2]
        expected = x_f / liouville_form_eval(z, x_f)
        np.testing.assert_allclose(model.reeb_field(z), expected, atol=1e-8)
        assert liouville_form_eval(z, model.reeb_field(z)) == pytest.approx(1.0)


@pytest.mark.parametrize("model", G_MODELS.values(), ids=G_MODELS.keys())
def test_reeb_flow_matches_rk45_of_field(model):
    # the closed-form flow against an integration of the analytic field,
    # at times of both signs in one call
    z = model.point_on_surface(unit_points(model.n, 1, seed=23)[0])
    times = np.array([-2.3, -0.4, 0.0, 0.7, 3.1])
    expected = rk45_flow(model.reeb_field, z, times)
    np.testing.assert_allclose(reeb_flow_samples(z, times, model), expected, atol=1e-9)


def test_bare_callable_profile_has_no_reeb_field():
    model = RadialProfile(2, lambda u: 1.0)
    assert model.radius([2.0, 0.0]) == 1.0
    with pytest.raises(TypeError, match="defining function"):
        model.reeb_field([1.0, 0.0])


# -- normalization ----------------------------------------------------------------

def test_normalize_identity_on_sphere():
    z = unit_points(2, 1, seed=8)[0]
    unit, delta = normalize_to_sphere(z)
    assert delta == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(unit, z)


def test_normalize_scaling():
    unit, delta = normalize_to_sphere([2.0 + 0j, 0j])
    assert delta == pytest.approx(-2 * math.log(2))
    np.testing.assert_allclose(unit, [1, 0])
    # the scaling flow e^{t/2} x at time delta indeed lands on the sphere
    np.testing.assert_allclose(math.exp(delta / 2) * np.array([2.0 + 0j, 0j]), [1, 0])


def test_normalize_twist_equivariance():
    twist = RotationTwist(6, (1, 5, 7))
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        _, d1 = normalize_to_sphere(x)
        _, d2 = normalize_to_sphere(twist.apply(x))
        assert d1 == pytest.approx(d2)


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize_to_sphere([0j, 0j])


def test_liouville_flow_commutes_with_twist():
    # normalize_to_sphere is the scaling flow run to the sphere
    twist = RotationTwist(2, (1, 1))
    x = np.array([0.3 + 0.4j, -1.2 + 0.1j])
    np.testing.assert_allclose(twist.apply(normalize_to_sphere(x)[0]),
                               normalize_to_sphere(twist.apply(x))[0])


# -- rotation twists ---------------------------------------------------------------

def test_twist_rejects_non_coprime():
    with pytest.raises(ValueError, match="coprime"):
        RotationTwist(4, (1, 2))


def test_twist_order_and_freeness():
    twist = RotationTwist(5, (1, 2))
    z = unit_points(2, 1, seed=10)[0]
    pows = [twist.apply(z, power=j) for j in range(1, 5)]
    for p in pows:
        assert np.max(np.abs(p - z)) > 0.1
    np.testing.assert_allclose(twist.apply(z, power=5), z, atol=1e-12)


def test_twist_congruence_classes():
    twist = RotationTwist(4, (1, 3))
    assert twist.congruence_classes() == {1: (1,), 3: (2,)}
    same = RotationTwist(4, (1, 5))
    assert same.congruence_classes() == {1: (1, 2)}


# -- defining Hamiltonians ----------------------------------------------------------

def test_sphere_hamiltonian_zero_set_and_plateaus():
    ham = SphereHamiltonian()
    for z in unit_points(2, 5, seed=11):
        assert ham.value(z) == pytest.approx(0.0, abs=1e-14)
    assert ham.value([0.1 + 0j, 0j]) == pytest.approx(-0.5)
    assert ham.value([3.0 + 0j, 0j]) == pytest.approx(0.5)
    assert ham.beta(1.0) == pytest.approx(1.0)
    # dH vanishes on both plateaus
    assert np.all(ham.field([0.1 + 0j, 0j]) == 0)
    assert np.all(ham.field([3.0 + 0j, 0j]) == 0)


def test_sphere_hamiltonian_field_is_reeb_on_surface():
    ham = SphereHamiltonian()
    for z in unit_points(3, 5, seed=12):
        np.testing.assert_allclose(ham.field(z), reeb_field(z), atol=1e-14)


def test_sphere_hamiltonian_twist_invariance():
    # H depends on |z|^2 only; rotation changes it at the rounding level
    ham = SphereHamiltonian()
    twist = RotationTwist(3, (1, 2))
    rng = np.random.default_rng(13)
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert ham.value(twist.apply(z)) == pytest.approx(ham.value(z), abs=1e-14)


def test_collar_hamiltonian_matches_reeb_on_surface():
    for model in (RoundSphere(2), RadialProfile(2, EllipsoidProfile((1.0, 1.2)))):
        ham = CollarHamiltonian(model)
        z = model.point_on_surface(unit_points(2, 1, seed=14)[0])
        assert ham.value(z) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(ham.field(z), model.reeb_field(z), atol=1e-9)


def test_defining_hamiltonian_convex_blends_share_zero_set():
    h0 = SphereHamiltonian()
    h1 = CollarHamiltonian(RoundSphere(2))
    pts = unit_points(2, 6, seed=15)
    for sigma in (0.0, 0.25, 0.5, 0.75, 1.0):
        for z in pts:
            blend = (1 - sigma) * h0.value(z) + sigma * h1.value(z)
            assert abs(blend) < 1e-12
            inside = (1 - sigma) * h0.value(0.9 * z) + sigma * h1.value(0.9 * z)
            outside = (1 - sigma) * h0.value(1.1 * z) + sigma * h1.value(1.1 * z)
            assert inside < 0 < outside


# -- model files -------------------------------------------------------------------

def test_load_round_sphere_model():
    model, twist = load_model({"kind": "round_sphere", "n": 2,
                               "twist": {"m": 2, "k": [1, 1]}})
    assert isinstance(model, RoundSphere) and model.n == 2
    assert twist == RotationTwist(2, (1, 1))


def test_load_radial_model_checks_invariance():
    spec = {"kind": "radial_profile", "n": 2,
            "twist": {"m": 2, "k": [1, 1]},
            "profile": {"type": "ellipsoid", "coefficients": [1.0, 1.4]}}
    model, _ = load_model(spec)
    assert isinstance(model, RadialProfile)


def test_load_model_rejects_unknown():
    with pytest.raises(ValueError):
        load_model({"kind": "torus", "n": 2})
    with pytest.raises(ValueError):
        load_model({"kind": "radial_profile", "n": 2, "profile": {"type": "wavy"}})


def test_non_invariant_profile_rejected():
    # Re(u_0)^2 survives z -> -z but not a quarter turn
    model = RadialProfile(2, lambda u: 1.0 + 0.1 * float(np.real(u[..., 0]) ** 2))
    with pytest.raises(ValueError, match="not invariant"):
        model.check_invariance(RotationTwist(4, (1, 1)))
