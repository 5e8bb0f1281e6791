import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebtwist import geometry
from reebtwist.geometry import (
    OffSurfaceError,
    RadialProfile,
    RotationTwist,
    RoundSphere,
    liouville_form_eval,
    load_model,
    normalize_to_sphere,
    reeb_field,
    reeb_flow_samples,
    to_complex,
    to_real,
)

from oracles import fd_gradient, fd_jacobian, profile_radius, reeb_field_jacobian, rk45_flow


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
    with pytest.raises(ValueError, match="dimension mismatch"):
        liouville_form_eval(unit_points(2, 3), unit_points(2, 2))


def test_liouville_form_broadcasts_over_stacked_points():
    z, v = unit_points(3, 6, seed=2), unit_points(3, 6, seed=3)
    expected = [liouville_form_eval(zi, vi) for zi, vi in zip(z, v)]
    np.testing.assert_array_equal(liouville_form_eval(z, v), expected)


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
        np.testing.assert_allclose(reeb_flow_samples(z, [math.pi], sphere)[-1], z, atol=1e-14)


def test_round_flow_half_period():
    out = reeb_flow_samples([1, 0], [math.pi / 2], RoundSphere(2))[-1]
    np.testing.assert_allclose(out, [-1, 0], atol=1e-14)


def test_radial_unit_profile_matches_round_flow():
    round_model = RoundSphere(2)
    radial = RadialProfile([1.0, 1.0])
    z = unit_points(2, 1, seed=4)[0]
    analytic = reeb_flow_samples(z, [1.0], round_model)[-1]
    numeric = reeb_flow_samples(z, [1.0], radial)[-1]
    assert np.max(np.abs(numeric - analytic)) < 1e-8


def test_radial_flow_samples_against_analytic_grid():
    radial = RadialProfile([1.0, 1.0])
    z = unit_points(2, 1, seed=5)[0]
    times = np.linspace(0.0, math.pi, 9)
    numeric = reeb_flow_samples(z, times, radial)
    analytic = np.exp(-2j * times)[:, None] * z[None, :]
    assert np.max(np.abs(numeric - analytic)) < 1e-8


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 300), st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
def test_blocked_flow_samples_equal_the_one_array_formula(n, count, block, seed):
    # blocks of ``block`` points put block edges all through the samples
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 10.0, size=n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    times = rng.uniform(-50.0, 50.0, size=count)
    want = np.exp(-2j * np.multiply.outer(times, a)) * z
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "BLOCK_POINTS", block)
        got = RadialProfile(a).flow_samples(z, times)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def test_flow_equivariance_under_twist():
    twist = RotationTwist(4, (1, 3))
    sphere = RoundSphere(2)
    radial = RadialProfile([1.0, 1.0])
    z = unit_points(2, 1, seed=6)[0]
    for model in (sphere, radial):
        a = reeb_flow_samples(twist.apply(z), [0.7], model)[-1]
        b = twist.apply(reeb_flow_samples(z, [0.7], model)[-1])
        assert np.max(np.abs(a - b)) < 1e-8


def test_energy_conservation_along_numeric_flow():
    radial = RadialProfile([1.0, 1.3])
    z = radial.point_on_surface(unit_points(2, 1, seed=7)[0])
    out = reeb_flow_samples(z, [1.2], radial)[-1]
    assert abs(radial.defining_function(out) - radial.defining_function(z)) < 1e-8


def test_ellipsoid_reeb_periods():
    # on the ellipsoid a|z1|^2 + b|z2|^2 = 1 the coordinate circle through
    # e_1/sqrt(a) is a Reeb orbit of speed 2a: one full turn takes pi/a
    a, b = 1.0, 1.5
    radial = RadialProfile([a, b])
    z = radial.point_on_surface(np.array([0.0 + 0j, 1.0 + 0j]))
    out = reeb_flow_samples(z, [math.pi / b], radial)[-1]
    assert np.max(np.abs(out - z)) < 1e-7


# -- the defining function G and what is derived from it ----------------------------

G_SPECS = {"sphere2": {"kind": "round_sphere", "n": 2},
           "sphere3": {"kind": "round_sphere", "n": 3},
           "constant": {"kind": "radial_profile", "n": 2,
                        "profile": {"type": "constant", "value": 1.3}},
           "ellipsoid2": {"kind": "radial_profile", "n": 2,
                          "profile": {"type": "ellipsoid", "coefficients": [1.0, 1.3]}},
           "ellipsoid3": {"kind": "radial_profile", "n": 3,
                          "profile": {"type": "ellipsoid", "coefficients": [1.0, 1.2, 1.5]}}}
G_MODELS = {name: load_model(spec)[0] for name, spec in G_SPECS.items()}


@pytest.mark.parametrize("model", G_MODELS.values(), ids=G_MODELS.keys())
def test_defining_function_derivatives_match_fd(model):
    rng = np.random.default_rng(21)
    for _ in range(5):
        y = rng.normal(size=2 * model.n)
        z = to_complex(y)
        # degree-2 homogeneity, and G = 1 exactly on the hypersurface
        assert model.defining_function(1.7 * z) == pytest.approx(
            1.7 ** 2 * model.defining_function(z), rel=1e-12)
        assert model.defining_function(model.point_on_surface(z)) - 1.0 == pytest.approx(0.0, abs=1e-12)
        grad = fd_gradient(lambda yy: model.defining_function(to_complex(yy)), y)
        np.testing.assert_allclose(model.gradient(z), grad, atol=1e-9)
        jac = fd_jacobian(lambda yy: to_real(model.reeb_field(to_complex(yy))), y)
        np.testing.assert_allclose(reeb_field_jacobian(model.a), jac, atol=1e-9)


@pytest.mark.parametrize("model", G_MODELS.values(), ids=G_MODELS.keys())
def test_surface_error_is_radial_distance(model):
    p = model.point_on_surface(unit_points(model.n, 1, seed=17)[0])
    for scale in (0.5, 1.0, 1.7):
        assert model.surface_error(scale * p) == pytest.approx(
            abs(scale - 1.0) * np.linalg.norm(p), abs=1e-12)


@pytest.mark.parametrize("name", G_SPECS)
def test_reeb_field_matches_fd_of_profile(name):
    # X_F / lambda(X_F) for F = |z|^2 - rho(z/|z|)^2 is the Reeb field on the
    # surface; rho comes from the model file's profile, never from G
    model, profile = G_MODELS[name], G_SPECS[name].get("profile")

    def f(y):
        z = to_complex(y)
        return float(np.sum(np.abs(z) ** 2)) - profile_radius(profile, z) ** 2

    for u in unit_points(model.n, 5, seed=22):
        z = model.point_on_surface(u)
        assert abs(f(to_real(z))) < 1e-12
        grad = fd_gradient(f, to_real(z))
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


# -- model files -------------------------------------------------------------------

def test_load_round_sphere_model():
    model, twist = load_model({"kind": "round_sphere", "n": 2,
                               "twist": {"m": 2, "k": [1, 1]}})
    assert isinstance(model, RoundSphere) and model.n == 2
    assert twist == RotationTwist(2, (1, 1))
    # the one record: the coefficients a, fixed once
    assert isinstance(model, RadialProfile)
    np.testing.assert_array_equal(model.a, [1.0, 1.0])
    with pytest.raises(TypeError, match="does not support item assignment"):
        model.a[0] = 2.0


def test_load_radial_model_checks_invariance():
    # a diagonal quadric is invariant under every rotation twist by construction
    spec = {"kind": "radial_profile", "n": 2,
            "twist": {"m": 4, "k": [1, 3]},
            "profile": {"type": "ellipsoid", "coefficients": [1.0, 1.4]}}
    model, twist = load_model(spec)
    assert isinstance(model, RadialProfile)
    for z in unit_points(2, 5, seed=16):
        assert model.defining_function(twist.apply(z)) == pytest.approx(
            model.defining_function(z), rel=1e-14)


def test_load_model_rejects_unknown():
    with pytest.raises(ValueError):
        load_model({"kind": "torus", "n": 2})
    with pytest.raises(ValueError):
        load_model({"kind": "radial_profile", "n": 2, "profile": {"type": "wavy"}})
