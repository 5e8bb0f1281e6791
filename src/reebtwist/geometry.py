"""
Geometry of complex n-space with its standard Liouville form.

Complex coordinates z^j = x^j + i y^j carry the primitive
lambda = (1/2) sum_j (y^j dx^j - x^j dy^j), and a rotation twist acts
coordinatewise by roots of unity.  Every star-shaped model is the level set
G = 1 of a function G homogeneous of degree two, given in closed form with
its real gradient and Hessian: |z|^2 for the round sphere,
sum_j a_j |z^j|^2 for the constant and ellipsoid profiles.  Everything else
is derived from G once: the surface row G - 1, the Reeb field X_G (the
symplectic dual of dG, with lambda(X_G) = G by Euler's identity), its
Jacobian, and the collar coordinate log G of the default defining
Hamiltonian.  The round sphere flows in closed form, e^{-2it} z; every other
flow goes through the one adaptive Runge-Kutta entry point ``integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

DEFAULT_SURFACE_TOL = 1e-9
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_DRIFT_TOL = 1e-8


class OffSurfaceError(Exception):
    """Point is farther from the hypersurface than the allowed tolerance."""


class IntegrationDriftError(Exception):
    """Numeric flow left the energy level beyond the drift tolerance."""


# -- packing helpers ---------------------------------------------------------

def as_complex_vector(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("expected a nonempty complex coordinate vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite coordinates")
    return z


def to_real(z: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(z, dtype=complex).view(np.float64)


def to_complex(y: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(y, dtype=np.float64).view(np.complex128)


# -- the Liouville primitive and friends --------------------------------------

def liouville_form_eval(z, v) -> float:
    """Value of the primitive one-form at z on the tangent vector v.

    In complex notation lambda_z(v) = -(1/2) Im sum_j conj(z^j) v^j.
    Bilinear in v; raises on a dimension mismatch.
    """
    z = as_complex_vector(z)
    v = np.asarray(v, dtype=complex)
    if v.shape != z.shape:
        raise ValueError(f"dimension mismatch: point {z.shape}, vector {v.shape}")
    return -0.5 * float(np.imag(np.sum(np.conj(z) * v)))


def liouville_vector_field(z) -> np.ndarray:
    """Radial field z/2 generating the scaling flow e^{t/2} z."""
    return as_complex_vector(z) / 2.0


def liouville_flow(z, t: float) -> np.ndarray:
    return math.exp(t / 2.0) * as_complex_vector(z)


def normalize_to_sphere(x) -> tuple[np.ndarray, float]:
    """Scaling-flow time and endpoint moving x onto the unit sphere.

    Returns (x/|x|, delta) with delta = -2 log|x|, the unique time for which
    the radial scaling flow carries x to the sphere.  delta is invariant
    under any coordinatewise rotation of x.  Raises on the zero vector.
    """
    x = as_complex_vector(x)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return x / norm, -2.0 * math.log(norm)


# -- rotation twists -----------------------------------------------------------

@dataclass(frozen=True)
class RotationTwist:
    """Coordinatewise rotation by primitive m-th roots of unity.

    Component j is multiplied by exp(2 pi i k_j / m).  Every exponent must
    be coprime to m, which makes the induced action on the unit sphere free
    and of order exactly m.
    """

    m: int
    k: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("modulus must be a positive integer")
        object.__setattr__(self, "k", tuple(int(x) for x in self.k))
        if not self.k:
            raise ValueError("need at least one exponent")
        for kj in self.k:
            if math.gcd(kj, self.m) != 1:
                raise ValueError(f"exponent {kj} is not coprime to {self.m}")

    @property
    def n(self) -> int:
        return len(self.k)

    @property
    def order(self) -> int:
        return self.m

    def phases(self, power: int = 1) -> np.ndarray:
        return np.exp(2j * np.pi * np.array(self.k) * power / self.m)

    def apply(self, z, power: int = 1) -> np.ndarray:
        z = as_complex_vector(z)
        if z.size != self.n:
            raise ValueError("point dimension does not match the twist")
        return self.phases(power) * z

    def residue(self, j: int) -> int:
        """Exponent class of coordinate j (0-based) normalized into 1..m."""
        return (self.k[j] - 1) % self.m + 1

    def congruence_classes(self) -> dict[int, tuple[int, ...]]:
        """Coordinates grouped by exponent residue; keys in 1..m, values 1-based."""
        classes: dict[int, list[int]] = {}
        for j in range(self.n):
            classes.setdefault(self.residue(j), []).append(j + 1)
        return {r: tuple(v) for r, v in sorted(classes.items())}


# -- the integrator ---------------------------------------------------------------

def integrate(rhs, t_end: float, y0: np.ndarray, rtol: float, atol: float,
              dense: bool = False):
    """RK45 solution of y' = rhs(t, y) over [0, t_end]: every numeric flow's entry point.

    Returns scipy's solution object (dense interpolant ``sol.sol`` if asked);
    raises IntegrationDriftError when the step-size control fails.
    """
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="RK45", rtol=rtol, atol=atol,
                    dense_output=dense)
    if not sol.success:
        raise IntegrationDriftError(f"integration failed: {sol.message}")
    return sol


def hamiltonian_dual(grad_real: np.ndarray) -> np.ndarray:
    """Symplectic dual of a real gradient: the field X with i_X dlambda = -dF.

    With interleaved (x, y) coordinates the dual of (F_x, F_y) per complex
    line is F_y - i F_x.
    """
    gx = grad_real[0::2]
    gy = grad_real[1::2]
    return gy - 1j * gx


def _dual_rows(hess: np.ndarray) -> np.ndarray:
    """Real Jacobian of the dual field of dF, given the Hessian of F."""
    jac = np.empty_like(hess)
    jac[0::2] = hess[1::2]
    jac[1::2] = -hess[0::2]
    return jac


# -- star-shaped models ---------------------------------------------------------

@dataclass(frozen=True)
class ConstantProfile:
    value: float = 1.0

    def __call__(self, u: np.ndarray):
        u = np.asarray(u, dtype=complex)
        return np.full(u.shape[:-1], self.value) if u.ndim > 1 else self.value

    def quadric(self, n: int) -> np.ndarray:
        """Coefficients a_j of G = sum_j a_j |z^j|^2 cutting out this sphere."""
        return np.full(n, self.value ** -2.0)


@dataclass(frozen=True)
class EllipsoidProfile:
    """Radius profile of the ellipsoid sum_j a_j |z^j|^2 = 1."""

    coefficients: tuple[float, ...]

    def __call__(self, u: np.ndarray):
        a = np.asarray(self.coefficients)
        quad = np.sum(a * np.abs(np.asarray(u, dtype=complex)) ** 2, axis=-1)
        return quad ** -0.5

    def quadric(self, n: int) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=float)


class StarShapedModel:
    """The hypersurface G = 1 of a function G homogeneous of degree two.

    A model supplies G (``defining_function``) with its real gradient and
    Hessian; the defaults are the diagonal quadric sum_j a_j |z^j|^2 with
    a = ``coefficients()``.  Everything else is derived from these three.
    """

    def defining_function(self, z) -> float:
        return float(np.sum(self.coefficients() * np.abs(z) ** 2))

    def gradient(self, z) -> np.ndarray:
        return 2.0 * np.repeat(self.coefficients(), 2) * to_real(z)

    def hessian(self, z) -> np.ndarray:
        return np.diag(2.0 * np.repeat(self.coefficients(), 2))

    def surface_row(self, z) -> float:
        """G - 1, vanishing exactly on the hypersurface."""
        return self.defining_function(z) - 1.0

    def reeb_field(self, z) -> np.ndarray:
        """X_G; Euler's identity gives lambda(X_G) = G = 1 on the hypersurface."""
        return hamiltonian_dual(self.gradient(z))

    def field_jacobian(self, z) -> np.ndarray:
        """Real Jacobian of ``reeb_field``: the dual map applied to the Hessian."""
        return _dual_rows(self.hessian(z))

    def flow_samples(self, z: np.ndarray, times: np.ndarray, rtol: float,
                     atol: float, drift_tol: float) -> np.ndarray:
        """Integrated Reeb flow at the given times, with the drift of G monitored."""
        if np.allclose(times, 0.0):
            return np.repeat(z[None, :], len(times), axis=0)
        if np.any(times > 0.0) and np.any(times < 0.0):
            raise ValueError("sample times must not mix signs")
        t_end = float(times[np.argmax(np.abs(times))])
        sol = integrate(lambda _t, y: to_real(self.reeb_field(to_complex(y))),
                        t_end, to_real(z), rtol, atol, dense=True)
        out = np.stack([to_complex(np.ascontiguousarray(sol.sol(t))) for t in times])
        g0 = self.defining_function(z)
        drift = max(abs(self.defining_function(p) - g0) for p in out)
        if drift > drift_tol:
            raise IntegrationDriftError(
                f"energy drift {drift:.3e} exceeds tolerance {drift_tol:.3e}")
        return out

    def return_map(self, twist: RotationTwist, tau: float) -> np.ndarray | None:
        """Closed-form complex differential of the twisted return map, if any."""
        return None

    def defining_hamiltonian(self):
        return CollarHamiltonian(self)


# perfbench/spans.py wraps ``reeb_field`` in the body of each model class, so the
# subclasses bind the shared method under their own name.

@dataclass(frozen=True)
class RoundSphere(StarShapedModel):
    """The unit sphere G = |z|^2, whose Reeb flow e^{-2it} z is known in closed form."""

    n: int
    kind: str = "round_sphere"

    reeb_field = StarShapedModel.reeb_field

    def coefficients(self) -> np.ndarray:
        return np.ones(self.n)

    def surface_error(self, z) -> float:
        return abs(float(np.linalg.norm(as_complex_vector(z))) - 1.0)

    def point_on_surface(self, direction) -> np.ndarray:
        u, _ = normalize_to_sphere(direction)
        return u

    def flow_samples(self, z, times, rtol, atol, drift_tol) -> np.ndarray:
        """Closed-form flow e^{-2it} z; no tolerance applies."""
        return np.exp(-2j * times)[:, None] * z[None, :]

    def return_map(self, twist: RotationTwist, tau: float) -> np.ndarray:
        return np.diag(np.exp(2j * tau) * twist.phases())

    def defining_hamiltonian(self):
        return SphereHamiltonian()


@dataclass(frozen=True)
class RadialProfile(StarShapedModel):
    """Star-shaped hypersurface |z| = rho(z/|z|) for a positive profile rho.

    The constant and ellipsoid profiles give G = |z|^2 / rho(z/|z|)^2 in
    closed form; a bare callable profile still has ``radius`` and
    ``check_invariance`` but no defining function, hence no Reeb field.
    """

    n: int
    profile: Callable[[np.ndarray], float]
    invariant: bool = True
    kind: str = "radial_profile"

    reeb_field = StarShapedModel.reeb_field

    def coefficients(self) -> np.ndarray:
        try:
            return self.profile.quadric(self.n)
        except AttributeError:
            raise TypeError("profile has no closed-form defining function") from None

    def radius(self, direction) -> float:
        u, _ = normalize_to_sphere(direction)
        r = float(self.profile(u))
        if not (r > 0.0 and np.isfinite(r)):
            raise ValueError("profile must be positive and finite")
        return r

    def surface_error(self, z) -> float:
        z = as_complex_vector(z)
        return abs(float(np.linalg.norm(z)) - self.radius(z))

    def point_on_surface(self, direction) -> np.ndarray:
        u, _ = normalize_to_sphere(direction)
        return self.radius(u) * u

    def check_invariance(self, twist: RotationTwist, samples: int = 64,
                         tol: float = 1e-9, seed: int = 0) -> None:
        """Sample-test rho(phi(u)) = rho(u); raises ValueError on failure."""
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            u = rng.normal(size=self.n) + 1j * rng.normal(size=self.n)
            u /= np.linalg.norm(u)
            if abs(self.profile(twist.apply(u)) - self.profile(u)) > tol:
                raise ValueError("profile is not invariant under the twist")


# -- Reeb flow ------------------------------------------------------------------

def reeb_field(z, surface_tol: float = DEFAULT_SURFACE_TOL) -> np.ndarray:
    """Reeb field -2i z of the round sphere; errors off the hypersurface."""
    z = as_complex_vector(z)
    sphere = RoundSphere(z.size)
    err = sphere.surface_error(z)
    if err > surface_tol:
        raise OffSurfaceError(f"|z| - 1 = {err:.3e} exceeds tolerance {surface_tol:.3e}")
    return sphere.reeb_field(z)


def reeb_flow(z, t: float, model: StarShapedModel,
              surface_tol: float = DEFAULT_SURFACE_TOL,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
              drift_tol: float = DEFAULT_DRIFT_TOL) -> np.ndarray:
    """Time-t Reeb flow on the model hypersurface (see ``reeb_flow_samples``)."""
    return reeb_flow_samples(z, [t], model, surface_tol=surface_tol,
                             rtol=rtol, atol=atol, drift_tol=drift_tol)[-1]


def reeb_flow_samples(z, times, model: StarShapedModel,
                      surface_tol: float = DEFAULT_SURFACE_TOL,
                      rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                      drift_tol: float = DEFAULT_DRIFT_TOL) -> np.ndarray:
    """Reeb flow evaluated at an increasing or decreasing list of times.

    The start point must lie within ``surface_tol`` of the hypersurface.  The
    round sphere flows in closed form; other models are integrated with the
    drift of G held below ``drift_tol``.
    """
    z = as_complex_vector(z)
    err = model.surface_error(z)
    if err > surface_tol:
        raise OffSurfaceError(f"surface error {err:.3e} exceeds {surface_tol:.3e}")
    return model.flow_samples(z, np.asarray(times, dtype=float), rtol, atol, drift_tol)


# -- defining Hamiltonian functions ----------------------------------------------

def _smoothstep(u: float) -> float:
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _smoothstep_slope(u: float) -> float:
    if u <= 0.0 or u >= 1.0:
        return 0.0
    return 30.0 * u * u * (1.0 - u) ** 2


def _smoothstep_integral(u: float) -> float:
    """Integral of the quintic smoothstep from 0 to u (equals 1/2 at u = 1)."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 0.5 + (u - 1.0)
    return u ** 4 * (2.5 + u * (-3.0 + u))


def _mollified_clamp(r: float, lo_corner: float, hi_corner: float,
                     eps: float) -> tuple[float, float, float]:
    """C^2 ramp with unit slope between the corners, constant outside.

    Returns (value, slope, curvature), where the value is normalized to
    vanish at the midpoint of the corners.  The slope rises from 0 to 1 over
    a width-2*eps collar around each corner via a quintic smoothstep.
    """
    a0, a1 = lo_corner - eps, lo_corner + eps
    b0, b1 = hi_corner - eps, hi_corner + eps
    if a1 > b0:
        raise ValueError("mollification width too large for the ramp")

    if r <= a0:
        raw, slope, curv = 0.0, 0.0, 0.0
    elif r <= a1:
        u = (r - a0) / (2 * eps)
        raw, slope = 2 * eps * _smoothstep_integral(u), _smoothstep(u)
        curv = _smoothstep_slope(u) / (2 * eps)
    elif r <= b0:
        raw, slope, curv = eps + (r - a1), 1.0, 0.0
    elif r <= b1:
        u = (r - b0) / (2 * eps)
        raw = eps + (b0 - a1) + (r - b0) - 2 * eps * _smoothstep_integral(u)
        slope = 1.0 - _smoothstep(u)
        curv = -_smoothstep_slope(u) / (2 * eps)
    else:
        raw, slope, curv = eps + (b0 - a1) + eps, 0.0, 0.0

    mid_raw = eps + ((lo_corner + hi_corner) / 2.0 - a1)
    return raw - mid_raw, slope, curv


@dataclass(frozen=True)
class SphereHamiltonian:
    """Defining Hamiltonian (beta(|z|^2) - 1)/2 for the unit sphere.

    beta is a mollified ramp in r = |z|^2: constant below 1/2 - eps and
    above 3/2 + eps, passing through beta(1) = 1 with slope 2 on the middle
    stretch.  The slope normalization makes the Hamiltonian vector field
    restrict to the Reeb field on the sphere; the zero set is exactly
    |z| = 1 and dH has compact support.
    """

    eps: float = 0.05

    def _ramp(self, r: float) -> tuple[float, float, float]:
        return _mollified_clamp(r, 0.5, 1.5, self.eps)

    def beta(self, r: float) -> float:
        return 2.0 * self._ramp(r)[0] + 1.0

    def value(self, z) -> float:
        z = as_complex_vector(z)
        return (self.beta(float(np.sum(np.abs(z) ** 2))) - 1.0) / 2.0

    def field(self, z) -> np.ndarray:
        z = as_complex_vector(z)
        return -2j * self._ramp(float(np.sum(np.abs(z) ** 2)))[1] * z

    def jacobian(self, z) -> np.ndarray:
        """Real Jacobian of the field -2i s(|z|^2) z, s the slope of the ramp."""
        z = as_complex_vector(z)
        _, s, ds = self._ramp(float(np.sum(np.abs(z) ** 2)))
        y = to_real(z)
        return (s * _dual_rows(2.0 * np.eye(y.size))
                + np.outer(to_real(-2j * z), 2.0 * ds * y))

    def flow(self, z, t: float) -> np.ndarray:
        # |z| is conserved, so the flow is a rigid phase rotation
        z = as_complex_vector(z)
        rate = self._ramp(float(np.sum(np.abs(z) ** 2)))[1]
        return np.exp(-2j * rate * t) * z


@dataclass(frozen=True)
class CollarHamiltonian:
    """Defining Hamiltonian built in the scaling-flow collar coordinate log G.

    log G vanishes on the hypersurface; the Hamiltonian is a mollified clamp
    of it to [-width/2, width/2].  Its field slope * X_G / G restricts to the
    Reeb field on the hypersurface.
    """

    model: StarShapedModel
    width: float = 0.5
    eps: float = 0.05

    def _clamp(self, z) -> tuple[float, tuple[float, float, float]]:
        g = self.model.defining_function(as_complex_vector(z))
        return g, _mollified_clamp(math.log(g), -self.width / 2, self.width / 2, self.eps)

    def value(self, z) -> float:
        return self._clamp(z)[1][0]

    def field(self, z) -> np.ndarray:
        g, (_, s, _) = self._clamp(z)
        return s / g * self.model.reeb_field(as_complex_vector(z))

    def jacobian(self, z) -> np.ndarray:
        z = as_complex_vector(z)
        g, (_, s, ds) = self._clamp(z)
        x_g = to_real(self.model.reeb_field(z))
        return (s / g * self.model.field_jacobian(z)
                + np.outer(x_g, (ds - s) / g ** 2 * self.model.gradient(z)))

    def flow(self, z, t: float, rtol: float = DEFAULT_RTOL,
             atol: float = DEFAULT_ATOL) -> np.ndarray:
        z = as_complex_vector(z)
        if t == 0.0:
            return z
        sol = integrate(lambda _t, y: to_real(self.field(to_complex(y))),
                        t, to_real(z), rtol, atol)
        return to_complex(np.ascontiguousarray(sol.y[:, -1]))


# -- weight profiles and reparametrized flows -------------------------------------

def _smootherstep(u: float) -> float:
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return u ** 4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))


def _smootherstep_slope(u: float) -> float:
    if u <= 0.0 or u >= 1.0:
        return 0.0
    return 140.0 * u ** 3 * (1.0 - u) ** 3


@dataclass(frozen=True)
class UniformWeight:
    """Constant unit weight; the reparametrization is the identity."""

    def __call__(self, t: float) -> float:
        return 1.0

    def cumulative(self, t: float) -> float:
        return t


@dataclass(frozen=True)
class BumpWeight:
    """Nonnegative C^2 bump supported in (lo, hi) with total mass one."""

    lo: float = 0.1
    hi: float = 0.4

    def __call__(self, t: float) -> float:
        return _smootherstep_slope((t - self.lo) / (self.hi - self.lo)) / (self.hi - self.lo)

    def cumulative(self, t: float) -> float:
        return _smootherstep((t - self.lo) / (self.hi - self.lo))


def reparametrized_flow_check(chi, hamiltonian, z, t: float,
                              rtol: float = DEFAULT_RTOL,
                              atol: float = DEFAULT_ATOL) -> float:
    """Sup-norm gap between the weighted flow and the reparametrized one.

    Integrates the time-dependent field chi(s) X_H and compares the endpoint
    against the autonomous flow at time integral_0^t chi.
    """
    z = as_complex_vector(z)
    if t == 0.0:
        return 0.0

    def rhs(s, y):
        return float(chi(s)) * to_real(hamiltonian.field(to_complex(y)))

    sol = integrate(rhs, t, to_real(z), rtol, atol)
    weighted = to_complex(np.ascontiguousarray(sol.y[:, -1]))
    reference = hamiltonian.flow(z, chi.cumulative(t))
    return float(np.max(np.abs(weighted - reference)))


# -- model description files ------------------------------------------------------

_PROFILES = {
    "constant": lambda spec: ConstantProfile(value=float(spec.get("value", 1.0))),
    "ellipsoid": lambda spec: EllipsoidProfile(
        coefficients=tuple(float(c) for c in spec["coefficients"])),
}


def load_model(spec: dict) -> tuple[StarShapedModel, RotationTwist | None]:
    """Build (model, twist) from a JSON model description dict."""
    kind = spec.get("kind")
    n = int(spec["n"])
    twist = None
    if "twist" in spec and spec["twist"] is not None:
        twist = RotationTwist(m=int(spec["twist"]["m"]),
                              k=tuple(spec["twist"]["k"]))
        if twist.n != n:
            raise ValueError("twist exponent count does not match dimension n")
    if kind == "round_sphere":
        return RoundSphere(n=n), twist
    if kind == "radial_profile":
        pspec = spec.get("profile", {"type": "constant"})
        ptype = pspec.get("type")
        if ptype not in _PROFILES:
            raise ValueError(f"unknown profile type {ptype!r}")
        profile = _PROFILES[ptype](pspec)
        model = RadialProfile(n=n, profile=profile,
                              invariant=bool(pspec.get("invariant", True)))
        if twist is not None and model.invariant:
            model.check_invariance(twist)
        return model, twist
    raise ValueError(f"unknown model kind {kind!r}")
