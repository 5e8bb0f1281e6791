"""
Twisted periodic Reeb orbits and their certificates.

An orbit is a pair (z0, tau) whose time-one Reeb flow at speed tau lands on
the rotated start point.  On the quadric G = sum_j a_j |z^j|^2 the
multipliers of coordinate j form an arithmetic progression fixed by its
exponent class and a_j; orbits are certified by damped Gauss-Newton
shooting on the residual of the closed-form flow.  Certification data: the
twist residual, the period-action identity, and the linearized return map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .czindex import UnitaryPath, cz_index_unitary
from .geometry import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    RotationTwist,
    StarShapedModel,
    as_complex_vector,
    integrate,
    reeb_flow,
    reeb_flow_samples,
    to_complex,
    to_real,
)

SUPPORT_TOL = 1e-8
TAU_TOL = 1e-9       # multipliers closer than this are one


class ConvergenceError(Exception):
    """Shooting did not certify an orbit; carries the solver diagnostic."""

    def __init__(self, reason: str, diagnostic: dict):
        super().__init__(f"{reason}; diagnostic: {diagnostic}")
        self.reason = reason
        self.diagnostic = diagnostic


class TwistBoundaryError(Exception):
    """Loop samples do not satisfy the discrete twist boundary condition."""


@dataclass(frozen=True)
class SolverSettings:
    residual_tol: float = 1e-8
    max_iterations: int = 50
    fd_step: float = 1e-6
    max_damping_halvings: int = 8
    tau_travel_limit: float = 0.5   # certified orbit must stay near the seed
    flow_surface_tol: float = 1e-3  # slack for finite-difference probe points
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    dedup_tol: float = 1e-6


@dataclass(frozen=True)
class TwistedOrbit:
    z0: np.ndarray
    tau: float
    support: tuple[int, ...]
    residual: float
    component_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "z0", as_complex_vector(self.z0))

    @property
    def n(self) -> int:
        return self.z0.size


@dataclass(frozen=True)
class SpectrumRow:
    tau: float
    support: tuple[int, ...]
    dim: int
    index: int

    def to_json_dict(self) -> dict:
        return {"tau": self.tau, "support": list(self.support),
                "dim": self.dim, "index": self.index}


@dataclass(frozen=True)
class SpectrumTable:
    rows: tuple[SpectrumRow, ...]
    window: tuple[int, int]
    twist: RotationTwist
    n: int

    def __post_init__(self) -> None:
        taus = [r.tau for r in self.rows]
        if any(b - a <= TAU_TOL for a, b in zip(taus, taus[1:])):
            raise ValueError("multiplier values not distinct/sorted")

    def taus(self) -> list[float]:
        return [r.tau for r in self.rows]

    def to_json_rows(self) -> list[dict]:
        return [r.to_json_dict() for r in self.rows]


def orbit_multiplier(m: int, residue: int, branch: int) -> float:
    """Multiplier pi (m l - r) / m of branch l in exponent class r."""
    return math.pi * (m * branch - residue) / m


def monodromy_unitary_path(tau: float, n: int) -> UnitaryPath:
    """Linearized-flow path of a sphere orbit: rigid rotation at rate 2 tau."""
    return UnitaryPath.from_rotation_rates([2.0 * tau] * n)


def orbit_index(tau: float, coefficients) -> int:
    """Index of an orbit on the quadric with coefficients a: rates 2 tau a_j."""
    return cz_index_unitary(
        UnitaryPath.from_rotation_rates(2.0 * tau * np.asarray(coefficients)))


def analytic_spectrum(twist: RotationTwist, n: int, window: tuple[int, int],
                      coefficients=None) -> SpectrumTable:
    """Closed-form twisted spectrum of the quadric G = sum_j a_j |z^j|^2.

    ``coefficients`` are the a_j, all 1 (the round sphere) by default.  The
    flow rotates coordinate j at rate 2 a_j, so it closes up under the twist
    at the multipliers pi (m l - r_j) / (m a_j), r_j its exponent residue in
    1..m, for every integer branch l in the window.  Equal multipliers share
    one row whose support is every coordinate closing up there; its critical
    component is a sphere of dimension 2 |support| - 1 inside the supported
    coordinate subspace.
    """
    if twist.n != n:
        raise ValueError("twist exponent count does not match dimension n")
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ValueError("empty branch window")
    a = [1.0] * n if coefficients is None else [float(c) for c in coefficients]

    def multiplier(j: int, branch: int) -> float:
        return orbit_multiplier(twist.m, twist.residue(j), branch) / a[j]

    def closes_up(j: int, tau: float) -> bool:
        branch = round((tau * a[j] * twist.m / math.pi + twist.residue(j)) / twist.m)
        return abs(multiplier(j, branch) - tau) <= TAU_TOL

    rows = []
    for tau in sorted({multiplier(j, l) for j in range(n) for l in range(lo, hi + 1)}):
        if rows and tau - rows[-1].tau <= TAU_TOL:
            continue
        support = tuple(j + 1 for j in range(n) if closes_up(j, tau))
        rows.append(SpectrumRow(tau=tau, support=support, dim=2 * len(support) - 1,
                                index=orbit_index(tau, a)))
    return SpectrumTable(rows=tuple(rows), window=(lo, hi), twist=twist, n=n)


# -- shooting ----------------------------------------------------------------------

def _component_id(twist: RotationTwist, support: tuple[int, ...], tau: float) -> str:
    classes = twist.congruence_classes()
    supp = ",".join(str(j) for j in support)
    for residue, members in classes.items():
        if set(support) <= set(members):
            branch = round((tau * twist.m / math.pi + residue) / twist.m)
            return f"supp({supp})|l={branch}"
    return f"supp({supp})|mixed"


def shoot_orbit(model: StarShapedModel, twist: RotationTwist, seed_z, seed_tau: float,
                settings: SolverSettings = SolverSettings()) -> TwistedOrbit:
    """Damped Gauss-Newton on the twist residual, gauge-fixed at the seed.

    Unknowns are (z, tau); equations are the 2n components of
    flow_tau(z) - phi(z) plus two gauge constraints: the surface equation
    and a transversal section through the seed along the orbit direction.
    The solver certifies the orbit nearest the seed: steps are rejected when
    the residual fails to decrease under damping, and multipliers wandering
    beyond ``tau_travel_limit`` from the seed abort with a diagnostic
    instead of certifying a different branch.  The Newton Jacobian is a
    forward difference of step ``fd_step``: 2n+1 closed-form flows.
    """
    z_seed = model.point_on_surface(as_complex_vector(seed_z))
    section = to_real(model.reeb_field(z_seed))
    n2 = 2 * z_seed.size

    def residual_vec(u: np.ndarray) -> np.ndarray:
        z = to_complex(u[:n2])
        tau = float(u[n2])
        # iterates may sit off the surface; the constraint row pulls them back
        flow = reeb_flow(z, tau, model, surface_tol=np.inf)
        rv = np.empty(n2 + 2)
        rv[:n2] = to_real(flow - twist.apply(z))
        rv[n2] = model.surface_row(z)
        rv[n2 + 1] = float(np.dot(to_real(z) - to_real(z_seed), section))
        return rv

    def jacobian(u: np.ndarray, r0: np.ndarray) -> np.ndarray:
        h = settings.fd_step
        cols = []
        for i in range(u.size):
            up = u.copy()
            up[i] += h
            cols.append((residual_vec(up) - r0) / h)
        return np.stack(cols, axis=1)

    u = np.concatenate([to_real(z_seed), [float(seed_tau)]])
    r = residual_vec(u)
    history = [float(np.linalg.norm(r))]
    for iteration in range(settings.max_iterations):
        if float(np.max(np.abs(r))) <= settings.residual_tol:
            return _certify(model, twist, u, settings)
        jac = jacobian(u, r)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        alpha = 1.0
        for _ in range(settings.max_damping_halvings + 1):
            trial = u + alpha * step
            try:
                r_trial = residual_vec(trial)
            except (ValueError, ArithmeticError):
                alpha /= 2.0
                continue
            if np.linalg.norm(r_trial) < np.linalg.norm(r):
                break
            alpha /= 2.0
        else:
            raise ConvergenceError("damping stalled", {
                "iterations": iteration, "residual": history[-1],
                "history": history[-5:]})
        u, r = trial, r_trial
        history.append(float(np.linalg.norm(r)))
        if abs(float(u[n2]) - float(seed_tau)) > settings.tau_travel_limit:
            raise ConvergenceError("left the seed's multiplier trust interval", {
                "iterations": iteration + 1, "tau": float(u[n2]),
                "seed_tau": float(seed_tau), "history": history[-5:]})
    if float(np.max(np.abs(r))) <= settings.residual_tol:
        return _certify(model, twist, u, settings)
    raise ConvergenceError("maximum iterations reached", {
        "iterations": settings.max_iterations, "residual": history[-1],
        "history": history[-5:]})


def _certify(model, twist, u: np.ndarray, settings: SolverSettings) -> TwistedOrbit:
    n2 = u.size - 1
    z = to_complex(u[:n2])
    tau = float(u[n2])
    flow = reeb_flow(z, tau, model, surface_tol=settings.flow_surface_tol)
    residual = float(np.linalg.norm(flow - twist.apply(z)))
    support = tuple(j + 1 for j in range(z.size) if abs(z[j]) > SUPPORT_TOL)
    return TwistedOrbit(z0=z, tau=tau, support=support, residual=residual,
                        component_id=_component_id(twist, support, tau))


# -- linearized flows ----------------------------------------------------------------

def _complex_to_real_matrix(mc: np.ndarray) -> np.ndarray:
    """Real 2n x 2n representation of a complex-linear map on interleaved coords."""
    n = mc.shape[0]
    out = np.zeros((2 * n, 2 * n))
    a, b = mc.real, mc.imag
    out[0::2, 0::2] = a
    out[0::2, 1::2] = -b
    out[1::2, 0::2] = b
    out[1::2, 1::2] = a
    return out


def _variational_flow(model, z, t: float, settings: SolverSettings) -> np.ndarray:
    """Differential of the time-t Reeb flow at z, as a real 2n x 2n matrix.

    Integrates y' = X(y), M' = DX(y) M from (z, identity) (Hairer-Norsett-
    Wanner, Solving ODEs I, I.14).
    """
    z = as_complex_vector(z)
    n2 = 2 * z.size
    if t == 0.0:
        return np.eye(n2)

    def rhs(_t, state):
        y = to_complex(state[:n2])
        mat = state[n2:].reshape(n2, n2)
        return np.concatenate([to_real(model.reeb_field(y)),
                               (model.field_jacobian(y) @ mat).ravel()])

    y0 = np.concatenate([to_real(z), np.eye(n2).ravel()])
    sol = integrate(rhs, t, y0, settings.rtol, settings.atol)
    return np.ascontiguousarray(sol.y[n2:, -1]).reshape(n2, n2)


def twist_return_differential(model: StarShapedModel, twist: RotationTwist, z,
                              tau: float, method: str = "auto",
                              settings: SolverSettings = SolverSettings()) -> np.ndarray:
    """Differential of (backward time-tau Reeb flow) composed after the twist.

    At a certified orbit point this is the linearized return map whose
    fixed vectors span the critical directions.  Returns the real 2n x 2n
    matrix.  ``method``: "auto" or "analytic" take the model's closed form;
    "variational" integrates the variational equation of the Reeb field.
    """
    if method != "variational":
        return _complex_to_real_matrix(model.return_map(twist, tau))
    back_map = _variational_flow(model, twist.apply(z), -tau, settings)
    return back_map @ _complex_to_real_matrix(np.diag(twist.phases()))


@dataclass(frozen=True)
class MonodromyReport:
    matrix: np.ndarray
    kernel_dim_tangent: int
    kernel_dim_contact: int
    tangent_deviation: float


def _tangent_frames(model, z) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of the tangent space and contact hyperplane."""
    normal = model.gradient(z)
    tangent = null_space(normal[None, :])
    re, im = np.real(z), np.imag(z)
    lam_row = np.empty(2 * z.size)
    lam_row[0::2] = im / 2.0
    lam_row[1::2] = -re / 2.0
    contact = null_space(np.stack([normal, lam_row]))
    return tangent, contact


def _restricted_kernel_dim(mat: np.ndarray, basis: np.ndarray,
                           tol: float) -> tuple[int, float]:
    if basis.shape[1] == 0:
        return 0, 0.0
    restricted = mat @ basis
    sing = np.linalg.svd(restricted, compute_uv=False)
    return int(np.sum(sing <= tol)), float(sing[0])


def monodromy(orbit: TwistedOrbit, model: StarShapedModel, twist: RotationTwist,
              method: str = "auto", kernel_tol: float = 1e-6,
              settings: SolverSettings = SolverSettings()) -> MonodromyReport:
    """Linearized return map at the orbit base point with kernel dimensions.

    Reports dim ker(M - I) restricted to the full tangent space and to the
    contact hyperplane, plus the operator norm of (M - I) on the tangent
    space (zero for fully degenerate critical components).
    """
    mat = twist_return_differential(model, twist, orbit.z0, orbit.tau,
                                    method=method, settings=settings)
    gap = mat - np.eye(mat.shape[0])
    tangent, contact = _tangent_frames(model, orbit.z0)
    dim_t, dev = _restricted_kernel_dim(gap, tangent, kernel_tol)
    dim_c, _ = _restricted_kernel_dim(gap, contact, kernel_tol)
    return MonodromyReport(matrix=mat, kernel_dim_tangent=dim_t,
                           kernel_dim_contact=dim_c, tangent_deviation=dev)


# -- action and gradient ---------------------------------------------------------------

def orbit_samples(orbit: TwistedOrbit, model: StarShapedModel, count: int,
                  settings: SolverSettings = SolverSettings()) -> np.ndarray:
    """count+1 points along one twisted period, endpoints included."""
    times = orbit.tau * np.linspace(0.0, 1.0, count + 1)
    return reeb_flow_samples(orbit.z0, times, model,
                             surface_tol=settings.flow_surface_tol)


def loop_action(samples: np.ndarray) -> float:
    """Chord-trapezoid quadrature of the Liouville line integral."""
    pts = np.asarray(samples, dtype=complex)
    chords = pts[1:] - pts[:-1]
    pairing = np.imag(np.sum(np.conj(pts[:-1]) * chords, axis=1)
                      + np.sum(np.conj(pts[1:]) * chords, axis=1))
    return float(np.sum(-0.25 * pairing))


def action(orbit: TwistedOrbit, model: StarShapedModel, quadrature_n: int = 1000,
           settings: SolverSettings = SolverSettings()) -> float:
    """Line integral of the Liouville form along the orbit, approximately tau."""
    return loop_action(orbit_samples(orbit, model, quadrature_n, settings))


def gradient_residual(loop: np.ndarray, tau: float, model: StarShapedModel,
                      twist: RotationTwist, hamiltonian=None,
                      boundary_tol: float = 1e-6) -> float:
    """Discrete L2 norm of the action gradient at a sampled twisted loop.

    The loop must satisfy the twist boundary condition: its last sample is
    the rotated first sample.  The gradient has the loop component
    (velocity minus tau times the Hamiltonian field; the compatible complex
    structure is an isometry, so it drops out of the norm) and the scalar
    component (minus the average of the Hamiltonian along the loop).
    """
    pts = np.asarray(loop, dtype=complex)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise ValueError("need a 2d array of at least three loop samples")
    count = pts.shape[0] - 1
    mismatch = float(np.max(np.abs(pts[-1] - twist.apply(pts[0]))))
    if mismatch > boundary_tol:
        raise TwistBoundaryError(
            f"loop end differs from the rotated start by {mismatch:.3e}")
    if hamiltonian is None:
        hamiltonian = model.defining_hamiltonian()

    dt = 1.0 / count
    velocity = np.empty((count, pts.shape[1]), dtype=complex)
    velocity[0] = (pts[1] - twist.apply(pts[-2], power=-1)) / (2 * dt)
    velocity[1:] = (pts[2:] - pts[:-2]) / (2 * dt)

    field = np.stack([hamiltonian.field(p) for p in pts[:-1]])
    loop_part = np.sum(np.abs(velocity - tau * field) ** 2) * dt

    h_vals = np.array([hamiltonian.value(p) for p in pts])
    scalar_part = float(np.trapezoid(h_vals, dx=dt)) ** 2
    return math.sqrt(loop_part + scalar_part)
