"""
Twisted periodic Reeb orbits and their certificates.

An orbit is a pair (z0, tau) whose time-one Reeb flow at speed tau lands on
the rotated start point.  On the quadric G = sum_j a_j |z^j|^2 the
multipliers of coordinate j form an arithmetic progression fixed by its
exponent class and a_j, and an orbit's index is the closed-form index of
the rotation rates 2 tau a_j.  Orbits are certified by damped Gauss-Newton
shooting on the residual of the closed-form flow, with its Jacobian in
closed form too.  Certification data: the twist residual, the period-action
identity, and the linearized return map.  A spectrum row's twisted index
grades the pearl complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .czindex import as_floats, cz_index_unitary, winding
from .geometry import (
    RadialProfile,
    RotationTwist,
    as_complex_vector,
    liouville_form_eval,
    reeb_flow_samples,
    row_blocks,
    to_complex,
    to_real,
)
from .lazy import lazy_module

np = lazy_module("numpy")

SUPPORT_TOL = 1e-8
TAU_TOL = 1e-9       # multipliers closer than this are one
MAX_ITERATIONS = 50
MAX_DAMPING_HALVINGS = 8
KERNEL_TOL = 1e-6    # singular values of M - I at most this count toward the kernel
# analytic_spectrum forms one multiplier per (line, branch) pair of its
# window, about 0.6 us apiece on a 2-core x86-64 machine (under 0.1 s at the
# first cap).  Each distinct multiplier then makes a row that checks all n
# lines and sums their index, as build_pearl_complex's twisted index does,
# about 1.4 us per (row, line) pair (1.5 s at the second cap)
MAX_LINE_BRANCHES = 100_000
MAX_SPECTRUM_CELLS = 2 ** 20
# A Newton step solves the (2n+2) x (2n+1) shooting system in O(n^3) time,
# 0.2 s at n = 250, 1.6 s at n = 500 and 6 s at n = 1000 on that machine;
# this many cells admit n <= 511
MAX_JACOBIAN_CELLS = 2 ** 20
# orbit_samples holds its 16 B per point (one coordinate at one sample) and
# 8 B per sample time beyond one row block, about 0.05 us per point on a
# 2-core x86-64 machine: 25 million points of a 2-coordinate orbit take
# 0.5 GB and 1.1 s.  The action quadrature evaluates its samples in blocks
# and keeps only 16 B per sample beyond one block: 25 million points of a
# 2-coordinate orbit take 0.24 GB and 2.4 s.  The cap admits certify's
# 1001-sample action at n = 20000
MAX_ORBIT_POINTS = 25_000_000


class ConvergenceError(Exception):
    """Shooting did not certify an orbit; carries the solver diagnostic."""

    def __init__(self, reason: str, diagnostic: dict):
        super().__init__(f"{reason}; diagnostic: {diagnostic}")
        self.reason = reason
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class SolverSettings:
    """Every tolerance a command reads; the field names are the ``--tol`` names."""

    residual: float = 1e-8
    tau_travel: float = 0.5   # certified orbit must stay near the seed
    surface: float = 1e-3     # surface check of certified and sampled orbit points
    lift_match: float = 1e-6  # lifted endpoint to the nearest rotation of its start


@dataclass(frozen=True)
class TwistedOrbit:
    z0: np.ndarray
    tau: float
    support: tuple[int, ...]
    residual: float
    component_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "z0", as_complex_vector(self.z0))


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


def line_multiplier(twist: RotationTwist, a_j: float, j: int, branch: int) -> float:
    """pi (m l - r_j) / (m a_j): line j, rotating at rate 2 a_j, closes up on branch l."""
    return orbit_multiplier(twist.m, twist.residue(j), branch) / a_j


def monodromy_unitary_path(tau: float, n: int) -> np.ndarray:
    """Rotation rates of a sphere orbit's linearized flow: 2 tau on every line."""
    return np.full(n, 2.0 * tau)


def orbit_index(tau: float, coefficients) -> int:
    """Index of an orbit on the quadric with coefficients a: rates 2 tau a_j."""
    two_tau = 2.0 * tau
    return cz_index_unitary([two_tau * a_j for a_j in as_floats(coefficients)])


def line_turns(tau: float, a_j: float, twist: RotationTwist, j: int) -> float:
    """theta_j / 2 pi, theta_j = 2 tau a_j + 2 pi r_j / m: line j's branch where it closes up."""
    return tau * float(a_j) / math.pi + twist.residue(j) / twist.m


def twisted_index(row: SpectrumRow, coefficients, twist: RotationTwist) -> int:
    """Index of a row's linearized flow followed by the twist's rotation path.

    A line in the row's support ends on the identity: the support, not a
    tolerance, decides which lines take the closed winding.
    """
    return sum(winding(line_turns(row.tau, a_j, twist, j), j + 1 in row.support)
               for j, a_j in enumerate(coefficients))


def analytic_spectrum(model: RadialProfile, twist: RotationTwist,
                      window: tuple[int, int],
                      taus_within: tuple[float, float] | None = None) -> SpectrumTable:
    """Closed-form twisted spectrum of the model's quadric G = sum_j a_j |z^j|^2.

    The flow rotates coordinate j at rate 2 a_j, so it closes up under the
    twist at the multipliers pi (m l - r_j) / (m a_j), r_j its exponent
    residue in 1..m, for every integer branch l in the window.  Equal
    multipliers share one row whose support is every coordinate closing up
    there; its critical component is a sphere of dimension 2 |support| - 1
    inside the supported coordinate subspace.  Given ``taus_within``, an
    inclusive interval, only the multipliers in it make rows.  A window of
    more than ``MAX_LINE_BRANCHES`` (line, branch) pairs raises ValueError
    before any is enumerated, and one whose kept multipliers make more than
    ``MAX_SPECTRUM_CELLS`` (row, line) pairs before any row is built.
    """
    a, n = model.a, model.n
    if twist.n != n:
        raise ValueError("twist exponent count does not match dimension n")
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ValueError("empty branch window")
    if n * (hi - lo + 1) > MAX_LINE_BRANCHES:
        raise ValueError(f"branch window {lo}:{hi} holds {n} x {hi - lo + 1} line branches, "
                         f"above the cap of {MAX_LINE_BRANCHES}")
    taus = {line_multiplier(twist, a[j], j, l) for j in range(n) for l in range(lo, hi + 1)}
    if taus_within is not None:
        taus = {tau for tau in taus if taus_within[0] <= tau <= taus_within[1]}
    taus = sorted(taus)
    if len(taus) * n > MAX_SPECTRUM_CELLS:
        raise ValueError(f"{len(taus)} distinct multipliers on {n} lines make {len(taus) * n} "
                         f"(row, line) pairs, above the cap of {MAX_SPECTRUM_CELLS}")

    def closing_lines(tau: float) -> set[tuple[int, int]]:
        """The (line, branch) pairs whose multiplier lies within TAU_TOL of tau."""
        pairs = ((j, round(line_turns(tau, a[j], twist, j))) for j in range(n))
        return {(j, l) for j, l in pairs if abs(line_multiplier(twist, a[j], j, l) - tau) <= TAU_TOL}

    # a line joins only the first row it closes up at: multipliers chained
    # within 2 TAU_TOL would otherwise put one line into two rows
    claimed: set[tuple[int, int]] = set()
    rows = []
    for tau in taus:
        if rows and tau - rows[-1].tau <= TAU_TOL:
            continue
        joining = closing_lines(tau) - claimed
        claimed |= joining
        support = tuple(sorted(j + 1 for j, _ in joining))
        rows.append(SpectrumRow(tau=tau, support=support, dim=2 * len(support) - 1,
                                index=orbit_index(tau, a)))
    return SpectrumTable(rows=tuple(rows))


# -- shooting ----------------------------------------------------------------------

def _component_id(twist: RotationTwist, coefficients, support: tuple[int, ...],
                  tau: float) -> str:
    """supp(...)|l=<branch> when every support line closes up on one branch, else mixed."""
    supp = ",".join(str(j) for j in support)
    branches = {round(line_turns(tau, coefficients[j - 1], twist, j - 1)) for j in support}
    return f"supp({supp})|l={branches.pop()}" if len(branches) == 1 else f"supp({supp})|mixed"


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


def _shooting_residual(model, twist, z_seed, section, u: np.ndarray) -> np.ndarray:
    """Twist residual flow_tau(z) - phi(z), surface row G - 1, section row at the seed."""
    n2 = u.size - 1
    z = to_complex(u[:n2])
    # iterates may sit off the surface; the surface row pulls them back
    flow = reeb_flow_samples(z, [float(u[n2])], model, surface_tol=np.inf)[-1]
    rv = np.empty(n2 + 2)
    rv[:n2] = to_real(flow - twist.apply(z))
    rv[n2] = model.defining_function(z) - 1.0
    rv[n2 + 1] = float(np.dot(to_real(z) - to_real(z_seed), section))
    return rv


def _shooting_jacobian(model, twist, section, u: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian of ``_shooting_residual`` in (z, tau).

    The flow rows are diag(e^{-2i a tau} - phases) in z and -2i a e^{-2i a tau} z
    in tau; the surface row is dG and the section row the section, both
    constant in tau.  A system of more than ``MAX_JACOBIAN_CELLS`` cells raises
    ValueError before it is built.
    """
    n2 = u.size - 1
    if (n2 + 2) * (n2 + 1) > MAX_JACOBIAN_CELLS:
        raise ValueError(f"a Newton step at n = {n2 // 2} needs a {n2 + 2} x {n2 + 1} "
                         f"system, above the cap of {MAX_JACOBIAN_CELLS} cells")
    z = to_complex(u[:n2])
    a = np.asarray(model.a)
    rotation = np.exp(-2j * a * float(u[n2]))
    jac = np.zeros((n2 + 2, n2 + 1))
    jac[:n2, :n2] = _complex_to_real_matrix(np.diag(rotation - twist.phases()))
    jac[:n2, n2] = to_real(-2j * a * rotation * z)
    jac[n2, :n2] = model.gradient(z)
    jac[n2 + 1, :n2] = section
    return jac


def shoot_orbit(model: RadialProfile, twist: RotationTwist, seed_z, seed_tau: float,
                settings: SolverSettings = SolverSettings()) -> TwistedOrbit:
    """Damped Gauss-Newton on the twist residual, gauge-fixed at the seed.

    Unknowns are (z, tau); equations are the 2n components of
    flow_tau(z) - phi(z) plus two gauge constraints: the surface equation
    and a transversal section through the seed along the orbit direction.
    The solver certifies the orbit nearest the seed: steps are rejected when
    the residual fails to decrease under damping, and multipliers wandering
    beyond ``tau_travel`` from the seed abort with a diagnostic
    instead of certifying a different branch.  The Newton Jacobian is the
    closed form of ``_shooting_jacobian``, so a step costs one flow.
    """
    z_seed = model.point_on_surface(as_complex_vector(seed_z))
    section = to_real(model.reeb_field(z_seed))
    n2 = 2 * z_seed.size

    def residual_vec(u: np.ndarray) -> np.ndarray:
        return _shooting_residual(model, twist, z_seed, section, u)

    u = np.concatenate([to_real(z_seed), [float(seed_tau)]])
    r = residual_vec(u)
    history = [float(np.linalg.norm(r))]
    for iteration in range(MAX_ITERATIONS):
        if float(np.max(np.abs(r))) <= settings.residual:
            return _certify(model, twist, u, settings)
        jac = _shooting_jacobian(model, twist, section, u)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        alpha = 1.0
        for _ in range(MAX_DAMPING_HALVINGS + 1):
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
        if abs(float(u[n2]) - float(seed_tau)) > settings.tau_travel:
            raise ConvergenceError("left the seed's multiplier trust interval", {
                "iterations": iteration + 1, "tau": float(u[n2]),
                "seed_tau": float(seed_tau), "history": history[-5:]})
    if float(np.max(np.abs(r))) <= settings.residual:
        return _certify(model, twist, u, settings)
    raise ConvergenceError("maximum iterations reached", {
        "iterations": MAX_ITERATIONS, "residual": history[-1],
        "history": history[-5:]})


def _certify(model, twist, u: np.ndarray, settings: SolverSettings) -> TwistedOrbit:
    n2 = u.size - 1
    z = to_complex(u[:n2])
    tau = float(u[n2])
    flow = reeb_flow_samples(z, [tau], model, surface_tol=settings.surface)[-1]
    residual = float(np.linalg.norm(flow - twist.apply(z)))
    support = tuple(j + 1 for j in range(z.size) if abs(z[j]) > SUPPORT_TOL)
    return TwistedOrbit(z0=z, tau=tau, support=support, residual=residual,
                        component_id=_component_id(twist, model.a, support, tau))


# -- linearized return map ----------------------------------------------------------

@dataclass(frozen=True)
class MonodromyReport:
    kernel_dim_tangent: int
    kernel_dim_contact: int
    tangent_deviation: float


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis (columns) from the SVD.

    Singular values above max(shape) * eps * sigma_max, the usual rank
    cut-off of a null-space routine, count toward the rank.
    """
    _, sing, vh = np.linalg.svd(a, full_matrices=True)
    tol = max(a.shape) * np.finfo(sing.dtype).eps * np.amax(sing, initial=0.0)
    return vh[np.count_nonzero(sing > tol):].T.conj()


def _tangent_frames(model, z) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of the tangent space and contact hyperplane."""
    normal = model.gradient(z)
    tangent = _null_space(normal[None, :])
    re, im = np.real(z), np.imag(z)
    lam_row = np.empty(2 * z.size)
    lam_row[0::2] = im / 2.0
    lam_row[1::2] = -re / 2.0
    contact = _null_space(np.stack([normal, lam_row]))
    return tangent, contact


def _restricted_kernel_dim(mat: np.ndarray, basis: np.ndarray) -> tuple[int, float]:
    if basis.shape[1] == 0:
        return 0, 0.0
    restricted = mat @ basis
    sing = np.linalg.svd(restricted, compute_uv=False)
    return int(np.sum(sing <= KERNEL_TOL)), float(sing[0])


def monodromy(orbit: TwistedOrbit, model: RadialProfile,
              twist: RotationTwist) -> MonodromyReport:
    """Linearized return map at the orbit base point with kernel dimensions.

    The map M is the model's closed form: the differential of the backward
    time-tau Reeb flow composed after the twist, as a real 2n x 2n matrix,
    whose fixed vectors span the critical directions.  Reports dim ker(M - I),
    singular values up to ``KERNEL_TOL``, on the tangent space and on the
    contact hyperplane, plus the operator norm of (M - I) on the tangent
    space (zero for fully degenerate critical components).
    """
    mat = _complex_to_real_matrix(model.return_map(twist, orbit.tau))
    gap = mat - np.eye(mat.shape[0])
    tangent, contact = _tangent_frames(model, orbit.z0)
    dim_t, dev = _restricted_kernel_dim(gap, tangent)
    dim_c, _ = _restricted_kernel_dim(gap, contact)
    return MonodromyReport(kernel_dim_tangent=dim_t,
                           kernel_dim_contact=dim_c, tangent_deviation=dev)


# -- action ------------------------------------------------------------------------

def _sample_times(orbit: TwistedOrbit, count: int) -> np.ndarray:
    if (count + 1) * orbit.z0.size > MAX_ORBIT_POINTS:
        raise ValueError(f"{count + 1} samples of {orbit.z0.size} coordinates exceed the cap "
                         f"of {MAX_ORBIT_POINTS} orbit points")
    return orbit.tau * np.linspace(0.0, 1.0, count + 1)


def orbit_samples(orbit: TwistedOrbit, model: RadialProfile, count: int,
                  settings: SolverSettings = SolverSettings()) -> np.ndarray:
    """count+1 points along one twisted period, endpoints included.

    More than ``MAX_ORBIT_POINTS`` points, count+1 per coordinate, raise
    ValueError before any is computed.
    """
    return reeb_flow_samples(orbit.z0, _sample_times(orbit, count), model,
                             surface_tol=settings.surface)


def _chord_terms(pts: np.ndarray) -> np.ndarray:
    """Mean of lambda at the two ends of each chord between consecutive points, applied to it."""
    chords = pts[1:] - pts[:-1]
    return 0.5 * (liouville_form_eval(pts[:-1], chords) + liouville_form_eval(pts[1:], chords))


def loop_action(samples: np.ndarray) -> float:
    """Chord-trapezoid quadrature of the Liouville line integral: the sum of the chord terms."""
    return float(np.sum(_chord_terms(np.asarray(samples, dtype=complex))))


def action(orbit: TwistedOrbit, model: RadialProfile, quadrature_n: int = 1000,
           settings: SolverSettings = SolverSettings()) -> float:
    """Line integral of the Liouville form along the orbit, approximately tau.

    ``loop_action`` of ``orbit_samples``, with the samples evaluated in
    blocks of about ``geometry.BLOCK_POINTS`` points (``row_blocks``).  A
    block's first chord starts at the previous block's last sample, and the
    chord terms are summed once over the whole orbit, so the value does not
    depend on the block size.
    """
    times = _sample_times(orbit, quadrature_n)
    terms = np.empty(quadrature_n)
    for chords in row_blocks(quadrature_n, orbit.z0.size):
        pts = reeb_flow_samples(orbit.z0, times[chords.start:chords.stop + 1], model,
                                surface_tol=settings.surface)
        terms[chords] = _chord_terms(pts)
    return float(np.sum(terms))
