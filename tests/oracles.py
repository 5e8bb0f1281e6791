"""Independent brute-force oracles used to pin expected values.

Everything here avoids the library's own computational paths: rank by
row-span enumeration, homology by exhaustive cycle/boundary counting,
spectra by residual scans on a parameter grid, derivatives by central
differences, flows by scipy's RK45 on the analytic field, return maps by
RK45 on its variational equation, rotation indices by their closed form,
profile radii from the model file's profile spec, lifts one (point,
rotation) pair at a time or one ``np.linalg.norm`` per step.  The one
exception is cyclic-group homology, which ranks its periodic resolution as
1 x 1 matrices on the library's general path, ``complexes.homology``, where
the library itself answers in closed form.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy.integrate import solve_ivp

from reebtwist.complexes import GradedF2Complex, HomologyTable, homology
from reebtwist.f2 import F2Matrix
from reebtwist.lifting import (
    AmbiguousLiftError,
    DeckElement,
    LiftResult,
    QuotientLoop,
    orbit_separation,
)
from reebtwist.orbits import SolverSettings


def brute_rank(rows: list[list[int]]) -> int:
    """Rank over GF(2) as log2 of the size of the row span."""
    packed = []
    for row in rows:
        bits = 0
        for j, e in enumerate(row):
            bits |= (e & 1) << j
        packed.append(bits)
    span = set()
    for combo in product([0, 1], repeat=len(packed)):
        acc = 0
        for c, r in zip(combo, packed):
            if c:
                acc ^= r
        span.add(acc)
    return int(math.log2(len(span)))


def brute_kernel(rows: list[list[int]], cols: int) -> set[tuple[int, ...]]:
    """All kernel vectors of a GF(2) matrix, by exhaustive enumeration."""
    kernel = set()
    for vec in product([0, 1], repeat=cols):
        image = [sum(r[j] * vec[j] for j in range(cols)) % 2 for r in rows]
        if all(e == 0 for e in image):
            kernel.add(tuple(vec))
    return kernel


def brute_homology_dim(boundary_out: list[list[int]] | None,
                       boundary_in: list[list[int]] | None,
                       dim: int) -> int:
    """dim(ker d_out / im d_in) by enumerating all chains in the middle degree.

    ``boundary_out`` maps the middle degree down, ``boundary_in`` maps into it.
    ``None`` stands for a zero map (empty adjacent degree).
    """
    vectors = list(product([0, 1], repeat=dim))

    def image(mat, vec):
        return tuple(sum(r[j] * vec[j] for j in range(len(vec))) % 2 for r in mat)

    if boundary_out is None:
        cycles = set(vectors)
    else:
        cycles = {v for v in vectors if all(e == 0 for e in image(boundary_out, v))}

    if boundary_in is None:
        boundaries = {tuple([0] * dim)}
    else:
        cols = len(boundary_in[0]) if boundary_in else 0
        boundaries = set()
        for w in product([0, 1], repeat=cols):
            boundaries.add(image(boundary_in, w))
        if not boundaries:
            boundaries = {tuple([0] * dim)}

    assert boundaries <= cycles, "boundary image not contained in cycles"
    return int(math.log2(len(cycles) // len(boundaries)))


def tate_by_resolution(m: int, degrees: tuple[int, int]) -> HomologyTable:
    """Homology of the two-periodic resolution of Z/m tensored with the trivial
    two-element module, one generator per degree, checked and ranked by
    ``complexes.homology``: the norm map descends to m mod 2 out of even
    degrees, the difference map to zero out of odd ones."""
    lo, hi = degrees
    gens = {d: ("t",) for d in range(lo, hi + 1)}
    norm = F2Matrix.from_rows([[m % 2]])
    zero = F2Matrix.zeros(1, 1)
    bnds = {d: (zero if d % 2 else norm) for d in range(lo + 1, hi + 1)}
    return homology(GradedF2Complex(lo, hi, gens, bnds))


def brute_spectrum_grid(m: int, exponents: tuple[int, ...], tau_lo: float,
                        tau_hi: float, steps: int = 200001,
                        tol: float = 1e-3) -> dict[frozenset, list[float]]:
    """Twist-condition residual scan over a dense multiplier grid.

    For each support set on which the rotation acts by a single phase,
    returns grid minima of ``|e^{-2i tau} - phase|`` below ``tol`` (refined
    by local bisection).  Independent of the closed-form solver.
    """
    classes: dict[complex, list[int]] = {}
    for j, kj in enumerate(exponents, start=1):
        phase = np.exp(2j * np.pi * kj / m)
        key = complex(np.round(phase, 12))
        classes.setdefault(key, []).append(j)

    taus = np.linspace(tau_lo, tau_hi, steps)
    out: dict[frozenset, list[float]] = {}
    for phase, support in classes.items():
        resid = np.abs(np.exp(-2j * taus) - phase)
        hits = []
        for i in range(1, steps - 1):
            if resid[i] < tol and resid[i] <= resid[i - 1] and resid[i] <= resid[i + 1]:
                hits.append(float(taus[i]))
        # merge grid-adjacent duplicates
        merged: list[float] = []
        for t in hits:
            if not merged or abs(t - merged[-1]) > 1e-3:
                merged.append(t)
        out[frozenset(support)] = merged
    return out


def rand_invertible_f2(rng: np.random.Generator, n: int) -> list[list[int]]:
    """Random invertible GF(2) matrix by rejection sampling."""
    while True:
        mat = rng.integers(0, 2, size=(n, n)).tolist()
        if brute_rank(mat) == n:
            return mat


def matmul_lists(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    ra, ca = len(a), len(a[0]) if a else 0
    cb = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(ca)) % 2 for j in range(cb)]
            for i in range(ra)]


def random_valid_complex(rng: np.random.Generator, n_degrees: int,
                         max_gens: int) -> tuple[dict[int, int], dict[int, list[list[int]]]]:
    """Random GF(2) chain complex with d.d = 0 and known-consistent shapes.

    Built from rank-normal-form boundaries conjugated by random invertible
    matrices, so exactness is structural rather than checked after the fact.
    Returns (generator counts per degree, boundary matrices per degree d
    mapping degree d to d-1), degrees 0..n_degrees-1.
    """
    dims = {d: int(rng.integers(1, max_gens + 1)) for d in range(n_degrees)}
    ranks = {}
    for d in range(1, n_degrees):
        cap = min(dims[d], dims[d - 1] - ranks.get(d - 1, 0))
        ranks[d] = int(rng.integers(0, max(cap, 0) + 1))

    normal = {}
    for d in range(1, n_degrees):
        mat = [[0] * dims[d] for _ in range(dims[d - 1])]
        # place the rank block below the rows already used as pivots of d-1
        offset = ranks.get(d - 1, 0)
        for i in range(ranks[d]):
            mat[offset + i][i] = 1
        normal[d] = mat

    change = {d: rand_invertible_f2(rng, dims[d]) for d in range(n_degrees)}
    inverse = {d: f2_inverse(change[d]) for d in range(n_degrees)}

    boundaries = {}
    for d in range(1, n_degrees):
        boundaries[d] = matmul_lists(matmul_lists(change[d - 1], normal[d]), inverse[d])
    return dims, boundaries


def orbit_class_quotient(perms: dict[int, list[int]],
                         boundaries: dict[int, list[list[int]]]) -> dict[int, list[list[int]]]:
    """Boundaries of the quotient by a free cyclic action, from orbit classes.

    ``perms[d][i]`` is the image of generator i of degree d, ``boundaries[d]``
    the list-of-rows matrix from degree d to d - 1.  Each degree's orbits are
    walked generator by generator and listed by their lowest member; an
    orbit class's boundary counts, mod 2, the entries of its lowest member's
    boundary column that fall in each orbit one degree down.
    """
    def orbits(perm):
        found = {}
        for start in range(len(perm)):
            members, cur = {start}, perm[start]
            while cur != start:
                members.add(cur)
                cur = perm[cur]
            found[min(members)] = members
        return [found[low] for low in sorted(found)]

    classes = {d: orbits(perm) for d, perm in perms.items()}
    return {d: [[sum(mat[i][min(col)] for i in row) % 2 for col in classes[d]]
                for row in classes[d - 1]]
            for d, mat in boundaries.items()}


def f2_inverse(mat: list[list[int]]) -> list[list[int]]:
    """Inverse of an invertible GF(2) matrix by Gauss-Jordan on an augmented block."""
    n = len(mat)
    aug = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(mat)]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if aug[i][c]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[r], aug[pivot] = aug[pivot], aug[r]
        for i in range(n):
            if i != r and aug[i][c]:
                aug[i] = [(x ^ y) for x, y in zip(aug[i], aug[r])]
        r += 1
    return [row[n:] for row in aug]


def fd_gradient(f, y: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Fourth-order central-difference gradient of a scalar function of real y."""
    return fd_jacobian(lambda yy: np.atleast_1d(f(yy)), y, h)[0]


def fd_jacobian(field, y: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Fourth-order central-difference Jacobian of a real vector field."""
    cols = []
    for i in range(y.size):
        e = np.zeros_like(y)
        e[i] = h
        cols.append((-field(y + 2 * e) + 8 * field(y + e)
                     - 8 * field(y - e) + field(y - 2 * e)) / (12 * h))
    return np.stack(cols, axis=1)


def rk45_flow(field, z: np.ndarray, times, rtol: float = 1e-12,
              atol: float = 1e-14) -> np.ndarray:
    """Flow of a complex vector field by scipy's RK45, one integration per time."""
    z = np.asarray(z, dtype=complex)

    def rhs(_t, y):
        return np.asarray(field(y.view(np.complex128)), dtype=complex).view(np.float64)

    rows = []
    for t in times:
        if t == 0.0:
            rows.append(z)
            continue
        sol = solve_ivp(rhs, (0.0, t), z.view(np.float64), method="RK45",
                        rtol=rtol, atol=atol)
        assert sol.success, sol.message
        rows.append(np.ascontiguousarray(sol.y[:, -1]).view(np.complex128))
    return np.stack(rows)


def reeb_field_jacobian(a) -> np.ndarray:
    """Real Jacobian of the quadric's Reeb field -2i a z on interleaved coordinates.

    The same at every point: 2 x 2 blocks [[0, 2 a_j], [-2 a_j, 0]].
    """
    return np.kron(np.diag(a), [[0.0, 2.0], [-2.0, 0.0]])


def variational_return_map(model, twist, z, tau: float) -> np.ndarray:
    """Real 2n x 2n differential of (backward time-tau Reeb flow) after the twist.

    Integrates y' = X(y), M' = DX M from (twist(z), identity) to time -tau
    by scipy's RK45, DX the closed-form ``reeb_field_jacobian`` (Hairer-
    Norsett-Wanner, Solving ODEs I, I.14), and composes the result with the
    twist's real 2 x 2 rotation blocks.
    """
    start = np.asarray(twist.apply(z), dtype=complex)
    n2 = 2 * start.size
    jac = reeb_field_jacobian(model.a)

    def rhs(_t, state):
        y = np.ascontiguousarray(state[:n2]).view(np.complex128)
        mat = state[n2:].reshape(n2, n2)
        return np.concatenate([np.asarray(model.reeb_field(y), dtype=complex).view(np.float64),
                               (jac @ mat).ravel()])

    back = np.eye(n2)
    if tau != 0.0:
        state0 = np.concatenate([start.view(np.float64), np.eye(n2).ravel()])
        sol = solve_ivp(rhs, (0.0, -tau), state0, method="RK45", rtol=1e-10, atol=1e-12)
        assert sol.success, sol.message
        back = sol.y[n2:, -1].reshape(n2, n2)
    phases = twist.phases()
    rotation = (np.kron(np.diag(phases.real), np.eye(2))
                + np.kron(np.diag(phases.imag), [[0.0, -1.0], [1.0, 0.0]]))
    return back @ rotation


def rotation_index(theta: float, tol: float = 1e-9) -> int:
    """Conley-Zehnder index of the rotation path t -> e^{-i theta t}, t in [0, 1].

    2 floor(theta / 2 pi) + 1 for a nondegenerate end; 2q when theta = 2 pi q.
    """
    turns = round(theta / (2 * math.pi))
    if abs(theta - 2 * math.pi * turns) <= tol:
        return 2 * turns
    return 2 * math.floor(theta / (2 * math.pi)) + 1


def profile_radius(profile: dict | None, z: np.ndarray) -> float:
    """rho(z/|z|) of a model file's profile spec; None is the unit sphere.

    The radius formula of each profile type, independent of the model's
    quadric coefficients.
    """
    if profile is None:
        return 1.0
    if profile["type"] == "constant":
        return float(profile["value"])
    u = np.asarray(z, dtype=complex) / np.linalg.norm(z)
    return float(np.sum(np.asarray(profile["coefficients"]) * np.abs(u) ** 2)) ** -0.5


def lift_by_pairs(loop: QuotientLoop, basepoint_choice: int = 0,
                  match_tol: float = SolverSettings.lift_match) -> LiftResult:
    """The greedy nearest-representative lift, one (point, rotation) pair at a time.

    Each rotation of the next representative is formed and measured against
    the current lifted point on its own, and so is each rotation of the
    start against the endpoint; the bound, the errors and their texts are
    those of ``lift_loop``.
    """
    twist = loop.twist
    pts = loop.samples
    bound = orbit_separation(twist, pts) / 2.0
    powers = [twist.phases(j) for j in range(twist.m)]

    current = twist.apply(pts[0], power=basepoint_choice)
    lifted = [current]
    chosen = [basepoint_choice % twist.m]
    worst_step = 0.0
    for i in range(1, pts.shape[0]):
        candidates = [phase * pts[i] for phase in powers]
        dists = [float(np.linalg.norm(c - current)) for c in candidates]
        best = int(np.argmin(dists))
        if dists[best] >= bound:
            raise AmbiguousLiftError(f"step {i} has length {dists[best]:.3e}, not below "
                                     f"the half-separation bound {bound:.3e}")
        worst_step = max(worst_step, dists[best])
        current = candidates[best]
        lifted.append(current)
        chosen.append(best)

    gaps = [float(np.linalg.norm(lifted[-1] - phase * lifted[0])) for phase in powers]
    exponent = int(np.argmin(gaps))
    if gaps[exponent] > match_tol:
        raise AmbiguousLiftError(f"lift ends {gaps[exponent]:.3e} from the nearest rotation "
                                 f"of its start, beyond lift_match {match_tol:.3e}")
    return LiftResult(powers=tuple(chosen), deck=DeckElement(exponent, twist.m),
                      margin=bound - worst_step)


def lift_by_norms(loop: QuotientLoop, basepoint_choice: int = 0,
                  match_tol: float = SolverSettings.lift_match) -> LiftResult:
    """The greedy nearest-representative lift, one ``np.linalg.norm`` per step.

    Each step measures all m rotations of the next representative against
    the current lifted point with ``np.linalg.norm(..., axis=1)`` and takes
    its ``np.argmin``; the whole path is formed from the chosen rotations,
    and its end is matched against every rotation of its start.  The
    bound, the errors and their texts are those of ``lift_loop``, whose
    step lengths must equal these bit for bit.
    """
    twist = loop.twist
    pts = loop.samples
    bound = orbit_separation(twist, pts) / 2.0
    rotations = twist.phase_table()

    choices = [basepoint_choice % twist.m]
    current = rotations[choices[0]] * pts[0]
    worst_step = 0.0
    for i in range(1, pts.shape[0]):
        candidates = rotations * pts[i]
        dists = np.linalg.norm(candidates - current, axis=1)
        best = int(np.argmin(dists))
        step = float(dists[best])
        if step >= bound:
            raise AmbiguousLiftError(f"step {i} has length {step:.3e}, not below "
                                     f"the half-separation bound {bound:.3e}")
        worst_step = max(worst_step, step)
        choices.append(best)
        current = candidates[best]

    path = rotations[choices] * pts
    gaps = np.linalg.norm(rotations * path[0] - path[-1], axis=1)
    exponent = int(np.argmin(gaps))
    gap = float(gaps[exponent])
    if gap > match_tol:
        raise AmbiguousLiftError(f"lift ends {gap:.3e} from the nearest rotation "
                                 f"of its start, beyond lift_match {match_tol:.3e}")
    return LiftResult(powers=tuple(choices), deck=DeckElement(exponent, twist.m),
                      margin=bound - worst_step)
