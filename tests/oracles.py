"""Independent brute-force oracles used to pin expected values.

Everything here avoids the library's own computational paths: rank by
row-span enumeration, homology by exhaustive cycle/boundary counting,
spectra by residual scans on a parameter grid, derivatives by central
differences.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


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
