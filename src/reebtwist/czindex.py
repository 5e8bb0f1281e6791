"""
Conley-Zehnder indices of unitary matrix paths via eigenvalue winding.

Paths are stored as continuous angle tracks, one per complex eigenline,
in the clockwise convention: the path value at time t has eigenvalues
e^{-i theta_j(t)}.  With this sign choice the linearized flow along a
positively traversed circle orbit picks up positive winding and the usual
positive index.

Each track contributes the odd winding number

    w(theta) = 2 floor(theta / 2 pi) + 1        theta not a multiple of 2 pi
    w(theta) = theta / pi                       theta a multiple of 2 pi

relative to its start, w(theta(1)) - w(theta(0)).  The second branch is the
half-signature boundary term of a degenerate endpoint; eigenline crossings
have even signature, so the total is always an integer and catenation of
paths adds indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * np.pi


class DiscontinuousTrackError(Exception):
    """Angle samples jump too far to identify a continuous eigenvalue track."""


@dataclass(frozen=True)
class UnitaryPath:
    """Sampled path of diagonalizable unitary frames on the unit interval.

    ``angles[j, i]`` is the continuous angle of eigenline j at ``times[i]``;
    paths starting at the identity have all tracks starting at zero.
    """

    times: np.ndarray
    angles: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        angles = np.atleast_2d(np.asarray(self.angles, dtype=float))
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two time samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if angles.shape[1] != times.size:
            raise ValueError("angle tracks do not match the time grid")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "angles", angles)

    @property
    def tracks(self) -> int:
        return self.angles.shape[0]

    @classmethod
    def from_rotation_rates(cls, rates) -> "UnitaryPath":
        """Path t -> diag(e^{-i rate_j t}) as angle tracks rate_j * t.

        At least 33 samples, and enough that every step stays below pi/2.
        """
        rates = np.atleast_1d(np.asarray(rates, dtype=float))
        samples = max(33, int(2.0 * float(np.max(np.abs(rates))) / np.pi) + 2)
        times = np.linspace(0.0, 1.0, samples)
        return cls(times, rates[:, None] * times[None, :])

    def validate(self, max_jump: float = np.pi) -> None:
        jumps = np.abs(np.diff(self.angles, axis=1))
        if jumps.size and float(jumps.max()) >= max_jump:
            raise DiscontinuousTrackError(
                f"angle jump {float(jumps.max()):.3f} >= {max_jump:.3f}")

    def end_angles(self) -> np.ndarray:
        return self.angles[:, -1]

    def start_angles(self) -> np.ndarray:
        return self.angles[:, 0]

    def concatenate(self, other: "UnitaryPath") -> "UnitaryPath":
        """Run this path on [0, 1/2], then the other (angle-shifted) on [1/2, 1]."""
        if other.tracks != self.tracks:
            raise ValueError("track count mismatch")
        t1 = self.times / 2.0
        t2 = 0.5 + other.times / 2.0
        shift = (self.end_angles() - other.start_angles())[:, None]
        times = np.concatenate([t1, t2[1:]])
        angles = np.concatenate([self.angles, other.angles[:, 1:] + shift], axis=1)
        return UnitaryPath(times, angles)


def _odd_winding(theta: float, tol: float = 1e-9) -> int:
    """The track invariant w: odd on regular values, even on multiples of 2 pi."""
    nearest = round(theta / _TWO_PI)
    if abs(theta - nearest * _TWO_PI) <= tol:
        return 2 * int(nearest)
    return 2 * int(np.floor(theta / _TWO_PI)) + 1


def cz_index_unitary(path: UnitaryPath, tol: float = 1e-9) -> int:
    """Index of a unitary path: summed odd-winding increments of its tracks.

    Nondegenerate track ends contribute 2 floor(theta/2 pi) + 1; ends on the
    identity contribute the even boundary value.  Constant tracks contribute
    zero.  Raises on discontinuous tracks.
    """
    path.validate()
    total = 0
    for j in range(path.tracks):
        start = float(path.angles[j, 0])
        end = float(path.angles[j, -1])
        total += _odd_winding(end, tol) - _odd_winding(start, tol)
    return total


def relative_index(a: UnitaryPath, b: UnitaryPath, tol: float = 1e-9) -> int:
    """Index difference between two paths."""
    return cz_index_unitary(a, tol) - cz_index_unitary(b, tol)


def grading(k: int, morse_index: int, n: int) -> int:
    """Chain-complex degree of a generator: 2 k n plus the Morse index."""
    return 2 * k * n + morse_index
