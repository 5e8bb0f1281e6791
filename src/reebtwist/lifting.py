"""
Path lifting from lens-space quotients back to the sphere.

A loop in the quotient is stored through sphere representatives of its
points.  Because the rotation acts freely, a quotient point is faithfully
encoded by any representative, and the unique continuous lift is recovered
greedily: at every step pick the representative of the next point nearest
the current lifted point.  The rule is unambiguous as long as every step
is shorter than half the minimal separation between distinct rotations of
a path point; the margin by which this holds is reported, making the
topological uniqueness of lifts a checkable numerical condition.

The deck element of a closed quotient loop is the rotation power matching
the lift's endpoint to its start; a nonzero power certifies that the loop
is noncontractible in the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RotationTwist

LIFT_MATCH_TOL = 1e-6


class AmbiguousLiftError(Exception):
    """Sampling too coarse for the nearest-representative rule."""

    def __init__(self, step_index: int, step: float, bound: float):
        super().__init__(
            f"step {step_index} has length {step:.3e}, not below the "
            f"half-separation bound {bound:.3e}")
        self.step_index = step_index
        self.step = step
        self.bound = bound


@dataclass(frozen=True)
class DeckElement:
    """Rotation power acting as a covering automorphism; exponents add mod order."""

    exponent: int
    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be positive")
        object.__setattr__(self, "exponent", self.exponent % self.order)

    def __add__(self, other: "DeckElement") -> "DeckElement":
        if other.order != self.order:
            raise ValueError("mismatched deck group orders")
        return DeckElement(self.exponent + other.exponent, self.order)

    @property
    def is_identity(self) -> bool:
        return self.exponent == 0


@dataclass
class QuotientLoop:
    """Loop in the quotient, sampled through unit-sphere representatives."""

    samples: np.ndarray
    twist: RotationTwist

    def __post_init__(self) -> None:
        pts = np.asarray(self.samples, dtype=complex)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("need a 2d array with at least two samples")
        if pts.shape[1] != self.twist.n:
            raise ValueError("sample dimension does not match the twist")
        norms = np.linalg.norm(pts, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-6:
            raise ValueError("samples must lie on the unit sphere")
        self.samples = pts

    @property
    def closed(self) -> bool:
        """True when the final sample projects to the starting quotient point."""
        last, first = self.samples[-1], self.samples[0]
        dists = [np.linalg.norm(last - self.twist.apply(first, power=j))
                 for j in range(self.twist.m)]
        return bool(min(dists) <= LIFT_MATCH_TOL)

    def to_json_dict(self) -> dict:
        flat = self.samples.view(np.float64).reshape(self.samples.shape[0], -1)
        return {"twist": {"m": self.twist.m, "k": list(self.twist.k)},
                "samples": flat.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuotientLoop":
        twist = RotationTwist(m=int(data["twist"]["m"]),
                              k=tuple(data["twist"]["k"]))
        flat = np.asarray(data["samples"], dtype=float)
        return cls(samples=flat.view(np.complex128), twist=twist)


@dataclass(frozen=True)
class LiftResult:
    path: np.ndarray
    deck: DeckElement
    margin: float

    @property
    def contractible(self) -> bool:
        return self.deck.is_identity

    def certificate(self) -> dict:
        return {"deck": self.deck.exponent, "order": self.deck.order,
                "contractible": self.contractible,
                "noncontractible": not self.contractible,
                "margin": self.margin}


def orbit_separation(twist: RotationTwist, points: np.ndarray) -> float:
    """Minimal distance between a path point and its nontrivial rotations."""
    if twist.m == 1:
        return np.inf
    pts = np.asarray(points, dtype=complex)
    sep = np.inf
    for j in range(1, twist.m):
        moved = pts * twist.phases(j)[None, :]
        sep = min(sep, float(np.min(np.linalg.norm(moved - pts, axis=1))))
    return sep


def lift_loop(loop: QuotientLoop, basepoint_choice: int = 0,
              match_tol: float = LIFT_MATCH_TOL) -> LiftResult:
    """Unique continuous lift with prescribed start, plus its deck element.

    The lift starts at the ``basepoint_choice``-th rotation of the first
    representative.  Raises ``AmbiguousLiftError`` when a step violates the
    half-separation bound, reporting the offending step and the bound.
    """
    twist = loop.twist
    pts = loop.samples
    bound = orbit_separation(twist, pts) / 2.0
    powers = [twist.phases(j) for j in range(twist.m)]

    current = twist.apply(pts[0], power=basepoint_choice)
    lifted = [current]
    worst_step = 0.0
    for i in range(1, pts.shape[0]):
        candidates = [phase * pts[i] for phase in powers]
        dists = [float(np.linalg.norm(c - current)) for c in candidates]
        best = int(np.argmin(dists))
        if dists[best] >= bound:
            raise AmbiguousLiftError(i, dists[best], bound)
        worst_step = max(worst_step, dists[best])
        current = candidates[best]
        lifted.append(current)

    start, end = lifted[0], lifted[-1]
    exponent = None
    for j in range(twist.m):
        if float(np.linalg.norm(end - twist.apply(start, power=j))) <= match_tol:
            exponent = j
            break
    if exponent is None:
        raise AmbiguousLiftError(pts.shape[0] - 1,
                                 float(np.linalg.norm(end - start)), match_tol)
    return LiftResult(path=np.asarray(lifted), deck=DeckElement(exponent, twist.m),
                      margin=bound - worst_step)


def classify_orbit_loop(orbit, twist: RotationTwist, model, samples: int = 128,
                        basepoint_choice: int = 0) -> LiftResult:
    """Deck element of the projected orbit over one twisted period.

    Samples the orbit, projects to the quotient, lifts back from the orbit
    start, and returns the matching rotation power.  A nonzero power
    certifies that the projected loop is noncontractible in the quotient.
    """
    from .orbits import orbit_samples

    pts = orbit_samples(orbit, model, samples)
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    loop = QuotientLoop(samples=pts, twist=twist)
    return lift_loop(loop, basepoint_choice=basepoint_choice)
