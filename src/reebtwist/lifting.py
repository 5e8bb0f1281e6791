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

Rotations commute and are unitary, so the rotation of the next point
nearest the lifted point R^c p is R^c times the rotation nearest p itself:
every step is decided on its own, a row block of steps at a time, which
is then measured against the bound, and the lift's powers are the running
sum of the decisions mod m.

The deck element of a closed quotient loop is the rotation power matching
the lift's endpoint to its start; a nonzero power certifies that the loop
is noncontractible in the quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import RotationTwist, _number, row_blocks
from .lazy import lazy_module
from .orbits import SolverSettings, orbit_samples

np = lazy_module("numpy")

# lift_loop scores every (point, rotation) pair and measures only the chosen
# steps, one row block at a time: on a 2-core x86-64 machine 2^19 pairs take
# 25-45 ms as 2^18 points at m = 2 and 3.5-7.1 ms as certify's default 257
# points at m = 2040, the largest m this cap admits for them;
# orbit_separation holds up to 8 B per pair
MAX_LIFT_PAIRS = 2 ** 19


class AmbiguousLiftError(Exception):
    """Sampling too coarse for the nearest-representative rule, or a lift
    whose endpoint lies on no rotation of its start."""


@dataclass(frozen=True)
class DeckElement:
    """Rotation power acting as a covering automorphism; exponents add mod order."""

    exponent: int
    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be positive")
        object.__setattr__(self, "exponent", self.exponent % self.order)

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
        # a NaN norm fails the comparison, and a huge sample's norm overflows
        # to inf, quietly, so both are off the sphere
        with np.errstate(over="ignore", invalid="ignore"):
            norms = row_norms(pts)
        if not np.all(np.abs(norms - 1.0) <= 1e-6):
            raise ValueError("samples must lie on the unit sphere")
        self.samples = pts

    def to_json_dict(self) -> dict:
        flat = self.samples.view(np.float64).reshape(self.samples.shape[0], -1)
        return {"twist": {"m": self.twist.m, "k": list(self.twist.k)},
                "samples": flat.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuotientLoop":
        twist = RotationTwist(m=data["twist"]["m"], k=tuple(data["twist"]["k"]))
        samples = data["samples"]
        if not (isinstance(samples, list) and all(isinstance(row, list) for row in samples)):
            raise ValueError("loop samples must be a list of lists of reals")
        rows = [[_number(x, "loop sample") for x in row] for row in samples]
        for i, row in enumerate(rows):
            if len(row) != 2 * twist.n:
                raise ValueError(f"loop sample {i} has {len(row)} reals, "
                                 f"needs {2 * twist.n} interleaved reals")
        flat = np.array(rows, dtype=float).reshape(len(rows), 2 * twist.n)
        return cls(samples=flat.view(np.complex128), twist=twist)


@dataclass(frozen=True)
class LiftResult:
    """The lift's rotation power at each loop point, its deck element and margin.

    The lifted path is ``twist.phase_table()[powers] * samples``; no command
    reads it, so it is not kept.
    """

    powers: tuple[int, ...]
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


def row_norms(points: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(points, axis=1)`` bit for bit, in row blocks (``row_blocks``)."""
    return np.concatenate([np.linalg.norm(points[rows], axis=1)
                           for rows in row_blocks(*points.shape)])


def orbit_separation(twist: RotationTwist, points: np.ndarray) -> float:
    """Minimal distance between a path point and its nontrivial rotations.

    The rotation by power j moves p a distance whose square is
    sum_q |p_q|^2 |w^(j k_q) - 1|^2 = sum_q |p_q|^2 4 sin^2(pi j k_q / m),
    w = exp(2 pi i / m), so the squared distances of all points to all
    m - 1 rotations are one real (points x n) by (n x (m - 1)) product,
    formed in row blocks (``row_blocks``).  The trivial group has no
    nontrivial rotation, so its separation is infinite.
    """
    m = twist.m
    if m == 1:
        return np.inf
    turns = np.outer([k % m for k in twist.k], np.arange(1, m)) % m
    weights = 4.0 * np.sin(np.pi * turns / m) ** 2
    points = np.asarray(points, dtype=complex)
    least = np.inf
    for rows in row_blocks(*points.shape):
        moduli = np.abs(points[rows])
        moduli *= moduli
        # einsum's own loop, not BLAS: with the other core busy, BLAS threads
        # took 12-28 ms over this product at m = 2040 or n = 20000, einsum 0.5-3 ms
        least = np.minimum(least, np.min(np.einsum("pq,qj->pj", moduli, weights)))
    return float(np.sqrt(least))


def step_lengths(rotations: np.ndarray, pts: np.ndarray, powers: np.ndarray,
                 rows: slice, current: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lengths of the lift's steps into ``rows``, the first from ``current``, and
    the last lifted row.

    The lifted rows are ``rotations[powers] * pts``, formed together with the
    row before the block, which ``current`` then replaces, and a zero
    difference pads the squares: so every complex product runs on at least
    two pairs, as in the m x n arrays of a per-step search (see
    ``row_blocks``).  Each length is the square root of the sum of squares
    ``np.linalg.norm`` takes, the float a norm of the same difference
    gives.  The rows are freed before the squares are formed, so at most
    two arrays of the block's size live at once.
    """
    run = slice(rows.start - 1, rows.stop)
    lifted = rotations[powers[run]]
    lifted *= pts[run]
    lifted[0] = current
    last = lifted[-1].copy()
    diff = np.zeros_like(lifted)
    np.subtract(lifted[1:], lifted[:-1], out=diff[1:])
    del lifted
    square = diff.conj()
    square *= diff
    return np.sqrt(np.add.reduce(square.real[1:], axis=1)), last


def lift_loop(loop: QuotientLoop, basepoint_choice: int = 0,
              match_tol: float = SolverSettings.lift_match) -> LiftResult:
    """Unique continuous lift with prescribed start, plus its deck element.

    The lift starts at the ``basepoint_choice``-th rotation of the first
    representative and greedily keeps, at every step, the rotation of the
    next representative nearest the current lifted point: the current
    rotation times the R_j that brings p_i nearest p_(i-1), the argmax over
    j of Re <p_(i-1), R_j p_i>.  One loop runs over row blocks (``row_blocks``)
    of width max(m, n).  Each block takes its choices from one real
    (steps x 2n) by (2n x m) product of the interleaved pairs
    conj(p_(i-1)) p_i with the conjugated rotation table, continues the
    running sum of powers mod m and measures its steps (``step_lengths``);
    the first step at or over the half-separation bound raises
    ``AmbiguousLiftError`` with its own length.  A wrong choice lies at
    least twice the bound less the right step from p_(i-1), so only a tie
    within rounding is decided wrongly, and that step reaches the bound: a
    per-step search against all m rotations would certify it with a margin
    below about 1e-12.  Certify's normalised samples at m <= 2040 never
    come that close; a ``lift --input`` file that does, its samples off
    the sphere within ``QuotientLoop``'s 1e-6 tolerance, exits 5.  The deck
    element is the rotation of the start nearest the last lifted point;
    ``AmbiguousLiftError`` again when it is farther than ``match_tol``.
    More than ``MAX_LIFT_PAIRS`` (point, rotation) pairs raise ValueError
    before any rotation is formed.
    """
    twist = loop.twist
    m = twist.m
    pts = loop.samples
    count = len(pts)
    if m * count > MAX_LIFT_PAIRS:
        raise ValueError(f"a lift compares each of {count} loop points with {m} "
                         f"rotations: {m * count} pairs, above the cap of "
                         f"{MAX_LIFT_PAIRS}")
    bound = orbit_separation(twist, pts) / 2.0
    rotations = twist.phase_table()
    weights = rotations.conj().view(np.float64)

    powers = np.empty(count, dtype=np.int64)
    powers[0] = basepoint_choice % m
    start = current = rotations[powers[0]] * pts[0]
    worst_step = 0.0
    for rows in row_blocks(count - 1, max(m, twist.n)):
        block = slice(rows.start + 1, rows.stop + 1)
        pairs = pts[rows].conj()
        pairs *= pts[block]
        # einsum's own loop, not BLAS, as in orbit_separation
        np.cumsum(np.einsum("pq,jq->pj", pairs.view(np.float64), weights).argmax(axis=1),
                  out=powers[block])
        del pairs
        powers[block] += powers[rows.start]
        powers[block] %= m
        lengths, current = step_lengths(rotations, pts, powers, block, current)
        over = np.flatnonzero(lengths >= bound)
        if over.size:
            raise AmbiguousLiftError(f"step {block.start + int(over[0])} has length "
                                     f"{lengths[over[0]]:.3e}, not below the "
                                     f"half-separation bound {bound:.3e}")
        worst_step = max(worst_step, float(lengths.max()))

    diff = rotations * start - current
    sq = np.add.reduce((diff.conj() * diff).real, axis=1)
    exponent = int(sq.argmin())
    gap = math.sqrt(sq[exponent])
    if gap > match_tol:
        raise AmbiguousLiftError(f"lift ends {gap:.3e} from the nearest rotation "
                                 f"of its start, beyond lift_match {match_tol:.3e}")
    return LiftResult(powers=tuple(powers.tolist()), deck=DeckElement(exponent, m),
                      margin=bound - worst_step)


def classify_orbit_loop(orbit, twist: RotationTwist, model, samples: int,
                        settings: SolverSettings = SolverSettings()) -> LiftResult:
    """Deck element of the projected orbit over one twisted period.

    Samples the orbit (surface check ``settings.surface``), projects to the
    quotient, lifts back from the orbit start, and returns the rotation
    power matching within ``settings.lift_match``.  A nonzero power
    certifies that the projected loop is noncontractible in the quotient.
    """
    pts = orbit_samples(orbit, model, samples, settings)
    pts /= row_norms(pts)[:, None]
    loop = QuotientLoop(samples=pts, twist=twist)
    return lift_loop(loop, match_tol=settings.lift_match)
