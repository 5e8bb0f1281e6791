"""
Geometry of complex n-space with its standard Liouville form.

Complex coordinates z^j = x^j + i y^j carry the primitive
lambda = (1/2) sum_j (y^j dx^j - x^j dy^j), and a rotation twist acts
coordinatewise by roots of unity.  Every star-shaped model is one record,
``RadialProfile``, of the coefficients a, a tuple of floats, of the diagonal
quadric G = sum_j a_j |z^j|^2 whose level set G = 1 it is: a = 1 for the
round sphere (``RoundSphere``), 1/rho^2 for a constant profile rho, the
coefficients of an ellipsoid.  ``load_model`` computes a from a model file,
and neither builds an array, so the spectrum and pearl commands run without
numpy.
G, its real gradient, the radial point u / sqrt(G(u)) on the hypersurface
and the Reeb field X_G = -2i a z (lambda(X_G) = G by Euler's identity) are
closed-form expressions in a.  X_G is linear, so every model's Reeb flow
is z_j -> e^{-2i a_j t} z_j and its twisted return map diagonal, both in
closed form, and G is invariant under every rotation twist.  Nothing here
integrates numerically: the tests check the closed forms against an RK45
oracle of their own.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .lazy import lazy_module

np = lazy_module("numpy")

DEFAULT_SURFACE_TOL = 1e-9

# points (one coordinate of one sample) per row block of every points x n
# temporary: the flow's samples, a loop's norms and separation, the action's
# chord terms.  Each block's temporaries stay near 60 B per point, 16 MB
BLOCK_POINTS = 2 ** 18


def row_blocks(count: int, n: int) -> list[slice]:
    """Slices of about ``BLOCK_POINTS`` points covering ``count`` rows of n coordinates.

    Every block holds at least two rows unless ``count`` is 1: numpy
    multiplies a lone complex pair by the scalar formula and longer runs by
    fused multiply-adds, so a one-coordinate row alone would round
    differently from the same row in a longer array.
    """
    rows = max(2, BLOCK_POINTS // n)
    stops = [*range(rows, count - 1, rows), count]
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


class OffSurfaceError(Exception):
    """Point is farther from the hypersurface than the allowed tolerance."""


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

def liouville_form_eval(z, v):
    """Value of the primitive one-form at z on the tangent vector v.

    In complex notation lambda_z(v) = -(1/2) Im sum_j conj(z^j) v^j, summed
    over the last axis: stacked points and vectors give one value each.
    Bilinear in v; raises on a shape mismatch.
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if z.ndim == 0 or v.shape != z.shape:
        raise ValueError(f"dimension mismatch: point {z.shape}, vector {v.shape}")
    return -0.5 * np.imag(np.sum(np.conj(z) * v, axis=-1))


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

# Every dimension n, of a flag, a twist's exponent list or a model file, is at
# most MAX_DIMENSION, checked before anything n-sized is built.  A spectrum
# window holds n line branches per branch, so orbits.MAX_LINE_BRANCHES (as
# large) already rejects every window at a larger n.
MAX_DIMENSION = 100_000


def float_sized(value: int, what: str) -> int:
    """``value`` if it converts to a float, as every multiplier, phase and branch needs."""
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{what} with {len(str(abs(value)))} digits does not convert "
                         "to a float") from None
    return value


def capped_dimension(n: int, what: str) -> int:
    """``n`` if it is at most ``MAX_DIMENSION``."""
    if n > MAX_DIMENSION:
        raise ValueError(f"{what} exceeds the cap of {MAX_DIMENSION}")
    return n


def _integer(value, name: str) -> int:
    """``value`` as an int if it is one (a bool is not): no truncation.

    It must also convert to a float, as multipliers and phases need.
    """
    try:
        if not isinstance(value, bool):
            return float_sized(operator.index(value), name)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
        object.__setattr__(self, "m", _integer(self.m, "modulus"))
        if self.m < 1:
            raise ValueError("modulus must be a positive integer")
        object.__setattr__(self, "k", tuple(_integer(x, "exponent") for x in self.k))
        if not self.k:
            raise ValueError("need at least one exponent")
        for kj in self.k:
            if math.gcd(kj, self.m) != 1:
                raise ValueError(f"exponent {kj} is not coprime to {self.m}")

    @property
    def n(self) -> int:
        return len(self.k)

    def phases(self, power: int = 1) -> np.ndarray:
        return np.exp(2j * np.pi * np.array(self.k) * (power % self.m) / self.m)

    def phase_table(self) -> np.ndarray:
        """Row j is ``phases(j)`` bit for bit, for j = 0..m-1: one exp over the
        same operations in the same order."""
        return np.exp(2j * np.pi * np.array(self.k) * np.arange(self.m)[:, None] / self.m)

    def apply(self, z, power: int = 1) -> np.ndarray:
        z = as_complex_vector(z)
        if z.size != self.n:
            raise ValueError("point dimension does not match the twist")
        return self.phases(power) * z

    def residue(self, j: int) -> int:
        """Exponent class of coordinate j (0-based) normalized into 1..m."""
        return (self.k[j] - 1) % self.m + 1


# -- star-shaped models ---------------------------------------------------------

class RadialProfile:
    """The hypersurface G = 1 of the diagonal quadric G = sum_j a_j |z^j|^2.

    The one model record: the coefficients ``a``, an immutable tuple of
    floats, and G, its real gradient, the radial surface point, the Reeb
    field -2i a z, its flow and the twisted return map as closed-form
    expressions in a.
    """

    def __init__(self, a) -> None:
        self.a = tuple(map(float, a))

    @property
    def n(self) -> int:
        return len(self.a)

    def defining_function(self, z) -> float:
        return float(np.sum(self.a * np.abs(z) ** 2))

    def point_on_surface(self, direction) -> np.ndarray:
        """The hypersurface point u / sqrt(G(u)) on the ray of u = direction / |direction|."""
        u, _ = normalize_to_sphere(direction)
        return u / math.sqrt(self.defining_function(u))

    def surface_error(self, z) -> float:
        """Radial distance | |z| - |z| / sqrt(G(z)) | from z to the hypersurface."""
        norm = float(np.linalg.norm(as_complex_vector(z)))
        return abs(norm - norm / math.sqrt(self.defining_function(z)))

    def gradient(self, z) -> np.ndarray:
        return 2.0 * np.repeat(self.a, 2) * to_real(z)

    def reeb_field(self, z) -> np.ndarray:
        """X_G = -2i a z, with i_X dlambda = -dG; Euler's identity gives lambda(X_G) = G."""
        return -2j * np.asarray(self.a) * z

    def flow_samples(self, z: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Reeb flow z_j -> e^{-2i a_j t} z_j at each time, exact for X_G = -2i a z.

        ``np.exp(-2j * np.multiply.outer(times, a)) * z`` bit for bit: the
        exponent and its exponential are formed in place in row blocks
        (``row_blocks``), then the whole array is multiplied by z in place,
        so no temporary outgrows one block.
        """
        out = np.empty((len(times), self.n), dtype=complex)
        for rows in row_blocks(len(times), self.n):
            block = out[rows]
            np.multiply(-2j, np.multiply.outer(times[rows], self.a), out=block)
            np.exp(block, out=block)
        out *= z
        return out

    def return_map(self, twist: RotationTwist, tau: float) -> np.ndarray:
        """Complex differential of the twisted return map: diag(e^{2i a tau}) times the twist."""
        return np.diag(np.exp(2j * tau * np.asarray(self.a)) * twist.phases())


class RoundSphere(RadialProfile):
    """The unit sphere G = |z|^2, with Reeb flow e^{-2it} z."""

    def __init__(self, n: int) -> None:
        super().__init__((1.0,) * n)

    # perfbench/spans.py wraps ``reeb_field`` in the body of each model class
    reeb_field = RadialProfile.reeb_field


# -- Reeb flow ------------------------------------------------------------------

def reeb_field(z) -> np.ndarray:
    """Reeb field -2i z of the round sphere; errors off the hypersurface."""
    z = as_complex_vector(z)
    sphere = RoundSphere(z.size)
    err = sphere.surface_error(z)
    if err > DEFAULT_SURFACE_TOL:
        raise OffSurfaceError(
            f"|z| - 1 = {err:.3e} exceeds tolerance {DEFAULT_SURFACE_TOL:.3e}")
    return sphere.reeb_field(z)


def reeb_flow_samples(z, times, model: RadialProfile,
                      surface_tol: float = DEFAULT_SURFACE_TOL) -> np.ndarray:
    """Reeb flow evaluated at a list of times of either sign, one row per time.

    The start point must lie within ``surface_tol`` of the hypersurface.
    Every model flows in closed form (``RadialProfile.flow_samples``), so
    no tolerance other than the surface check applies.
    """
    z = as_complex_vector(z)
    err = model.surface_error(z)
    if err > surface_tol:
        raise OffSurfaceError(f"surface error {err:.3e} exceeds {surface_tol:.3e}")
    return model.flow_samples(z, np.asarray(times, dtype=float))


# -- model description files ------------------------------------------------------

def _number(value, name: str) -> float:
    """``value`` as a float if it is a finite JSON number (a bool or a string is not)."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):  # an int beyond it would overflow
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


# A quadric coefficient a_j (1 / value^2 of a constant profile) must lie within
# QUADRIC_DECADES decades of 1.  Then every multiplier pi (m l - r) / (m a_j) and
# turn count tau a_i / pi of a branch |l| <= 1e100 is a finite float.
QUADRIC_DECADES = 100


def _quadric_coefficient(value, what: str, power: float = 1.0) -> float:
    """A positive JSON number whose quadric coefficient ``value ** power`` obeys QUADRIC_DECADES."""
    value = _number(value, what)
    if value <= 0.0:
        raise ValueError(f"{what} must be finite and positive, got {value!r}")
    if abs(power * math.log10(value)) > QUADRIC_DECADES:
        raise ValueError(f"{what} {value!r} puts a quadric coefficient outside "
                         f"1e-{QUADRIC_DECADES}..1e{QUADRIC_DECADES}, where multipliers "
                         "or turn counts overflow")
    return value


def load_model(spec: dict) -> tuple[RadialProfile, RotationTwist | None]:
    """Build (model, twist) from a JSON model description dict.

    The dimension n is at most ``MAX_DIMENSION``.  A profile must make G
    positive definite: a constant or a list of n finite positive ellipsoid
    coefficients, all JSON numbers, each quadric coefficient within
    ``QUADRIC_DECADES`` decades of 1.  A missing key raises KeyError, a
    misshapen container TypeError or AttributeError, others ValueError.
    """
    kind = spec.get("kind")
    n = capped_dimension(_integer(spec["n"], "dimension n"), "dimension n")
    twist = None
    if "twist" in spec and spec["twist"] is not None:
        twist = RotationTwist(m=spec["twist"]["m"], k=tuple(spec["twist"]["k"]))
        if twist.n != n:
            raise ValueError("twist exponent count does not match dimension n")
    if kind == "round_sphere":
        return RoundSphere(n), twist
    if kind == "radial_profile":
        pspec = spec.get("profile", {"type": "constant"})
        ptype = pspec.get("type")
        if ptype == "constant":  # the sphere of radius rho: a_j = rho^-2
            rho = _quadric_coefficient(pspec.get("value", 1.0), "profile value", power=-2.0)
            a = (rho ** -2.0,) * n
        elif ptype == "ellipsoid":
            coeffs = pspec["coefficients"]
            if not isinstance(coeffs, list):
                raise ValueError(f"ellipsoid coefficients must be a list, got {coeffs!r}")
            a = [_quadric_coefficient(c, "ellipsoid coefficient") for c in coeffs]
            if len(a) != n:
                raise ValueError(f"need {n} ellipsoid coefficients, got {len(a)}")
        else:
            raise ValueError(f"unknown profile type {ptype!r}")
        return RadialProfile(a), twist
    raise ValueError(f"unknown model kind {kind!r}")
