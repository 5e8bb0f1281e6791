"""
The equivariant Morse-Bott chain complex of a twisted quadric.

Generators come from the rows of the closed-form twisted spectrum.  A row
with support s is a critical sphere of dimension 2s - 1, with Morse data
critical on its s coordinate circles, each carrying m minima and m maxima
of the m-periodic cosine.  Circle c, the i-th of the support, has Morse
indices 2i and 2i + 1; the row sits in degrees mu_tw - s + n + morse, mu_tw
its twisted index, and consecutive rows meet without gap or overlap.  The
window keeps every row whose multiplier lies between the lowest branch-LO
and the highest branch-HI multiplier over the coordinates.

Boundary matrices alternate between two m x m stencils: out of odd degrees
each maximum hits its two neighbouring minima on the circle (identity plus
one-step cyclic shift), and out of even degrees every generator hits every
generator one degree down through an odd number of connecting flow lines,
counted as one mod 2 (the all-ones matrix).  Both stencils have two ones
per column, so the composite boundary vanishes.  The rotation shifts the
critical points of circle c by its exponent k_c, which commutes with both
stencils: the equivariant cellular complex of a lens space (Hatcher,
Algebraic Topology, Ex. 2.43).  Dividing by it collapses each degree to one
class, the all-ones stencil descending to m mod 2 and the circle stencil to
zero.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .complexes import CyclicAction, GradedF2Complex, HomologyTable, homology, quotient_by_action
from .f2 import F2Matrix
from .geometry import RadialProfile, RotationTwist
from .orbits import (MAX_LINE_BRANCHES, TAU_TOL, SpectrumRow, analytic_spectrum,
                     line_multiplier, line_turns, twisted_index)

# tate_homology builds and reduces one generator and one boundary per degree,
# about 15 us and 1.5 KB apiece on a 2-core x86-64 machine.  A pearl complex
# spans two degrees per (line, branch) pair of its window, so this cap admits
# every complex that MAX_LINE_BRANCHES does; 200 000 degrees take 3 s and 230 MB.
MAX_DEGREES = 2 * MAX_LINE_BRANCHES


def _window_rows(model: RadialProfile, twist: RotationTwist,
                 window: tuple[int, int]) -> tuple[SpectrumRow, ...]:
    """Spectrum rows between the lowest branch-LO and the highest branch-HI multiplier."""
    a, n = model.a, model.n
    tau_lo = min(line_multiplier(twist, a[j], j, window[0]) for j in range(n))
    tau_hi = max(line_multiplier(twist, a[j], j, window[1]) for j in range(n))
    branches = (min(math.floor(line_turns(tau_lo, a[j], twist, j)) for j in range(n)),
                max(math.ceil(line_turns(tau_hi, a[j], twist, j)) for j in range(n)))
    rows = analytic_spectrum(model, twist, branches).rows
    return tuple(r for r in rows if tau_lo - TAU_TOL <= r.tau <= tau_hi + TAU_TOL)


def circle_boundary(m: int) -> F2Matrix:
    """Each circle maximum flows down to its two neighbouring minima."""
    eye = F2Matrix.identity(m)
    shift = F2Matrix.cyclic_shift(m)
    return F2Matrix(m, m, tuple(a ^ b for a, b in zip(eye.row_bits, shift.row_bits)))


def connecting_boundary(m: int) -> F2Matrix:
    """One connecting flow line mod 2 between every generator pair."""
    return F2Matrix.ones(m, m)


class _CircleLabels(Sequence):
    """Labels ``k{branch}.c{circle}.h{level}.s{p}`` of one degree, formatted when read."""

    def __init__(self, prefix: str, m: int):
        self._prefix, self._m = prefix, m

    def __len__(self) -> int:
        return self._m

    def __getitem__(self, i):
        p = range(self._m)[i]
        return f"{self._prefix}{p}" if isinstance(p, int) else tuple(self[q] for q in p)

    def __eq__(self, other):  # by value, also against the tuple of its labels
        return tuple(self) == tuple(other) if isinstance(other, (tuple, _CircleLabels)) else NotImplemented


def build_pearl_complex(model: RadialProfile, twist: RotationTwist,
                        window: tuple[int, int]) -> GradedF2Complex:
    """String-of-pearls complex of the model's quadric on an inclusive branch
    window of at least two pearls, with the twist's cyclic action.

    Labels are formatted when read.  Degrees share two stencil objects, and
    circles of equal exponent one permutation, built once, for ``validate`` to reuse.
    """
    n, m, a = model.n, twist.m, model.a
    if twist.n != n:
        raise ValueError("coefficient count does not match n")
    if window[1] - window[0] + 1 < 2:
        raise ValueError("window holds fewer than two pearls")

    generators: dict[int, _CircleLabels] = {}
    perms: dict[int, tuple[int, ...]] = {}
    rotations = {k: tuple((p + k) % m for p in range(m)) for k in set(twist.k)}
    d_max = None
    for row in _window_rows(model, twist, window):
        d = twisted_index(row, a, twist) - len(row.support) + n
        if d_max is not None and d != d_max + 1:
            raise ValueError(f"spectrum rows leave a gap or overlap at degree {d}")
        for c in row.support:
            branch = round(line_turns(row.tau, a[c - 1], twist, c - 1))
            for level in (0, 1):
                generators[d] = _CircleLabels(f"k{branch}.c{c}.h{level}.s", m)
                perms[d] = rotations[twist.k[c - 1]]
                d += 1
        d_max = d - 1

    d_min = min(generators)
    stencils = (connecting_boundary(m), circle_boundary(m))
    boundaries = {d: stencils[d % 2] for d in range(d_min + 1, d_max + 1)}
    action = CyclicAction(order=m, perms=perms)
    return GradedF2Complex(d_min, d_max, generators, boundaries, action)


def tate_homology(m: int, degrees: tuple[int, int]) -> HomologyTable:
    """Cyclic-group homology oracle from the two-periodic resolution.

    Tensoring the resolution with the trivial two-element module sends the
    difference map to zero and the norm map to m mod 2, leaving dimension
    one per degree for even m and zero for odd m.  A window of more than
    ``MAX_DEGREES`` degrees raises ValueError before any is built.
    """
    if m < 1:
        raise ValueError("group order must be positive")
    lo, hi = int(degrees[0]), int(degrees[1])
    if hi - lo + 1 > MAX_DEGREES:
        raise ValueError(f"degree window {lo}:{hi} holds {hi - lo + 1} degrees, "
                         f"above the cap of {MAX_DEGREES}")
    gens = {d: ("t",) for d in range(lo, hi + 1)}
    norm = F2Matrix.from_rows([[m % 2]])
    zero = F2Matrix.zeros(1, 1)
    bnds = {d: (zero if d % 2 else norm) for d in range(lo + 1, hi + 1)}
    return homology(GradedF2Complex(lo, hi, gens, bnds))


@dataclass(frozen=True)
class DegreeComparison:
    degree: int
    dim_quotient: int
    dim_tate: int

    @property
    def match(self) -> bool:
        return self.dim_quotient == self.dim_tate


@dataclass(frozen=True)
class OracleComparison:
    m: int
    n: int
    window: tuple[int, int]
    degrees: tuple[DegreeComparison, ...]

    @property
    def all_match(self) -> bool:
        return all(e.match for e in self.degrees)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "window": list(self.window),
            "degrees": [{"d": e.degree, "dim_quotient": e.dim_quotient,
                         "dim_tate": e.dim_tate, "match": e.match}
                        for e in self.degrees],
            "all_match": self.all_match,
        }


def compare_with_oracle(model: RadialProfile, twist: RotationTwist,
                        window: tuple[int, int]) -> OracleComparison:
    """Quotient-complex homology against the cyclic-group oracle, degreewise."""
    complex_ = build_pearl_complex(model, twist, window)
    quotient = quotient_by_action(complex_)
    table = homology(quotient)
    oracle = tate_homology(twist.m, (complex_.d_min, complex_.d_max))
    entries = tuple(
        DegreeComparison(degree=d, dim_quotient=table.dims[d],
                         dim_tate=oracle.dims[d])
        for d in quotient.interior_degrees())
    return OracleComparison(m=twist.m, n=model.n, window=window, degrees=entries)
