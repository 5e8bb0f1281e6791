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

Boundaries alternate between two stencils: out of odd degrees each
maximum hits its two neighbouring minima on the circle, and out of even
degrees every generator hits every generator one degree down through an
odd number of connecting flow lines, counted as one mod 2.  The rotation
shifts the critical points of circle c by its exponent k_c, so each degree
is one free module over the group ring F2[t]/(t^m - 1), acted on by t^k_c,
and the stencils are ring elements: 1 + t out of odd degrees and the norm
N = 1 + t + ... + t^(m-1) out of even ones.  That is the periodic resolution
of Z/m (Brown, Cohomology of Groups, 1982), the equivariant cellular complex
of a lens space (Hatcher, Algebraic Topology, Ex. 2.43).

``pearl_layout`` places the rows once, as a record per degree: its label
prefix, its circle's exponent and the stencil that leaves it, and
``homology`` and ``sweep`` decide the complex on that record alone.
``compare_with_oracle`` holds ring elements as int bit masks mod t^m - 1:
d.d is one ring product per distinct adjacent stencil pair, equivariance the
product (t^k_d + t^k_(d-1)) f = 0 per distinct (stencil, exponent below,
exponent above), freeness gcd(k_d, m) = 1 per distinct exponent, and the
quotient the augmentation, the coefficient sum mod 2, so every degree
collapses to one class and every rank is that of a 1 x 1 matrix: N descends
to m mod 2 and 1 + t to zero.  ``tate_homology``, the oracle, is the
resolution's homology in closed form.
``build_pearl_complex`` expands the same record into m x m circulants and
rotation permutations: the complex that ``complex`` prints, and the plain
per-degree reference that the tests check, divide and rank through
``complexes`` against the ring route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import ComplexValidationError, CyclicAction, GradedF2Complex, HomologyTable
from .f2 import F2Matrix
from .geometry import RadialProfile, RotationTwist
from .orbits import (MAX_LINE_BRANCHES, TAU_TOL, SpectrumRow, analytic_spectrum,
                     line_multiplier, line_turns, twisted_index)

# tate_homology fills two dicts of one entry per degree, about 0.25 us and
# 170 B apiece on a 2-core x86-64 machine, and tate writes about 80 bytes of
# JSON per degree.  A pearl complex spans two degrees per (line, branch) pair
# of its window, so this cap admits every complex that MAX_LINE_BRANCHES does;
# at 200 000 degrees tate_homology takes 50 ms, and tate 0.9 s and 110 MB.
MAX_DEGREES = 2 * MAX_LINE_BRANCHES


def _window_rows(model: RadialProfile, twist: RotationTwist,
                 window: tuple[int, int]) -> tuple[SpectrumRow, ...]:
    """Spectrum rows between the lowest branch-LO and the highest branch-HI multiplier.

    Only the multipliers in that interval become rows, and only they count
    toward the spectrum's cell cap.
    """
    a, n = model.a, model.n
    tau_lo = min(line_multiplier(twist, a[j], j, window[0]) for j in range(n))
    tau_hi = max(line_multiplier(twist, a[j], j, window[1]) for j in range(n))
    branches = (min(math.floor(line_turns(tau_lo, a[j], twist, j)) for j in range(n)),
                max(math.ceil(line_turns(tau_hi, a[j], twist, j)) for j in range(n)))
    return analytic_spectrum(model, twist, branches,
                             taus_within=(tau_lo - TAU_TOL, tau_hi + TAU_TOL)).rows


# -- the group ring F2[t]/(t^m - 1), an element a bit mask: bit i is t^i ----------

def ring_mul(f: int, g: int, m: int) -> int:
    """Product of two ring elements: one turn of the denser factor per term of
    the sparser one, so a product with 1 + t costs two shifts and two XORs."""
    if f.bit_count() < g.bit_count():
        f, g = g, f
    full = (1 << m) - 1
    out = 0
    while g:
        low = g & -g
        i = low.bit_length() - 1
        out ^= ((f << i) & full) | (f >> (m - i))
        g ^= low
    return out


def stencils(m: int) -> tuple[int, int]:
    """The boundary out of even degrees, the norm N, and out of odd ones, 1 + t."""
    return (1 << m) - 1, 1 ^ (1 << 1 % m)


def circulant(f: int, m: int) -> F2Matrix:
    """Multiplication by f on the basis 1, t, ..., t^(m-1): entry (i, j) is the
    coefficient of t^(i-j), so row i is the mirror image of f turned by i."""
    full = (1 << m) - 1
    mirror = 0
    for s in range(m):
        if f >> s & 1:
            mirror |= 1 << (-s % m)
    return F2Matrix(m, m, tuple(((mirror << i) & full) | (mirror >> (m - i))
                                for i in range(m)))


@dataclass(frozen=True)
class PearlLayout:
    """A pearl complex as one record per degree, from ``d_min`` up.

    Degree d holds the m generators ``{prefix}{p}`` of one circle level, on
    which the rotation acts as t^k, k its circle's exponent; for d above
    ``d_min``, ``stencils[d - d_min - 1]`` is the ring element of the
    boundary out of degree d.
    """

    m: int
    d_min: int
    prefixes: tuple[str, ...]
    exponents: tuple[int, ...]
    stencils: tuple[int, ...]

    @property
    def d_max(self) -> int:
        return self.d_min + len(self.exponents) - 1


def pearl_layout(model: RadialProfile, twist: RotationTwist,
                 window: tuple[int, int]) -> PearlLayout:
    """The degrees of the model's string-of-pearls complex on an inclusive
    branch window of at least two pearls."""
    n, m, a = model.n, twist.m, model.a
    if twist.n != n:
        raise ValueError("coefficient count does not match n")
    if window[1] - window[0] + 1 < 2:
        raise ValueError("window holds fewer than two pearls")

    prefixes: list[str] = []
    exponents: list[int] = []
    d_min = d_next = None
    for row in _window_rows(model, twist, window):
        d = twisted_index(row, a, twist) - len(row.support) + n
        if d_next is None:
            d_min = d
        elif d != d_next:
            raise ValueError(f"spectrum rows leave a gap or overlap at degree {d}")
        for c in row.support:
            branch = round(line_turns(row.tau, a[c - 1], twist, c - 1))
            prefixes += (f"k{branch}.c{c}.h0.s", f"k{branch}.c{c}.h1.s")
            exponents += (twist.k[c - 1],) * 2
        d_next = d + 2 * len(row.support)

    pair = stencils(m)
    return PearlLayout(m, d_min, tuple(prefixes), tuple(exponents),
                       tuple(pair[d % 2] for d in range(d_min + 1, d_next)))


def build_pearl_complex(model: RadialProfile, twist: RotationTwist,
                        window: tuple[int, int]) -> GradedF2Complex:
    """String-of-pearls complex of the model's quadric on an inclusive branch
    window of at least two pearls, with the twist's cyclic action.

    ``pearl_layout`` expanded: each degree's labels ``{prefix}{p}`` as one
    tuple, and degrees share one circulant per stencil and one permutation
    per exponent, built once, so ``to_json_dict`` lists each stencil's rows once.
    """
    layout = pearl_layout(model, twist, window)
    m, degrees = layout.m, range(layout.d_min, layout.d_max + 1)
    rotations = {k: tuple((p + k) % m for p in range(m)) for k in set(layout.exponents)}
    matrices = {f: circulant(f, m) for f in set(layout.stencils)}
    generators = {d: tuple(f"{prefix}{p}" for p in range(m))
                  for d, prefix in zip(degrees, layout.prefixes)}
    perms = {d: rotations[k] for d, k in zip(degrees, layout.exponents)}
    boundaries = {d: matrices[f] for d, f in zip(degrees[1:], layout.stencils)}
    return GradedF2Complex(layout.d_min, layout.d_max, generators, boundaries,
                           CyclicAction(order=m, perms=perms))


def tate_homology(m: int, degrees: tuple[int, int]) -> HomologyTable:
    """Cyclic-group homology oracle from the two-periodic resolution, in closed form.

    Tensored with the trivial two-element module, 1 + t goes to zero and the
    norm, out of even degrees, to m mod 2.  So even m keeps one class per
    degree, and odd m only a truncation end's: an even lowest or an odd
    highest degree, flagged unreliable like the other end.  A window of more
    than ``MAX_DEGREES`` degrees raises ValueError.
    """
    if m < 1:
        raise ValueError("group order must be positive")
    lo, hi = int(degrees[0]), int(degrees[1])
    if hi - lo + 1 > MAX_DEGREES:
        raise ValueError(f"degree window {lo}:{hi} holds {hi - lo + 1} degrees, "
                         f"above the cap of {MAX_DEGREES}")
    window = range(lo, hi + 1)
    if m % 2:
        dims = dict.fromkeys(window, 0)
        dims[lo] |= 1 - lo % 2
        dims[hi] |= hi % 2
    else:
        dims = dict.fromkeys(window, 1)
    return HomologyTable(dims=dims, reliable={d: lo < d < hi for d in window})


def _ring_checks_pass(layout: PearlLayout) -> bool:
    """d.d = 0, freeness and equivariance of the layout, each once per distinct
    operand tuple; products are computed, not assumed, as (1 + t)^2 = 0 at m = 2."""
    m, fs, ks = layout.m, layout.stencils, layout.exponents
    return (not any(ring_mul(f, g, m) for f, g in set(zip(fs, fs[1:])))
            and all(math.gcd(k, m) == 1 for k in set(ks))
            and not any(ring_mul((1 << below % m) ^ (1 << above % m), f, m)
                        for f, below, above in set(zip(fs, ks, ks[1:]))))


def compare_with_oracle(model: RadialProfile, twist: RotationTwist,
                        window: tuple[int, int]) -> dict:
    """Quotient-complex homology against the cyclic-group oracle per interior
    degree, as the JSON report that ``homology`` prints.

    Decided on ``pearl_layout``'s ring elements: the quotient boundary out of
    degree d is the 1 x 1 matrix of the augmentation of its stencil, so degree
    d keeps 1 - e(f_d) - e(f_(d+1)) classes.  A layout that fails a ring check
    raises ``ComplexValidationError``; none does, as every layout starts at an
    even degree, so each 1 + t joins the two levels of one circle.
    """
    layout = pearl_layout(model, twist, window)
    if not _ring_checks_pass(layout):
        raise ComplexValidationError(
            f"pearl layout at m = {layout.m} fails d.d = 0, freeness or equivariance")
    ranks = [f.bit_count() & 1 for f in layout.stencils]
    oracle = tate_homology(twist.m, (layout.d_min, layout.d_max)).dims
    dims = (1 - below - above for below, above in zip(ranks, ranks[1:]))
    entries = [{"d": d, "dim_quotient": q, "dim_tate": oracle[d], "match": q == oracle[d]}
               for d, q in enumerate(dims, layout.d_min + 1)]
    return {"m": twist.m, "n": model.n, "window": list(window), "degrees": entries,
            "all_match": all(e["match"] for e in entries)}
