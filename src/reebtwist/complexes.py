"""
Z-graded chain complexes over GF(2) on a finite degree window.

A complex stores per-degree generator labels, boundary matrices mapping
degree d to d-1, and optionally a cyclic-group action by generator
permutations.  Homology is only trusted on interior degrees: the two
degrees touching the truncation boundary see incomplete boundary data
and are flagged unreliable.

This is the general path, the plain per-degree reference: ``validate``,
``quotient_by_action`` and ``homology`` work on every degree alike.  No
command runs them, since ``pearls`` decides homology on group-ring
elements; the tests pin that route to this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .f2 import F2Matrix, matmul, rank

# A boundary matrix of r x c entries packs them into r ints of c bits; listed for
# JSON, each entry costs an int reference and about 11 characters of text.  The
# pearl commands stay under this cap: a pearl complex expands to two m x m
# stencils, so m <= 2048, and complex lists every degree's entries, which near
# the cap (m = 1094, n = 2, 8.38 million entries) takes 4.6 s and 275 MB on a
# 2-core x86-64 machine.  homology and sweep decide the complex on m-bit
# group-ring elements and expand nothing, but keep the same bound on m.
MAX_BOUNDARY_ENTRIES = 2 ** 23


class ComplexValidationError(Exception):
    """Raised when boundary or action data violates the chain axioms."""


@dataclass(frozen=True)
class CyclicAction:
    """Generator permutations for a cyclic group acting degreewise.

    ``perms[d][i]`` is the image index of generator ``i`` of degree ``d``
    under the distinguished group generator.  ``order`` is the declared
    group order; the permutation's order must divide it.
    """

    order: int
    perms: Mapping[int, tuple[int, ...]]

    def cycles(self, degree: int) -> list[tuple[int, ...]]:
        """The cycles of degree ``degree``'s permutation in O(dim).

        Cycles come in order of their lowest index, each starting there and
        listing its members as the generator visits them.  The permutation
        must be valid (a bijection of range(dim)).
        """
        perm = self.perms[degree]
        seen = [False] * len(perm)
        out = []
        for start in range(len(perm)):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            cur = perm[start]
            while cur != start:
                seen[cur] = True
                cycle.append(cur)
                cur = perm[cur]
            out.append(tuple(cycle))
        return out


@dataclass(frozen=True)
class GradedF2Complex:
    d_min: int
    d_max: int
    generators: Mapping[int, Sequence[str]]
    boundaries: Mapping[int, F2Matrix]   # key d: matrix of C_d -> C_{d-1}
    action: CyclicAction | None = None

    def __post_init__(self) -> None:
        if self.d_min > self.d_max:
            raise ValueError("empty degree window")
        for d in range(self.d_min, self.d_max + 1):
            if d not in self.generators:
                raise ValueError(f"missing generator list for degree {d}")
        for d in range(self.d_min + 1, self.d_max + 1):
            b = self.boundaries.get(d)
            if b is None:
                raise ValueError(f"missing boundary matrix for degree {d}")
            if b.cols != self.dim(d) or b.rows != self.dim(d - 1):
                raise ValueError(
                    f"boundary at degree {d} has shape {b.rows}x{b.cols}, "
                    f"expected {self.dim(d - 1)}x{self.dim(d)}")

    def dim(self, d: int) -> int:
        return len(self.generators[d])

    def degrees(self) -> range:
        return range(self.d_min, self.d_max + 1)

    # -- JSON output --------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The complex as JSON values.  Each distinct boundary object is listed once,
        and degrees that share it share its rows, which the caller must not modify.
        More than ``MAX_BOUNDARY_ENTRIES`` entries raise ValueError before any is listed."""
        bnds = {d: self.boundaries[d] for d in range(self.d_min + 1, self.d_max + 1)}
        entries = sum(b.rows * b.cols for b in bnds.values())
        if entries > MAX_BOUNDARY_ENTRIES:
            raise ValueError(f"the complex lists {entries} boundary entries, "
                             f"above the cap of {MAX_BOUNDARY_ENTRIES}")
        distinct = {id(b): b for b in bnds.values()}
        rows = {key: b.to_rows() for key, b in distinct.items()}
        out = {
            "degrees": [self.d_min, self.d_max],
            "generators": {str(d): list(self.generators[d]) for d in self.degrees()},
            "boundaries": {str(d): rows[id(b)] for d, b in bnds.items()},
            "action": None,
        }
        if self.action is not None:
            out["action"] = {
                "order": self.action.order,
                "permutations": {str(d): list(self.action.perms[d])
                                 for d in self.degrees()},
            }
        return out


@dataclass(frozen=True)
class HomologyTable:
    """Per-degree homology dimensions with truncation-reliability flags."""

    dims: Mapping[int, int]
    reliable: Mapping[int, bool]

    def __post_init__(self) -> None:
        for d, v in self.dims.items():
            if v < 0:
                raise ValueError(f"negative homology dimension at degree {d}")


def validate(c: GradedF2Complex) -> dict[int, list[tuple[int, ...]]]:
    """Check d.d = 0 on composable degrees, then action freeness/equivariance.

    Raises ``ComplexValidationError`` at the first broken axiom, naming the
    first offending degree and composite entry, or the lowest generator of
    the first bad cycle.  Returns the action's orbits per degree, or ``{}``
    without an action.  Every check runs at every degree, lowest first.
    """
    for d in range(c.d_min + 2, c.d_max + 1):
        comp = matmul(c.boundaries[d - 1], c.boundaries[d])
        if not comp.is_zero:
            i, j = _first_nonzero(comp)
            raise ComplexValidationError(
                f"d.d != 0 entering degree {d - 2}: composite entry ({i},{j}) = 1")
    if c.action is None:
        return {}
    return _validate_action(c)


def _first_nonzero(m: F2Matrix) -> tuple[int, int]:
    for i, row in enumerate(m.row_bits):
        if row:
            return i, (row & -row).bit_length() - 1
    raise ValueError("matrix is zero")


def _permutation_matrix(perm: tuple[int, ...]) -> F2Matrix:
    n = len(perm)
    rows = [0] * n
    for src, dst in enumerate(perm):
        rows[dst] |= 1 << src
    return F2Matrix(n, n, tuple(rows))


def _validate_action(c: GradedF2Complex) -> dict[int, list[tuple[int, ...]]]:
    act = c.action
    for d in c.degrees():
        perm = act.perms.get(d)
        if perm is None or len(perm) != c.dim(d) or sorted(perm) != list(range(c.dim(d))):
            raise ComplexValidationError(
                f"action permutation missing or invalid at degree {d}")
    # order check: the permutation's order must divide the declared order, and
    # the action must be free (every orbit of full size); a cycle's lowest index
    # is its orbit's first generator to fail
    cycles = {d: act.cycles(d) for d in c.degrees()}
    for d in c.degrees():
        for orbit in cycles[d]:
            i = orbit[0]
            if act.order % len(orbit) != 0:
                raise ComplexValidationError(
                    f"orbit of generator {i} in degree {d} has size {len(orbit)}, "
                    f"not dividing group order {act.order}")
            if len(orbit) != act.order:
                raise ComplexValidationError(
                    f"action not free: generator {i} in degree {d} is fixed by a "
                    f"nontrivial power (orbit size {len(orbit)})")
    perm_mats = {d: _permutation_matrix(act.perms[d]) for d in c.degrees()}
    for d in range(c.d_min + 1, c.d_max + 1):
        b = c.boundaries[d]
        if matmul(b, perm_mats[d]) != matmul(perm_mats[d - 1], b):
            raise ComplexValidationError(
                f"action does not commute with the boundary at degree {d}")
    return cycles


def homology(c: GradedF2Complex) -> HomologyTable:
    """ker/im dimensions per degree; boundary-adjacent degrees flagged.

    Requires a valid complex (raises ``ComplexValidationError`` otherwise).
    """
    validate(c)
    ranks = {d: rank(c.boundaries[d]) for d in range(c.d_min + 1, c.d_max + 1)}
    # dim(d) less the rank out of d counts the cycles, less the rank into d the homology
    dims = {d: c.dim(d) - ranks.get(d, 0) - ranks.get(d + 1, 0) for d in c.degrees()}
    return HomologyTable(dims=dims, reliable={d: c.d_min < d < c.d_max for d in c.degrees()})


def quotient_by_action(c: GradedF2Complex) -> GradedF2Complex:
    """Divide out a free cyclic action on generators.

    Generators of the quotient are orbits, each labelled by its lowest
    member, the representative; the boundary of an orbit class is the class
    of the boundary of its representative, coefficients mod 2.  So entry
    (o', o) is bit rep(o) of the XOR of the boundary rows of orbit o'.  The
    orbits come from ``validate``, which rejects non-free or non-equivariant
    actions.  The trivial group (order 1) gives each generator its own orbit:
    the same complex, relabelled, without the action.
    """
    if c.action is None:
        raise ComplexValidationError("no action attached to the complex")
    orbits = validate(c)
    new_gens = {d: tuple(f"[{c.generators[d][orbit[0]]}]" for orbit in orbits[d])
                for d in c.degrees()}
    new_bnds = {d: _quotient_matrix(c.boundaries[d], orbits[d - 1], orbits[d])
                for d in range(c.d_min + 1, c.d_max + 1)}
    return GradedF2Complex(c.d_min, c.d_max, new_gens, new_bnds, None)


def _quotient_matrix(b: F2Matrix, below: list[tuple[int, ...]],
                     above: list[tuple[int, ...]]) -> F2Matrix:
    """``b`` on orbit classes: entry (o', o) is bit rep(o) of the XOR of the rows of o'."""
    reps = [orbit[0] for orbit in above]
    rows = []
    for orbit in below:
        total = 0
        for i in orbit:
            total ^= b.row_bits[i]
        rows.append(sum(((total >> rep) & 1) << o for o, rep in enumerate(reps)))
    return F2Matrix(len(rows), len(reps), tuple(rows))
