"""
Z-graded chain complexes over GF(2) on a finite degree window.

A complex stores per-degree generator labels, boundary matrices mapping
degree d to d-1, and optionally a cyclic-group action by generator
permutations.  Homology is only trusted on interior degrees: the two
degrees touching the truncation boundary see incomplete boundary data
and are flagged unreliable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from .f2 import F2Matrix, matmul, nullspace_dim, rank


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

    def orbit(self, degree: int, idx: int) -> tuple[int, ...]:
        seen = [idx]
        cur = self.perms[degree][idx]
        while cur != idx:
            seen.append(cur)
            cur = self.perms[degree][cur]
        return tuple(seen)


@dataclass(frozen=True)
class GradedF2Complex:
    d_min: int
    d_max: int
    generators: Mapping[int, tuple[str, ...]]
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

    def interior_degrees(self) -> range:
        return range(self.d_min + 1, self.d_max)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "degrees": [self.d_min, self.d_max],
            "generators": {str(d): list(self.generators[d]) for d in self.degrees()},
            "boundaries": {str(d): self.boundaries[d].to_rows()
                           for d in range(self.d_min + 1, self.d_max + 1)},
            "action": None,
        }
        if self.action is not None:
            out["action"] = {
                "order": self.action.order,
                "permutations": {str(d): list(self.action.perms[d])
                                 for d in self.degrees()},
            }
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "GradedF2Complex":
        d_min, d_max = data["degrees"]
        gens = {int(d): tuple(v) for d, v in data["generators"].items()}
        bnds = {}
        for d, rows in data["boundaries"].items():
            d = int(d)
            bnds[d] = F2Matrix.from_rows(rows, cols=len(gens[d]))
        action = None
        if data.get("action"):
            action = CyclicAction(
                order=data["action"]["order"],
                perms={int(d): tuple(v)
                       for d, v in data["action"]["permutations"].items()})
        return cls(d_min, d_max, gens, bnds, action)

    @classmethod
    def from_json(cls, text: str) -> "GradedF2Complex":
        return cls.from_json_dict(json.loads(text))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedF2Complex):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()


@dataclass(frozen=True)
class HomologyTable:
    """Per-degree homology dimensions with truncation-reliability flags."""

    dims: Mapping[int, int]
    reliable: Mapping[int, bool]

    def __post_init__(self) -> None:
        for d, v in self.dims.items():
            if v < 0:
                raise ValueError(f"negative homology dimension at degree {d}")

    def interior_dims(self) -> dict[int, int]:
        return {d: v for d, v in self.dims.items() if self.reliable[d]}

    def to_json_dict(self) -> dict:
        return {"degrees": [
            {"degree": d, "dim": self.dims[d], "reliable": self.reliable[d]}
            for d in sorted(self.dims)]}


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...] = field(default_factory=tuple)

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise ComplexValidationError("; ".join(self.failures))


def validate(c: GradedF2Complex) -> ValidationReport:
    """Check d.d = 0 on composable degrees plus action equivariance/freeness.

    The report carries the first offending degree and composite entry, so a
    failing fixture points straight at the bad matrix.
    """
    failures: list[str] = []
    for d in range(c.d_min + 2, c.d_max + 1):
        comp = matmul(c.boundaries[d - 1], c.boundaries[d])
        if not comp.is_zero:
            i, j = _first_nonzero(comp)
            failures.append(
                f"d.d != 0 entering degree {d - 2}: composite entry ({i},{j}) = 1")
            break
    if c.action is not None:
        failures.extend(_validate_action(c))
    return ValidationReport(ok=not failures, failures=tuple(failures))


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


def _validate_action(c: GradedF2Complex) -> list[str]:
    act = c.action
    failures = []
    for d in c.degrees():
        perm = act.perms.get(d)
        if perm is None or sorted(perm) != list(range(c.dim(d))):
            failures.append(f"action permutation missing or invalid at degree {d}")
            return failures
    # order check: the generator permutation must have order dividing the
    # declared order, and the action must be free for declared order > 1
    for d in c.degrees():
        for i in range(c.dim(d)):
            orbit = act.orbit(d, i)
            if act.order % len(orbit) != 0:
                failures.append(
                    f"orbit of generator {i} in degree {d} has size {len(orbit)}, "
                    f"not dividing group order {act.order}")
                return failures
            if act.order > 1 and len(orbit) != act.order:
                failures.append(
                    f"action not free: generator {i} in degree {d} is fixed by a "
                    f"nontrivial power (orbit size {len(orbit)})")
                return failures
    for d in range(c.d_min + 1, c.d_max + 1):
        p_src = _permutation_matrix(act.perms[d])
        p_dst = _permutation_matrix(act.perms[d - 1])
        if matmul(c.boundaries[d], p_src) != matmul(p_dst, c.boundaries[d]):
            failures.append(f"action does not commute with the boundary at degree {d}")
            return failures
    return failures


def homology(c: GradedF2Complex) -> HomologyTable:
    """ker/im dimensions per degree; boundary-adjacent degrees flagged.

    Requires a valid complex (raises ``ComplexValidationError`` otherwise).
    """
    validate(c).raise_if_invalid()
    dims: dict[int, int] = {}
    reliable: dict[int, bool] = {}
    for d in c.degrees():
        interior = c.d_min < d < c.d_max
        reliable[d] = interior
        cycles = nullspace_dim(c.boundaries[d]) if d > c.d_min else c.dim(d)
        bound = rank(c.boundaries[d + 1]) if d < c.d_max else 0
        dims[d] = cycles - bound
    return HomologyTable(dims=dims, reliable=reliable)


def quotient_by_action(c: GradedF2Complex) -> GradedF2Complex:
    """Divide out a free cyclic action on generators.

    Generators of the quotient are orbits; the boundary of an orbit class is
    the class of the boundary of any representative, coefficients mod 2.
    Rejects non-free or non-equivariant actions.  A declared order of 1
    (identity action) returns the complex unchanged, without the action.
    """
    if c.action is None:
        raise ComplexValidationError("no action attached to the complex")
    report = validate(c)
    report.raise_if_invalid()
    act = c.action
    if act.order == 1:
        return GradedF2Complex(c.d_min, c.d_max, c.generators, c.boundaries, None)

    orbit_index: dict[int, list[int]] = {}    # degree -> generator idx -> orbit id
    orbit_reps: dict[int, list[int]] = {}     # degree -> orbit id -> representative idx
    new_gens: dict[int, tuple[str, ...]] = {}
    for d in c.degrees():
        assignment = [-1] * c.dim(d)
        reps: list[int] = []
        labels: list[str] = []
        for i in range(c.dim(d)):
            if assignment[i] >= 0:
                continue
            oid = len(reps)
            for member in act.orbit(d, i):
                assignment[member] = oid
            reps.append(i)
            labels.append(f"[{c.generators[d][i]}]")
        orbit_index[d] = assignment
        orbit_reps[d] = reps
        new_gens[d] = tuple(labels)

    new_bnds: dict[int, F2Matrix] = {}
    for d in range(c.d_min + 1, c.d_max + 1):
        src_reps = orbit_reps[d]
        dst_assign = orbit_index[d - 1]
        n_dst = len(orbit_reps[d - 1])
        old = c.boundaries[d]
        rows = [0] * n_dst
        for col, rep in enumerate(src_reps):
            col_bits = old.column_bits(rep)
            counts = [0] * n_dst
            i = 0
            while col_bits:
                if col_bits & 1:
                    counts[dst_assign[i]] ^= 1
                col_bits >>= 1
                i += 1
            for row_id, bit in enumerate(counts):
                if bit:
                    rows[row_id] |= 1 << col
        new_bnds[d] = F2Matrix(n_dst, len(src_reps), tuple(rows))

    return GradedF2Complex(c.d_min, c.d_max, new_gens, new_bnds, None)
