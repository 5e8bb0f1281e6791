"""
Exact dense linear algebra over the two-element field.

Matrices are stored bit-packed, one Python int per row, so every
computation is exact and hashable value semantics come for free.  It is
the arithmetic of the general path in ``complexes``: no command multiplies
or ranks, and ``complex`` only lists a pearl complex's m x m circulants,
m at most 2048 by ``complexes.MAX_BOUNDARY_ENTRIES``, hence no sparse format
and no pivoting strategy beyond deterministic first-nonzero.  A product
costs one XOR of a right-hand row per set bit of each distinct left row:
equal left rows share one result, so the all-ones stencil costs one row sum
and a permutation or circle stencil one or two XORs per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class F2Matrix:
    """Dense matrix over GF(2), row-major bit-packed.

    Bit ``j`` of ``row_bits[i]`` is the entry in row ``i``, column ``j``.
    Zero-row or zero-column matrices are valid (rank 0).
    """

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.row_bits) != self.rows:
            raise ValueError("row count does not match packed data")
        if self.row_bits and (min(self.row_bits) < 0 or max(self.row_bits) >> self.cols):
            raise ValueError("row data has bits outside the column range")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def ones(cls, rows: int, cols: int) -> "F2Matrix":
        full = (1 << cols) - 1
        return cls(rows, cols, (full,) * rows)

    @classmethod
    def cyclic_shift(cls, n: int) -> "F2Matrix":
        """Permutation matrix sending basis vector e_j to e_{j+1 mod n}."""
        return cls(n, n, tuple(1 << ((i - 1) % n) for i in range(n)))

    @classmethod
    def from_rows(cls, data: Iterable[Iterable[int]], cols: int | None = None) -> "F2Matrix":
        packed = []
        width = cols
        for row in data:
            row = list(row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged rows")
            bits = 0
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise ValueError(f"entry {e!r} is not a GF(2) scalar")
                bits |= e << j
            packed.append(bits)
        if width is None:
            width = 0
        return cls(len(packed), width, tuple(packed))

    # -- element access ----------------------------------------------------

    def to_rows(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.row_bits]

    @property
    def is_zero(self) -> bool:
        return not any(self.row_bits)


def matmul(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Matrix product mod 2.  Raises ``ValueError`` on a dimension mismatch."""
    if a.cols != b.rows:
        raise ValueError(
            f"dimension mismatch: ({a.rows}x{a.cols}) @ ({b.rows}x{b.cols})")
    b_rows = b.row_bits
    products: dict[int, int] = {}
    out = []
    for r in a.row_bits:
        acc = products.get(r)
        if acc is None:
            acc = 0
            bits = r
            while bits:
                low = bits & -bits
                acc ^= b_rows[low.bit_length() - 1]
                bits ^= low
            products[r] = acc
        out.append(acc)
    return F2Matrix(a.rows, b.cols, tuple(out))


def rank(m: F2Matrix) -> int:
    """GF(2) rank by Gaussian elimination with first-nonzero pivoting."""
    rows = [r for r in m.row_bits if r]
    rk = 0
    for col in range(m.cols):
        bit = 1 << col
        pivot = None
        for i in range(rk, len(rows)):
            if rows[i] & bit:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i] & bit:
                rows[i] ^= rows[rk]
        rk += 1
        if rk == len(rows):
            break
    return rk
