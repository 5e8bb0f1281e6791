"""
Conley-Zehnder indices of rotation paths, in closed form.

A rotation path t -> diag(e^{-i rate_j t}), t in [0, 1], is given by its
rates.  The clockwise convention (eigenvalues e^{-i theta}) makes the
linearized flow along a positively traversed circle orbit pick up positive
winding and the usual positive index.

Eigenline j contributes the odd winding number of its end angle rate_j,

    w(theta) = 2 floor(theta / 2 pi) + 1        theta not a multiple of 2 pi
    w(theta) = theta / pi                       theta a multiple of 2 pi

relative to its start w(0) = 0.  The second branch is the half-signature
boundary term of a degenerate endpoint; eigenline crossings have even
signature, so the total is always an integer.  The index depends on the
endpoints only, so no path is sampled.
"""

from __future__ import annotations

import math

_TWO_PI = 2.0 * math.pi
WINDING_TOL = 1e-9   # end angles this close to a multiple of 2 pi close up


def winding(turns: float, closed: bool) -> int:
    """w(2 pi turns): 2 round(turns) for an end on the identity, else 2 floor(turns) + 1."""
    return 2 * round(turns) if closed else 2 * math.floor(turns) + 1


def _odd_winding(theta: float) -> int:
    """The track invariant w: odd on regular values, even on multiples of 2 pi."""
    turns = theta / _TWO_PI
    return winding(turns, abs(theta - round(turns) * _TWO_PI) <= WINDING_TOL)


def cz_index_unitary(rates) -> int:
    """Index of the rotation path with the given rates: sum_j w(rate_j).

    Nondegenerate ends contribute 2 floor(rate/2 pi) + 1; ends on the
    identity contribute the even boundary value, and zero rates nothing.
    """
    return sum(_odd_winding(rate) for rate in as_floats(rates))


def as_floats(values) -> list[float]:
    """A scalar or a one-dimensional sequence (list, tuple, array) as a list of floats."""
    try:
        items = iter(values)
    except TypeError:  # a scalar, or a zero-dimensional array
        items = iter((values,))
    return [float(v) for v in items]


def relative_index(a, b) -> int:
    """Index difference between two rotation paths, given by their rates."""
    return cz_index_unitary(a) - cz_index_unitary(b)
