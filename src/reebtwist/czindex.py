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

import numpy as np

_TWO_PI = 2.0 * np.pi


def _odd_winding(theta: float, tol: float = 1e-9) -> int:
    """The track invariant w: odd on regular values, even on multiples of 2 pi."""
    nearest = round(theta / _TWO_PI)
    if abs(theta - nearest * _TWO_PI) <= tol:
        return 2 * int(nearest)
    return 2 * int(np.floor(theta / _TWO_PI)) + 1


def cz_index_unitary(rates, tol: float = 1e-9) -> int:
    """Index of the rotation path with the given rates: sum_j w(rate_j).

    Nondegenerate ends contribute 2 floor(rate/2 pi) + 1; ends on the
    identity contribute the even boundary value, and zero rates nothing.
    """
    return sum(_odd_winding(float(rate), tol) for rate in np.atleast_1d(rates))


def relative_index(a, b, tol: float = 1e-9) -> int:
    """Index difference between two rotation paths, given by their rates."""
    return cz_index_unitary(a, tol) - cz_index_unitary(b, tol)

