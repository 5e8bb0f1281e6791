import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebtwist.complexes import (
    ComplexValidationError,
    CyclicAction,
    GradedF2Complex,
    HomologyTable,
    homology,
    quotient_by_action,
    validate,
)
from reebtwist.f2 import F2Matrix
from reebtwist.geometry import RotationTwist, RoundSphere
from reebtwist.pearls import build_pearl_complex

from oracles import brute_homology_dim, orbit_class_quotient, random_valid_complex


def rung(m: int) -> F2Matrix:
    eye = F2Matrix.identity(m)
    shift = F2Matrix.cyclic_shift(m)
    return F2Matrix(m, m, tuple(a ^ b for a, b in zip(eye.row_bits, shift.row_bits)))


def ladder(m: int, d_min: int, d_max: int, shift: int = 1,
           with_action: bool = True) -> GradedF2Complex:
    """Alternating ladder: all-ones map out of even degrees, I+shift out of odd."""
    gens = {d: tuple(f"g{d}.{p}" for p in range(m)) for d in range(d_min, d_max + 1)}
    bnds = {d: (rung(m) if d % 2 else F2Matrix.ones(m, m))
            for d in range(d_min + 1, d_max + 1)}
    action = None
    if with_action:
        perm = tuple((i + shift) % m for i in range(m))
        action = CyclicAction(order=m, perms={d: perm for d in gens})
    return GradedF2Complex(d_min, d_max, gens, bnds, action)


@pytest.mark.parametrize("d_min, d_max, generators, boundaries, message", [
    (1, 0, {}, {}, "empty degree window"),
    (0, 1, {0: ("a",)}, {}, "missing generator list for degree 1"),
    (0, 1, {0: ("a",), 1: ("b",)}, {}, "missing boundary matrix for degree 1"),
    (0, 1, {0: ("a",), 1: ("b", "c")}, {1: F2Matrix.zeros(1, 1)},
     "boundary at degree 1 has shape 1x1, expected 1x2"),
], ids=["empty", "generators", "boundary", "shape"])
def test_constructor_rejects_inconsistent_data(d_min, d_max, generators, boundaries, message):
    with pytest.raises(ValueError) as excinfo:
        GradedF2Complex(d_min, d_max, generators, boundaries)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_ladder_valid_for_every_order(m):
    # both products of the two rung matrices have even entries, so d.d = 0;
    # the shift by one is a single cycle from generator 0 in every degree
    assert validate(ladder(m, 0, 7)) == {d: [tuple(range(m))] for d in range(8)}


def test_zero_boundaries_valid():
    gens = {d: ("a", "b") for d in range(4)}
    bnds = {d: F2Matrix.zeros(2, 2) for d in range(1, 4)}
    assert validate(GradedF2Complex(0, 3, gens, bnds)) == {}


def test_identity_boundaries_invalid():
    gens = {d: ("a",) for d in range(3)}
    bnds = {d: F2Matrix.identity(1) for d in range(1, 3)}
    with pytest.raises(ComplexValidationError, match="degree 0"):
        validate(GradedF2Complex(0, 2, gens, bnds))
    with pytest.raises(ComplexValidationError):
        homology(GradedF2Complex(0, 2, gens, bnds))


def test_homology_alternating_one_zero():
    # one generator per degree, maps alternating 1 and 0: vanishing homology
    gens = {d: ("e",) for d in range(6)}
    bnds = {d: (F2Matrix.identity(1) if d % 2 else F2Matrix.zeros(1, 1))
            for d in range(1, 6)}
    table = homology(GradedF2Complex(0, 5, gens, bnds))
    assert {d: v for d, v in table.dims.items() if table.reliable[d]} == {1: 0, 2: 0, 3: 0, 4: 0}


def test_homology_all_zero_boundaries():
    gens = {d: ("e",) for d in range(6)}
    bnds = {d: F2Matrix.zeros(1, 1) for d in range(1, 6)}
    table = homology(GradedF2Complex(0, 5, gens, bnds))
    assert all(v == 1 for d, v in table.dims.items() if table.reliable[d])
    # truncation-boundary degrees are present but flagged
    assert table.reliable[0] is False and table.reliable[5] is False


def test_homology_matches_exhaustive_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(25):
        dims, bnds = random_valid_complex(rng, n_degrees=5, max_gens=4)
        gens = {d: tuple(f"x{d}.{i}" for i in range(dims[d])) for d in dims}
        mats = {d: F2Matrix.from_rows(bnds[d], cols=dims[d]) for d in bnds}
        c = GradedF2Complex(0, 4, gens, mats)
        table = homology(c)
        for d in range(c.d_min + 1, c.d_max):
            expected = brute_homology_dim(bnds[d], bnds[d + 1], dims[d])
            assert table.dims[d] == expected, (d, dims)


def test_quotient_even_order_kills_both_maps():
    q = quotient_by_action(ladder(2, 0, 5))
    assert all(q.dim(d) == 1 for d in q.degrees())
    assert all(q.boundaries[d].is_zero for d in range(1, 6))
    table = homology(q)
    assert all(v == 1 for d, v in table.dims.items() if table.reliable[d])


def test_quotient_odd_order_alternates():
    q = quotient_by_action(ladder(3, 0, 5))
    assert all(q.dim(d) == 1 for d in q.degrees())
    # the all-ones map descends to multiplication by 3 = 1, the rung to 2 = 0
    for d in range(1, 6):
        expected_zero = bool(d % 2)
        assert q.boundaries[d].is_zero == expected_zero, d
    table = homology(q)
    assert all(v == 0 for d, v in table.dims.items() if table.reliable[d])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_quotient_with_several_orbits_per_degree(m, seed):
    # a random complex tensored with the regular Z_m representation: generator
    # (i, g) of degree d sits at index place[d][i m + g], the group sends g to
    # g + 1, and the boundary keeps g.  The uniform placement both permutes the
    # orbits and rotates each one, so any member can be an orbit's lowest index.
    rng = np.random.default_rng(seed)
    dims, bnds = random_valid_complex(rng, n_degrees=4, max_gens=3)
    place = {d: [int(p) for p in rng.permutation(dims[d] * m)] for d in dims}
    perms, tensored = {}, {}
    for d in dims:
        perms[d] = [0] * (dims[d] * m)
        for i in range(dims[d]):
            for g in range(m):
                perms[d][place[d][i * m + g]] = place[d][i * m + (g + 1) % m]
    for d, mat in bnds.items():
        tensored[d] = [[0] * (dims[d] * m) for _ in range(dims[d - 1] * m)]
        for i, j in np.argwhere(np.array(mat, dtype=int)):
            for g in range(m):
                tensored[d][place[d - 1][i * m + g]][place[d][j * m + g]] = 1
    base = GradedF2Complex(0, 3, {d: ("x",) * dims[d] for d in dims},
                           {d: F2Matrix.from_rows(mat, cols=dims[d]) for d, mat in bnds.items()})
    big = GradedF2Complex(0, 3, {d: tuple(map(str, range(dims[d] * m))) for d in dims},
                          {d: F2Matrix.from_rows(mat, cols=dims[d] * m)
                           for d, mat in tensored.items()},
                          CyclicAction(order=m, perms={d: tuple(p) for d, p in perms.items()}))
    quotient = quotient_by_action(big)
    assert homology(quotient).dims == homology(base).dims
    expected = orbit_class_quotient(perms, tensored)
    assert {d: quotient.boundaries[d].to_rows() for d in expected} == expected


def test_quotient_trivial_group_is_identity():
    c = ladder(1, 0, 5)
    q = quotient_by_action(c)
    assert q.action is None
    assert [q.dim(d) for d in q.degrees()] == [c.dim(d) for d in c.degrees()]
    assert all(q.boundaries[d] == c.boundaries[d] for d in range(1, 6))


def test_quotient_requires_an_action():
    gens = {0: ("a",), 1: ("b",)}
    bnds = {1: F2Matrix.zeros(1, 1)}
    with pytest.raises(ComplexValidationError, match="no action"):
        quotient_by_action(GradedF2Complex(0, 1, gens, bnds))


def test_quotient_rejects_fixed_generators():
    gens = {0: ("a", "b"), 1: ("c", "d")}
    bnds = {1: F2Matrix.zeros(2, 2)}
    action = CyclicAction(order=2, perms={0: (0, 1), 1: (1, 0)})
    c = GradedF2Complex(0, 1, gens, bnds, action)
    with pytest.raises(ComplexValidationError, match="not free"):
        quotient_by_action(c)


def test_quotient_rejects_non_equivariant_action():
    gens = {0: ("a", "b", "c"), 1: ("d", "e", "f")}
    bnds = {1: F2Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])}
    cycle = (1, 2, 0)
    action = CyclicAction(order=3, perms={0: cycle, 1: cycle})
    c = GradedF2Complex(0, 1, gens, bnds, action)
    with pytest.raises(ComplexValidationError, match="commute"):
        quotient_by_action(c)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_truncation_stability(m):
    small = homology(ladder(m, 0, 7, with_action=False))
    large = homology(ladder(m, -2, 9, with_action=False))
    for d in range(1, 7):
        assert small.dims[d] == large.dims[d]
        assert small.reliable[d] and large.reliable[d]


@pytest.mark.parametrize("m", [2, 3, 5])
def test_euler_characteristic_of_quotient(m):
    c = ladder(m, 0, 5)
    q = quotient_by_action(c)
    chi = sum((-1) ** d * c.dim(d) for d in c.degrees())
    chi_q = sum((-1) ** d * q.dim(d) for d in q.degrees())
    assert chi == m * chi_q


def test_homology_table_rejects_negative_dims():
    with pytest.raises(ValueError):
        HomologyTable(dims={0: -1}, reliable={0: True})


def test_first_bad_cycle_names_its_lowest_generator():
    # the 4-cycle is free, the 2-cycle (4 5) is the first bad one
    gens = {0: tuple("abcdef")}
    action = CyclicAction(order=4, perms={0: (1, 2, 3, 0, 5, 4)})
    with pytest.raises(ComplexValidationError) as excinfo:
        validate(GradedF2Complex(0, 0, gens, {}, action))
    assert str(excinfo.value) == (
        "action not free: generator 4 in degree 0 is fixed by a nontrivial power "
        "(orbit size 2)")


@pytest.mark.parametrize("perms", [
    {0: (1, 0)},
    {0: (1, 0), 1: (1, 0, 2)},
    {0: (1, 0), 1: (1, 1)},
], ids=["missing", "wrong-length", "repeated-index"])
@pytest.mark.parametrize("check", [validate, quotient_by_action])
def test_invalid_permutation_names_its_degree(check, perms):
    gens = {0: ("a", "b"), 1: ("c", "d")}
    action = CyclicAction(order=2, perms=perms)
    c = GradedF2Complex(0, 1, gens, {1: F2Matrix.zeros(2, 2)}, action)
    with pytest.raises(ComplexValidationError) as excinfo:
        check(c)
    assert str(excinfo.value) == "action permutation missing or invalid at degree 1"


def pearl_complex(m: int) -> GradedF2Complex:
    """The pearl complex at n = 4, window 0:3."""
    return build_pearl_complex(RoundSphere(4), RotationTwist(m, (1,) * 4), (0, 3))


def with_perm(c: GradedF2Complex, d: int, perm: tuple[int, ...]) -> GradedF2Complex:
    action = CyclicAction(order=c.action.order, perms={**c.action.perms, d: perm})
    return dataclasses.replace(c, action=action)


@pytest.fixture(scope="module")
def pearl_256():
    return pearl_complex(256)


def test_large_pearl_complex_valid(pearl_256):
    validate(pearl_256)


def test_large_pearl_complex_rejects_a_flipped_entry(pearl_256):
    # out of odd degree 9 the circle stencil; the all-ones stencil below it
    # turns the flip at (3, 7) into composite column 7, first nonzero in row 0
    old = pearl_256.boundaries[9]
    flipped = F2Matrix(old.rows, old.cols,
                       tuple(r ^ (1 << 7) if i == 3 else r for i, r in enumerate(old.row_bits)))
    c = dataclasses.replace(pearl_256, boundaries={**pearl_256.boundaries, 9: flipped})
    with pytest.raises(ComplexValidationError) as excinfo:
        validate(c)
    assert str(excinfo.value) == "d.d != 0 entering degree 7: composite entry (0,7) = 1"
    with pytest.raises(ComplexValidationError, match="entering degree 7"):
        quotient_by_action(c)


def test_large_pearl_complex_rejects_a_non_free_permutation(pearl_256):
    c = with_perm(pearl_256, 5, tuple(i ^ 1 for i in range(256)))
    with pytest.raises(ComplexValidationError) as excinfo:
        validate(c)
    assert str(excinfo.value) == (
        "action not free: generator 0 in degree 5 is fixed by a nontrivial power "
        "(orbit size 2)")
    with pytest.raises(ComplexValidationError, match="not free"):
        quotient_by_action(c)


def test_large_pearl_complex_rejects_a_wrong_order_permutation(pearl_256):
    # generator 7 fixed, the other 255 in one cycle: 255 does not divide 256
    rest = [i for i in range(256) if i != 7]
    perm = list(range(256))
    for src, dst in zip(rest, rest[1:] + rest[:1]):
        perm[src] = dst
    c = with_perm(pearl_256, 12, tuple(perm))
    with pytest.raises(ComplexValidationError) as excinfo:
        validate(c)
    assert str(excinfo.value) == (
        "orbit of generator 0 in degree 12 has size 255, not dividing group order 256")
    with pytest.raises(ComplexValidationError, match="not dividing"):
        quotient_by_action(c)


def shared_equivariant_complex(rng: np.random.Generator, m: int) -> GradedF2Complex:
    """A random complex tensored with the regular Z_m representation, sharing objects.

    Degrees of equal dimension use one placement of the tensored generators,
    so their permutations are one tuple object, and equal boundary matrices
    are one F2Matrix object, which validation and the quotient must treat
    as they would distinct copies.
    """
    dims, bnds = random_valid_complex(rng, n_degrees=5, max_gens=2)
    place = {size: [int(p) for p in rng.permutation(size * m)] for size in set(dims.values())}
    perms = {}
    for size, at in place.items():
        perm = [0] * (size * m)
        for i in range(size):
            for g in range(m):
                perm[at[i * m + g]] = at[i * m + (g + 1) % m]
        perms[size] = tuple(perm)
    shared: dict[F2Matrix, F2Matrix] = {}
    tensored = {}
    for d, mat in bnds.items():
        rows = [[0] * (dims[d] * m) for _ in range(dims[d - 1] * m)]
        for i, j in np.argwhere(np.array(mat, dtype=int)):
            for g in range(m):
                rows[place[dims[d - 1]][i * m + g]][place[dims[d]][j * m + g]] = 1
        matrix = F2Matrix.from_rows(rows, cols=dims[d] * m)
        tensored[d] = shared.setdefault(matrix, matrix)
    return GradedF2Complex(0, 4, {d: ("x",) * (dims[d] * m) for d in dims}, tensored,
                           CyclicAction(order=m, perms={d: perms[dims[d]] for d in dims}))


def validation_outcome(c: GradedF2Complex):
    try:
        return validate(c)
    except ComplexValidationError as exc:
        return str(exc)


def quotient_outcome(c: GradedF2Complex):
    """The quotient's generators, matrices and homology and the complex's own
    homology, or the first validation message."""
    try:
        q = quotient_by_action(c)
        return q.generators, q.boundaries, homology(q), homology(c)
    except ComplexValidationError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(["none", "flip", "swap"]))
def test_validation_ignores_object_sharing(m, seed, mutation):
    # the complex, or a copy with one flipped boundary entry or one swapped
    # pair in one permutation, validates like a copy whose every matrix and
    # permutation is a distinct object: same orbits or same message; and its
    # quotient, built and ranked once per distinct operand, has the same
    # generators, matrices and homology
    rng = np.random.default_rng(seed)
    c = shared_equivariant_complex(rng, m)
    d = int(rng.integers(1, 5))
    if mutation == "flip":
        old = c.boundaries[d]
        i, j = int(rng.integers(old.rows)), int(rng.integers(old.cols))
        flipped = F2Matrix(old.rows, old.cols,
                           tuple(r ^ (1 << j) if k == i else r for k, r in enumerate(old.row_bits)))
        c = dataclasses.replace(c, boundaries={**c.boundaries, d: flipped})
    elif mutation == "swap" and c.dim(d) > 1:
        perm = list(c.action.perms[d])
        i, j = (int(x) for x in rng.choice(len(perm), size=2, replace=False))
        perm[i], perm[j] = perm[j], perm[i]
        c = with_perm(c, d, tuple(perm))
    distinct = GradedF2Complex(
        c.d_min, c.d_max, c.generators,
        {e: F2Matrix(b.rows, b.cols, tuple(b.row_bits)) for e, b in c.boundaries.items()},
        CyclicAction(order=m, perms={e: tuple(list(p)) for e, p in c.action.perms.items()}))
    assert len({id(b) for b in distinct.boundaries.values()}) == len(distinct.boundaries)
    assert validation_outcome(c) == validation_outcome(distinct)
    assert quotient_outcome(c) == quotient_outcome(distinct)


def test_quotient_keeps_apart_degrees_that_share_only_their_boundary():
    # one boundary object under three free Z_2 actions: degrees 1 and 2 share
    # the matrix but not their orbits, so their quotient matrices differ
    b = F2Matrix(6, 6, (23, 23, 60, 43, 60, 43))
    perms = {0: (1, 0, 5, 4, 3, 2), 1: (4, 2, 1, 5, 0, 3), 2: (5, 3, 4, 1, 2, 0)}
    c = GradedF2Complex(0, 2, {d: tuple("abcdef") for d in perms}, {1: b, 2: b},
                        CyclicAction(order=2, perms=perms))
    q = quotient_by_action(c)
    expected = orbit_class_quotient(perms, {d: b.to_rows() for d in (1, 2)})
    assert {d: q.boundaries[d].to_rows() for d in (1, 2)} == expected
    assert q.boundaries[1] != q.boundaries[2]
