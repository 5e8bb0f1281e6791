import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebtwist.f2 import F2Matrix, matmul, nullspace_dim, rank

from oracles import brute_kernel, brute_rank


def ladder_rung(m: int) -> F2Matrix:
    """Identity plus one-step cyclic shift (each column has two ones)."""
    eye = F2Matrix.identity(m)
    shift = F2Matrix.cyclic_shift(m, 1)
    return F2Matrix(m, m, tuple(a ^ b for a, b in zip(eye.row_bits, shift.row_bits)))


def test_rank_identity():
    assert rank(F2Matrix.identity(3)) == 3


def test_rank_all_ones():
    # brute force over all 2^3 row combinations gives span of size 2
    m = F2Matrix.ones(3, 3)
    assert brute_rank(m.to_rows()) == 1
    assert rank(m) == 1


def test_rank_cyclic_rung():
    # kernel of I + shift is spanned by the all-ones vector
    a3 = ladder_rung(3)
    kernel = brute_kernel(a3.to_rows(), 3)
    assert kernel == {(0, 0, 0), (1, 1, 1)}
    assert rank(a3) == 2


def test_nullspace_dim_examples():
    assert nullspace_dim(F2Matrix.identity(4)) == 0
    assert brute_rank(F2Matrix.ones(4, 4).to_rows()) == 1
    assert nullspace_dim(F2Matrix.ones(4, 4)) == 3
    assert nullspace_dim(F2Matrix.zeros(2, 5)) == 5


def test_empty_matrix_is_valid():
    for m in (F2Matrix.zeros(0, 0), F2Matrix.zeros(0, 3), F2Matrix.zeros(3, 0)):
        assert rank(m) == 0
        assert nullspace_dim(m) == m.cols


def test_matmul_identity():
    m = F2Matrix.from_rows([[1, 0, 1], [0, 1, 0]])
    assert matmul(F2Matrix.identity(2), m) == m
    assert m @ F2Matrix.identity(3) == m


def test_matmul_ones_squared_vanishes():
    # each entry of the product is 1+1 = 2 = 0 mod 2
    ones2 = F2Matrix.ones(2, 2)
    assert matmul(ones2, ones2).is_zero


def test_matmul_kernel_vector():
    a3 = ladder_rung(3)
    assert matmul(a3, F2Matrix.from_rows([[1], [1], [1]])).is_zero


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        matmul(F2Matrix.ones(2, 3), F2Matrix.ones(2, 3))


def test_from_rows_rejects_non_binary():
    with pytest.raises(ValueError):
        F2Matrix.from_rows([[0, 2]])


def test_text_literal_round_trip():
    grid = [[0, 1, 1, 0], [1, 0, 1, 1], [0, 0, 0, 1]]
    m = F2Matrix.from_rows(grid)
    assert m.to_rows() == grid
    assert F2Matrix.from_rows(m.to_rows()) == m


@st.composite
def f2_matrices(draw, max_rows=4, max_cols=4):
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    data = [[draw(st.integers(0, 1)) for _ in range(c)] for _ in range(r)]
    return F2Matrix.from_rows(data, cols=c)


@given(f2_matrices())
def test_rank_matches_brute_force(m):
    assert rank(m) == brute_rank(m.to_rows())


@given(f2_matrices(max_rows=8, max_cols=8))
@settings(max_examples=200)
def test_rank_equals_rank_of_transpose(m):
    assert rank(m) == rank(F2Matrix.from_rows(zip(*m.to_rows())))


@given(f2_matrices(max_rows=8, max_cols=8))
def test_rank_nullity(m):
    assert rank(m) + nullspace_dim(m) == m.cols
