"""Exact linear algebra kernel: matrices are plain sequences of rows."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrinv.linalg import (bareiss, det, kernel_basis, primitive_integer_vector,
                           qval, rref)
from oracles import fraction_det, fraction_rank

small_int = st.integers(min_value=-6, max_value=6)
small_rational = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c),
                min_size=r, max_size=r)))


def test_qval_accepts_fraction_strings():
    assert qval("3/6") == Fraction(1, 2)
    assert qval(4) == Fraction(4)
    assert qval(Fraction(2, 3)) == Fraction(2, 3)


def test_rref_known_case():
    r, pivots = rref([[2, 4, 0], [1, 2, 1]])
    assert len(pivots) == 2
    assert pivots == (0, 2)
    assert r == ((Fraction(1), Fraction(2), Fraction(0)),
                 (Fraction(0), Fraction(0), Fraction(1)))


@given(matrices())
@settings(max_examples=60)
def test_rref_is_idempotent(m):
    r, pivots = rref(m)
    r2, pivots2 = rref(r)
    assert r2 == r
    assert len(pivots2) == len(pivots)


@st.composite
def rational_matrices(draw):
    """Rational matrices up to 6 x 7 with forced rank deficiency, zero columns
    and a first row that makes the elimination swap rows."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(small_rational, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    if r >= 3 and draw(st.booleans()):
        # one row a combination of two others
        i, j, k = draw(st.permutations(range(r)))[:3]
        a, b = draw(small_rational), draw(small_rational)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    for col in draw(st.sets(st.integers(0, c - 1), max_size=2)):
        for row in rows:
            row[col] = Fraction(0)
    if draw(st.booleans()):
        lead = draw(st.integers(1, c))
        rows[0][:lead] = [Fraction(0)] * lead
    return rows


@given(rational_matrices())
@settings(max_examples=200)
def test_rref_is_the_reduced_echelon_form_of_the_row_space(m):
    r, pivots = rref(m)
    rank = len(pivots)
    assert rank == fraction_rank(m)
    assert list(pivots) == sorted(set(pivots))
    for i, row in enumerate(r):
        if i >= rank:
            assert not any(row)
            continue
        p = pivots[i]
        assert not any(row[:p]) and row[p] == 1
        assert all(other[p] == 0 for k, other in enumerate(r) if k != i)
    # same row space: stacking R adds no rank, which with the shape fixes R
    assert fraction_rank([*m, *r]) == rank


def test_kernel_basis_golden_with_row_swap_and_skipped_column():
    F = Fraction
    m = [[0, 0, F(1, 2), 1, 3],
         [F(2, 3), 1, 0, -1, F(1, 5)],
         [F(4, 3), 2, 1, -1, 0]]
    assert rref(m)[1] == (0, 2, 3)
    assert kernel_basis(m) == (
        (F(-3, 2), F(1), F(0), F(0), F(0)),
        (F(-99, 10), F(0), F(34, 5), F(-32, 5), F(1)))


@given(matrices())
@settings(max_examples=60)
def test_rank_equals_transpose_rank(m):
    assert bareiss(m)[0] == bareiss(list(zip(*m)))[0]


@given(matrices())
@settings(max_examples=60)
def test_kernel_vectors_annihilate(m):
    k = kernel_basis(m)
    assert len(k) == len(m[0]) - bareiss(m)[0]
    for row in k:
        assert all(sum(a * x for a, x in zip(r, row)) == 0 for r in m)


@given(st.integers(1, 6).flatmap(lambda c: st.lists(
    st.lists(small_rational, min_size=c, max_size=c), min_size=1, max_size=6)))
@settings(max_examples=150)
def test_bareiss_rank_and_det_match_fraction_elimination(rows):
    rank, d = bareiss(rows)
    assert rank == fraction_rank(rows) == len(rref(rows)[1])
    if len(rows) == len(rows[0]):
        assert d == fraction_det(rows)
    else:
        assert d == 0


def test_bareiss_cleared_denominators_and_empty_input():
    # rows scaled by 2 and 3 before elimination; the determinant is not
    assert bareiss([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == (2, Fraction(1, 3))
    assert bareiss([[0, 0], [0, 0]]) == (0, 0)
    assert bareiss([]) == (0, 1)
    assert det(()) == 1


def test_det_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="non-square"):
        det([[1, 2]])
    with pytest.raises(ValueError, match="non-square"):
        det([[1, 2], [3]])


def test_kernel_of_full_rank_matrix_is_empty():
    assert kernel_basis([[1, 0], [0, 1]]) == ()


@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=60)
def test_det_zero_iff_rank_deficient(rows):
    assert (det(rows) == 0) == (bareiss(rows)[0] < 3)


@given(matrices(5, 5))
@settings(max_examples=100)
def test_int_rows_give_the_values_of_their_fraction_copies(m):
    # reports pass the integer forms as int rows; what they print is the
    # same as for Fraction rows only if every value and its type agree
    q = [[Fraction(x) for x in row] for row in m]
    r, pivots = rref(m)
    assert (r, pivots) == rref(q)
    k = kernel_basis(m)
    assert k == kernel_basis(q)
    assert all(type(x) is Fraction for row in r + k for x in row)
    if len(m) == len(m[0]):
        d = det(m)
        assert d == det(q) and type(d) is Fraction


def test_primitive_integer_vector():
    assert primitive_integer_vector([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
    assert primitive_integer_vector([Fraction(-2), Fraction(4)]) == (1, -2)
    assert primitive_integer_vector([Fraction(0), Fraction(0), Fraction(5)]) == (0, 0, 1)


def row_pairs(max_rows=3, max_cols=4):
    """Two row lists with one column count, so that they stack."""
    def rows(c):
        return st.lists(st.lists(small_int, min_size=c, max_size=c),
                        min_size=1, max_size=max_rows)
    return st.integers(1, max_cols).flatmap(lambda c: st.tuples(rows(c), rows(c)))


@given(row_pairs())
@settings(max_examples=40)
def test_stacked_rows_rank_bounds(pair):
    a, b = pair
    ra, rb = bareiss(a)[0], bareiss(b)[0]
    assert max(ra, rb) <= bareiss(a + b)[0] <= ra + rb
    assert bareiss(a + a)[0] == ra
