"""Exact linear algebra kernel."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arrinv.linalg import (QMatrix, bareiss, det, kernel_basis,
                           primitive_integer_vector, qval, rref)
from oracles import fraction_det, fraction_rank

small_int = st.integers(min_value=-6, max_value=6)
small_rational = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c),
                min_size=r, max_size=r).map(
                    lambda rows: QMatrix.from_rows(rows, c))))


def test_qval_accepts_fraction_strings():
    assert qval("3/6") == Fraction(1, 2)
    assert qval(4) == Fraction(4)
    assert qval(Fraction(2, 3)) == Fraction(2, 3)


def test_rref_known_case():
    m = QMatrix.from_rows([[2, 4, 0], [1, 2, 1]], 3)
    r, pivots, rank = rref(m)
    assert rank == 2
    assert pivots == (0, 2)
    assert r.entries == ((Fraction(1), Fraction(2), Fraction(0)),
                         (Fraction(0), Fraction(0), Fraction(1)))


@given(matrices())
@settings(max_examples=60)
def test_rref_is_idempotent(m):
    r, _, rank = rref(m)
    r2, _, rank2 = rref(r)
    assert r2.entries == r.entries
    assert rank2 == rank


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
    return QMatrix.from_rows(rows, c)


@given(rational_matrices())
@settings(max_examples=200)
def test_rref_is_the_reduced_echelon_form_of_the_row_space(m):
    r, pivots, rank = rref(m)
    assert rank == len(pivots) == fraction_rank(m.entries)
    assert list(pivots) == sorted(set(pivots))
    for i, row in enumerate(r.entries):
        if i >= rank:
            assert not any(row)
            continue
        p = pivots[i]
        assert not any(row[:p]) and row[p] == 1
        assert all(other[p] == 0 for k, other in enumerate(r.entries) if k != i)
    # same row space: stacking R adds no rank, which with the shape fixes R
    assert fraction_rank(m.stack(r).entries) == rank


def test_kernel_basis_golden_with_row_swap_and_skipped_column():
    F = Fraction
    m = QMatrix.from_rows([[0, 0, F(1, 2), 1, 3],
                           [F(2, 3), 1, 0, -1, F(1, 5)],
                           [F(4, 3), 2, 1, -1, 0]])
    assert rref(m)[1:] == ((0, 2, 3), 3)
    assert kernel_basis(m).entries == (
        (F(-3, 2), F(1), F(0), F(0), F(0)),
        (F(-99, 10), F(0), F(34, 5), F(-32, 5), F(1)))


@given(matrices())
@settings(max_examples=60)
def test_rank_equals_transpose_rank(m):
    assert m.rank() == QMatrix.from_rows(zip(*m.entries), m.rows).rank()


@given(matrices())
@settings(max_examples=60)
def test_kernel_vectors_annihilate(m):
    k = kernel_basis(m)
    assert k.rows == m.cols - m.rank()
    for row in k.entries:
        assert all(sum(a * x for a, x in zip(r, row)) == 0 for r in m.entries)


@given(st.integers(1, 6).flatmap(lambda c: st.lists(
    st.lists(small_rational, min_size=c, max_size=c), min_size=1, max_size=6)))
@settings(max_examples=150)
def test_bareiss_rank_and_det_match_fraction_elimination(rows):
    rank, d = bareiss(rows)
    assert rank == fraction_rank(rows) == rref(QMatrix.from_rows(rows))[2]
    if len(rows) == len(rows[0]):
        assert d == fraction_det(rows)
    else:
        assert d == 0


def test_bareiss_cleared_denominators_and_empty_input():
    # rows scaled by 2 and 3 before elimination; the determinant is not
    assert bareiss([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == (2, Fraction(1, 3))
    assert bareiss([[0, 0], [0, 0]]) == (0, 0)
    assert bareiss([]) == (0, 1)
    assert det(QMatrix((), 0)) == 1


def test_kernel_of_full_rank_matrix_is_empty():
    m = QMatrix.from_rows([[1, 0], [0, 1]], 2)
    assert kernel_basis(m).rows == 0


@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=60)
def test_det_zero_iff_rank_deficient(rows):
    m = QMatrix.from_rows(rows, 3)
    assert (det(m) == 0) == (m.rank() < 3)


def test_primitive_integer_vector():
    assert primitive_integer_vector([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
    assert primitive_integer_vector([Fraction(-2), Fraction(4)]) == (1, -2)
    assert primitive_integer_vector([Fraction(0), Fraction(0), Fraction(5)]) == (0, 0, 1)


@given(matrices(3, 3))
@settings(max_examples=40)
def test_stack_rank_bounds(m):
    stacked = m.stack(m)
    assert stacked.rank() == m.rank()
