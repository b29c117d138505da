"""Exact linear algebra over the rationals.

Nothing here ever rounds, and nothing is reduced mod p. A matrix is a
sequence of rows of ints or `fractions.Fraction`s. One fraction-free
elimination loop over Z (Bareiss's) gives ranks, determinants (`bareiss`,
`det`) and the reduced row echelon form (`rref`). Bases are emitted as tuples
of `Fraction` rows, equal for int rows and their `Fraction` copies, and the
canonical forms fixed in this module are relied on across the package:

* `rref` produces the unique reduced row echelon form (pivots 1, zeros above
  and below each pivot).
* `kernel_basis` derives a null-space basis from the RREF by setting one free
  variable to 1 and the others to 0, free columns in increasing order. This
  makes downstream constructions (relation spaces, dual configurations)
  reproducible bit for bit.

`QMatrix`, rows with a column count, has no caller in the package. It stays
only because the benchmark's tracer wraps `QMatrix.rank` and its tests read
the class, until ROADMAP item 1b drops both.
"""

from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Sequence

Rows = tuple[tuple[Fraction, ...], ...]

# Python converts integers of at most this many digits to and from text (its
# default sys.get_int_max_str_digits()); a decimal exponent beyond it would
# make Fraction build an integer no report could print
MAX_DIGITS = 4300


def qval(x) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' / decimal string to Fraction.

    A decimal exponent beyond MAX_DIGITS in magnitude raises ValueError
    before Fraction builds the power of ten.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        exponent = x.lower().partition("e")[2].strip().lstrip("+-")
        digits = exponent.replace("_", "").lstrip("0")
        if digits.isdecimal() and (len(digits) > 4 or int(digits) > MAX_DIGITS):
            raise ValueError(f"decimal exponent exceeds {MAX_DIGITS} in magnitude")
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


class QMatrix:
    """Rational matrix, row major.

    `cols` is stored explicitly so a subspace given by no rows keeps its
    shape.
    """

    def __init__(self, entries: tuple[tuple[Fraction, ...], ...], cols: int):
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged matrix")
        self.entries = entries
        self.cols = cols

    def rank(self) -> int:
        return bareiss(self.entries)[0]


def _cleared(row) -> tuple[list[int], int]:
    """A rational row times the lcm of its denominators, and that lcm."""
    lcm = 1
    for x in row:
        d = x.denominator
        if d != 1:
            lcm = lcm * d // gcd(lcm, d)
    if lcm == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (lcm // x.denominator) for x in row], lcm


def _eliminate(rows: Sequence[Sequence], reduce: bool = False):
    """The one fraction-free elimination loop behind `bareiss` and `rref`.

    Returns (work rows, pivot columns, last pivot, sign of the row swaps,
    product of the row lcms). Each row is first multiplied by the lcm of its
    denominators, and the elimination runs over Z only. It is Bareiss's:
    after k steps every entry is a minor of the scaled matrix, so dividing
    by the previous pivot is exact. With `reduce` the rows above each pivot
    are cleared by the same step (entries stay minors, so the division stays
    exact) and every pivot entry ends equal to the last pivot d: the work
    rows are d times the RREF.
    """
    work, scale = [], 1
    for row in rows:
        ints, lcm = _cleared(row)
        work.append(ints)
        scale *= lcm
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        sel = next((r for r in range(rank, nrows) if work[r][c]), None)
        if sel is None:
            continue
        if sel != rank:
            work[rank], work[sel] = work[sel], work[rank]
            sign = -sign
        top = work[rank]
        pivot = top[c]
        below = range(rank + 1, nrows)
        # every other row is updated, so the next division stays exact
        for r in chain(range(rank), below) if reduce else below:
            row = work[r]
            f = row[c]
            work[r] = [(pivot * x - f * y) // prev for x, y in zip(row, top)]
        prev = pivot
        pivots.append(c)
    return work, pivots, prev, sign, scale


def bareiss(rows: Sequence[Sequence]) -> tuple[int, Fraction]:
    """Rank and determinant of int or Fraction rows by fraction-free elimination.

    Scaling each row by the lcm of its denominators keeps the rank and scales
    the determinant by that lcm; the last pivot of a nonsingular square
    matrix is the scaled determinant up to the sign of the row swaps. The
    determinant returned is that of the square matrix the rows form over Q
    (0 when singular or not square).
    """
    work, pivots, last, sign, scale = _eliminate(rows)
    rank = len(pivots)
    if rank == len(work) == (len(work[0]) if work else 0):
        return rank, Fraction(sign * last, scale)
    return rank, Fraction(0)


def rref(rows: Sequence[Sequence]) -> tuple[Rows, tuple[int, ...]]:
    """Reduced row echelon form of rows. Returns (R, pivot columns)."""
    work, pivots, d, _, _ = _eliminate(rows, reduce=True)
    return tuple(tuple(Fraction(x, d) for x in row) for row in work), tuple(pivots)


def kernel_basis(rows: Sequence[Sequence]) -> Rows:
    """Canonical right null-space basis of nonempty rows, one per free column."""
    reduced, pivots = rref(rows)
    cols = len(rows[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of square rows by fraction-free elimination."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant of a non-square matrix")
    return bareiss(rows)[1]


def primitive_integer_vector(v: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0."""
    vals = [qval(x) for x in v]
    if all(x == 0 for x in vals):
        raise ValueError("zero vector has no primitive form")
    ints = _cleared(vals)[0]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)
