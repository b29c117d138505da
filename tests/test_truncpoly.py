"""Truncated integer polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrinv.truncpoly import TruncPoly

CAP = 5


def polys(cap=CAP):
    return st.lists(st.integers(-9, 9), min_size=cap + 1, max_size=cap + 1) \
             .map(lambda c: TruncPoly(tuple(c)))


@given(polys(), polys())
@settings(max_examples=80)
def test_mul_commutes(a, b):
    assert (a * b).coeffs == (b * a).coeffs


@given(polys(), polys(), polys())
@settings(max_examples=80)
def test_mul_associates(a, b, c):
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


@given(polys(), polys(), polys())
@settings(max_examples=80)
def test_mul_distributes(a, b, c):
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


@given(polys())
@settings(max_examples=40)
def test_one_is_identity(a):
    assert (a * TruncPoly.one(CAP)).coeffs == a.coeffs


@given(polys(), st.integers(0, 4))
@settings(max_examples=60)
def test_pow_matches_repeated_mul(a, k):
    expected = TruncPoly.one(CAP)
    for _ in range(k):
        expected = expected * a
    assert a.pow(k).coeffs == expected.coeffs


def test_geometric_inverts_one_minus_t():
    one_minus_t = TruncPoly((1, -1, 0, 0, 0, 0))
    geo = TruncPoly.geometric(CAP)
    assert (one_minus_t * geo).coeffs == TruncPoly.one(CAP).coeffs


@given(polys())
@settings(max_examples=60)
def test_divide_undoes_mul_by_one_plus_t(a):
    b = a * TruncPoly.one_plus_t(CAP)
    assert b.divide(TruncPoly.one_plus_t(CAP)).coeffs == a.coeffs


def test_divide_requires_unit_constant():
    p = TruncPoly((1, 2, 3))
    with pytest.raises(ValueError):
        p.divide(TruncPoly((2, 0, 0)))


def test_divide_by_unit_series_multiplies_back():
    p = TruncPoly((1, 1, 1))
    q = p.divide(TruncPoly((1, 1, 0)))
    assert (q * TruncPoly((1, 1, 0))).coeffs == p.coeffs


def test_evaluate():
    p = TruncPoly((1, 2, 3))
    assert p.evaluate(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)
    assert p.evaluate(-1) == 1 - 2 + 3


def test_str_rendering():
    assert str(TruncPoly((1, 0, 2))) == "1 + 2t^2"
