"""Finite-field point counting against the brute oracle, and prime choice."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrinv.arrangement import InvalidArrangement, parse_arrangement, subset_ranks
from arrinv.ffcount import (DegenerateReduction, basis_minors, count_complement_points,
                            count_points_raw, is_prime, next_valid_prime,
                            prime_preserves_lattice)
from arrinv.fixtures import fixture, fixture_names
from arrinv.invariants import complement_count_prediction, poincare
from arrinv.lattice import build_lattice
from oracles import (brute_complement_count, prime_preserves_lattice_by_ranks,
                     rank_mod_p)


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


@st.composite
def small_arrangements(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    row = st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1).filter(any)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    try:
        return parse_arrangement(n, rows)
    except InvalidArrangement:   # two rows reduce to the same form
        assume(False)


# at the smallest primes forms most often coincide or become proportional
@given(small_arrangements(), st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=300, deadline=None)
def test_count_matches_brute_force(a, p):
    coeffs = a.forms
    brute = brute_complement_count(a, p)
    assert count_points_raw(coeffs, p) == brute
    if any(rank_mod_p(pair, p) < 2 for pair in combinations(coeffs, 2)):
        with pytest.raises(DegenerateReduction):
            count_complement_points(a, p)
    else:
        assert count_complement_points(a, p) == brute


def test_degenerate_reduction_detected():
    # the two forms x and x + 7y coincide mod 7
    a = parse_arrangement(1, [[1, 0], [1, 7]])
    with pytest.raises(DegenerateReduction):
        count_complement_points(a, 7)


def test_degenerate_reduction_names_the_first_pair():
    # pairs (2, 3) and (1, 4) both coincide mod 7; (1, 4) comes first
    a = parse_arrangement(1, [[1, 0], [0, 1], [7, 1], [1, 7]])
    with pytest.raises(DegenerateReduction,
                       match=r"^hyperplanes 1 and 4 coincide mod 7$"):
        count_complement_points(a, 7)


def test_degenerate_reduction_count_value():
    # two distinct lines through the origin of F_5^2: (p-1)^2 points on neither
    a = parse_arrangement(1, [[1, 0], [1, 7]])
    assert count_complement_points(a, 5) == 16
    assert brute_complement_count(a, 5) == 16


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("p", [7, 11])
def test_fixture_counts_match_lattice_prediction(name, p):
    a = fixture(name)
    lat = build_lattice(a)
    assert prime_preserves_lattice(basis_minors(a, subset_ranks(a)), p)
    assert count_complement_points(a, p) == complement_count_prediction(poincare(lat), p)


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_counts_match_at_101(name):
    a = fixture(name)
    lat = build_lattice(a)
    assert count_complement_points(a, 101) == complement_count_prediction(poincare(lat), 101)


def test_prime_validity_and_next_valid():
    a = parse_arrangement(1, [[1, 0], [1, 7]])
    minors = basis_minors(a, subset_ranks(a))
    assert minors == (7,)
    assert not prime_preserves_lattice(minors, 7)
    assert prime_preserves_lattice(minors, 11)
    assert next_valid_prime(minors, 7) == 11


def test_non_essential_prime_rejected_by_the_gcd_of_minors():
    # three lines through (0 : 0 : 1); the 3 x 3 determinant is 0, but the
    # pair {1, 2} has 2 x 2 minors (7, 0, 0): mod 7 lines 1 and 2 coincide
    a = parse_arrangement(2, [[1, 0, 0], [1, 7, 0], [0, 1, 0]])
    ranks = subset_ranks(a)
    minors = basis_minors(a, ranks)
    assert minors == (7, 1, 1)
    assert not prime_preserves_lattice(minors, 7)
    assert not prime_preserves_lattice_by_ranks(a, ranks, 7)
    assert next_valid_prime(minors, 7) == 11


@st.composite
def rank_tables(draw):
    """Arrangements with n <= 4; with `flat` every last coefficient is 0, so
    the forms span less than the whole dual space."""
    n = draw(st.integers(1, 4))
    flat = draw(st.booleans())
    row = st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1)
    rows = draw(st.lists(row, min_size=1, max_size=7 - n // 2))
    if flat:
        rows = [r[:-1] + [0] for r in rows]
    try:
        return parse_arrangement(n, rows)
    except InvalidArrangement:   # a zero row, or two rows with the same form
        assume(False)


@given(rank_tables(), st.sampled_from([2, 3, 5, 7, 11, 13]))
@settings(max_examples=300, deadline=None)
def test_prime_check_matches_ranks_mod_p(a, p):
    ranks = subset_ranks(a)
    minors = basis_minors(a, ranks)
    assert prime_preserves_lattice(minors, p) == prime_preserves_lattice_by_ranks(a, ranks, p)
    q = p
    while not (is_prime(q) and prime_preserves_lattice_by_ranks(a, ranks, q)):
        q += 1
    assert next_valid_prime(minors, p) == q


def test_n3_arrangement_at_101():
    # codim-2 degeneracy in P^3, counted at the large prime
    a = parse_arrangement(3, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0],
                              [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    lat = build_lattice(a)
    assert count_complement_points(a, 101) == complement_count_prediction(poincare(lat), 101)
