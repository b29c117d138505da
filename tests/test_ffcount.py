"""Finite-field point counting: both backends against the brute oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrinv.arrangement import InvalidArrangement, parse_arrangement
from arrinv.ffcount import (DegenerateReduction, backend_name,
                            count_complement_points, is_prime, kernel_available,
                            next_valid_prime, prime_preserves_lattice,
                            subset_ranks)
from arrinv.fixtures import fixture, fixture_names
from arrinv.invariants import complement_count_prediction, poincare
from arrinv.lattice import build_lattice
from oracles import brute_complement_count

needs_kernel = pytest.mark.skipif(not kernel_available(),
                                  reason="compiled kernel not built")


def random_arrangement(rng, n, m):
    """Small random integer arrangement with distinct forms."""
    while True:
        rows = []
        seen = set()
        for _ in range(m):
            for _ in range(50):
                row = [rng.randrange(-3, 4) for _ in range(n + 1)]
                if any(row):
                    break
            rows.append(row)
        try:
            a = parse_arrangement(n, rows)
        except InvalidArrangement:
            continue
        return a


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_pure_backend_matches_brute_force():
    rng = random.Random(11)
    for _ in range(10):
        a = random_arrangement(rng, 2, rng.randrange(2, 6))
        p = rng.choice([5, 7, 11])
        try:
            got = count_complement_points(a, p, backend="pure")
        except DegenerateReduction:
            continue
        assert got == brute_complement_count(a, p)


@needs_kernel
def test_compiled_backend_matches_brute_force():
    rng = random.Random(13)
    for _ in range(10):
        a = random_arrangement(rng, 2, rng.randrange(2, 6))
        p = rng.choice([5, 7, 11])
        try:
            got = count_complement_points(a, p, backend="compiled")
        except DegenerateReduction:
            continue
        assert got == brute_complement_count(a, p)


@needs_kernel
@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_backend_parity(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3])
    a = random_arrangement(rng, n, rng.randrange(2, 6))
    p = rng.choice([5, 7, 11])
    try:
        pure = count_complement_points(a, p, backend="pure")
    except DegenerateReduction:
        with pytest.raises(DegenerateReduction):
            count_complement_points(a, p, backend="compiled")
        return
    assert count_complement_points(a, p, backend="compiled") == pure


def test_degenerate_reduction_detected():
    # the two forms x and x + 7y coincide mod 7
    a = parse_arrangement(1, [[1, 0], [1, 7]])
    with pytest.raises(DegenerateReduction):
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
    assert prime_preserves_lattice(subset_ranks(a), p)
    assert count_complement_points(a, p) == complement_count_prediction(poincare(lat), p)


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_counts_match_at_101(name):
    a = fixture(name)
    lat = build_lattice(a)
    assert count_complement_points(a, 101) == complement_count_prediction(poincare(lat), 101)


def test_prime_validity_and_next_valid():
    a = parse_arrangement(1, [[1, 0], [1, 7]])
    ranks = subset_ranks(a)
    assert not prime_preserves_lattice(ranks, 7)
    assert prime_preserves_lattice(ranks, 11)
    assert next_valid_prime(ranks, 7) == 11


def test_n3_arrangement_at_101():
    # codim-2 degeneracy in P^3, counted at the large prime
    a = parse_arrangement(3, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0],
                              [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    lat = build_lattice(a)
    assert count_complement_points(a, 101) == complement_count_prediction(poincare(lat), 101)


def test_backend_name_reports_selection():
    assert backend_name() in ("compiled", "pure")
