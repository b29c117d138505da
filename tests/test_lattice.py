"""Intersection lattice, Moebius values, and crossing classification."""

from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arrinv.arrangement import InvalidArrangement, parse_arrangement
from arrinv.ffcount import basis_minors
from arrinv.fixtures import fixture, fixture_names
from arrinv.invariants import poincare
from arrinv.lattice import CrossingClass, build_lattice
from oracles import flats_by_closure, mobius_by_subsets


def rank2_profile(lattice):
    """Multiset of s values over the rank-2 flats."""
    return sorted(f.s for f in lattice.flats_of_rank(2))


def test_boolean_n2_lattice():
    lat = build_lattice(fixture("boolean_n2"))
    assert len(lat.flats_of_rank(0)) == 1
    assert len(lat.flats_of_rank(1)) == 3
    assert rank2_profile(lat) == [2, 2, 2]
    assert all(f.mobius == -1 for f in lat.flats_of_rank(1))
    assert all(f.mobius == 1 for f in lat.flats_of_rank(2))


def test_a3_lattice_profile():
    lat = build_lattice(fixture("a3_braid"))
    assert rank2_profile(lat) == [2, 2, 2, 3, 3, 3, 3]
    triples = [f for f in lat.flats_of_rank(2) if f.s == 3]
    assert sorted(f.indices for f in triples) == [
        (1, 2, 4), (1, 5, 6), (2, 3, 5), (3, 4, 6)]
    assert all(f.mobius == 2 for f in triples)


def test_generic5_has_ten_double_points():
    lat = build_lattice(fixture("generic5"))
    assert rank2_profile(lat) == [2] * 10


def test_flat_index_sets_are_maximal():
    a = fixture("m6_four_concurrent")
    lat = build_lattice(a)
    quad = [f for f in lat.flats_of_rank(2) if f.s == 4]
    assert len(quad) == 1
    assert quad[0].indices == (1, 2, 3, 4)


def test_flats_sorted_within_rank():
    lat = build_lattice(fixture("a3_braid"))
    for r in range(3):
        idx = [f.indices for f in lat.flats_of_rank(r)]
        assert idx == sorted(idx)


@pytest.mark.parametrize("name", fixture_names())
def test_mobius_matches_subset_oracle(name):
    a = fixture(name)
    lat = build_lattice(a)
    for f in lat.flats:
        assert f.mobius == mobius_by_subsets(a, f), f.indices


def test_mobius_view():
    lat = build_lattice(fixture("boolean_n2"))
    assert sum(f.mobius for f in lat.flats) == 1 - 3 + 3


def test_crossing_generic():
    rep = build_lattice(fixture("generic5")).crossing
    assert rep.kind is CrossingClass.GENERIC
    assert rep.witness is None


def test_crossing_not_normal_codim2_with_witness():
    rep = build_lattice(fixture("a3_braid")).crossing
    assert rep.kind is CrossingClass.NOT_NORMAL_CROSSING_CODIM2
    assert rep.witness is not None and rep.witness.s == 3


def test_crossing_deeper_degeneracy_only():
    # every line lies on exactly two of the planes, but four planes pass
    # through the point (0:0:0:1)
    a = parse_arrangement(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                              [1, 1, 1, 0], [0, 0, 0, 1]])
    rep = build_lattice(a).crossing
    assert rep.kind is CrossingClass.NORMAL_CROSSING_CODIM2_ONLY
    assert rep.witness is not None and rep.witness.rank == 3


def test_crossing_planes_sharing_a_line():
    a = parse_arrangement(3, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0],
                              [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    lat = build_lattice(a)
    rep = lat.crossing
    assert rep.kind is CrossingClass.NOT_NORMAL_CROSSING_CODIM2
    heavy = [f for f in lat.flats_of_rank(2) if f.s == 4]
    assert len(heavy) == 1 and heavy[0].indices == (1, 2, 3, 4)


def test_n3_lattice_moebius_against_oracle():
    a = parse_arrangement(3, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0],
                              [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    lat = build_lattice(a)
    for f in lat.flats:
        assert f.mobius == mobius_by_subsets(a, f)


def braid(n):
    """The braid arrangement A_(n+1) in P^n: the forms x_i and x_i - x_j."""
    unit = [[int(k == i) for k in range(n + 1)] for i in range(n + 1)]
    return parse_arrangement(n, unit + [[x - y for x, y in zip(unit[i], unit[j])]
                                        for i, j in combinations(range(n + 1), 2)])


@pytest.mark.parametrize("n, flats, central", [
    (3, 51, (1, 10, 35, 50, 24)),
    (4, 202, (1, 15, 85, 225, 274, 120)),
    (5, 876, (1, 21, 175, 735, 1624, 1764, 720)),
])
def test_braid_lattices_in_p3_and_p4(n, flats, central):
    """A4, A5 and A6, the braid arrangements of n + 2 points in P^n.

    The flats are the set partitions of n + 2 points but the coarsest, and
    the central Poincare polynomial is (1 + t)(1 + 2t)...(1 + (n+1)t). The
    bases are the spanning trees of K_(n+2), (n+2)^n of them (Cayley): the
    basis gcds read the forms and `independent` reads the lattice, so the
    two counts check each other. A6 (n = 5, m = 21) asks `independent` for
    54,264 six-sets against 644 dependent flats, which the label bitmasks
    keep to about a second.
    """
    a = braid(n)
    lat = build_lattice(a)
    assert len(lat.flats) == flats
    assert poincare(lat).central == central
    trees = {3: 125, 4: 1296, 5: 16807}[n]
    assert trees == (n + 2) ** n
    # a graphic arrangement is totally unimodular, so every basis gcd is 1
    # and every other (n+1)-set's is 0
    minors = basis_minors(a)
    assert minors.count(1) == trees and minors.count(0) == len(minors) - trees
    assert sum(map(lat.independent, combinations(range(1, a.m + 1), n + 1))) == trees
    if n == 3:
        for f in lat.flats:
            assert f.mobius == mobius_by_subsets(a, f), f.indices


BIG = 10 ** 29 + 3


@st.composite
def crowded_arrangements(draw):
    """Small coefficients, so that many hyperplanes meet in the same flats."""
    n = draw(st.sampled_from([2, 3, 4]))
    row = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1).filter(any)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    try:
        return parse_arrangement(n, rows)
    except InvalidArrangement:   # two rows reduce to the same form
        assume(False)


@given(crowded_arrangements())
@example(parse_arrangement(1, [[1, 0], [0, 1], [1, 1]]))
@example(parse_arrangement(3, [[1, 2, 3, 4]]))
@example(parse_arrangement(2, [[1, t, 0] for t in range(5)] + [[0, 1, 0]]))
@example(parse_arrangement(3, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]]))
# 30-digit coefficients, three lines through one point: the walk's cut
# vectors grow with every step unless divided by their content
@example(parse_arrangement(2, [[BIG, 1, 0], [0, BIG, 1], [BIG, BIG + 1, 1],
                               [1, 0, BIG], [BIG - 7, 3, BIG + 11]]))
# n = 5: three hyperplanes through a codimension-2 flat, and seven through
# the point (1 : -1 : 0 : 0 : 0 : 0)
@example(parse_arrangement(5, [[int(k == t) for k in range(6)] for t in range(6)]
                           + [[1, 1, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1], [2, 2, 0, 1, -1, 3]]))
@settings(max_examples=150, deadline=None)
def test_lattice_matches_the_closure_oracle(a):
    lat = build_lattice(a)
    pairs = [(f.indices, f.rank) for f in lat.flats]
    assert len(pairs) == len(set(pairs))
    expected = flats_by_closure(a)
    assert set(pairs) == expected
    for f in lat.flats:
        assert f.mobius == mobius_by_subsets(a, f), f.indices
    # the crossing witness is the shallowest flat of rank >= 2 through more
    # hyperplanes than its rank; rank-1 flats never qualify
    heavy = sorted((rank, labels) for labels, rank in expected
                   if len(labels) > rank >= 2)
    kind, witness = lat.crossing.kind, lat.crossing.witness
    if not heavy:
        assert kind is CrossingClass.GENERIC and witness is None
    else:
        assert (witness.rank, witness.indices) == heavy[0]
        assert kind is (CrossingClass.NOT_NORMAL_CROSSING_CODIM2 if witness.rank == 2
                        else CrossingClass.NORMAL_CROSSING_CODIM2_ONLY)
