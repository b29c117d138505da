"""Poincare and Chern data, local singularity numbers, delta invariant."""

import random
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrinv.arrangement import Arrangement, canonical_form, parse_arrangement
from arrinv.fixtures import fixture, fixture_names
from arrinv.invariants import (LocallyFree, chern, delta_invariant, h0_values,
                               local_data, poincare, steiner_unavailable,
                               twist_transform)
from arrinv.lattice import build_lattice
from arrinv.stability import StabilityVerdict, Status, classify, discriminant_test
from arrinv.steiner import steiner_tensor
from arrinv.torelli import torelli_verdict
from oracles import (deletion, flats_by_closure, fraction_rank, restriction,
                     truncated_product)

# projective coefficients, central coefficients, delta; all cross-validated
# against the finite-field counts at p = 7, 11, 101 and the subset-sum
# Moebius oracle
POINCARE_TABLE = {
    "boolean_n2": ((1, 3, 3), (1, 3, 3, 1), 0),
    "a3_braid": ((1, 6, 11), (1, 6, 11, 6), 4),
    "generic5": ((1, 5, 10), (1, 5, 10, 6), 0),
    "generic6_on_conic": ((1, 6, 15), (1, 6, 15, 10), 0),
    "generic6_off_conic": ((1, 6, 15), (1, 6, 15, 10), 0),
    "m5_one_triple": ((1, 5, 9), (1, 5, 9, 5), 1),
    "m5_two_triples": ((1, 5, 8), (1, 5, 8, 4), 2),
    "m6_one_triple": ((1, 6, 14), (1, 6, 14, 9), 1),
    "m6_four_concurrent": ((1, 6, 12), (1, 6, 12, 7), 3),
    "m6_two_triples_F1": ((1, 6, 13), (1, 6, 13, 8), 2),
    "m6_two_triples_F2": ((1, 6, 13), (1, 6, 13, 8), 2),
    "m6_three_triples": ((1, 6, 12), (1, 6, 12, 7), 3),
}


def _chern(a):
    lat = build_lattice(a)
    return chern(lat, poincare(lat))

CHERN_TABLE = {
    "a3_braid": (3, 2),
    "generic5": (2, 3),
    "generic6_on_conic": (3, 6),
    "generic6_off_conic": (3, 6),
    "m5_one_triple": (2, 2),
    "m5_two_triples": (2, 1),
    "m6_one_triple": (3, 5),
    "m6_four_concurrent": (3, 3),
    "m6_two_triples_F1": (3, 4),
    "m6_two_triples_F2": (3, 4),
    "m6_three_triples": (3, 3),
}


@pytest.mark.parametrize("name", sorted(POINCARE_TABLE))
def test_poincare_table(name):
    pd = poincare(build_lattice(fixture(name)))
    proj, central, _ = POINCARE_TABLE[name]
    assert pd.projective == proj
    assert pd.central == central


def test_a3_central_factors():
    # (1+t)(1+2t)(1+3t), multiplied out exactly
    pd = poincare(build_lattice(fixture("a3_braid")))
    assert pd.central == truncated_product([(1, 1), (1, 2), (1, 3)], 3)


def central(a):
    return poincare(build_lattice(a)).central


def holds_deletion_restriction(a) -> bool:
    """Central pi(A) = pi(A minus H) + t pi(A^H) for H the hyperplane of
    label 1; the restriction lies in P^(n-1), one degree lower."""
    deleted, restricted = central(deletion(a, 1)), central(restriction(a, 1))
    return list(central(a)) == [x + y for x, y in zip(deleted, (0,) + restricted)]


@pytest.mark.parametrize("name", fixture_names())
def test_deletion_restriction_on_the_fixtures(name):
    assert holds_deletion_restriction(fixture(name))


def test_deleting_a_coloop_leaves_a_non_essential_arrangement():
    # each coordinate line of boolean_n2 is a coloop: A minus H is two lines
    # through one point, no longer essential, with pi = (1 + t)^2 and no top
    # term, and pi(A) = (1 + t) pi(A minus H)
    a = fixture("boolean_n2")
    lat = build_lattice(deletion(a, 1))
    assert not lat.essential
    assert poincare(lat).central == (1, 2, 1, 0)
    assert central(restriction(a, 1)) == (1, 2, 1)
    assert holds_deletion_restriction(a)


@pytest.mark.parametrize("n", [
    pytest.param(1, marks=pytest.mark.skip(
        reason="A^H of an arrangement in P^1 lies in P^0, which has no arrangements")),
    2, 3, 4])
def test_deletion_restriction_on_seeded_draws(n):
    # the library's lattice comes from the no-broken-circuit walk, and the
    # restriction is read off a kernel basis of H; m runs from 2 to n + 7
    rng = random.Random(f"deletion-restriction/{n}")
    for _ in range(150):
        rows = [[rng.randint(-1, 1) for _ in range(n + 1)]
                for _ in range(rng.randint(2, n + 7))]
        forms = tuple(dict.fromkeys(canonical_form(r) for r in rows if any(r)))
        if len(forms) >= 2:
            assert holds_deletion_restriction(Arrangement(n, forms)), forms


@pytest.mark.parametrize("name", sorted(CHERN_TABLE))
def test_chern_point_formula(name):
    a = fixture(name)
    cd = _chern(a)
    assert (cd.n2_c1, cd.n2_c2) == CHERN_TABLE[name]


def test_steiner_ct_depends_only_on_size():
    for name in ("a3_braid", "generic6_on_conic", "m6_three_triples"):
        a = fixture(name)
        cd = _chern(a)
        assert cd.steiner_ct == (1, 3, 6)
        assert cd.steiner_twisted_ct == (1, 5, 10)


def test_chern_generic_table():
    # the classical (c1, c2) ladder for generic line arrangements
    m4 = parse_arrangement(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    cases = [(m4, (1, 1)), (fixture("generic5"), (2, 3)),
             (fixture("generic6_off_conic"), (3, 6))]
    for a, expected in cases:
        cd = _chern(a)
        assert (cd.n2_c1, cd.n2_c2) == expected
        # for generic arrangements the Steiner polynomial matches the
        # point-count values
        assert cd.steiner_ct == (1,) + expected


def test_logfree_twisted_is_projective_over_one_plus_t():
    a = fixture("a3_braid")
    lat = build_lattice(a)
    cd = chern(lat, poincare(lat))
    assert cd.logfree_twisted_ct == (1, 5, 6)


@pytest.mark.parametrize("name", sorted(CHERN_TABLE))
def test_twist_of_point_ct_matches_logfree_twisted(name):
    a = fixture(name)
    lat = build_lattice(a)
    cd = chern(lat, poincare(lat))
    assert twist_transform((1, cd.n2_c1, cd.n2_c2), 2) == cd.logfree_twisted_ct


@given(st.lists(st.integers(-8, 8), min_size=4, max_size=4))
@settings(max_examples=60)
def test_twist_transform_is_multiplicative_shift(coeffs):
    # twisting by (1+t)^n then substituting back: evaluate both sides at a
    # few integers through the truncation-safe identity
    # twist(f)(t) = (1+t)^n f(t/(1+t)) as power series; check degree-0 and
    # degree-1 coefficients directly
    tw = twist_transform(tuple(coeffs), 3)
    assert tw[0] == coeffs[0]
    assert tw[1] == 3 * coeffs[0] + coeffs[1]


def _pencil(n, m):
    """The n+1 coordinate hyperplanes and m-n-1 more through x_0 = x_1 = 0."""
    rows = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    rows += [[1, k] + [0] * (n - 1) for k in range(1, m - n)]
    return parse_arrangement(n, rows)


@given(st.integers(1, 5), st.data())
@settings(max_examples=30, deadline=None)
def test_steiner_polynomials_are_the_resolution_products(n, data):
    # 0 -> O(-1)^(m-n-1) -> O^(m-1) -> F -> 0: c_t(F) = (1-t)^-(m-n-1),
    # which up to t^n is (1+t+...+t^n)^(m-n-1), and c_t(F(1)) = (1+t)^(m-1)
    m = data.draw(st.integers(n + 2, n + 12), label="m")
    cd = _chern(_pencil(n, m))
    assert cd.steiner_ct == truncated_product([(1,) * (n + 1)] * (m - n - 1), n)
    assert cd.steiner_twisted_ct == truncated_product([(1, 1)] * (m - 1), n)


@given(st.integers(1, 5), st.data())
@settings(max_examples=60)
def test_twist_transform_is_the_twisted_sum(n, data):
    f = data.draw(st.lists(st.integers(-20, 20), min_size=n + 1, max_size=n + 1),
                  label="f")
    terms = [truncated_product([(0,) * i + (c,)] + [(1, 1)] * (n - i), n)
             for i, c in enumerate(f)]
    assert twist_transform(tuple(f), n) == tuple(map(sum, zip(*terms)))


@pytest.mark.parametrize("name", [n for n in fixture_names() if n != "boolean_n2"])
def test_logfree_twisted_times_one_plus_t_is_projective(name):
    a = fixture(name)
    lat = build_lattice(a)
    pd = poincare(lat)
    cd = chern(lat, pd)
    assert truncated_product([cd.logfree_twisted_ct, (1, 1)], a.n) == pd.projective


def test_chern_small_arrangement_has_no_steiner_fields():
    with pytest.raises(ValueError, match=r"m >= n \+ 2, got m = 3"):
        _chern(fixture("boolean_n2"))


# five lines through one point: m >= n + 2, but the forms have rank 2
CONCURRENT = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0], [1, 3, 0]]


def test_no_sheaf_data_for_a_non_essential_arrangement():
    lat = build_lattice(parse_arrangement(2, CONCURRENT))
    assert steiner_unavailable(lat) == "arrangement is not essential"
    semistable = StabilityVerdict(Status.NOT_STABLE, (), ())
    for call in (lambda: chern(lat, poincare(lat)), lambda: h0_values(lat, delta_invariant(lat)),
                 lambda: classify(lat, delta_invariant(lat)),
                 lambda: discriminant_test(lat, delta_invariant(lat)),
                 lambda: torelli_verdict(lat, semistable),
                 lambda: steiner_tensor(lat)):
        with pytest.raises(ValueError, match="arrangement is not essential"):
            call()


@st.composite
def arrangements_of_any_rank(draw):
    """n 1..4 and m 1..n+4, the rows drawn from a random span of rank <= n+1."""
    n = draw(st.integers(1, 4))
    r = draw(st.one_of(st.just(n + 1), st.integers(1, n)))
    coeffs = st.integers(-3, 3)
    basis = draw(st.lists(st.lists(coeffs, min_size=n + 1, max_size=n + 1),
                          min_size=r, max_size=r))
    m = draw(st.integers(1, n + 4))
    mults = draw(st.lists(st.lists(coeffs, min_size=r, max_size=r),
                          min_size=m, max_size=m))
    rows = ([sum(c * b[t] for c, b in zip(ms, basis)) for t in range(n + 1)]
            for ms in mults)
    # proportional rows are one hyperplane: keep one of each
    forms = tuple(dict.fromkeys(canonical_form(row) for row in rows if any(row)))
    assume(forms)
    return Arrangement(n, forms)


@given(arrangements_of_any_rank())
@settings(max_examples=150, deadline=None)
def test_steiner_availability_matches_rank_and_tensor(a):
    lat = build_lattice(a)
    assert lat.essential == (fraction_rank(a.forms) == a.n + 1)
    try:
        t = steiner_tensor(lat)
    except ValueError:
        t = None
    assert (steiner_unavailable(lat) is None) == (t is not None)
    if t is not None:   # rank n + 1 leaves m - n - 1 relations
        assert len(t.u_basis) == a.m - a.n - 1


def test_locally_free_flags():
    # plane arrangements are always locally free
    assert _chern(fixture("a3_braid")).locally_free is LocallyFree.YES
    # generic in higher dimension: free of worry too
    g = parse_arrangement(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                              [0, 0, 0, 1], [1, 1, 1, 1]])
    assert _chern(g).locally_free is LocallyFree.YES
    # deeper-only degeneracy in P^3 rules local freeness out
    d = parse_arrangement(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                              [1, 1, 1, 0], [0, 0, 0, 1]])
    assert _chern(d).locally_free is LocallyFree.NO
    # codimension-2 degeneracy leaves the question open
    u = parse_arrangement(3, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0],
                              [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert _chern(u).locally_free is LocallyFree.UNKNOWN


@pytest.mark.parametrize("name", sorted(POINCARE_TABLE))
def test_delta_invariant_table(name):
    _, _, delta = POINCARE_TABLE[name]
    assert delta_invariant(build_lattice(fixture(name))) == delta


def test_delta_per_point():
    lat = build_lattice(fixture("m6_four_concurrent"))
    contributions = {r.indices: r.torsion_length for r in local_data(lat)}
    assert contributions[(1, 2, 3, 4)] == 3
    assert all(d == 0 for labels, d in contributions.items() if len(labels) == 2)
    assert sum(contributions.values()) == delta_invariant(lat)


def test_local_data_values():
    recs = {r.indices: r for r in local_data(build_lattice(fixture("a3_braid")))}
    triple = recs[(1, 2, 4)]
    assert (triple.milnor, triple.delta_local, triple.branches,
            triple.torsion_length) == (4, 3, 3, 1)
    double = recs[(1, 3)]
    assert (double.milnor, double.delta_local, double.branches,
            double.torsion_length) == (1, 1, 2, 0)


def test_local_data_rejects_wrong_dimension():
    g = parse_arrangement(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                              [0, 0, 0, 1], [1, 1, 1, 1]])
    with pytest.raises(ValueError):
        local_data(build_lattice(g))


@pytest.mark.parametrize("name", [n for n in fixture_names() if n != "boolean_n2"])
def test_h0_gap_equals_delta(name):
    lat = build_lattice(fixture(name))
    h0_steiner, h0_log = h0_values(lat, delta_invariant(lat))
    assert h0_steiner == lat.m - 1
    assert h0_log - h0_steiner == delta_invariant(lat)


def test_h0_values_a3():
    lat = build_lattice(fixture("a3_braid"))
    assert h0_values(lat, delta_invariant(lat)) == (5, 9)


def _lines_through_points(rng):
    """Up to 5 random lines, plus 2..4 lines through each of 1..3 random points."""
    def vec():
        return [rng.randint(-3, 3) for _ in range(3)]

    def through(p, q):      # the line through p and q, by the cross product
        return [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
                p[0] * q[1] - p[1] * q[0]]

    rows = [vec() for _ in range(rng.randint(0, 5))]
    for _ in range(rng.randint(1, 3)):
        point = vec()
        rows += [through(point, vec()) for _ in range(rng.randint(2, 4))]
    return Arrangement(2, tuple(dict.fromkeys(canonical_form(r) for r in rows if any(r))))


def _seeded_line_lattices(count, seed=34):
    """Lattices of `count` seeded line arrangements that have a Steiner sheaf."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        a = _lines_through_points(rng)
        if a.m and steiner_unavailable(lat := build_lattice(a)) is None:
            out.append(lat)
    return out


def test_closed_forms_match_the_points_of_the_closure_oracle():
    """c2, h0 and the discriminant, read off delta and the Poincare
    polynomial, equal their sums over the points, taken from the rank-2
    flats of `oracles.flats_by_closure`."""
    inputs = ([build_lattice(fixture(name)) for name in fixture_names()]
              + _seeded_line_lattices(200))
    checked = with_concurrences = 0
    for lat in inputs:
        a = lat.arrangement
        m, delta = a.m, delta_invariant(lat)
        if steiner_unavailable(lat) is not None:
            for call in (lambda: chern(lat, poincare(lat)), lambda: h0_values(lat, delta),
                         lambda: discriminant_test(lat, delta)):
                with pytest.raises(ValueError):
                    call()
            continue
        points = [labels for labels, rank in flats_by_closure(a) if rank == 2]
        s_sum = sum(len(labels) - 1 for labels in points)
        assert chern(lat, poincare(lat)).n2_c2 == s_sum - 2 * m + 3
        assert h0_values(lat, delta) == (m - 1, m - 1 - s_sum + comb(m, 2))
        assert discriminant_test(lat, delta)[0] == 4 * s_sum - (m - 1) * (m + 3)
        checked += 1
        with_concurrences += any(len(labels) > 2 for labels in points)
    assert checked == len(inputs) - 1     # boolean_n2 has no Steiner sheaf
    assert with_concurrences >= 150
