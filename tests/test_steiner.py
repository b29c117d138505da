"""Defining tensor, dual configuration, dependency bijection."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import arrinv.linalg as linalg_mod
import arrinv.steiner as steiner_mod
from arrinv.arrangement import InvalidArrangement, canonical_form, parse_arrangement
from arrinv.ffcount import basis_minors
from arrinv.fixtures import fixture, fixture_names
from arrinv.lattice import build_lattice
from arrinv.linalg import bareiss, kernel_basis
from arrinv.report import DEFAULT_PRIMES, Analysis, build_report
from arrinv.stability import git_ratio_test
from arrinv.steiner import (GaleUndefined, dual_columns, gale_dual, gale_unavailable,
                            steiner_tensor, verify_gale_bijection)
from arrinv.torelli import DEFAULT_MAX_SUBSETS
from oracles import (dependent_subsets_by_minors, dual_dependent_sets, fraction_rank,
                     slice_at_point)

TENSOR_FIXTURES = [n for n in fixture_names() if n != "boolean_n2"]


def gale_check(t):
    """The Gale check of a tensor, with the basis gcds of its arrangement."""
    return verify_gale_bijection(t, basis_minors(t.lattice.arrangement))


@pytest.mark.parametrize("name", TENSOR_FIXTURES)
def test_u_basis_spans_the_relation_space(name):
    a = fixture(name)
    t = steiner_tensor(build_lattice(a))
    assert len(t.u_basis) == a.m - a.n - 1
    assert bareiss(t.u_basis)[0] == a.m - a.n - 1
    for rel in t.u_basis:
        assert all(sum(c * f[k] for c, f in zip(rel, a.forms)) == 0
                   for k in range(a.n + 1))


def test_boolean_plus_one_relation():
    a = parse_arrangement(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    t = steiner_tensor(build_lattice(a))
    assert t.u_basis == ((Fraction(-1), Fraction(-1), Fraction(-1),
                          Fraction(1)),)


@pytest.mark.parametrize("name", ["a3_braid", "generic5", "m6_three_triples"])
def test_slice_entries_follow_definition(name):
    a = fixture(name)
    t = steiner_tensor(build_lattice(a))
    for k in range(a.n + 1):
        for j in range(a.m - a.n - 1):
            for r in range(a.m - 1):
                expected = t.u_basis[j][r] * a.forms[r][k]
                assert t.slices[k][r][j] == expected


@pytest.mark.parametrize("name", fixture_names())
def test_a_report_builds_no_slices(name):
    # neither a report nor the GIT test, which reads the relation basis rows,
    # builds the slices view
    an = Analysis(fixture(name), DEFAULT_PRIMES, DEFAULT_MAX_SUBSETS)
    an.report()
    t = an.tensor
    if t is not None:
        for f in an.lattice.flats:
            if 2 <= f.s < t.m:
                git_ratio_test(t, f)
    assert t is None or "slices" not in t.__dict__


def test_tensor_shapes():
    t = steiner_tensor(build_lattice(fixture("a3_braid")))
    assert len(t.slices) == 3
    for s in t.slices:
        assert (len(s), len(s[0])) == (5, 3)
        assert all(len(row) == 3 for row in s)


def _point_of_rank2_flat(a, flat):
    point = kernel_basis([a.forms[i - 1] for i in flat.indices])
    assert len(point) == 1
    return point[0]


@pytest.mark.parametrize("name", TENSOR_FIXTURES)
def test_slice_rank_drop_equals_excess(name):
    """Contracting at a point of a flat drops the rank by exactly s - r."""
    a = fixture(name)
    t = steiner_tensor(build_lattice(a))
    lat = build_lattice(a)
    full = a.m - 1 - a.n
    for flat in lat.flats_of_rank(2):
        q = _point_of_rank2_flat(a, flat)
        assert fraction_rank(slice_at_point(t, q)) == full - (flat.s - 2)


def test_slice_full_rank_at_generic_point():
    a = fixture("a3_braid")
    t = steiner_tensor(build_lattice(a))
    q = (1, 2, 5)  # on none of the six lines
    assert all(sum(c * x for c, x in zip(f, q)) != 0 for f in a.forms)
    assert fraction_rank(slice_at_point(t, q)) == 3


def test_dual_columns_one_per_hyperplane():
    a = fixture("generic5")
    cols = dual_columns(steiner_tensor(build_lattice(a)))
    assert len(cols) == 5
    assert all(len(c) == 2 for c in cols)


def test_gale_dual_defined_for_generic6():
    a = fixture("generic6_off_conic")
    dual = gale_dual(steiner_tensor(build_lattice(a)))
    assert dual.n == 2
    assert dual.m == 6


def test_gale_dual_undefined_when_dual_points_collide():
    with pytest.raises(GaleUndefined) as err:
        gale_dual(steiner_tensor(build_lattice(fixture("m5_one_triple"))))
    assert "collide" in str(err.value)


def test_gale_dual_needs_room():
    a = parse_arrangement(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    lat = build_lattice(a)
    reason = gale_unavailable(lat)
    assert reason == ("dual ambient space is empty or a point for m = 4, n = 2; "
                      "the construction needs m >= n + 3")
    for call in (gale_dual, gale_check):
        with pytest.raises(GaleUndefined) as err:
            call(steiner_tensor(lat))
        assert str(err.value) == reason


def test_gale_dual_needs_essential():
    # the dual points come from the tensor, which a non-essential
    # arrangement does not have
    a = parse_arrangement(2, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0],
                              [1, 3, 0], [1, 4, 0]])
    with pytest.raises(ValueError, match="essential"):
        steiner_tensor(build_lattice(a))
    assert gale_unavailable(build_lattice(a)) == "arrangement is not essential"
    gale = build_report(a)["gale"]
    assert gale == {"defined": False, "reason": "arrangement is not essential"}


def _primal_dependent(a):
    """The primal sets the Gale check reads: (n+1)-sets of rank <= n, in lexicographic order."""
    return tuple(s for s in combinations(range(1, a.m + 1), a.n + 1)
                 if fraction_rank([a.forms[i - 1] for i in s]) <= a.n)


@pytest.mark.parametrize("name", TENSOR_FIXTURES)
def test_dependent_sets_match_minor_oracle(name):
    a = fixture(name)
    primal = _primal_dependent(a)
    assert list(primal) == sorted(primal)
    assert set(primal) == dependent_subsets_by_minors(a)
    if a.m >= a.n + 3:
        assert gale_check(steiner_tensor(build_lattice(a))).primal_dependent == primal


@st.composite
def essential_lattices(draw):
    """Lattices of essential arrangements: n 1..4, m n+3..n+7, coefficients in [-2, 2]."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n + 3, n + 7))
    row = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1).filter(any)
    rows = draw(st.lists(row, min_size=m, max_size=m, unique_by=canonical_form))
    try:
        lat = build_lattice(parse_arrangement(n, rows))
    except InvalidArrangement:
        assume(False)
    assume(lat.essential)
    return lat


@given(essential_lattices())
@settings(max_examples=100, deadline=None)
def test_gale_primal_sets_are_the_dependent_minors(lat):
    rep = gale_check(steiner_tensor(lat))
    minors = dependent_subsets_by_minors(lat.arrangement)
    assert rep.primal_dependent == tuple(sorted(minors))
    assert rep.ok, (rep.missing, rep.extra)


def test_a3_dependent_triples_are_the_triple_points():
    primal = _primal_dependent(fixture("a3_braid"))
    assert primal == ((1, 2, 4), (1, 5, 6), (2, 3, 5), (3, 4, 6))


@pytest.mark.parametrize("name",
                         [n for n in fixture_names()
                          if fixture(n).m >= fixture(n).n + 3])
def test_gale_bijection_on_fixtures(name):
    a = fixture(name)
    rep = gale_check(steiner_tensor(build_lattice(a)))
    assert rep.ok, (rep.missing, rep.extra)
    labels = set(range(1, a.m + 1))
    assert set(rep.actual_dual) == {tuple(sorted(labels - set(s)))
                                    for s in rep.primal_dependent}


def test_gale_bijection_report_contents():
    rep = gale_check(steiner_tensor(build_lattice(fixture("a3_braid"))))
    assert rep.primal_dependent == ((1, 2, 4), (1, 5, 6), (2, 3, 5), (3, 4, 6))
    assert set(rep.actual_dual) == {(3, 5, 6), (2, 3, 4), (1, 4, 6), (1, 2, 5)}
    assert rep.missing == rep.extra == ()


def test_double_dual_preserves_dependencies():
    a = fixture("generic6_off_conic")
    dual = gale_dual(steiner_tensor(build_lattice(a)))
    double = gale_dual(steiner_tensor(build_lattice(dual)))
    assert double.m == a.m and double.n == a.n
    assert _primal_dependent(double) == _primal_dependent(a)
    assert (gale_check(steiner_tensor(build_lattice(double))).primal_dependent
            == gale_check(steiner_tensor(build_lattice(a))).primal_dependent)


@given(essential_lattices())
@settings(max_examples=100, deadline=None)
def test_gale_dual_sets_are_the_dual_points_dependent_sets(lat):
    # the check reads the dual sets off the forms' gcds by Gale duality; the
    # oracle ranks every (m-n-1)-set of dual points itself
    t = steiner_tensor(lat)
    rep = gale_check(t)
    assert rep.actual_dual == dual_dependent_sets(t)
    assert rep.ok, (rep.missing, rep.extra)


def test_the_gale_check_eliminates_the_dual_points_once(monkeypatch):
    """One rank of the relation basis, and no determinant or echelon form."""
    rng, rows = random.Random(2), {}
    while len(rows) < 12:
        row = [rng.randint(-2, 2) for _ in range(3)]
        if any(row):
            rows.setdefault(canonical_form(row), row)
    t = steiner_tensor(build_lattice(parse_arrangement(2, list(rows.values()))))
    minors = basis_minors(t.lattice.arrangement)
    calls = {"bareiss": 0, "det": 0, "rref": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        fn = getattr(linalg_mod, name)
        for module in (linalg_mod, steiner_mod):
            monkeypatch.setattr(module, name, spy(name, fn), raising=False)
    rep = verify_gale_bijection(t, minors)
    assert rep.ok and len(rep.actual_dual) == 22
    assert calls == {"bareiss": 1, "det": 0, "rref": 0}


def test_a_relation_basis_that_is_not_a_kernel_fails_the_check():
    # generic6 has no dependent sets on either side, so only the kernel
    # check can see that the first relation no longer annihilates the forms
    t = steiner_tensor(build_lattice(fixture("generic6_off_conic")))
    first = (-t.u_basis[0][0],) + t.u_basis[0][1:]
    t.u_basis = (first,) + t.u_basis[1:]
    rep = gale_check(t)
    assert rep.actual_dual == rep.missing == rep.extra == ()
    assert not rep.ok and not rep.kernel
