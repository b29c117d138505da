"""Stability classification: combinatorial, numeric, and subspace tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from arrinv.arrangement import (Arrangement, InvalidArrangement, canonical_form,
                               parse_arrangement)
from arrinv.fixtures import fixture, fixture_names
from arrinv.invariants import delta_invariant, steiner_unavailable
from arrinv.lattice import build_lattice
from arrinv.report import delta_bound_check
from arrinv.stability import (Status, WitnessKind, classify,
                              combinatorial_destabilizer, discriminant_test,
                              free_splitting_stability, git_ratio_test)
from arrinv.steiner import steiner_tensor
from oracles import git_intersection_by_stacking

EXPECTED_STATUS = {
    "a3_braid": Status.UNSTABLE,
    "generic5": Status.STABLE,
    "generic6_on_conic": Status.STABLE,
    "generic6_off_conic": Status.STABLE,
    "m5_one_triple": Status.NOT_STABLE,
    "m5_two_triples": Status.NOT_STABLE,
    "m6_one_triple": Status.STABLE,
    "m6_four_concurrent": Status.UNSTABLE,
    "m6_two_triples_F1": Status.UNDETERMINED,
    "m6_two_triples_F2": Status.UNDETERMINED,
    "m6_three_triples": Status.UNDETERMINED,
}


def classified(name):
    a = fixture(name)
    lat = build_lattice(a)
    return classify(lat, delta_invariant(lat))


@pytest.mark.parametrize("name", sorted(EXPECTED_STATUS))
def test_fixture_status(name):
    assert classified(name).status is EXPECTED_STATUS[name]


def test_four_concurrent_flat_ratio_witness():
    v = classified("m6_four_concurrent")
    w = v.witnesses[0]
    assert w.kind is WitnessKind.FLAT_RATIO
    assert (w.lhs, w.rhs, w.strict) == (Fraction(4), Fraction(7, 2), True)
    assert w.flat_indices == (1, 2, 3, 4)


def test_one_triple_equality_witness():
    v = classified("m5_one_triple")
    w = v.witnesses[0]
    assert w.kind is WitnessKind.FLAT_RATIO
    assert (w.lhs, w.rhs, w.strict) == (Fraction(3), Fraction(3), False)
    assert w.flat_indices == (1, 2, 3)


def test_a3_discriminant_witness():
    v = classified("a3_braid")
    w = v.witnesses[0]
    assert w.kind is WitnessKind.DISCRIMINANT
    assert w.lhs == Fraction(-1)
    assert w.strict


@pytest.mark.parametrize("name", ["generic5", "generic6_on_conic",
                                  "generic6_off_conic"])
def test_generic_fixtures_have_no_combinatorial_witness(name):
    assert combinatorial_destabilizer(build_lattice(fixture(name))) is None


def test_combinatorial_destabilizer_values():
    strict = combinatorial_destabilizer(build_lattice(fixture("m6_four_concurrent")))
    assert strict is not None and strict.strict
    equality = combinatorial_destabilizer(build_lattice(fixture("m5_two_triples")))
    assert equality is not None and not equality.strict
    assert equality.flat_indices == (1, 2, 3)


def test_discriminant_values():
    lat = build_lattice(fixture("a3_braid"))
    value, witness = discriminant_test(lat, delta_invariant(lat))
    assert value == -1 and witness is not None
    lat = build_lattice(fixture("generic6_off_conic"))
    value, witness = discriminant_test(lat, delta_invariant(lat))
    assert value == 15 and witness is None
    lat = build_lattice(fixture("m5_two_triples"))
    value, witness = discriminant_test(lat, delta_invariant(lat))
    assert value == 0 and witness is None


def _check_discriminant_identity(lat):
    """The discriminant 4 sum(s-1) - (m-1)(m+3) is (m-1)(m-3) - 4 delta.

    That is the pair-count identity. So the discriminant is >= 0 exactly
    when delta meets the quarter bound (m-1)(m-3)/4, and every STABLE or
    NOT_STABLE verdict on P^2 passes the discriminant first: the
    `delta_bound` oracle's quarter check cannot fail.
    """
    m, delta = lat.m, delta_invariant(lat)
    value, _ = discriminant_test(lat, delta)
    s_sum = sum(f.s - 1 for f in lat.flats_of_rank(2))
    assert value == 4 * s_sum - (m - 1) * (m + 3) == (m - 1) * (m - 3) - 4 * delta
    verdict = classify(lat, delta)
    if verdict.status in (Status.STABLE, Status.NOT_STABLE):
        assert delta_bound_check(m, delta, verdict)["quarter_holds"]


@pytest.mark.parametrize("name", sorted(EXPECTED_STATUS))
def test_discriminant_is_the_quarter_bound_slack(name):
    _check_discriminant_identity(build_lattice(fixture(name)))


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


@st.composite
def line_arrangements_with_concurrences(draw):
    """Essential line arrangements with up to 3 points forced onto 2..4 lines each."""
    vec = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
    rows = draw(st.lists(vec, max_size=5))
    for point in draw(st.lists(vec, max_size=3)):
        rows += [_cross(point, q) for q in draw(st.lists(vec, min_size=2, max_size=4))]
    forms = tuple(dict.fromkeys(canonical_form(r) for r in rows if any(r)))
    assume(forms)
    lat = build_lattice(Arrangement(2, forms))
    assume(steiner_unavailable(lat) is None)
    return lat


@given(line_arrangements_with_concurrences())
@settings(max_examples=150, deadline=None)
def test_discriminant_is_the_quarter_bound_slack_with_concurrences(lat):
    _check_discriminant_identity(lat)


def test_git_cross_validates_strict_combinatorial_witness():
    """Wherever the counting bound fires strictly, the subspace test must
    reproduce the same rational ratio comparison."""
    for name in fixture_names():
        a = fixture(name)
        if a.m < a.n + 2:
            continue
        lat = build_lattice(a)
        witness = combinatorial_destabilizer(lat)
        if witness is None or not witness.strict:
            continue
        t = steiner_tensor(lat)
        flat = next(f for f in lat.flats if f.indices == witness.flat_indices)
        res = git_ratio_test(t, flat)
        s, r = flat.s, flat.rank
        assert res.lhs == Fraction(s - r, s - 1)
        assert res.rhs == Fraction(a.m - 1 - a.n, a.m - 1)
        assert res.lhs > res.rhs


def test_git_dimension_law_on_heavy_flats():
    """dim(E cap W' tensor V*) = s - r for the subspace induced by a flat."""
    for name in ("a3_braid", "m5_two_triples", "m6_four_concurrent",
                 "m6_three_triples"):
        a = fixture(name)
        lat = build_lattice(a)
        t = steiner_tensor(lat)
        for f in lat.flats_of_rank(2):
            if f.s < 3:
                continue
            assert git_ratio_test(t, f).dim_intersection == f.s - 2


def seeded_steiner_lattices(count, seed=38):
    """Lattices of `count` seeded arrangements in P^2 to P^4 with a Steiner
    sheaf: m up to n + 6 forms with entries in [-1, 1]."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        n = rng.randint(2, 4)
        rows = [[rng.randint(-1, 1) for _ in range(n + 1)]
                for _ in range(rng.randint(n + 2, n + 6))]
        try:
            lat = build_lattice(parse_arrangement(n, rows))
        except InvalidArrangement:   # a zero row, or two rows with the same form
            continue
        if steiner_unavailable(lat) is None:
            out.append(lat)
    return out


def test_git_dimension_law_and_threshold_at_every_n():
    """On every flat of rank r on 2 <= s < m hyperplanes, dim(E cap W'
    tensor V*) = s - r, so the test destabilizes exactly when the flat
    exceeds the threshold (m-1)(r-1)/n + 1."""
    seen = set()
    for i, lat in enumerate(seeded_steiner_lattices(35)):
        m, n = lat.m, lat.n
        t = steiner_tensor(lat)
        for f in lat.flats:
            if not 2 <= f.s < m:
                continue
            res = git_ratio_test(t, f)
            assert res.dim_intersection == f.s - f.rank
            # on all 35 lattices the stacking oracle's Fraction eliminations
            # take several times the rest of the test; the first 9 lattices
            # hold n = 2, 3 and 4 and m = 5 to 10
            if i < 9:
                assert res.dim_intersection == git_intersection_by_stacking(t, f)
            destabilizing = res.lhs > res.rhs
            assert destabilizing == (f.s > Fraction((m - 1) * (f.rank - 1), n) + 1)
            seen.add((n, destabilizing))
    assert seen == {(n, d) for n in (2, 3, 4) for d in (False, True)}


def test_git_triple_in_a3_is_not_destabilizing():
    a = fixture("a3_braid")
    lat = build_lattice(a)
    t = steiner_tensor(lat)
    triple = next(f for f in lat.flats_of_rank(2) if f.s == 3)
    res = git_ratio_test(t, triple)
    assert res.lhs == Fraction(1, 2)
    assert res.rhs == Fraction(3, 5)


@pytest.mark.parametrize("tensor_of, flat_of, labels", [
    ("a3_braid", "a3_braid", (1,)),
    ("m6_one_triple", "m6_three_triples", (1, 4, 5)),
], ids=["rank_one_flat", "flat_of_another_lattice"])
def test_git_takes_a_flat_of_its_lattice_on_two_hyperplanes(tensor_of, flat_of, labels):
    t = steiner_tensor(build_lattice(fixture(tensor_of)))
    flat = next(f for f in build_lattice(fixture(flat_of)).flats if f.indices == labels)
    assert flat.s < 2 or labels not in {f.indices for f in t.lattice.flats}
    with pytest.raises(ValueError, match="^flat must be a flat of the tensor's lattice"):
        git_ratio_test(t, flat)


def test_free_splitting_cases():
    assert free_splitting_stability((2,)).status is Status.STABLE
    assert free_splitting_stability((1, 1, 1)).status is Status.NOT_STABLE
    unstable = free_splitting_stability((1, 3))
    assert unstable.status is Status.UNSTABLE
    assert unstable.witnesses[0].kind is WitnessKind.SPLITTING
    with pytest.raises(ValueError):
        free_splitting_stability(())


def test_rules_trail_mentions_decisive_rule():
    """Only the two cited theorems give `stable`, and each one's name ends
    the rule trail, so a reader who trusts neither reads `stable` as open
    off `rules_applied`: the numeric tests never decide stability. Checked
    on the fixtures and on seeded draws at n = 2..4."""
    v = classified("m6_one_triple")
    assert any("delta = 1" in r for r in v.rules)
    v = classified("generic6_off_conic")
    assert any("generic" in r for r in v.rules)
    lattices = [build_lattice(fixture(name)) for name in fixture_names()]
    lattices = [lat for lat in lattices if steiner_unavailable(lat) is None]
    cited = set()
    for lat in lattices + seeded_steiner_lattices(150):
        v = classify(lat, delta_invariant(lat) if lat.n == 2 else None)
        if v.status is Status.STABLE:
            theorem = v.rules[-1].rsplit(" ", 1)[-1]
            assert theorem in ("(Bohnhorst-Spindler)", "(Schenck)"), v.rules
            cited.add((lat.n, theorem))
    assert cited >= {(2, "(Schenck)")} | {(n, "(Bohnhorst-Spindler)") for n in (2, 3, 4)}


def test_n3_strict_combinatorial_instability():
    a = parse_arrangement(3, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0],
                              [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    lat = build_lattice(a)
    v = classify(lat, None)
    assert v.status is Status.UNSTABLE
    w = v.witnesses[0]
    assert w.flat_indices == (1, 2, 3, 4)
    assert w.lhs == Fraction(4) and w.rhs == Fraction(8, 3)


def test_classify_rejects_small_arrangements():
    lat = build_lattice(fixture("boolean_n2"))
    with pytest.raises(ValueError):
        classify(lat, delta_invariant(lat))
