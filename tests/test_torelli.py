"""Tests for the dual point configuration analysis and Torelli classification.

Conic and rational normal curve verdicts are checked against hand-worked
dual configurations; the classification cascade is checked fixture by
fixture against independently derived expectations.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from arrinv.arrangement import InvalidArrangement, parse_arrangement
from arrinv.fixtures import fixture, fixture_names
from arrinv.lattice import build_lattice
from arrinv.stability import classify
from arrinv.torelli import (
    ConicClass,
    DualConfiguration,
    RncVerdict,
    TorelliStatus,
    conic_test,
    dual_points,
    rnc_test,
    _genericity,
    torelli_verdict,
)
from oracles import dependent_subsets_by_minors


def verdict_for(name, **kwargs):
    a = fixture(name)
    lat = build_lattice(a)
    stab = classify(a, lat)
    return torelli_verdict(a, lat, stab, **kwargs)


def twisted_cubic_rows(ts):
    return [[1, t, t * t, t ** 3] for t in ts]


class TestDualPoints:
    def test_dual_points_are_the_normal_vectors(self):
        a = fixture("a3_braid")
        cfg = dual_points(a)
        assert cfg.n == 2
        assert cfg.points == tuple(f.coeffs for f in a.forms)

    def test_subset_picks_one_based_labels(self):
        cfg = DualConfiguration(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        assert cfg.subset((1, 3, 4)).points == ((1, 0, 0), (0, 0, 1), (1, 1, 1))


CONIC_TABLE = {
    # name -> (kernel_dim, classification, all_points_nonsingular, vertex)
    "generic5": (1, ConicClass.NONSINGULAR, True, None),
    "generic6_on_conic": (1, ConicClass.NONSINGULAR, True, None),
    "generic6_off_conic": (0, None, False, None),
    "m5_one_triple": (1, ConicClass.TWO_DISTINCT_LINES, True, (1, 2, 0)),
    "m5_two_triples": (1, ConicClass.TWO_DISTINCT_LINES, False, (1, 0, 0)),
    "m6_one_triple": (0, None, False, None),
    "m6_four_concurrent": (1, ConicClass.TWO_DISTINCT_LINES, True, None),
    "m6_two_triples_F1": (0, None, False, None),
    "m6_two_triples_F2": (1, ConicClass.TWO_DISTINCT_LINES, True, (2, -1, 0)),
    "m6_three_triples": (0, None, False, None),
}


class TestConic:
    @pytest.mark.parametrize("name", sorted(set(CONIC_TABLE) - {"m6_four_concurrent"}))
    def test_fixture_conics(self, name):
        kdim, cls, nonsing, vertex = CONIC_TABLE[name]
        res = conic_test(dual_points(fixture(name)))
        assert res.kernel_dim == kdim
        assert res.classification is cls
        assert res.all_points_nonsingular == nonsing
        if vertex is not None:
            assert res.vertex == vertex

    def test_four_concurrent_lines_give_a_singular_pencil_member(self):
        # four collinear dual points force every conic through all six
        # points to contain that line, so no member is nonsingular
        res = conic_test(dual_points(fixture("m6_four_concurrent")))
        assert res.kernel_dim == 1
        assert res.classification is ConicClass.TWO_DISTINCT_LINES

    def test_unique_conic_through_five_generic_points(self):
        # 3xy - 4xz + yz vanishes on all five dual points of generic5
        res = conic_test(dual_points(fixture("generic5")))
        assert res.conic == (0, 3, -4, 0, 1, 0)

    def test_conic_through_six_veronese_points_is_the_veronese_conic(self):
        # the points (1, t, t^2) all satisfy xz = y^2
        res = conic_test(dual_points(fixture("generic6_on_conic")))
        assert res.conic == (0, 0, 1, -1, 0, 0)

    def test_two_lines_conic_factor_check(self):
        # m5_one_triple: conic 2xz - yz = z(2x - y), vertex where both
        # lines meet, away from all five dual points
        res = conic_test(dual_points(fixture("m5_one_triple")))
        assert res.conic == (0, 0, 2, 0, -1, 0)
        assert res.vertex == (1, 2, 0)
        assert res.vertex not in dual_points(fixture("m5_one_triple")).points

    def test_shared_point_of_two_triples_is_the_vertex(self):
        # m5_two_triples: label 1 sits on both concurrent triples, so the
        # reducible conic yz has its vertex (1,0,0) at that dual point
        cfg = dual_points(fixture("m5_two_triples"))
        res = conic_test(cfg)
        assert res.conic == (0, 0, 0, 0, 1, 0)
        assert res.vertex == (1, 0, 0)
        assert res.vertex == cfg.points[0]
        assert not res.all_points_nonsingular

    def test_three_points_leave_a_large_family_with_smooth_members(self):
        res = conic_test(dual_points(fixture("boolean_n2")))
        assert res.kernel_dim == 3
        assert res.classification is None
        assert res.all_points_nonsingular

    def test_pencil_through_four_general_points_has_smooth_members(self):
        cfg = DualConfiguration(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        res = conic_test(cfg)
        assert res.kernel_dim == 2
        assert res.all_points_nonsingular

    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=6,
                    max_size=6, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_six_veronese_points_always_lie_on_a_conic(self, ts):
        cfg = DualConfiguration(2, tuple((1, t, t * t) for t in ts))
        res = conic_test(cfg)
        assert res.kernel_dim >= 1
        assert res.all_points_nonsingular


class TestRnc:
    def test_veronese_conic_points_lie_on_a_smooth_conic(self):
        res = rnc_test(dual_points(fixture("generic6_on_conic")))
        assert res.verdict is RncVerdict.ON_SMOOTH_RNC

    def test_generic_six_points_avoid_every_smooth_conic(self):
        res = rnc_test(dual_points(fixture("generic6_off_conic")))
        assert res.verdict is RncVerdict.NOT_ON_SMOOTH_RNC

    def test_collinear_triple_blocks_a_smooth_conic(self):
        # a line meets a smooth conic in at most two points
        res = rnc_test(dual_points(fixture("m5_one_triple")))
        assert res.verdict is RncVerdict.NOT_ON_SMOOTH_RNC

    @pytest.mark.parametrize("name", ["m6_one_triple", "m6_two_triples_F1",
                                      "m6_two_triples_F2", "m6_three_triples"])
    def test_rnc_agrees_with_conic_test_on_six_points(self, name):
        # for six plane points: on a smooth conic iff the conic space is
        # one dimensional with a nonsingular generator
        cfg = dual_points(fixture(name))
        conic = conic_test(cfg)
        rnc = rnc_test(cfg)
        smooth = (conic.kernel_dim == 1
                  and conic.classification is ConicClass.NONSINGULAR)
        assert (rnc.verdict is RncVerdict.ON_SMOOTH_RNC) == smooth

    def test_twisted_cubic_points_are_on_a_smooth_rnc(self):
        a = parse_arrangement(3, twisted_cubic_rows((0, 1, 2, 3, -1, -2, 5)))
        res = rnc_test(dual_points(a))
        assert res.verdict is RncVerdict.ON_SMOOTH_RNC
        assert res.frame is not None
        assert res.direction is not None
        assert len(set(res.direction)) == len(res.direction)

    def test_perturbed_twisted_cubic_points_leave_the_curve(self):
        rows = twisted_cubic_rows((0, 1, 2, 3, -1, -2, 5))
        rows[3][2] += 1
        a = parse_arrangement(3, rows)
        res = rnc_test(dual_points(a))
        assert res.verdict is RncVerdict.NOT_ON_SMOOTH_RNC

    def test_random_twisted_cubic_samples_and_perturbations(self):
        rng = random.Random(2024)
        for _ in range(10):
            ts = rng.sample(range(-20, 21), 7)
            rows = twisted_cubic_rows(ts)
            a = parse_arrangement(3, rows)
            assert rnc_test(dual_points(a)).verdict is RncVerdict.ON_SMOOTH_RNC
            rows[rng.randrange(7)][rng.randrange(1, 4)] += 1
            a2 = parse_arrangement(3, rows)
            assert rnc_test(dual_points(a2)).verdict is RncVerdict.NOT_ON_SMOOTH_RNC

    def test_few_points_in_general_position_are_trivially_on_a_curve(self):
        a = parse_arrangement(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        assert rnc_test(dual_points(a)).verdict is RncVerdict.ON_SMOOTH_RNC

    def test_few_degenerate_points_are_flagged(self):
        cfg = DualConfiguration(2, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
        assert rnc_test(cfg).verdict is RncVerdict.DEGENERATE_CONFIGURATION

    def test_fully_collinear_points_cannot_be_on_a_smooth_curve(self):
        cfg = DualConfiguration(
            2, ((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0)))
        assert rnc_test(cfg).verdict is RncVerdict.NOT_ON_SMOOTH_RNC


TORELLI_TABLE = {
    # name -> (status, rule)
    "a3_braid": (TorelliStatus.UNKNOWN, "unstable input outside the analyzed range"),
    "generic5": (TorelliStatus.NOT_TORELLI_PROVED, "five-line-case"),
    "generic6_off_conic": (TorelliStatus.TORELLI_PROVED, "generic-subset-off-curve"),
    "generic6_on_conic": (TorelliStatus.NOT_TORELLI_PROVED, "six-line-conic-case"),
    "m5_one_triple": (TorelliStatus.NOT_TORELLI_PROVED, "five-line-case"),
    "m5_two_triples": (TorelliStatus.NOT_TORELLI_PROVED, "five-line-case"),
    "m6_four_concurrent": (TorelliStatus.UNKNOWN,
                           "unstable input outside the analyzed range"),
    "m6_one_triple": (TorelliStatus.TORELLI_PROVED, "six-line-conic-case"),
    "m6_three_triples": (TorelliStatus.TORELLI_PROVED, "six-line-conic-case"),
    "m6_two_triples_F1": (TorelliStatus.TORELLI_PROVED, "six-line-conic-case"),
    "m6_two_triples_F2": (TorelliStatus.NOT_TORELLI_PROVED, "six-line-conic-case"),
}


class TestTorelliVerdict:
    @pytest.mark.parametrize("name", sorted(TORELLI_TABLE))
    def test_fixture_verdicts(self, name):
        status, rule = TORELLI_TABLE[name]
        v = verdict_for(name)
        assert v.status is status
        assert v.rule == rule

    def test_generic_six_lines_witnessed_by_the_full_subset(self):
        v = verdict_for("generic6_off_conic")
        assert v.witness_subset == (1, 2, 3, 4, 5, 6)
        assert not v.subset_cap_exceeded

    def test_five_line_verdicts_carry_conic_evidence(self):
        assert verdict_for("generic5").conic.classification is ConicClass.NONSINGULAR
        assert (verdict_for("m5_one_triple").conic.classification
                is ConicClass.TWO_DISTINCT_LINES)

    def test_six_line_conic_rule_fires_even_for_vertex_free_two_lines(self):
        # F2's six dual points lie on a reducible conic whose vertex avoids
        # them, yet the conic rule still withholds a proof
        v = verdict_for("m6_two_triples_F2")
        assert v.status is TorelliStatus.NOT_TORELLI_PROVED
        assert v.conic.classification is ConicClass.TWO_DISTINCT_LINES
        assert v.conic.all_points_nonsingular

    def test_subset_cap_falls_back_to_later_rules(self):
        v = verdict_for("generic6_off_conic", max_subsets=0)
        assert v.subset_cap_exceeded
        assert v.status is TorelliStatus.TORELLI_PROVED
        assert v.rule == "six-line-conic-case"

    def test_planes_dual_to_twisted_cubic_points(self):
        a = parse_arrangement(3, twisted_cubic_rows((0, 1, 2, 3, -1, -2, 5)))
        lat = build_lattice(a)
        stab = classify(a, lat)
        v = torelli_verdict(a, lat, stab)
        assert v.status is TorelliStatus.NOT_TORELLI_CONJECTURED
        assert v.rule == "on-stable-curve"
        assert v.rnc is not None
        assert v.rnc.verdict is RncVerdict.ON_SMOOTH_RNC

    def test_perturbed_cubic_planes_get_a_proof(self):
        rows = twisted_cubic_rows((0, 1, 2, 3, -1, -2, 5))
        rows[3][2] += 1
        a = parse_arrangement(3, rows)
        lat = build_lattice(a)
        v = torelli_verdict(a, lat, classify(a, lat))
        assert v.status is TorelliStatus.TORELLI_PROVED
        assert v.rule == "generic-subset-off-curve"
        assert v.witness_subset == (1, 2, 3, 4, 5, 6, 7)

    def test_capped_perturbed_cubic_falls_to_the_default_conjecture(self):
        rows = twisted_cubic_rows((0, 1, 2, 3, -1, -2, 5))
        rows[3][2] += 1
        a = parse_arrangement(3, rows)
        lat = build_lattice(a)
        v = torelli_verdict(a, lat, classify(a, lat), max_subsets=0)
        assert v.subset_cap_exceeded
        assert v.status is TorelliStatus.TORELLI_CONJECTURED
        assert v.rule == "default-conjecture"

    def test_trace_records_the_rules_tried(self):
        v = verdict_for("generic6_on_conic")
        assert any("conic" in line for line in v.trace)

    def test_lattice_of_another_arrangement_is_refused(self):
        a = fixture("generic6_off_conic")
        other = build_lattice(fixture("generic6_on_conic"))
        with pytest.raises(ValueError):
            torelli_verdict(a, other, classify(a, build_lattice(a)))


# Lines 1, 2, 3 meet in a point and so do lines 1, 5, 7: the first six
# 6-subsets of the scan each contain one of these triples, and the seventh,
# (2, 3, 4, 5, 6, 7), is generic with dual points on no conic.
SKIPS_BEFORE_WITNESS = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 1, 4],
                        [-4, 3, -1], [-4, -2, -3], [1, 3, -1]]
WITNESS_INDEX = 7


class TestRule1Cap:
    def _verdict(self, max_subsets):
        a = parse_arrangement(2, SKIPS_BEFORE_WITNESS)
        lat = build_lattice(a)
        return torelli_verdict(a, lat, classify(a, lat), max_subsets=max_subsets)

    def test_skipped_subsets_precede_the_witness(self):
        a = parse_arrangement(2, SKIPS_BEFORE_WITNESS)
        dependent = dependent_subsets_by_minors(a)
        scan = list(combinations(range(1, 8), 6))
        assert scan[WITNESS_INDEX - 1] == (2, 3, 4, 5, 6, 7)
        for subset in scan[:WITNESS_INDEX - 1]:
            assert any(t in dependent for t in combinations(subset, 3))
        v = self._verdict(20000)
        assert v.witness_subset == (2, 3, 4, 5, 6, 7)
        assert not v.subset_cap_exceeded

    def test_skipped_subsets_count_toward_the_cap(self):
        v = self._verdict(WITNESS_INDEX - 1)
        assert v.subset_cap_exceeded
        assert v.witness_subset is None
        assert v.rule != "generic-subset-off-curve"
        assert v.trace[0].endswith("(subset cap hit)")

    def test_cap_at_the_witness_index_finds_it(self):
        v = self._verdict(WITNESS_INDEX)
        assert not v.subset_cap_exceeded
        assert v.status is TorelliStatus.TORELLI_PROVED
        assert v.witness_subset == (2, 3, 4, 5, 6, 7)


@st.composite
def concurrent_arrangements(draw):
    """Random n = 2 or 3 arrangements, some forms combinations of earlier ones."""
    n = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(n + 2, 7))
    rows: list[list[int]] = []
    for i in range(m):
        if i >= 2 and draw(st.booleans()):
            k = draw(st.integers(2, min(i, n)))
            picks = draw(st.lists(st.integers(0, i - 1), min_size=k, max_size=k,
                                  unique=True))
            mults = draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=k,
                                  max_size=k))
            rows.append([sum(c * rows[j][t] for c, j in zip(mults, picks))
                         for t in range(n + 1)])
        else:
            rows.append(draw(st.lists(st.integers(-3, 3), min_size=n + 1,
                                      max_size=n + 1)))
    try:
        return parse_arrangement(n, rows)
    except InvalidArrangement:
        assume(False)


@given(concurrent_arrangements())
@settings(max_examples=60, deadline=None)
def test_lattice_genericity_matches_minors(a):
    dependent = dependent_subsets_by_minors(a)
    is_generic = _genericity(build_lattice(a))
    for size in range(a.n + 1, a.m + 1):
        for subset in combinations(range(1, a.m + 1), size):
            by_minors = not any(t in dependent
                                for t in combinations(subset, a.n + 1))
            assert is_generic(subset) == by_minors, subset
