"""Tests for the dual point configuration analysis and Torelli classification.

Conic and rational normal curve verdicts are checked against hand-worked
dual configurations; the classification cascade is checked fixture by
fixture against independently derived expectations.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from arrinv.arrangement import Arrangement, InvalidArrangement, parse_arrangement
from arrinv.fixtures import fixture
from arrinv.invariants import delta_invariant
from arrinv.lattice import IntersectionLattice, build_lattice
from arrinv import torelli as torelli_mod
from arrinv.report import DEFAULT_PRIMES, Analysis, build_report
from arrinv.stability import Status, classify
from arrinv.torelli import (
    DEFAULT_MAX_SUBSETS,
    ConicClass,
    ConicResult,
    RncVerdict,
    TorelliStatus,
    conic_test,
    rnc_test,
    torelli_verdict,
)
from oracles import (conic_nonsingular_at, dependent_subsets_by_minors, fraction_det,
                     fraction_rank, rnc_by_gale, rule1_by_exhaustion, sextuple_on_conic)


def verdict_for(name, **kwargs):
    a = fixture(name)
    lat = build_lattice(a)
    stab = classify(lat, delta_invariant(lat))
    return torelli_verdict(lat, stab, **kwargs)


def twisted_cubic_rows(ts):
    return [[1, t, t * t, t ** 3] for t in ts]


class TestDualPoints:
    def test_dual_points_are_the_normal_vectors(self):
        # the rows the curve tests read are the canonical primitive forms
        a = parse_arrangement(2, [[2, 4, 0], ["1/2", 0, "1/2"], [0, -3, 6],
                                  [1, 1, 1]])
        assert a.forms == ((1, 2, 0), (1, 0, 1), (0, 1, -2), (1, 1, 1))
        assert all(type(c) is int for f in a.forms for c in f)

    def test_subset_picks_one_based_labels(self):
        # labels 1..6 lie on the conic xz = y^2, label 7 does not
        a = Arrangement(2, tuple((1, t, t * t) for t in range(6)) + ((1, 0, 1),))
        lat = build_lattice(a)
        assert rnc_test(lat, (1, 2, 3, 4, 5, 6)).verdict is RncVerdict.ON_SMOOTH_RNC
        assert rnc_test(lat, (2, 3, 4, 5, 6, 7)).verdict is RncVerdict.NOT_ON_SMOOTH_RNC
        # labels 1..7 lie on a twisted cubic, label 8 does not
        cubic = Arrangement(3, tuple(map(tuple, twisted_cubic_rows(range(7))))
                            + ((1, 0, 0, 1),))
        lat = build_lattice(cubic)
        assert (rnc_test(lat, (1, 2, 3, 4, 5, 6, 7)).verdict
                is RncVerdict.ON_SMOOTH_RNC)
        assert (rnc_test(lat, (2, 3, 4, 5, 6, 7, 8)).verdict
                is RncVerdict.NOT_ON_SMOOTH_RNC)


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
        res = conic_test(fixture(name))
        assert res.kernel_dim == kdim
        assert res.classification is cls
        assert res.all_points_nonsingular == nonsing
        if vertex is not None:
            assert res.vertex == vertex

    def test_four_concurrent_lines_give_a_singular_pencil_member(self):
        # four collinear dual points force every conic through all six
        # points to contain that line, so no member is nonsingular
        res = conic_test(fixture("m6_four_concurrent"))
        assert res.kernel_dim == 1
        assert res.classification is ConicClass.TWO_DISTINCT_LINES

    def test_unique_conic_through_five_generic_points(self):
        # 3xy - 4xz + yz vanishes on all five dual points of generic5
        res = conic_test(fixture("generic5"))
        assert res.conic == (0, 3, -4, 0, 1, 0)

    def test_conic_through_six_veronese_points_is_the_veronese_conic(self):
        # the points (1, t, t^2) all satisfy xz = y^2
        res = conic_test(fixture("generic6_on_conic"))
        assert res.conic == (0, 0, 1, -1, 0, 0)

    def test_two_lines_conic_factor_check(self):
        # m5_one_triple: conic 2xz - yz = z(2x - y), vertex where both
        # lines meet, away from all five dual points
        res = conic_test(fixture("m5_one_triple"))
        assert res.conic == (0, 0, 2, 0, -1, 0)
        assert res.vertex == (1, 2, 0)
        assert res.vertex not in fixture("m5_one_triple").forms

    def test_shared_point_of_two_triples_is_the_vertex(self):
        # m5_two_triples: label 1 sits on both concurrent triples, so the
        # reducible conic yz has its vertex (1,0,0) at that dual point
        a = fixture("m5_two_triples")
        res = conic_test(a)
        assert res.conic == (0, 0, 0, 0, 1, 0)
        assert res.vertex == (1, 0, 0)
        assert res.vertex == a.forms[0]
        assert not res.all_points_nonsingular

    def test_three_points_leave_a_large_family_with_smooth_members(self):
        res = conic_test(fixture("boolean_n2"))
        assert res.kernel_dim == 3
        assert res.classification is None
        assert res.all_points_nonsingular

    def test_pencil_through_four_general_points_has_smooth_members(self):
        a = Arrangement(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        res = conic_test(a)
        assert res.kernel_dim == 2
        assert res.all_points_nonsingular

    def test_five_collinear_points_leave_only_reducible_members(self):
        # the points (1, t, 0) lie on z = 0; a conic a x^2 + b xy + d y^2 + z(..)
        # through them has a + bt + dt^2 = 0 for five t, so a = b = d = 0:
        # the family z(alpha x + beta y + gamma z), of dimension 3. Every
        # member holds the line z = 0, so none is smooth, yet xz has its
        # vertex (0, 1, 0) off the points
        res = conic_test(parse_arrangement(2, [[1, t, 0] for t in range(5)]))
        assert res == ConicResult(3, None, None, True, None)

    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=6,
                    max_size=6, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_six_veronese_points_always_lie_on_a_conic(self, ts):
        res = conic_test(Arrangement(2, tuple((1, t, t * t) for t in ts)))
        assert res.kernel_dim >= 1
        assert res.all_points_nonsingular


@st.composite
def conic_families(draw):
    """At most four points of P^2, or k >= 2 collinear points and at most one more."""
    point = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
    if draw(st.booleans()):
        rows = draw(st.lists(point, min_size=1, max_size=4))
    else:
        # points base + t * step of one line
        base, step = draw(point), draw(point)
        ts = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=7, unique=True))
        rows = ([[b + t * d for b, d in zip(base, step)] for t in ts]
                + draw(st.lists(point, max_size=1)))
    try:
        return parse_arrangement(2, rows)
    except InvalidArrangement:   # a zero row or two rows on one point
        assume(False)


@st.composite
def single_conics(draw):
    """Five to seven points of P^2: anywhere, on the conic y^2 = xz, or on two lines."""
    m = draw(st.integers(5, 7))
    kind = draw(st.sampled_from(["any", "conic", "lines"]))
    if kind == "any":
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                             min_size=m, max_size=m))
    elif kind == "conic":
        ts = draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m, unique=True))
        rows = [[1, t, t * t] for t in ts]
    else:
        # points (1, t, 0) of z = 0 and (1, 0, t) of y = 0
        k = draw(st.integers(2, m - 2))
        ts = draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m, unique=True))
        rows = [[1, t, 0] for t in ts[:k]] + [[1, 0, t] for t in ts[k:]]
    try:
        return parse_arrangement(2, rows)
    except InvalidArrangement:
        assume(False)


@given(conic_families())
@settings(max_examples=200, deadline=None)
def test_a_family_of_conics_has_a_member_nonsingular_at_every_point(a):
    # at most four points, or k collinear and one more, impose at most four
    # conditions on conics
    res = conic_test(a)
    assert res.kernel_dim >= 2
    assert res.all_points_nonsingular
    q = conic_nonsingular_at(a.forms)
    for p in a.forms:
        grad = [sum(r * x for r, x in zip(row, p)) for row in q]
        assert sum(g * x for g, x in zip(grad, p)) == 0   # p is on the conic
        assert any(grad)                                  # and nonsingular on it


@given(single_conics())
@settings(max_examples=200, deadline=None)
def test_a_unique_conic_is_never_a_double_line(a):
    res = conic_test(a)
    if res.kernel_dim == 1:
        xx, xy, xz, yy, yz, zz = res.conic
        rank = fraction_rank([[2 * xx, xy, xz], [xy, 2 * yy, yz], [xz, yz, 2 * zz]])
        assert rank >= 2
        assert (res.classification is ConicClass.NONSINGULAR) == (rank == 3)


class TestRnc:
    def test_veronese_conic_points_lie_on_a_smooth_conic(self):
        res = rnc_test(build_lattice(fixture("generic6_on_conic")))
        assert res.verdict is RncVerdict.ON_SMOOTH_RNC

    def test_generic_six_points_avoid_every_smooth_conic(self):
        res = rnc_test(build_lattice(fixture("generic6_off_conic")))
        assert res.verdict is RncVerdict.NOT_ON_SMOOTH_RNC

    def test_collinear_triple_blocks_a_smooth_conic(self):
        # a line meets a smooth conic in at most two points, so points off
        # linear general position are degenerate at any size
        res = rnc_test(build_lattice(fixture("m5_one_triple")))
        assert res == (RncVerdict.DEGENERATE_CONFIGURATION, None, None,
                       "points are linearly degenerate")

    @pytest.mark.parametrize("name", ["m6_one_triple", "m6_two_triples_F1",
                                      "m6_two_triples_F2", "m6_three_triples"])
    def test_rnc_agrees_with_conic_test_on_six_points(self, name):
        # for six plane points: on a smooth conic iff the conic space is
        # one dimensional with a nonsingular generator
        a = fixture(name)
        conic = conic_test(a)
        rnc = rnc_test(build_lattice(a))
        smooth = (conic.kernel_dim == 1
                  and conic.classification is ConicClass.NONSINGULAR)
        assert (rnc.verdict is RncVerdict.ON_SMOOTH_RNC) == smooth

    def test_twisted_cubic_points_are_on_a_smooth_rnc(self):
        a = parse_arrangement(3, twisted_cubic_rows((0, 1, 2, 3, -1, -2, 5)))
        res = rnc_test(build_lattice(a))
        assert res.verdict is RncVerdict.ON_SMOOTH_RNC
        assert res.frame == (1, 2, 3, 4, 5)
        assert res.direction == (Fraction(2, 5), Fraction(3, 10),
                                 Fraction(4, 15), Fraction(1, 4))
        assert res.detail == "reciprocals fit a pole vector with distinct entries"

    def test_perturbed_twisted_cubic_points_leave_the_curve(self):
        rows = twisted_cubic_rows((0, 1, 2, 3, -1, -2, 5))
        rows[3][2] += 1
        a = parse_arrangement(3, rows)
        res = rnc_test(build_lattice(a))
        assert res.verdict is RncVerdict.NOT_ON_SMOOTH_RNC
        assert res.frame == (1, 2, 3, 4, 5)
        assert res.direction is None
        assert res.detail == "reciprocal vectors span more than a pencil"

    def test_point_in_the_span_of_three_frame_points(self):
        # point 7 = p1 + p2 - p3 lies in the plane of three base points of
        # the frame, so the seven points are not in linear general position,
        # though the first six are on the cubic
        a = Arrangement(3, tuple(map(tuple, twisted_cubic_rows(
            (0, 1, 2, 3, -1, -2)))) + ((1, -1, -3, -7),))
        lat = build_lattice(a)
        assert rnc_test(lat, (1, 2, 3, 4, 5, 6)).verdict is RncVerdict.ON_SMOOTH_RNC
        res = rnc_test(lat)
        assert res == (RncVerdict.DEGENERATE_CONFIGURATION, None, None,
                       "points are linearly degenerate")

    def test_random_twisted_cubic_samples_and_perturbations(self):
        rng = random.Random(2024)
        for _ in range(10):
            ts = rng.sample(range(-20, 21), 7)
            rows = twisted_cubic_rows(ts)
            a = parse_arrangement(3, rows)
            assert rnc_test(build_lattice(a)).verdict is RncVerdict.ON_SMOOTH_RNC
            rows[rng.randrange(7)][rng.randrange(1, 4)] += 1
            a2 = parse_arrangement(3, rows)
            assert rnc_test(build_lattice(a2)).verdict is RncVerdict.NOT_ON_SMOOTH_RNC

    @pytest.mark.parametrize("labels", [(1, 2, 3, 4, 4), (1, 1, 2, 3, 4, 5),
                                        (1, 2, 3, 4, 6), (0, 1, 2, 3, 4),
                                        (1.0, 2, 3, 4, 5), (True, 2, 3, 4, 5)])
    def test_labels_must_be_distinct_labels_of_the_lattice(self, labels):
        # a repeated label would count as a frame point twice, True would be
        # read as label 1, and 1.0 would fail deep in the lattice
        a = parse_arrangement(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1],
                                  [1, 2, 3]])
        with pytest.raises(ValueError, match="distinct ints"):
            rnc_test(build_lattice(a), labels)

    def test_few_points_in_general_position_are_trivially_on_a_curve(self):
        a = parse_arrangement(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        assert rnc_test(build_lattice(a)).verdict is RncVerdict.ON_SMOOTH_RNC

    def test_few_degenerate_points_are_flagged(self):
        a = Arrangement(2, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
        assert rnc_test(build_lattice(a)).verdict is RncVerdict.DEGENERATE_CONFIGURATION

    def test_fully_collinear_points_cannot_be_on_a_smooth_curve(self):
        a = Arrangement(
            2, ((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0)))
        res = rnc_test(build_lattice(a))
        assert res.verdict is RncVerdict.DEGENERATE_CONFIGURATION
        assert res.frame is None and res.direction is None


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
        stab = classify(lat, None)
        v = torelli_verdict(lat, stab)
        assert v.status is TorelliStatus.NOT_TORELLI_CONJECTURED
        assert v.rule == "on-stable-curve"
        assert v.rnc is not None
        assert v.rnc.verdict is RncVerdict.ON_SMOOTH_RNC

    def test_perturbed_cubic_planes_get_a_proof(self):
        rows = twisted_cubic_rows((0, 1, 2, 3, -1, -2, 5))
        rows[3][2] += 1
        a = parse_arrangement(3, rows)
        lat = build_lattice(a)
        v = torelli_verdict(lat, classify(lat, None))
        assert v.status is TorelliStatus.TORELLI_PROVED
        assert v.rule == "generic-subset-off-curve"
        assert v.witness_subset == (1, 2, 3, 4, 5, 6, 7)

    def test_capped_perturbed_cubic_falls_to_the_default_conjecture(self):
        rows = twisted_cubic_rows((0, 1, 2, 3, -1, -2, 5))
        rows[3][2] += 1
        a = parse_arrangement(3, rows)
        lat = build_lattice(a)
        v = torelli_verdict(lat, classify(lat, None), max_subsets=0)
        assert v.subset_cap_exceeded
        assert v.status is TorelliStatus.TORELLI_CONJECTURED
        assert v.rule == "default-conjecture"

    def test_negative_subset_cap_is_refused(self):
        a = fixture("generic6_off_conic")
        lat = build_lattice(a)
        with pytest.raises(ValueError, match="max_subsets"):
            torelli_verdict(lat, classify(lat, delta_invariant(lat)), max_subsets=-1)
        with pytest.raises(ValueError, match="max_subsets"):
            build_report(a, max_subsets=-1)

    @pytest.mark.parametrize("cap", [True, 2.5, "3"])
    def test_a_subset_cap_that_is_not_an_int_is_refused(self, cap):
        # True would run as a cap of 1; 2.5 and "3" would fail in the scan
        a = fixture("generic6_off_conic")
        lat = build_lattice(a)
        with pytest.raises(ValueError, match="^max_subsets must be an int >= 0, got "):
            torelli_verdict(lat, classify(lat, delta_invariant(lat)), max_subsets=cap)
        with pytest.raises(ValueError, match="^max_subsets must be an int >= 0, got "):
            build_report(a, max_subsets=cap)

    def test_trace_records_the_rules_tried(self):
        v = verdict_for("generic6_on_conic")
        assert any("conic" in line for line in v.trace)


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
        return torelli_verdict(lat, classify(lat, delta_invariant(lat)),
                               max_subsets=max_subsets)

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


def counted_rule1(monkeypatch, rows):
    """Rule 1 on `rows` past an undetermined stability gate, with call counts."""
    a = parse_arrangement(2, rows)
    lat = build_lattice(a)
    stab = classify(lat, delta_invariant(lat))._replace(status=Status.UNDETERMINED)
    calls = {"independent": 0, "rnc_test": 0, "frame": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(IntersectionLattice, "independent",
                        counted("independent", IntersectionLattice.independent))
    monkeypatch.setattr(torelli_mod, "rnc_test", counted("rnc_test", rnc_test))
    monkeypatch.setattr(torelli_mod, "_rnc_by_frame",
                        counted("frame", torelli_mod._rnc_by_frame))
    return a, torelli_verdict(lat, stab), calls


def test_rule1_asks_each_subset_one_general_position_question(monkeypatch):
    # twelve concurrent lines and four general ones: the scan skips the
    # 1,000 subsets with three concurrent lines before the first generic
    # one, which is the witness; each subset is asked for general position
    # once, and only the generic one goes to the frame test
    rows = ([[0, 1, 0]] + [[1, t, 0] for t in range(11)]
            + [[1, 2, 3], [2, -1, 5], [3, 4, -2], [1, -3, 7]])
    a, v, calls = counted_rule1(monkeypatch, rows)
    assert v.witness_subset == (1, 2, 13, 14, 15, 16)
    dependent = dependent_subsets_by_minors(a)
    scan = list(combinations(range(1, 17), 6))
    visited = scan[:scan.index(v.witness_subset) + 1]
    generic = [s for s in visited
               if not any(t in dependent for t in combinations(s, 3))]
    assert calls == {"independent": len(visited), "rnc_test": 0,
                     "frame": len(generic)}


def test_rule1_without_generic_subsets_asks_no_curve_test(monkeypatch):
    # seventeen concurrent lines and three general ones: every 6-subset
    # holds three concurrent lines, so the scan of C(20, 6) = 38,760
    # subsets stops at the cap without a curve test
    rows = ([[0, 1, 0]] + [[1, t, 0] for t in range(16)]
            + [[1, 2, 3], [2, -1, 5], [3, 4, -2]])
    _, v, calls = counted_rule1(monkeypatch, rows)
    assert v.subset_cap_exceeded
    assert v.witness_subset is None
    assert calls == {"independent": DEFAULT_MAX_SUBSETS, "rnc_test": 0, "frame": 0}


@st.composite
def concurrent_arrangements(draw):
    """Random n = 2, 3 or 4 arrangements, some forms combinations of earlier ones."""
    n = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(n + 2, max(7, n + 4)))
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
    # a label set of at most n forms is independent when its rank is its
    # size; a larger one when no n+1 of its forms have a vanishing minor
    dependent = dependent_subsets_by_minors(a)
    lat = build_lattice(a)
    for size in range(1, a.m + 1):
        for subset in combinations(range(1, a.m + 1), size):
            if size <= a.n:
                expected = fraction_rank([a.forms[i - 1] for i in subset]) == size
            else:
                expected = not any(t in dependent
                                   for t in combinations(subset, a.n + 1))
            assert lat.independent(subset) == expected, subset


@given(concurrent_arrangements())
@settings(max_examples=60, deadline=None)
def test_rnc_is_degenerate_exactly_off_linear_general_position(a):
    # a smooth curve meets a hyperplane in at most n points, so n+1
    # dependent points make any set degenerate; in general position the
    # poles of a fitted curve are pairwise distinct
    dependent = dependent_subsets_by_minors(a)
    lat = build_lattice(a)
    for size in range(a.n + 1, a.m + 1):
        for subset in combinations(range(1, a.m + 1), size):
            res = rnc_test(lat, subset)
            assert (res.verdict is RncVerdict.DEGENERATE_CONFIGURATION) == any(
                t in dependent for t in combinations(subset, a.n + 1)), subset
            if res.verdict is RncVerdict.ON_SMOOTH_RNC and res.frame is not None:
                assert len(set(res.direction)) == a.n + 1, subset


@st.composite
def plane_configurations(draw):
    """n = 2 arrangements dual to points on a conic, near one, or off any."""
    m = draw(st.integers(6, 9))
    kind = draw(st.sampled_from(["on", "near", "off"]))
    if kind == "off":
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                             min_size=m, max_size=m))
    else:
        ts = draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m, unique=True))
        rows = [[1, t, t * t] for t in ts]
        if kind == "near":
            # one dual point moved off the conic y^2 = xz
            i = draw(st.integers(0, m - 1))
            rows[i][draw(st.integers(0, 2))] += draw(st.sampled_from([-1, 1]))
    try:
        a = parse_arrangement(2, rows)
    except InvalidArrangement:
        assume(False)
    total = sum(comb(m, k) for k in range(6, m + 1))
    scanned = comb(m, 6)
    return a, draw(st.sampled_from([0, scanned - 1, scanned, scanned + 1,
                                    total - 1, total, total + 1]))


@st.composite
def space_configurations(draw):
    """n = 3 arrangements dual to points on a twisted cubic, near one, or off any."""
    m = draw(st.integers(7, 9))
    kind = draw(st.sampled_from(["on", "near", "off"]))
    if kind == "off":
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                             min_size=m, max_size=m))
    else:
        ts = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m, unique=True))
        rows = twisted_cubic_rows(ts)
        if kind == "near":
            # one dual point moved off the curve
            i = draw(st.integers(0, m - 1))
            rows[i][draw(st.integers(0, 3))] += draw(st.sampled_from([-1, 1]))
    try:
        a = parse_arrangement(3, rows)
    except InvalidArrangement:
        assume(False)
    total = sum(comb(m, k) for k in range(7, m + 1))
    scanned = comb(m, 7)
    return a, draw(st.sampled_from([0, scanned - 1, scanned, scanned + 1,
                                    total - 1, total, total + 1]))


@given(st.one_of(plane_configurations(), space_configurations()))
@settings(max_examples=160, deadline=None)
def test_pruned_rule1_matches_the_exhaustive_scan(case):
    a, max_subsets = case
    verdict = Analysis(a, DEFAULT_PRIMES, max_subsets).torelli
    assume(verdict is not None)
    if verdict.status is TorelliStatus.UNKNOWN:   # unstable: no rule applies
        witness, oracle_cap_hit = None, False
    else:
        witness, oracle_cap_hit = rule1_by_exhaustion(a, max_subsets)
    assert verdict.witness_subset == witness
    # the oracle visits the same (n+4)-subsets first, then the larger ones
    assert oracle_cap_hit or not verdict.subset_cap_exceeded
    if verdict.status is not TorelliStatus.UNKNOWN:
        on_curve = (verdict.conic.kernel_dim >= 1 if a.n == 2
                    else verdict.rnc.verdict is RncVerdict.ON_SMOOTH_RNC)
        assert verdict.subset_cap_exceeded == (
            witness is None and not on_curve and comb(a.m, a.n + 4) > max_subsets)


def generic_sextuple(rng, on_conic):
    """Six points of P^2, no three collinear, on a random conic or anywhere."""
    while True:
        if on_conic:
            # points (1, t, t^2) of y^2 = xz under a random integer matrix
            matrix = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            points = [[sum(r * c for r, c in zip(row, (1, t, t * t))) for row in matrix]
                      for t in rng.sample(range(-6, 7), 6)]
        else:
            points = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(6)]
        if all(fraction_det(triple) for triple in combinations(points, 3)):
            return points


def test_conic_brackets_agree_with_the_curve_test():
    # the rule 1 oracle decides conics by brackets, the library by `rnc_test`,
    # which normalizes a frame and reads reciprocals; no three points of a
    # generic sextuple are collinear, so any conic through it is smooth and
    # the two must agree
    rng = random.Random(20)
    on = 0
    for k in range(300):
        points = generic_sextuple(rng, k % 2 == 0)
        rnc = rnc_test(build_lattice(parse_arrangement(2, points)))
        assert sextuple_on_conic(points) is (rnc.verdict is RncVerdict.ON_SMOOTH_RNC), points
        assert rnc.verdict is not RncVerdict.DEGENERATE_CONFIGURATION
        on += sextuple_on_conic(points)
    assert on >= 150


def unimodular_change(rng, d):
    """A d x d integer matrix of determinant +-1: a signed permutation
    matrix, then columns plus small multiples of other columns."""
    perm = rng.sample(range(d), d)
    u = [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.randint(-2, 2)
        for row in u:
            row[j] += c * row[i]
    return u


def general_position_set(rng, n, on_curve):
    """n+4 points of P^n in linear general position: moment-curve points
    (1, t, ..., t^n) under a unimodular change, or those with one point
    moved by a unit step, which then almost surely leaves the one rational
    normal curve through the other n+3."""
    while True:
        u = unimodular_change(rng, n + 1)
        points = [[sum(t ** k * u[k][j] for k in range(n + 1)) for j in range(n + 1)]
                  for t in rng.sample(range(-5, 6), n + 4)]
        if on_curve:   # any n+1 of them have a nonzero Vandermonde minor
            return points
        points[rng.randrange(n + 4)][rng.randrange(n + 1)] += rng.choice((1, -1))
        if all(fraction_det(s) for s in combinations(points, n + 1)):
            return points


def test_gale_criterion_agrees_with_the_curve_test():
    # the rule 1 oracle decides curves for n >= 3 by Goppa's criterion on the
    # Gale transform, the library by `rnc_test`, which normalizes a frame and
    # reads reciprocals; on n+4 points in linear general position both decide
    # whether the points lie on a rational normal curve, so they must agree
    rng = random.Random(21)
    seen = set()
    for k in range(120):
        n = 3 + k % 3
        points = general_position_set(rng, n, k % 2 == 0)
        rnc = rnc_test(build_lattice(parse_arrangement(n, points)))
        assert rnc.verdict is not RncVerdict.DEGENERATE_CONFIGURATION
        on = rnc_by_gale(points)
        assert on is (rnc.verdict is RncVerdict.ON_SMOOTH_RNC), points
        seen.add((n, on))
    assert seen == {(n, on) for n in (3, 4, 5) for on in (False, True)}


def test_sixteen_lines_on_a_conic_skip_the_scan(monkeypatch):
    # a scan would visit C(16, 6) = 8,008 subsets and hit a cap of 8,007;
    # with every dual point on one conic no subset is examined: the full-set
    # conic test is the only one made, `rnc_test` never runs, and no cap is
    # hit
    a = parse_arrangement(2, [[1, t, t * t] for t in range(-8, 8)])
    lat = build_lattice(a)
    stab = classify(lat, delta_invariant(lat))
    conics, rncs = [], []

    def counted_conic(arr):
        conics.append(arr.m)
        return conic_test(arr)

    def counted_rnc(lattice, labels=None):
        rncs.append(labels)
        return rnc_test(lattice, labels)

    monkeypatch.setattr(torelli_mod, "conic_test", counted_conic)
    monkeypatch.setattr(torelli_mod, "rnc_test", counted_rnc)
    v = torelli_verdict(lat, stab, max_subsets=8007)
    assert conics == [16]
    assert rncs == []
    assert not v.subset_cap_exceeded
    assert v.conic.kernel_dim == 1
    assert v.rule == "on-stable-curve"


def test_eleven_planes_on_a_twisted_cubic_skip_the_scan(monkeypatch):
    # a scan would visit C(11, 7) = 330 subsets and hit a cap of 329; with
    # every dual point on one smooth twisted cubic no subset is examined: the
    # full-set curve test is the only one made, and no cap is hit
    a = parse_arrangement(3, twisted_cubic_rows(range(-5, 6)))
    lat = build_lattice(a)
    stab = classify(lat, None)
    calls = []

    def counted_rnc(lattice, labels=None):
        calls.append(lattice.m if labels is None else len(labels))
        return rnc_test(lattice, labels)

    monkeypatch.setattr(torelli_mod, "rnc_test", counted_rnc)
    v = torelli_verdict(lat, stab, max_subsets=329)
    assert calls == [11]
    assert not v.subset_cap_exceeded
    assert v.rnc.verdict is RncVerdict.ON_SMOOTH_RNC
    assert v.rule == "on-stable-curve"


# Seven dual points (1, t, t^2) on the conic y^2 = xz and (0, 1, 0) off it.
# A 6-subset without the off point lies on the conic; one with it holds five
# of the seven parameters, hence a pair t, -t, whose points are collinear
# with (0, 1, 0). So none of the C(8, 6) = 28 6-subsets is a witness.
CONIC_PAIRS_AND_A_POINT = ([[1, t, t * t] for t in (0, 1, -1, 2, -2, 3, -3)]
                           + [[0, 1, 0]])


@pytest.mark.parametrize("cap, hit", [(27, True), (28, False), (20000, False)])
def test_subset_cap_is_hit_only_when_the_scan_stops_early(cap, hit):
    a = parse_arrangement(2, CONIC_PAIRS_AND_A_POINT)
    lat = build_lattice(a)
    v = torelli_verdict(lat, classify(lat, delta_invariant(lat)), max_subsets=cap)
    assert v.witness_subset is None
    assert v.subset_cap_exceeded is hit
    assert v.trace[0].endswith("(subset cap hit)") is hit


@st.composite
def line_points(draw):
    """m <= 8 distinct points of P^1, some of them non-essential."""
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2)
                         .filter(any), min_size=1, max_size=8))
    try:
        return parse_arrangement(1, rows)
    except InvalidArrangement:   # two rows give the same point
        assume(False)


@given(line_points())
@settings(max_examples=60, deadline=None)
def test_every_report_on_the_line_is_made(a):
    torelli = build_report(a)["torelli"]
    if a.m >= 3:
        assert torelli["status"] == "not_torelli_proved"
        assert torelli["rule"] == "line-bundle-case"


def sweep_arrangement(n, m, kind, seed):
    """Seeded input: dual points (1, t, ..., t^n), or coefficients in [-3, 3]."""
    rng = random.Random(f"{n}/{m}/{kind}/{seed}")
    while True:
        if kind == "curve":
            rows = [[t ** k for k in range(n + 1)] for t in rng.sample(range(-6, 7), m)]
        else:
            rows = [[rng.randint(-3, 3) for _ in range(n + 1)] for _ in range(m)]
        try:
            return parse_arrangement(n, rows)
        except InvalidArrangement:   # a zero row or two rows on one point
            continue


# SHA-256 of the JSON Torelli section of each sweep input, pinned so that the
# verdicts cannot drift: for n = 2 the conic section (a random m = 4 draw
# reaches a pencil), for n >= 3 rnc_test and rule 1 over (n+4)-subsets
TORELLI_SWEEP_DIGESTS = {
    (2, 4, "curve", 0): "46eb62362dc396448bde9b5613c1ff6608677e795dfd5365c544b8fc0b756f5d",
    (2, 4, "curve", 1): "46eb62362dc396448bde9b5613c1ff6608677e795dfd5365c544b8fc0b756f5d",
    (2, 4, "curve", 2): "46eb62362dc396448bde9b5613c1ff6608677e795dfd5365c544b8fc0b756f5d",
    (2, 4, "random", 0): "46eb62362dc396448bde9b5613c1ff6608677e795dfd5365c544b8fc0b756f5d",
    (2, 4, "random", 1): "46eb62362dc396448bde9b5613c1ff6608677e795dfd5365c544b8fc0b756f5d",
    (2, 4, "random", 2): "46eb62362dc396448bde9b5613c1ff6608677e795dfd5365c544b8fc0b756f5d",
    (2, 5, "curve", 0): "4ac2fc4d20381edb70e6e0411cba7cb63c86b30f298553c8accfdf160df43401",
    (2, 5, "curve", 1): "4ac2fc4d20381edb70e6e0411cba7cb63c86b30f298553c8accfdf160df43401",
    (2, 5, "curve", 2): "4ac2fc4d20381edb70e6e0411cba7cb63c86b30f298553c8accfdf160df43401",
    (2, 5, "random", 0): "a65bb212f1dfd8d0e9a55da37a10aca371342e03f920d2e942d5aed7e7f5c5af",
    (2, 5, "random", 1): "44cbca5e7a21cda21703e07ca0a2b838fae233457e7f9f7e9aac4467d587de86",
    (2, 5, "random", 2): "c5180a103c97116de217290860aa8b5b2ddb425a528abc7ac853ffccb03e5cf4",
    (2, 6, "curve", 0): "ff5755ba32036f1d6e77c917bda72d3aac35b9688dd612d5e2152007d9de5aa8",
    (2, 6, "curve", 1): "ff5755ba32036f1d6e77c917bda72d3aac35b9688dd612d5e2152007d9de5aa8",
    (2, 6, "curve", 2): "ff5755ba32036f1d6e77c917bda72d3aac35b9688dd612d5e2152007d9de5aa8",
    (2, 6, "random", 0): "d3b375dd77f0bc22e0aaf2bad402becf2f0b1abf100c0c7ad8ef74cfa662d534",
    (2, 6, "random", 1): "c40edbade1069222136cde84227e8cb147ad10680856b8a1acd1d177e7f9a8fc",
    (2, 6, "random", 2): "c40edbade1069222136cde84227e8cb147ad10680856b8a1acd1d177e7f9a8fc",
    (2, 7, "curve", 0): "46e0ccede30c6d1ae093e464613679b93a1bea75c57048a4c8e2e5f4a601939e",
    (2, 7, "curve", 1): "46e0ccede30c6d1ae093e464613679b93a1bea75c57048a4c8e2e5f4a601939e",
    (2, 7, "curve", 2): "46e0ccede30c6d1ae093e464613679b93a1bea75c57048a4c8e2e5f4a601939e",
    (2, 7, "random", 0): "c40edbade1069222136cde84227e8cb147ad10680856b8a1acd1d177e7f9a8fc",
    (2, 7, "random", 1): "c40edbade1069222136cde84227e8cb147ad10680856b8a1acd1d177e7f9a8fc",
    (2, 7, "random", 2): "585f243a71b4178b51dd51fe7f3558f9fdf7b047caf34765d3ac346afc6fa552",
    (2, 8, "curve", 0): "46e0ccede30c6d1ae093e464613679b93a1bea75c57048a4c8e2e5f4a601939e",
    (2, 8, "curve", 1): "46e0ccede30c6d1ae093e464613679b93a1bea75c57048a4c8e2e5f4a601939e",
    (2, 8, "curve", 2): "46e0ccede30c6d1ae093e464613679b93a1bea75c57048a4c8e2e5f4a601939e",
    (2, 8, "random", 0): "ce427abef42441a2356d645bc87d2862060c17ef9e25e06b4557507d73961a71",
    (2, 8, "random", 1): "c40edbade1069222136cde84227e8cb147ad10680856b8a1acd1d177e7f9a8fc",
    (2, 8, "random", 2): "c40edbade1069222136cde84227e8cb147ad10680856b8a1acd1d177e7f9a8fc",
    (2, 9, "curve", 0): "46e0ccede30c6d1ae093e464613679b93a1bea75c57048a4c8e2e5f4a601939e",
    (2, 9, "curve", 1): "46e0ccede30c6d1ae093e464613679b93a1bea75c57048a4c8e2e5f4a601939e",
    (2, 9, "curve", 2): "46e0ccede30c6d1ae093e464613679b93a1bea75c57048a4c8e2e5f4a601939e",
    (2, 9, "random", 0): "46c1452df8ea891e0701de22be1e842fa18c05da9fe74aca557b39afadc6cc05",
    (2, 9, "random", 1): "11e94125dbcd5bd11654f3bb5f9f6a38d7b2b1d407ae79423491d13116c6faef",
    (2, 9, "random", 2): "ce427abef42441a2356d645bc87d2862060c17ef9e25e06b4557507d73961a71",
    (3, 6, "curve", 0): "a40dede8499f9f6b3d82ad51ca2aac332af097d6de3fe730ba67be6166d23aac",
    (3, 6, "curve", 1): "3c0401d535120251fc5b3e0447a3cad01dcca2dacf2caf9ac2bb61db3b97ffab",
    (3, 6, "curve", 2): "1c45c760e4143793a55f7fa9ddb6151e3c156db576405de078731f2a04e5e7da",
    (3, 6, "random", 0): "2553fbf75897c96c0c76570f3c16eb45b81bb112765656d4740c5eefbac19b19",
    (3, 6, "random", 1): "a15bf78b292a4be5ecdeae9a25aced8683d700e3cb5f4f4d08c33922c5500501",
    (3, 6, "random", 2): "c85643be41d3b5cecc08a09bf44da37b29f79e2167b1e31bccc7a832c4875deb",
    (3, 7, "curve", 0): "27c2cab816f6ed90081ffd04920c33d6a96bba91a29498f10c7fb158fde08668",
    (3, 7, "curve", 1): "2a0b0271f2b51ff7339415e6f9994f8389d147d88d1ba02fafb6e888906faa2a",
    (3, 7, "curve", 2): "f890cf0b8fa087c1eb3f244519a98da2f2d3b1f42109748392f8a4b7e3ba1676",
    (3, 7, "random", 0): "bdcdb81360fa24514e9a0d0c6a2cd0ab9817d3f743eb08895ee3039a48e95daa",
    (3, 7, "random", 1): "c85643be41d3b5cecc08a09bf44da37b29f79e2167b1e31bccc7a832c4875deb",
    (3, 7, "random", 2): "c85643be41d3b5cecc08a09bf44da37b29f79e2167b1e31bccc7a832c4875deb",
    (3, 8, "curve", 0): "917e3e65964f08fd5345b05f44260bf20e30a5bd5c5cc7dc61bc304d2da742f0",
    (3, 8, "curve", 1): "3f494ba4aa0116ea3ab04c55134a603df7fe27efece224ae2edd1a14f69b0976",
    (3, 8, "curve", 2): "fdc755896d7dc8ae347fd14f0de53c0581ae0fde3d6a8c94a6da834f2b44f553",
    (3, 8, "random", 0): "bdcdb81360fa24514e9a0d0c6a2cd0ab9817d3f743eb08895ee3039a48e95daa",
    (3, 8, "random", 1): "52c8e8dd29f44dc4823ddf1f1da9d5ecba890336153aa4fee7a9073da0e1744b",
    (3, 8, "random", 2): "bdcdb81360fa24514e9a0d0c6a2cd0ab9817d3f743eb08895ee3039a48e95daa",
    (3, 9, "curve", 0): "4d548d77ea0df4f9fea4a8057bbca2f8efc89479355dd4c76d3c356d2384cea1",
    (3, 9, "curve", 1): "12b107c4c1775dec7639f3363e3ab5c32cc892f5f1dfb3ddceb3e6f9cfa52ccb",
    (3, 9, "curve", 2): "c261173696be92abce58cfd473cdfa080633eeab6ecd393fd50fb27752a8aa82",
    (3, 9, "random", 0): "bdcdb81360fa24514e9a0d0c6a2cd0ab9817d3f743eb08895ee3039a48e95daa",
    (3, 9, "random", 1): "c0bb0d8fe3874c5a1424f485ed8b7acd59642ee601875654ad523483f69a0b2b",
    (3, 9, "random", 2): "52c8e8dd29f44dc4823ddf1f1da9d5ecba890336153aa4fee7a9073da0e1744b",
    (3, 10, "curve", 0): "e5712cd19718e8edfa5a9cdb2daddc0ed8cd1af7784b236b9d9562c40a486628",
    (3, 10, "curve", 1): "837c42b1ec6a654173eda867ef9d6b8e965972a10d88191ea351b89a88e3308e",
    (3, 10, "curve", 2): "91077a12a2ce4d1549821dca8ece3514a6b888766feea8c16481e7a8125dd812",
    (3, 10, "random", 0): "52c8e8dd29f44dc4823ddf1f1da9d5ecba890336153aa4fee7a9073da0e1744b",
    (3, 10, "random", 1): "c0bb0d8fe3874c5a1424f485ed8b7acd59642ee601875654ad523483f69a0b2b",
    (3, 10, "random", 2): "ca8d8883e2055b04aa0ca48c53c37234f45f50f14581c2ab94068051884120ed",
    (4, 7, "curve", 0): "850b4a954b269fbd966eb1927eb5a864e0a0b935b2aca63d172891970ba981cf",
    (4, 7, "curve", 1): "dc6fdb1445cb60e83bc05072e5fb0c244a26eb0426aa1d30fca695e9e8fc59b4",
    (4, 7, "curve", 2): "57debae75be475a3e8ee481190e2f64cc046b210804cf342b993b5a6357a069f",
    (4, 7, "random", 0): "4d41930289d70ab592b69aa57041775a42cb5074314f08afe129c889e6955981",
    (4, 7, "random", 1): "dba249ab7e939cf80fb5c883e900a79e0b2d9a8d598dc92fbc57529e1c2e83f8",
    (4, 7, "random", 2): "bf25c9fbaa73d494cb330bf9f76bd2f59b0b603b26f76af7d5383c1421bfaa79",
    (4, 8, "curve", 0): "08496c31957b1027c61f49f0b4f1cd2fbaf87c5d97cefbcfc69359524d7cf068",
    (4, 8, "curve", 1): "99511cf188418b280794f86c716b1c840df51ad3722a06e876ec6df608172d4d",
    (4, 8, "curve", 2): "e68302dbcd3b24f152fbe77d58b419405a5b36e62ec0ff16fe0e563e3f980ef0",
    (4, 8, "random", 0): "d329be0bdb9e38bc4656572b75fdb91fbc657a412f262eb58ba9c4a00e2dc5ef",
    (4, 8, "random", 1): "d329be0bdb9e38bc4656572b75fdb91fbc657a412f262eb58ba9c4a00e2dc5ef",
    (4, 8, "random", 2): "c85643be41d3b5cecc08a09bf44da37b29f79e2167b1e31bccc7a832c4875deb",
    (4, 9, "curve", 0): "33bcc9ab4268e3e32c27281821417119c6602f4ba2ac006622a6b73c53a7a55a",
    (4, 9, "curve", 1): "d2fed884fc45f3507a3fa5bae46f154a9b399267178edad2c10f4416de7733d9",
    (4, 9, "curve", 2): "38ec936e7bd30970bbe5a6be43a2328291c21504405d83b2e6254bd2d16d7eeb",
    (4, 9, "random", 0): "d329be0bdb9e38bc4656572b75fdb91fbc657a412f262eb58ba9c4a00e2dc5ef",
    (4, 9, "random", 1): "d329be0bdb9e38bc4656572b75fdb91fbc657a412f262eb58ba9c4a00e2dc5ef",
    (4, 9, "random", 2): "d329be0bdb9e38bc4656572b75fdb91fbc657a412f262eb58ba9c4a00e2dc5ef",
    (4, 10, "curve", 0): "534471b15922bc3f7b4bf6bdf7cea7390b882bbe3154217fd21187d0b470bcba",
    (4, 10, "curve", 1): "d757ad8846f6335076fc1f5864ab2e035f04699901c5555ccf18b2465c778726",
    (4, 10, "curve", 2): "4eed3c59da875b0b0167efa08246daf1dcd6578d3f6d4bfc9557089c2f67f14b",
    (4, 10, "random", 0): "3feb345f151015bdf6e69d67ed88c99044106ac93c4a990327022ceb0f9a4ef3",
    (4, 10, "random", 1): "3feb345f151015bdf6e69d67ed88c99044106ac93c4a990327022ceb0f9a4ef3",
    (4, 10, "random", 2): "a189411912b011ae61ec954c82377300c357bac7a2e9a065a0ca57c36e350df9",
}


@pytest.mark.parametrize("case", sorted(TORELLI_SWEEP_DIGESTS),
                         ids=lambda c: "n{}-m{}-{}-{}".format(*c))
def test_torelli_section_matches_the_pinned_digest(case):
    section = Analysis(sweep_arrangement(*case), DEFAULT_PRIMES,
                       DEFAULT_MAX_SUBSETS).section("torelli")
    text = json.dumps(section, indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TORELLI_SWEEP_DIGESTS[case]
