"""Acceptance suite.

Each test checks one numbered behavior contract end to end over exact
rational arithmetic, with no tolerances, and prints a one line
``criterion N ...: PASS/FAIL`` summary that survives pytest's capture.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from arrinv.arrangement import InvalidArrangement, parse_arrangement
from arrinv.ffcount import basis_minors, count_complement_points
from arrinv.fixtures import fixture, fixture_names
from arrinv.invariants import (chern, complement_count_prediction,
                               delta_invariant, local_data, poincare)
from arrinv.lattice import build_lattice
from arrinv.report import delta_bound_check
from arrinv.stability import (Status, WitnessKind, classify,
                              combinatorial_destabilizer, discriminant_test,
                              git_ratio_test)
from arrinv.steiner import GaleUndefined, gale_dual, steiner_tensor, \
    verify_gale_bijection
from arrinv.torelli import ConicClass, RncVerdict, TorelliStatus, rnc_test, torelli_verdict
from oracles import truncated_product


def _announce(capsys, number, label, ok):
    with capsys.disabled():
        print(f"criterion {number} {label}: {'PASS' if ok else 'FAIL'}")


class _Criterion:
    """Context manager printing the PASS/FAIL line for one criterion."""

    def __init__(self, capsys, number, label):
        self.capsys = capsys
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _announce(self.capsys, self.number, self.label, exc_type is None)
        return False


def _lattice_of(name):
    a = fixture(name)
    return a, build_lattice(a)


def test_criterion_01_braid_invariants(capsys):
    with _Criterion(capsys, 1, "braid invariants and instability"):
        a, lat = _lattice_of("a3_braid")
        rank2 = [f for f in lat.flats if f.rank == 2]
        assert sorted(f.s for f in rank2) == [2, 2, 2, 3, 3, 3, 3]
        p = poincare(lat)
        assert p.projective == (1, 6, 11)
        assert p.central == truncated_product([(1, 1), (1, 2), (1, 3)], 3)
        c = chern(lat, p)
        assert (c.n2_c1, c.n2_c2) == (3, 2)
        disc, witness = discriminant_test(lat, delta_invariant(lat))
        assert disc == Fraction(-1)
        assert witness is not None
        verdict = classify(lat, delta_invariant(lat))
        assert verdict.status is Status.UNSTABLE
        assert delta_invariant(lat) == 4
        assert comb(6, 2) - p.projective[2] == 4


def test_criterion_02_chern_table(capsys):
    with _Criterion(capsys, 2, "Chern table and moduli dimension"):
        m4 = parse_arrangement(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        cases = [(m4, (1, 1)), (fixture("generic5"), (2, 3)),
                 (fixture("generic6_off_conic"), (3, 6))]
        for a, (c1, c2) in cases:
            lat = build_lattice(a)
            c = chern(lat, poincare(lat))
            assert (c.n2_c1, c.n2_c2) == (c1, c2)
        c1, c2 = 3, 6
        assert 4 * c2 - c1 * c1 - 3 == 12 == 6 * (6 - 4)


def test_criterion_03_combinatorial_stability(capsys):
    with _Criterion(capsys, 3, "combinatorial stability behavior"):
        a, lat = _lattice_of("m6_four_concurrent")
        v = classify(lat, delta_invariant(lat))
        assert v.status is Status.UNSTABLE
        w = next(w for w in v.witnesses if w.kind is WitnessKind.FLAT_RATIO)
        assert (w.lhs, w.rhs, w.strict) == (Fraction(4), Fraction(7, 2), True)

        a, lat = _lattice_of("m5_one_triple")
        v = classify(lat, delta_invariant(lat))
        assert v.status is Status.NOT_STABLE
        w = next(w for w in v.witnesses if w.kind is WitnessKind.FLAT_RATIO)
        assert (w.lhs, w.rhs, w.strict) == (Fraction(3), Fraction(3), False)

        # generic inputs up to m = 8 never produce a witness
        for name in ("generic5", "generic6_on_conic", "generic6_off_conic"):
            assert combinatorial_destabilizer(_lattice_of(name)[1]) is None
        for n, ms in ((2, range(4, 9)), (3, range(5, 9))):
            for m in ms:
                rows = [[t ** k for k in range(n + 1)] for t in range(m)]
                lat = build_lattice(parse_arrangement(n, rows))
                assert combinatorial_destabilizer(lat) is None


def test_criterion_04_git_cross_validation(capsys):
    with _Criterion(capsys, 4, "GIT ratio cross-validation"):
        exercised = 0
        for name in fixture_names():
            a = fixture(name)
            lat = build_lattice(a)
            w = combinatorial_destabilizer(lat)
            if w is None or not w.strict or w.kind is not WitnessKind.FLAT_RATIO:
                continue
            flat = next(f for f in lat.flats if f.indices == w.flat_indices)
            git = git_ratio_test(steiner_tensor(lat), flat)
            s, r = flat.s, flat.rank
            assert git.lhs == Fraction(s - r, s - 1)
            assert git.rhs == Fraction(a.m - 1 - a.n, a.m - 1)
            assert git.lhs > git.rhs
            exercised += 1
        assert exercised >= 1


def _random_rational_arrangement(rng):
    n = rng.choice((2, 3))
    m = rng.randint(n + 3, 8)
    rows = []
    for _ in range(m):
        rows.append([Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                     for _ in range(n + 1)])
    return n, rows


def test_criterion_05_gale_bijection(capsys):
    with _Criterion(capsys, 5, "Gale dependent-set bijection"):
        for name in fixture_names():
            a = fixture(name)
            if a.m < a.n + 3:
                continue
            t = steiner_tensor(build_lattice(a))
            assert verify_gale_bijection(t, basis_minors(a)).ok, name

        rng = random.Random(20250823)
        accepted = 0
        attempts = 0
        while accepted < 25:
            attempts += 1
            assert attempts < 2000
            n, rows = _random_rational_arrangement(rng)
            try:
                a = parse_arrangement(n, rows)
                lat = build_lattice(a)
                if a.m < a.n + 3 or not lat.essential:
                    continue
                t = steiner_tensor(lat)
                gale_dual(t)
            except (InvalidArrangement, GaleUndefined):
                continue
            assert verify_gale_bijection(t, basis_minors(a)).ok
            accepted += 1


def test_criterion_06_finite_field_oracle(capsys):
    with _Criterion(capsys, 6, "finite field complement counts"):
        for name in fixture_names():
            a = fixture(name)
            lat = build_lattice(a)
            for p in (7, 11, 101):
                assert count_complement_points(a, p) == \
                    complement_count_prediction(poincare(lat), p), (name, p)


def test_criterion_07_local_singularity_identities(capsys):
    def check(lat, m):
        for pt in local_data(lat):
            assert pt.milnor == 2 * pt.delta_local - pt.branches + 1
        s_values = [f.s for f in lat.flats if f.rank == 2]
        assert comb(m, 2) - sum(s - 1 for s in s_values) == \
            sum(comb(s - 1, 2) for s in s_values)

    with _Criterion(capsys, 7, "local singularity identities"):
        for name in fixture_names():
            a = fixture(name)
            if a.n != 2:
                continue
            check(build_lattice(a), a.m)

        rng = random.Random(1789)
        accepted = 0
        attempts = 0
        while accepted < 50:
            attempts += 1
            assert attempts < 2000
            m = rng.randint(3, 8)
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(m)]
            try:
                a = parse_arrangement(2, rows)
            except InvalidArrangement:
                continue
            check(build_lattice(a), a.m)
            accepted += 1


def test_criterion_08_torelli_case_analysis(capsys):
    def verdict(name):
        a = fixture(name)
        lat = build_lattice(a)
        return torelli_verdict(lat, classify(lat, delta_invariant(lat)))

    with _Criterion(capsys, 8, "six and five line verdicts"):
        for name in ("m5_one_triple", "m5_two_triples"):
            v = verdict(name)
            assert v.status is TorelliStatus.NOT_TORELLI_PROVED
            assert v.conic.classification is ConicClass.TWO_DISTINCT_LINES
        v = verdict("generic5")
        assert v.status is TorelliStatus.NOT_TORELLI_PROVED
        assert v.conic.classification is ConicClass.NONSINGULAR
        for name in ("m6_one_triple", "m6_two_triples_F1", "m6_three_triples"):
            assert verdict(name).status is TorelliStatus.TORELLI_PROVED, name
        for name in ("m6_two_triples_F2", "generic6_on_conic"):
            v = verdict(name)
            assert v.status is TorelliStatus.NOT_TORELLI_PROVED
            assert v.rule == "six-line-conic-case"


def test_criterion_09_rational_normal_curve(capsys):
    with _Criterion(capsys, 9, "rational normal curve detection"):
        rng = random.Random(2024)
        for _ in range(20):
            ts = rng.sample(range(-20, 21), 7)
            rows = [[1, t, t * t, t ** 3] for t in ts]
            a = parse_arrangement(3, rows)
            assert rnc_test(build_lattice(a)).verdict is RncVerdict.ON_SMOOTH_RNC
            i = rng.randrange(7)
            j = rng.randrange(1, 4)
            rows2 = [list(r) for r in rows]
            rows2[i][j] += 1
            a2 = parse_arrangement(3, rows2)
            assert rnc_test(build_lattice(a2)).verdict is \
                RncVerdict.NOT_ON_SMOOTH_RNC


def test_criterion_10_delta_stratum_bound(capsys):
    with _Criterion(capsys, 10, "delta stratum bound"):
        bounded = set()
        for name in fixture_names():
            a = fixture(name)
            if a.n != 2 or a.m < a.n + 2:
                continue
            lat = build_lattice(a)
            v = classify(lat, delta_invariant(lat))
            if v.status not in (Status.STABLE, Status.NOT_STABLE):
                continue
            delta = delta_invariant(lat)
            assert delta <= Fraction((a.m - 1) * (a.m - 3), 4), name
            bounded.add(name)
        assert bounded == {"generic5", "generic6_on_conic",
                           "generic6_off_conic", "m5_one_triple",
                           "m5_two_triples", "m6_one_triple"}

        # the discriminant-zero arrangement saturates the quarter bound and
        # beats the stronger fifth bound; the verify report records this
        a, lat = _lattice_of("m5_two_triples")
        check = delta_bound_check(a.m, delta_invariant(lat),
                                  classify(lat, delta_invariant(lat)))
        assert check["status"] == "pass"
        assert check["delta"] == 2
        assert check["quarter_bound"] == 2 and check["quarter_holds"]
        assert check["fifth_bound"] == Fraction(8, 5)
        assert check["fifth_holds"] is False
