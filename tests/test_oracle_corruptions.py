"""Every oracle entry can read `fail`: one corruption per entry name.

An entry that cannot fail backs nothing. `CORRUPTIONS` maps each entry name
to corruptions of one library quantity (a count, a Mobius value, a kernel
basis, the lattice's flats), each with a fixture on which the entry passes
and must read `fail` once that quantity is corrupted. Every name that
`oracles_section` emits on the fixtures needs a corruption, unless it is in
`CANNOT_FAIL`: the entries known to be identities, which nothing corrupted
in the library can break. A name leaves `CANNOT_FAIL` when it is replaced by
an entry that can fail, or gets a corruption.
"""

import pytest

import arrinv.report as report_mod
import arrinv.steiner as steiner_mod
from arrinv.fixtures import fixture, fixture_names
from arrinv.lattice import IntersectionLattice, build_lattice
from arrinv.report import DEFAULT_PRIMES, Analysis
from arrinv.torelli import DEFAULT_MAX_SUBSETS

# mu = 2 delta - r + 1 is an identity in the point's size, the twist identity
# is Vandermonde's, and `classify` decides P^2 only where the quarter bound
# of `delta_bound` holds
CANNOT_FAIL = {"milnor_delta_branches", "twist_identity", "delta_bound"}


def one_more_point(monkeypatch, analysis):
    """Every finite-field count reads one point too many."""
    count = report_mod.count_complement_points
    monkeypatch.setattr(report_mod, "count_complement_points",
                        lambda a, p: count(a, p) + 1)


def one_more_mobius_at_a_triple_point(monkeypatch, analysis):
    """The pair count's lattice side drops by one.

    On m6_three_triples delta is 3, and so is C(6, 2) less the Mobius sum
    12; the corruption takes that side to 2.
    """
    flats = list(analysis.lattice.flats)
    triple = next(i for i, f in enumerate(flats) if f.rank == 2 and f.s == 3)
    flats[triple] = flats[triple]._replace(mobius=flats[triple].mobius + 1)
    analysis.lattice = IntersectionLattice(analysis.a, tuple(flats))


def relations_with_entries_1_and_4_swapped(monkeypatch, analysis):
    """The relation basis stops annihilating the forms."""
    basis = steiner_mod.kernel_basis
    monkeypatch.setattr(steiner_mod, "kernel_basis", lambda rows: tuple(
        row[3:4] + row[1:3] + row[0:1] + row[4:] for row in basis(rows)))


def flats_of_two_triple_points(monkeypatch, analysis):
    """The lattice of m5_two_triples on forms with one triple point.

    Its characteristic polynomial predicts other counts than the forms give.
    """
    flats = build_lattice(fixture("m5_two_triples")).flats
    analysis.lattice = IntersectionLattice(analysis.a, flats)


def flats_of_three_triple_points(monkeypatch, analysis):
    """The lattice of m6_three_triples on forms with one triple point.

    The forms keep their kernel, so only the lattice disagrees with them:
    it finds {1, 4, 5} and {2, 4, 6} dependent as well as {1, 2, 3}.
    """
    flats = build_lattice(fixture("m6_three_triples")).flats
    analysis.lattice = IntersectionLattice(analysis.a, flats)


# entry name -> [(fixture, corruption, fields the failing entry must hold)]
CORRUPTIONS = {
    **{f"finite_field_count_p{p}": [("m5_one_triple", one_more_point, {}),
                                    ("m5_one_triple", flats_of_two_triple_points, {})]
       for p in DEFAULT_PRIMES},
    "pair_count_identity": [
        ("m6_three_triples", one_more_mobius_at_a_triple_point, {"lhs": 2, "rhs": 3})],
    "gale_complement_bijection": [
        ("m6_one_triple", relations_with_entries_1_and_4_swapped,
         {"kernel": False, "missing": None, "extra": None}),
        ("m6_one_triple", flats_of_three_triple_points,
         {"missing": [[1, 3, 5], [2, 3, 6]], "extra": []}),
    ],
}


def entry(analysis, name):
    return {c["check"]: c for c in analysis.oracles_section()}[name]


@pytest.mark.parametrize("name, fixture_name, corrupt, fields", [
    pytest.param(name, *row, id=f"{name}-{row[1].__name__}")
    for name, rows in CORRUPTIONS.items() for row in rows])
def test_a_corruption_flips_its_entry_to_fail(monkeypatch, name, fixture_name, corrupt,
                                              fields):
    a = fixture(fixture_name)
    assert entry(Analysis(a, DEFAULT_PRIMES, DEFAULT_MAX_SUBSETS), name)["status"] == "pass"
    analysis = Analysis(a, DEFAULT_PRIMES, DEFAULT_MAX_SUBSETS)
    corrupt(monkeypatch, analysis)
    failed = entry(analysis, name)
    assert failed["status"] == "fail"
    assert {key: failed.get(key) for key in fields} == fields


def test_every_entry_on_the_fixtures_has_a_corruption():
    emitted = {c["check"] for name in fixture_names()
               for c in Analysis(fixture(name), DEFAULT_PRIMES,
                                 DEFAULT_MAX_SUBSETS).oracles_section()}
    assert sorted(emitted - CORRUPTIONS.keys() - CANNOT_FAIL) == []
    # the allowlist holds only emitted entries without a corruption
    assert CANNOT_FAIL <= emitted and not CANNOT_FAIL & CORRUPTIONS.keys()
