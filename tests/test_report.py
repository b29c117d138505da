"""Report assembly: one analysis computes each quantity once."""

from __future__ import annotations

import hashlib
import importlib
import json
import pathlib
import random
import sys
from math import comb

import pytest

import arrinv.report as report_mod
from arrinv.arrangement import InvalidArrangement, parse_arrangement
from arrinv.fixtures import fixture, fixture_names
from arrinv.lattice import IntersectionLattice, build_lattice
from arrinv.report import DEFAULT_PRIMES, SECTIONS, Analysis, build_report, jsonable
from arrinv.torelli import DEFAULT_MAX_SUBSETS

# the benchmark's committed digests; entry 0 of each fixture's stratum is
# the fixture itself
REFS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "fixtures.json"

# (module, function): the expensive or checking steps a report must not repeat;
# a CrossingReport is built once per classification of the crossing
ONCE_PER_REPORT = (
    ("steiner", "verify_gale_bijection"),
    ("invariants", "chern"),
    ("invariants", "poincare"),
    ("invariants", "local_data"),
    ("invariants", "delta_invariant"),
    ("ffcount", "basis_minors"),
    ("lattice", "build_lattice"),
    ("lattice", "CrossingReport"),
)


def spy(monkeypatch, targets) -> dict[str, list[tuple]]:
    """The positional arguments of every call to each (module, name) in `targets`."""
    calls = {name: [] for _, name in targets}
    package = [mod for key, mod in sys.modules.items()
               if key == "arrinv" or key.startswith("arrinv.")]
    for module, name in targets:
        original = getattr(importlib.import_module(f"arrinv.{module}"), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        # replace every reference the package holds, not just the report's
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_each_quantity_is_computed_once_per_report(monkeypatch):
    calls = spy(monkeypatch, ONCE_PER_REPORT)
    build_report(fixture("generic6_off_conic"))
    assert {name: len(args) for name, args in calls.items()} == dict.fromkeys(calls, 1)


def test_essential_is_decided_once_per_lattice(monkeypatch):
    # wrap the getter in a descriptor of its own kind, so a plain property
    # would run it on every read
    decided = []
    descriptor = vars(IntersectionLattice)["essential"]
    getter = getattr(descriptor, "func", None) or descriptor.fget

    def counted(lattice):
        decided.append(id(lattice))
        return getter(lattice)

    patched = type(descriptor)(counted)
    patched.__set_name__(IntersectionLattice, "essential")
    monkeypatch.setattr(IntersectionLattice, "essential", patched)
    build_report(fixture("generic6_off_conic"))
    assert len(decided) == len(set(decided)) == 1


# ten planes in P^4 whose last two coefficients are 0: not essential, the
# forms have rank 3
PLANES_OF_RANK_3 = parse_arrangement(4, [
    [0, 1, 0, 0, 0], [1, -1, -1, 0, 0], [1, 0, 0, 0, 0], [0, 1, -1, 0, 0],
    [1, 0, 1, 0, 0], [1, -1, 0, 0, 0], [0, 1, 1, 0, 0], [1, 0, -1, 0, 0],
    [1, 1, -1, 0, 0], [1, 1, 1, 0, 0]])


def eliminations(monkeypatch, a) -> int:
    """`bareiss` and `rref` calls made by the lattice and the basis gcds."""
    calls = spy(monkeypatch, [("linalg", "bareiss"), ("linalg", "rref")])
    analysis = Analysis(a, DEFAULT_PRIMES, DEFAULT_MAX_SUBSETS)
    analysis.lattice
    analysis.basis_minors
    return len(calls["bareiss"]) + len(calls["rref"])


def test_each_basis_is_eliminated_once(monkeypatch):
    # six lines in P^2: the walk cuts flats without eliminating, and the
    # minors take one RREF of the forms and one determinant per 3-set
    assert eliminations(monkeypatch, fixture("generic6_off_conic")) == 1 + comb(6, 3) == 21


def test_each_basis_is_eliminated_once_when_not_essential(monkeypatch):
    # rank 3 in P^4: one RREF, one determinant of it per set of 3 columns
    # other than its pivots, and one determinant per 3-set of forms
    assert (eliminations(monkeypatch, PLANES_OF_RANK_3)
            == 1 + (comb(5, 3) - 1) + comb(10, 3) == 130)


@pytest.mark.parametrize("primes", [(7, 11, 101), (101, 13, 11, 7)])
def test_each_oracle_prime_is_checked_once_and_counted_once(monkeypatch, primes):
    # 7 and 11 divide the minor of t = 0, 7, 11, so both retry with 13
    a = parse_arrangement(2, [[1, t, t * t] for t in (0, 1, 2, 7, 11)])
    calls = spy(monkeypatch, [("ffcount", "prime_preserves_lattice"),
                              ("ffcount", "count_complement_points")])
    oracles = build_report(a, primes=primes)["oracles"]
    assert [p for _, p in calls["prime_preserves_lattice"]] == [7, 11, 13, 101]
    assert sorted(p for _, p in calls["count_complement_points"]) == [13, 101]
    retried_with = {7: 13, 11: 13, 13: 13, 101: 101}
    for p, check in zip(primes, oracles):
        q = retried_with[p]
        assert (check["check"], check["status"]) == (f"finite_field_count_p{p}", "pass")
        # five lines in general position: (q - 1)(q^2 + q + 1 - 5(q + 1) + 10)
        assert check["counted"] == (q - 1) * (q * q - 4 * q + 6)
        assert check.get("note") == (None if p == q else
                                     f"p = {p} degenerates the reduction; retried with {q}")


def test_a_lattice_breaking_the_pair_count_stops_the_report():
    # every pair of lines meets in one point, so C(m, 2) - sum(s - 1) =
    # sum C(s - 1, 2) over the points; the delta invariant, computed once,
    # checks that, and a lattice missing a double point fails it
    a = fixture("generic6_off_conic")
    kept = tuple(f for f in build_lattice(a).flats if f.indices != (1, 2))
    analysis = Analysis(a, DEFAULT_PRIMES, DEFAULT_MAX_SUBSETS)
    analysis.lattice = IntersectionLattice(a, kept)
    with pytest.raises(AssertionError, match="pair-count identity"):
        analysis.report()


@pytest.mark.parametrize("a", [
    parse_arrangement(2, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0]]),
    fixture("boolean_n2"),
], ids=["four_concurrent_lines", "boolean_n2"])
@pytest.mark.parametrize("keyword, value, message", [
    ("max_subsets", -1, "^max_subsets must be an int >= 0, got -1$"),
], ids=["max_subsets"])
def test_arguments_are_checked_without_a_steiner_sheaf(a, keyword, value, message):
    # neither arrangement has a Steiner sheaf, so `torelli_verdict` never
    # runs to check the argument
    with pytest.raises(ValueError, match=message):
        build_report(a, **{keyword: value})


@pytest.mark.parametrize("name", ["generic5", "generic6_on_conic"])
def test_a_non_prime_is_rejected_before_any_count(monkeypatch, name):
    # 4 divides a basis gcd of generic6_on_conic and none of generic5, so a
    # retry could stand in for it on one and not the other
    counted = []
    monkeypatch.setattr(report_mod, "count_complement_points",
                        lambda a, p: counted.append(p))
    with pytest.raises(ValueError, match="^4 is not prime$"):
        build_report(fixture(name), primes=(7, 4))
    assert counted == []


def test_a_non_prime_is_rejected_before_the_lattice_is_built(monkeypatch):
    # the arguments are checked when the Analysis is built, before any section
    calls = spy(monkeypatch, [("lattice", "build_lattice")])
    with pytest.raises(ValueError, match="^4 is not prime$"):
        build_report(fixture("generic5"), primes=(7, 4))
    assert calls == {"build_lattice": []}


@pytest.mark.parametrize("prime", [7.0, "7", True])
def test_a_prime_that_is_not_an_int_is_rejected_before_any_count(monkeypatch, prime):
    # 7.0 and "7" would fail inside the count, and True would pass as 1
    counted = []
    monkeypatch.setattr(report_mod, "count_complement_points",
                        lambda a, p: counted.append(p))
    with pytest.raises(ValueError, match="^prime must be an int, got "):
        build_report(fixture("generic5"), primes=(11, prime))
    assert counted == []


def test_a_repeated_prime_is_rejected_before_any_count(monkeypatch):
    # counted twice it would give two finite_field_count_p7 entries
    counted = []
    monkeypatch.setattr(report_mod, "count_complement_points",
                        lambda a, p: counted.append(p))
    with pytest.raises(ValueError, match="^prime 7 is repeated$"):
        build_report(fixture("generic5"), primes=(7, 11, 7))
    assert counted == []


def test_an_empty_prime_list_is_rejected_before_any_count(monkeypatch):
    # with no prime the report would hold no finite_field_count entry, the
    # lattice's one cross-check by point counting
    counted = []
    monkeypatch.setattr(report_mod, "count_complement_points",
                        lambda a, p: counted.append(p))
    with pytest.raises(ValueError, match="^at least one oracle prime is needed$"):
        build_report(fixture("generic5"), primes=())
    assert counted == []


@pytest.mark.parametrize("name", fixture_names())
def test_each_section_is_ready_for_json(name):
    # `Analysis.section` is the one place a section is encoded: a tuple,
    # enum or Fraction left in it would not survive the round trip
    an = Analysis(fixture(name), DEFAULT_PRIMES, DEFAULT_MAX_SUBSETS)
    for s in map(an.section, SECTIONS):
        assert json.loads(json.dumps(s)) == s


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_report_matches_the_committed_digest(name):
    text = json.dumps(jsonable(build_report(fixture(name))), indent=2)
    want = json.loads(REFS.read_text(encoding="utf-8"))["digests"][name][0][1]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want


# SHA-256 of the indented JSON of build_report(a, primes=(7, 11)) on the
# sweep below, keyed by (row kind, n, m). The sweep covers n = 1 and
# n = 3, which the benchmark's n = 2 corpus does not, and most entries
# carry a retried-prime note (random n = 3, m = 8 retries both primes with
# 47). n = 4 is left out to keep the test fast: each count walks p^4 fibers.
SWEEP_DIGESTS = {
    ("curve", 1, 2): "c47ec441c4edfc523614af39e4c793b274d3dfbdc4301f8399168657d399b34f",
    ("random", 1, 2): "de37b3941f3ebb49efedb649b8ff0d6bfc4548358f5ab27887e26c47b389850a",
    ("curve", 1, 3): "c218b0eea71f18a2d085a19db8047786e8f67509fe42c19c0cc44a9816d1824c",
    ("random", 1, 3): "7b9d3ef8a1edca655a540abdacababdfcb41741e4fd5ce95941d23bc00fa4c58",
    ("curve", 1, 4): "f95b8b6c718b6967708b560d2bef1e232aeaf56645c82b03a76efa535d5182ea",
    ("random", 1, 4): "87bd802678eec58bf1cfba618d7a54f56fbce27a0d7ba195ba5b8db883edef9b",
    ("curve", 1, 5): "979cf75e4eb76129282f05ef901c5a26ab606123abbc2ba17e53d4207f7e47e8",
    ("random", 1, 5): "846800b9bf3eafbe1bad51cb4934032bf5c732fdbfc31cfd16ec1ab9479aea6b",
    ("curve", 1, 6): "bc5797c3ec053002e0d4b8ee8ec2d5bf2883f92f193e1baabe396f6767cbf115",
    ("random", 1, 6): "72591df9ee145bb8bfc439c546fa3ef33a61205490e9161c0240ef154baf3e0d",
    ("curve", 3, 4): "b72654cd6d4bea62d1d505c8f3b67202c087c5595a87c4d17be057d4bd796923",
    ("random", 3, 4): "fe4d053916d75a874db232ce3dee6a5121976423716b427fe64172045964b1c7",
    ("curve", 3, 5): "0aadca3923de9271fe0232b335cc801b6e628099cbc4f51a4a3380a68cc28b6a",
    ("random", 3, 5): "3f719b92963006b3d878e95bc5e7c7153bc67e5a3e39b3a5991af7f77d70bcc6",
    ("curve", 3, 6): "d891e755ded9dd8d5456727e5c0f9996f075af654cd2671668b73a43740a5798",
    ("random", 3, 6): "3bb6b01cde56c1cd31ebe80debff10f182fe80467b9ff26b35d27c59d2802c37",
    ("curve", 3, 7): "9096acf1e2a39a4e45f8bbc24e4f0b3645be5140988ed65eb74c9846b55b6cfc",
    ("random", 3, 7): "40434cb66433f04efa6820b3fe24122e2ef073d8b6fbf8dd471ab96541033234",
    ("curve", 3, 8): "ef55defd1ffd46e3921f88eb3a95c097fa5db6f6eac7e47cd1895cf8b5c927d7",
    ("random", 3, 8): "d705b7d91962c9b4aa4500715e018d28946172efca6fd1e881d816c75329041b",
}


def sweep_input(kind: str, n: int, m: int):
    """m forms in P^n: rows (1, t, ..., t^n) for distinct t in [-12, 12],
    or random rows with coefficients in [-5, 5], seeded by the key."""
    rng = random.Random(f"report-sweep/{kind}/{n}/{m}")
    if kind == "curve":
        ts = sorted(rng.sample(range(-12, 13), m))
        return parse_arrangement(n, [[t ** k for k in range(n + 1)] for t in ts])
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(n + 1)] for _ in range(m)]
        try:
            return parse_arrangement(n, rows)
        except InvalidArrangement:   # a zero row, or two rows with the same form
            continue


@pytest.mark.parametrize("kind, n, m", list(SWEEP_DIGESTS))
def test_sweep_report_matches_the_pinned_digest(kind, n, m):
    report = jsonable(build_report(sweep_input(kind, n, m), primes=(7, 11)))
    text = json.dumps(report, indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SWEEP_DIGESTS[kind, n, m]
