"""Report assembly: one analysis computes each quantity once."""

from __future__ import annotations

import hashlib
import importlib
import json
import pathlib
import sys

import pytest

from arrinv.fixtures import fixture, fixture_names
from arrinv.lattice import IntersectionLattice, build_lattice
from arrinv.report import DEFAULT_PRIMES, Analysis, build_report, jsonable
from arrinv.torelli import DEFAULT_MAX_SUBSETS

# the benchmark's committed digests; entry 0 of each fixture's stratum is
# the fixture itself
REFS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "fixtures.json"

# (module, function): the expensive or checking steps a report must not repeat
ONCE_PER_REPORT = (
    ("steiner", "verify_gale_bijection"),
    ("invariants", "chern"),
    ("invariants", "poincare"),
    ("invariants", "local_data"),
    ("invariants", "delta_invariant"),
    ("arrangement", "subset_ranks"),
    ("lattice", "build_lattice"),
)


def test_each_quantity_is_computed_once_per_report(monkeypatch):
    calls = dict.fromkeys([name for _, name in ONCE_PER_REPORT], 0)
    package = [mod for key, mod in sys.modules.items()
               if key == "arrinv" or key.startswith("arrinv.")]
    for module, name in ONCE_PER_REPORT:
        original = getattr(importlib.import_module(f"arrinv.{module}"), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # replace every reference the package holds, not just the report's
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    build_report(fixture("generic6_off_conic"))
    assert calls == dict.fromkeys(calls, 1)


def test_a_lattice_breaking_the_pair_count_stops_the_report():
    # every pair of lines meets in one point, so C(m, 2) - sum(s - 1) =
    # sum C(s - 1, 2) over the points; the delta invariant, computed once,
    # checks that, and a lattice missing a double point fails it
    a = fixture("generic6_off_conic")
    kept = [(f, mu) for f, mu in build_lattice(a).items() if f.indices != (1, 2)]
    analysis = Analysis(a, DEFAULT_PRIMES, DEFAULT_MAX_SUBSETS, True)
    analysis.lattice = IntersectionLattice(a, *map(tuple, zip(*kept)))
    with pytest.raises(AssertionError, match="pair-count identity"):
        analysis.report()


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_report_matches_the_committed_digest(name):
    text = json.dumps(jsonable(build_report(fixture(name))), indent=2)
    want = json.loads(REFS.read_text(encoding="utf-8"))["digests"][name][0][1]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want
