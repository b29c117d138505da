"""Report assembly: one analysis computes each quantity once."""

from __future__ import annotations

import importlib
import sys

from arrinv.fixtures import fixture
from arrinv.report import build_report

# (module, function): the expensive or checking steps a report must not repeat
ONCE_PER_REPORT = (
    ("steiner", "verify_gale_bijection"),
    ("invariants", "chern"),
    ("invariants", "poincare"),
    ("arrangement", "is_essential"),
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
