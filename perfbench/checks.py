"""Correctness checks on `analyze` output.

A report fails when its call raised, when any oracle check says "fail", when
its digest differs from the committed reference, or (fixtures workload) when
an invariant section differs from the report of the fixture it is an image of.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"


def digest(obj: dict) -> str:
    """SHA-256 of the `analyze` JSON with every `oracles[*].backend` removed.

    `backend` names the counting build that ran, not a result, so it is left
    out of the digest.
    """
    oracles = [{k: v for k, v in o.items() if k != "backend"} for o in obj["oracles"]]
    text = json.dumps({**obj, "oracles": oracles}, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_refs(workload: str) -> dict:
    """{stratum: [[input digest, output digest], ...]} for one workload."""
    return json.loads((REFS / f"{workload}.json").read_text(encoding="utf-8"))["digests"]


def report_failures(entry, obj: dict, refs: dict) -> list[str]:
    """Reasons the report of `entry` fails, empty when it is verified."""
    reasons = []
    failed = [o.get("check") for o in obj.get("oracles", []) if o.get("status") == "fail"]
    if failed:
        reasons.append("oracle check failed: " + ", ".join(map(str, failed)))
    try:
        want_in, want_out = refs[entry.stratum][entry.index]
    except (KeyError, IndexError):
        return reasons + ["no reference digest"]
    if input_digest(entry.text) != want_in:
        reasons.append("input differs from the reference corpus")
    elif digest(obj) != want_out:
        reasons.append("digest mismatch")
    return reasons


def invariant_sections(obj: dict) -> dict:
    """The parts of a report that a change of coordinates must not move."""
    lattice, torelli, gale = obj["lattice"], obj["torelli"], obj["gale"]
    return {
        "flats": [[f["indices"], f["rank"], f["s"], f["mobius"]] for f in lattice["flats"]],
        "crossing": lattice["crossing"],
        "poincare": obj["poincare"],
        "chern": obj["chern"],
        "delta": obj["delta"],
        "stability": obj["stability"]["status"],
        "torelli": [torelli["status"], torelli.get("rule")],
        "gale": [gale.get("dependent_sets_primal"), gale.get("dependent_sets_dual")],
        "oracles": [[o["check"], o["status"]] for o in obj["oracles"]],
    }


def invariance_failures(image: dict, base: dict) -> list[str]:
    """Sections of an image's report that differ from its fixture's report."""
    mine, theirs = invariant_sections(image), invariant_sections(base)
    return [f"invariance: {key} differs from the fixture"
            for key in mine if mine[key] != theirs[key]]
