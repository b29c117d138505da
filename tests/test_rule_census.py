"""Every verdict rule the code can state is stated for some input.

The rule texts `stability.classify` appends and the verdicts
`torelli.torelli_verdict` returns are read from the source's syntax tree:
each `rules.append(...)` in `classify`, and each `verdict(status, rule,
line)` call in `torelli_verdict`. An f-string becomes a pattern whose
formatted values match any text, and both arms of an `if` expression count.
Every one of them, and every `WitnessKind`, must come out of some input in
the table below: the bundled fixtures plus a few constructed arrangements.
So must the curve tests' outcomes: every `ConicClass` out of `conic_test`,
and every `RncVerdict` and every `detail` text (each `RncResult(...)`
anywhere in the torelli module, `rnc_test` and the frame test it shares
with rule 1) out of `rnc_test` on the whole label set. A rule no input
reaches is either dead code or a missing test, in the way an uncalled
function is (`test_unreferenced.py`).
"""

from __future__ import annotations

import ast
import re

from arrinv.arrangement import parse_arrangement
from arrinv.fixtures import fixture, fixture_names
from arrinv.lattice import build_lattice
from arrinv.report import DEFAULT_PRIMES, Analysis
from arrinv.stability import WitnessKind, free_splitting_stability
from arrinv.torelli import (DEFAULT_MAX_SUBSETS, ConicClass, RncVerdict, conic_test,
                            rnc_test)
from test_torelli import CONIC_PAIRS_AND_A_POINT, twisted_cubic_rows
from test_unreferenced import SRC

INPUTS = {name: fixture(name) for name in fixture_names()} | {
    # on P^1 the sheaf is a line bundle
    "three_points": parse_arrangement(1, [[1, 0], [0, 1], [1, 1]]),
    # seven lines dual to points of the smooth conic y^2 = xz
    "conic7": parse_arrangement(2, [[1, t, t * t] for t in range(7)]),
    # seven planes dual to points of a twisted cubic
    "cubic7": parse_arrangement(3, twisted_cubic_rows(range(7))),
    "conic_pairs_and_a_point": parse_arrangement(2, CONIC_PAIRS_AND_A_POINT),
    # four points, three of them collinear: linearly degenerate
    "triple_and_a_point": parse_arrangement(2, [[1, 0, 0], [0, 1, 0], [1, 1, 0],
                                                [0, 0, 1]]),
    # five concurrent lines: five collinear dual points, degenerate
    "five_concurrent": parse_arrangement(2, [[1, t, 0] for t in range(5)]),
    # a frame and (1, 1, 2), collinear with (0, 0, 1) and (1, 1, 1): degenerate
    "pole_collision": parse_arrangement(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                            [1, 1, 1], [1, 1, 2]]),
}


def _patterns(node: ast.expr) -> list[str]:
    """Regular expressions for every text `node` can evaluate to."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [re.escape(node.value)]
    if isinstance(node, ast.JoinedStr):
        return ["".join(re.escape(part.value) if isinstance(part, ast.Constant)
                        else ".+" for part in node.values)]
    if isinstance(node, ast.IfExp):
        return _patterns(node.body) + _patterns(node.orelse)
    raise AssertionError(f"no census reading of {ast.dump(node)}")


def _module(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _function(module: str, name: str) -> ast.FunctionDef:
    return next(node for node in _module(module).body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _calls(tree: ast.AST, matches) -> list[ast.Call]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and matches(node.func)]


def stability_rules() -> list[str]:
    """Patterns of every rule text `classify` appends."""
    calls = _calls(_function("stability", "classify"),
                   lambda f: isinstance(f, ast.Attribute) and f.attr == "append"
                   and isinstance(f.value, ast.Name) and f.value.id == "rules")
    return [p for call in calls for p in _patterns(call.args[0])]


def torelli_rules() -> list[tuple[str, str, str]]:
    """(status, rule, final trace line pattern) of every verdict `torelli_verdict` returns."""
    calls = _calls(_function("torelli", "torelli_verdict"),
                   lambda f: isinstance(f, ast.Name) and f.id == "verdict")
    return [(call.args[0].attr, rule, line) for call in calls
            for rule in _patterns(call.args[1]) for line in _patterns(call.args[2])]


def rnc_details() -> list[str]:
    """Patterns of every detail text an `RncResult` of the torelli module holds."""
    calls = _calls(_module("torelli"),
                   lambda f: isinstance(f, ast.Name) and f.id == "RncResult")
    return [p for call in calls for p in _patterns(call.args[3])]


def outcomes():
    """Rule texts, witness kinds and Torelli verdicts the inputs produce."""
    rules, kinds, verdicts = set(), set(), set()
    for a in INPUTS.values():
        an = Analysis(a, DEFAULT_PRIMES, DEFAULT_MAX_SUBSETS)
        stab, tv = an.stability, an.torelli
        if stab is None:   # no Steiner sheaf, no verdicts
            continue
        rules.update(stab.rules_applied)
        kinds.update(w.kind for w in stab.witnesses)
        verdicts.add((tv.status.name, tv.rule, tv.trace[-1]))
    # the splitting test, not yet in `classify`, is the one producer of its kind
    kinds.update(w.kind for w in free_splitting_stability([1, 2]).witnesses)
    return rules, kinds, verdicts


def curve_outcomes():
    """Conic classes, RNC verdicts and RNC detail texts the inputs produce."""
    classes, verdicts, details = set(), set(), set()
    for a in INPUTS.values():
        if a.n == 2:
            classes.add(conic_test(a).classification)
        if a.n >= 2:
            rnc = rnc_test(build_lattice(a))
            verdicts.add(rnc.verdict)
            details.add(rnc.detail)
    return classes, verdicts, details


def test_the_census_reads_every_rule_site():
    # a renamed trail or helper would otherwise leave nothing to check
    assert len(stability_rules()) == 7
    assert len(torelli_rules()) == 9
    assert len(rnc_details()) == 4


def test_every_rule_and_witness_kind_is_reached():
    rules, kinds, verdicts = outcomes()
    assert [p for p in stability_rules()
            if not any(re.fullmatch(p, text) for text in rules)] == []
    assert [(status, rule, line) for status, rule, line in torelli_rules()
            if not any(s == status and re.fullmatch(rule, r) and re.fullmatch(line, t)
                       for s, r, t in verdicts)] == []
    assert set(WitnessKind) - kinds == set()


def test_every_curve_test_outcome_is_reached():
    classes, verdicts, details = curve_outcomes()
    assert set(ConicClass) - classes == set()
    assert set(RncVerdict) - verdicts == set()
    assert [p for p in rnc_details()
            if not any(re.fullmatch(p, text) for text in details)] == []
