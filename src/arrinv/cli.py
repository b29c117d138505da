"""Command line interface.

Commands operate on an arrangement file in the canonical JSON input format
and print JSON by default (--pretty switches the full report to a table
rendering). Exit codes: 0 success, 2 invalid input, and 1 when `verify`
finds a failing check.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arrangement import Arrangement, InvalidArrangement, is_essential, \
    parse_arrangement_json
from .ffcount import is_prime
from .fixtures import fixture, fixture_names, fixture_note
from .lattice import build_lattice
from .report import (DEFAULT_PRIMES, arrangement_section, build_report,
                     chern_section, delta_bound_check, delta_section, gale_section,
                     jsonable, lattice_section, oracle_checks, poincare_section,
                     render_pretty, stability_section, torelli_section)
from .stability import Status, classify
from .steiner import GaleUndefined, gale_dual, steiner_tensor
from .torelli import DEFAULT_MAX_SUBSETS, torelli_verdict


def _dump(obj) -> str:
    return json.dumps(jsonable(obj), indent=2) + "\n"


def _load(path: str) -> Arrangement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidArrangement(f"cannot read {path}: {exc.strerror}") from exc
    return parse_arrangement_json(text)


def _classified(a, lattice, args):
    """Stability verdict or (None, reason) when out of range."""
    if not is_essential(a):
        return None, "arrangement is not essential"
    if a.m < a.n + 2:
        return None, f"needs m >= n + 2, got m = {a.m}"
    tensor = steiner_tensor(a)
    verdict = classify(a, lattice, tensor=tensor,
                       literature_rules=not args.no_literature_rules)
    return verdict, None


def cmd_analyze(args) -> int:
    a = _load(args.path)
    report = build_report(a, primes=tuple(args.primes),
                          max_subsets=args.max_subsets,
                          literature_rules=not args.no_literature_rules)
    if args.pretty:
        sys.stdout.write(render_pretty(report))
    else:
        sys.stdout.write(_dump(report))
    return 0


def cmd_lattice(args) -> int:
    a = _load(args.path)
    sys.stdout.write(_dump(lattice_section(build_lattice(a))))
    return 0


def cmd_invariants(args) -> int:
    a = _load(args.path)
    lattice = build_lattice(a)
    out = {
        "poincare": poincare_section(lattice),
        "chern": (chern_section(a, lattice)
                  if is_essential(a) and a.m >= a.n + 2
                  else {"status": "unavailable",
                        "reason": "needs an essential arrangement with m >= n + 2"}),
        "delta": delta_section(a, lattice),
    }
    sys.stdout.write(_dump(out))
    return 0


def cmd_stability(args) -> int:
    a = _load(args.path)
    lattice = build_lattice(a)
    verdict, reason = _classified(a, lattice, args)
    sys.stdout.write(_dump(stability_section(verdict, reason)))
    return 0


def cmd_torelli(args) -> int:
    a = _load(args.path)
    lattice = build_lattice(a)
    verdict, reason = _classified(a, lattice, args)
    tv = None
    if verdict is not None:
        tv = torelli_verdict(a, lattice, verdict, max_subsets=args.max_subsets)
    sys.stdout.write(_dump(torelli_section(tv, reason)))
    return 0


def cmd_gale(args) -> int:
    a = _load(args.path)
    sys.stdout.write(_dump(gale_section(a)))
    return 0


def cmd_tensor(args) -> int:
    a = _load(args.path)
    if not is_essential(a) or a.m < a.n + 2:
        raise InvalidArrangement(
            "tensor needs an essential arrangement with m >= n + 2")
    t = steiner_tensor(a)
    out = {
        "m": t.m,
        "n": t.n,
        "relation_basis": [list(r) for r in t.u_basis.entries],
        "slices": [[list(row) for row in s.entries] for s in t.slices],
    }
    sys.stdout.write(_dump(out))
    return 0


def cmd_verify(args) -> int:
    a = _load(args.path)
    lattice = build_lattice(a)
    verdict, _ = _classified(a, lattice, args)
    checks = oracle_checks(a, lattice, primes=tuple(args.primes))
    checks.append(delta_bound_check(a, lattice, verdict))
    failed = [c for c in checks if c["status"] == "fail"]
    if not args.pretty:
        sys.stdout.write(_dump({"checks": checks, "ok": not failed}))
    else:
        for c in checks:
            line = f"{c['check']}: {c['status'].upper()}"
            if c["check"] == "delta_bound" and c["status"] != "skipped":
                line += (f" (delta = {c['delta']}, quarter bound {c['quarter_bound']}"
                         f" {'holds' if c['quarter_holds'] else 'fails'},"
                         f" fifth bound {c['fifth_bound']}"
                         f" {'holds' if c['fifth_holds'] else 'fails'})")
            sys.stdout.write(line + "\n")
        sys.stdout.write("all checks passed\n" if not failed
                         else f"{len(failed)} check(s) FAILED\n")
    return 1 if failed else 0


def cmd_conjecture(args) -> int:
    a = _load(args.path)
    if a.m < a.n + 3:
        raise InvalidArrangement(
            f"the dual construction needs m >= n + 3; m = {a.m}, n = {a.n} "
            "leaves no dual ambient space")
    try:
        dual = gale_dual(a)
    except GaleUndefined as exc:
        raise InvalidArrangement(f"dual arrangement undefined: {exc}") from exc

    def _side(arr):
        lat = build_lattice(arr)
        tensor = steiner_tensor(arr)
        return classify(arr, lat, tensor=tensor,
                        literature_rules=not args.no_literature_rules)

    pv = _side(a)
    dv = _side(dual)

    def _bucket(v):
        if v.status is Status.STABLE:
            return "stable"
        if v.status in (Status.UNSTABLE, Status.NOT_STABLE):
            return "not_stable"
        return None

    pb, db = _bucket(pv), _bucket(dv)
    if pb is None or db is None:
        agreement = "undetermined"
    elif pb == db:
        agreement = "agree"
    else:
        agreement = "disagree"
    out = {
        "primal": stability_section(pv, None),
        "dual": {"arrangement": arrangement_section(dual),
                 **stability_section(dv, None)},
        "agreement": agreement,
        "counterexample_candidate": agreement == "disagree",
    }
    if agreement == "disagree":
        sys.stderr.write(
            "WARNING: primal and dual stability verdicts disagree; this "
            "contradicts the duality conjecture, check the input carefully\n")
    sys.stdout.write(_dump(out))
    return 0


def cmd_examples(args) -> int:
    if args.action == "list":
        sys.stdout.write(_dump(fixture_names()))
        return 0
    name = args.name
    if name is None:
        raise InvalidArrangement("examples show needs a fixture name")
    try:
        a = fixture(name)
        note = fixture_note(name)
    except KeyError as exc:
        raise InvalidArrangement(
            f"unknown fixture {name!r}; run 'examples list' for names") from exc
    out = dict(a.to_json_dict())
    out["note"] = note
    sys.stdout.write(_dump(out))
    return 0


def _int_where(ok, what: str):
    """argparse type: an integer accepted by `ok`, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pretty", action="store_true",
                   help="human-readable rendering instead of JSON")
    p.add_argument("--prime", dest="primes", action="append", metavar="P",
                   type=_int_where(is_prime, "a prime"),
                   help="oracle prime, repeatable "
                   f"(default {list(DEFAULT_PRIMES)})")
    p.add_argument("--max-subsets", default=DEFAULT_MAX_SUBSETS, metavar="N",
                   type=_int_where(lambda v: v >= 0, "an integer >= 0"),
                   help="cap (>= 0) on subsets examined by the recoverability "
                   "search, non-generic ones included")
    p.add_argument("--no-literature-rules", action="store_true",
                   help="restrict stability to the built-in numeric tests")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arrinv",
        description="exact invariants of projective hyperplane arrangements")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, fn, desc in [
        ("analyze", cmd_analyze, "full report: lattice, invariants, stability, "
                                 "recoverability, dual, oracle checks"),
        ("lattice", cmd_lattice, "intersection lattice with Moebius values"),
        ("invariants", cmd_invariants, "Poincare and Chern data, delta invariant"),
        ("stability", cmd_stability, "stability classification with witnesses"),
        ("torelli", cmd_torelli, "recoverability verdict"),
        ("gale", cmd_gale, "dual configuration and dependency bijection"),
        ("tensor", cmd_tensor, "defining tensor slices"),
        ("verify", cmd_verify, "run the exact check suite; exit 1 on failure"),
        ("conjecture", cmd_conjecture, "compare stability of the arrangement "
                                       "and its dual"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("path", help="arrangement JSON file")
        _add_common(p)
        p.set_defaults(fn=fn)

    ex = sub.add_parser("examples", help="bundled example arrangements")
    ex.add_argument("action", choices=["list", "show"])
    ex.add_argument("name", nargs="?", help="fixture name for show")
    _add_common(ex)
    ex.set_defaults(fn=cmd_examples)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.primes is None:
        args.primes = list(DEFAULT_PRIMES)
    try:
        return args.fn(args)
    except InvalidArrangement as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, GaleUndefined) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
