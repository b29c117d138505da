"""Command line interface.

Commands operate on an arrangement file in the canonical JSON input format
and print JSON by default (--pretty switches the full report to a table
rendering). Each command reads the sections it prints from one
`report.Analysis` of the input, so it prints exactly what `analyze` prints
there. Exit codes: 0 success, 1 when `verify` finds a failing check, 2
invalid input or a flag value `Analysis` refuses (printed as `error: ` and
the library rule's message), and 3 an internal error (a broken internal
identity or any other fault of the program).
"""

import argparse
import json
import sys

from .arrangement import Arrangement, InvalidArrangement, parse_arrangement_json
from .fixtures import fixture, fixture_names, fixture_note
from .report import DEFAULT_PRIMES, Analysis, jsonable, render_check, render_pretty
from .stability import Status
from .steiner import GaleUndefined, gale_dual, gale_unavailable
from .torelli import DEFAULT_MAX_SUBSETS


def _dump(obj) -> str:
    return json.dumps(jsonable(obj), indent=2) + "\n"


def _print(obj) -> int:
    sys.stdout.write(_dump(obj))
    return 0


def _load(path: str) -> Arrangement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidArrangement(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidArrangement(f"cannot read {path}: not UTF-8 text") from exc
    return parse_arrangement_json(text)


def _analysis(args) -> Analysis:
    a = _load(args.path)
    try:
        # building an Analysis checks its arguments and does no other work
        return Analysis(a, tuple(args.primes or DEFAULT_PRIMES), args.max_subsets)
    except ValueError as exc:
        raise InvalidArrangement(str(exc)) from exc


def cmd_analyze(args) -> int:
    report = _analysis(args).report()
    if args.pretty:
        sys.stdout.write(render_pretty(report))
        return 0
    return _print(report)


def _sections(*names):
    """A command printing these report sections; a single one is unwrapped."""
    def cmd(args) -> int:
        an = _analysis(args)
        parts = {name: an.section(name) for name in names}
        return _print(parts[names[0]] if len(names) == 1 else parts)
    return cmd


def cmd_tensor(args) -> int:
    an = _analysis(args)
    t = an.tensor
    if t is None:
        raise InvalidArrangement(f"defining tensor: {an.unavailable}")
    return _print({"m": t.m, "n": t.n, "relation_basis": t.u_basis, "slices": t.slices})


def cmd_verify(args) -> int:
    checks = _analysis(args).section("oracles")
    failed = [c for c in checks if c["status"] == "fail"]
    if not args.pretty:
        sys.stdout.write(_dump({"checks": checks, "ok": not failed}))
    else:
        for c in checks:
            sys.stdout.write(render_check(c) + "\n")
        sys.stdout.write("all checks passed\n" if not failed
                         else f"{len(failed)} check(s) FAILED\n")
    return 1 if failed else 0


def cmd_conjecture(args) -> int:
    primal = _analysis(args)
    why = gale_unavailable(primal.lattice)
    if why is not None:
        raise InvalidArrangement(f"dual arrangement undefined: {why}")
    try:
        dual = Analysis(gale_dual(primal.tensor), primal.primes, primal.max_subsets)
    except GaleUndefined as exc:
        raise InvalidArrangement(f"dual arrangement undefined: {exc}") from exc

    def _bucket(v):
        if v.status is Status.STABLE:
            return "stable"
        if v.status in (Status.UNSTABLE, Status.NOT_STABLE):
            return "not_stable"
        return None

    pb, db = _bucket(primal.stability), _bucket(dual.stability)
    if pb is None or db is None:
        agreement = "undetermined"
    elif pb == db:
        agreement = "agree"
    else:
        agreement = "disagree"
    out = {
        "primal": primal.section("stability"),
        "dual": {"arrangement": dual.section("arrangement"), **dual.section("stability")},
        "agreement": agreement,
        "counterexample_candidate": agreement == "disagree",
    }
    if agreement == "disagree":
        sys.stderr.write(
            "WARNING: primal and dual stability verdicts disagree; this "
            "contradicts the duality conjecture, check the input carefully\n")
    return _print(out)


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
    return _print(out)


# each option by name: (flag, add_argument keywords); a command gets only
# the options it reads, so any other flag is a usage error
OPTIONS = {
    "pretty": ("--pretty", dict(action="store_true",
                                help="human-readable rendering instead of JSON")),
    "prime": ("--prime", dict(dest="primes", action="append", metavar="P", type=int,
                              help="oracle prime, repeatable "
                              f"(default {list(DEFAULT_PRIMES)})")),
    "max-subsets": ("--max-subsets", dict(
        default=DEFAULT_MAX_SUBSETS, metavar="N", type=int,
        help="cap (>= 0) on subsets examined by the recoverability search, "
        "non-generic ones included")),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arrinv",
        description="exact invariants of projective hyperplane arrangements")
    # what `_analysis` reads for a command without the option
    ap.set_defaults(primes=None, max_subsets=DEFAULT_MAX_SUBSETS)
    sub = ap.add_subparsers(dest="command", required=True)

    for name, fn, options, desc in [
        ("analyze", cmd_analyze, "pretty prime max-subsets",
         "full report: lattice, invariants, stability, recoverability, dual, "
         "oracle checks"),
        ("lattice", _sections("lattice"), "", "intersection lattice with Moebius values"),
        ("invariants", _sections("poincare", "chern", "delta"), "",
         "Poincare and Chern data, delta invariant"),
        ("stability", _sections("stability"), "",
         "stability classification with witnesses"),
        ("torelli", _sections("torelli"), "max-subsets", "recoverability verdict"),
        ("gale", _sections("gale"), "", "dual configuration and dependency bijection"),
        ("tensor", cmd_tensor, "", "defining tensor slices"),
        ("verify", cmd_verify, "pretty prime",
         "run the exact check suite; exit 1 on failure"),
        ("conjecture", cmd_conjecture, "",
         "compare stability of the arrangement and its dual"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("path", help="arrangement JSON file")
        for option in options.split():
            flag, keywords = OPTIONS[option]
            p.add_argument(flag, **keywords)
        p.set_defaults(fn=fn)

    ex = sub.add_parser("examples", help="bundled example arrangements")
    ex.add_argument("action", choices=["list", "show"])
    ex.add_argument("name", nargs="?", help="fixture name for show")
    ex.set_defaults(fn=cmd_examples)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvalidArrangement as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        # anything else is a fault of the program, not of the input
        sys.stderr.write(f"error: internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
