"""Deterministic report assembly shared by the CLI commands.

A report is read from one `Analysis` of the arrangement, which computes
each quantity at most once. Two quantities read the forms directly: the
intersection lattice, whose flats and Mobius values come from one walk
over the no-broken-circuit sets that cuts each flat by one form, and the
gcd of each r-set's maximal minors over Z, zero on a dependent set: an
oracle prime is accepted when it divides no nonzero one. The lattice is the
one place that decides dependence: the Torelli genericity, the linear
general position `rnc_test` needs and the Gale primal sets, which the Gale
check sets against the zero gcds, ask it. The defining
tensor is built from the lattice, and its relation basis gives the Gale
dual points wherever `steiner.gale_unavailable` allows. Stability, Torelli,
Chern data, the delta section's h0 values and the tensor exist only where
the Steiner sheaf does; `Analysis.unavailable` reads that off the lattice
with `invariants.steiner_unavailable`, the rule the sheaf layer itself
enforces. The CLI commands print sections of an Analysis, so each prints
what `analyze` does.

Each `*_section` method returns records, tuples, enums and Fractions as
they are; `Analysis.section` alone runs `jsonable` to ready them for
json.dumps. Five result records print whole, as objects of their fields:
`PoincareData`, `LocalPointData`, `Witness`, `ConicResult` and `RncResult`.
Field order is fixed by construction and all collection iteration is over
sorted data, so re-running on the same input produces byte-identical output.
Fractions are emitted as JSON integers when integral and as "p/q" strings
otherwise.
"""

from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import comb

from .arrangement import Arrangement
from .ffcount import basis_minors, check_prime, count_complement_points, next_valid_prime
from .invariants import (ChernData, LocalPointData, PoincareData, chern,
                         complement_count_prediction, delta_invariant, h0_values,
                         local_data, poincare, steiner_unavailable,
                         twist_transform)
from .lattice import IntersectionLattice, build_lattice
from .steiner import (GaleBijectionReport, GaleUndefined, SteinerTensor,
                      dual_columns, gale_dual, gale_unavailable,
                      steiner_tensor, verify_gale_bijection)
from .stability import StabilityVerdict, Status, classify
from .torelli import (DEFAULT_MAX_SUBSETS, TorelliVerdict, check_max_subsets,
                      torelli_verdict)

DEFAULT_PRIMES = (7, 11, 101)
SECTIONS = ("arrangement", "lattice", "poincare", "chern", "delta", "stability",
            "torelli", "gale", "oracles")


def jsonable(x):
    """Fractions to int or 'p/q' string, enums to their values; the rest recursively.

    A result record (a NamedTuple) becomes an object keyed by its fields in
    field order; any other object raises TypeError.
    """
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, str) or x is None:
        return x
    if isinstance(x, Enum):
        return jsonable(x.value)
    if isinstance(x, tuple) and hasattr(x, "_fields"):
        return {k: jsonable(v) for k, v in zip(x._fields, x)}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    raise TypeError(f"not jsonable: {type(x)!r}")


class Analysis:
    """The data of one report on one arrangement, each quantity computed once.

    The quantities are `cached_property`s filled on first use, so a command
    computes only what the sections it prints need. An Analysis is built per
    call and holds nothing beyond it. Building one checks every argument
    before any work, with the checker beside the code that reads it:
    `check_max_subsets` and `check_prime` for each prime. The prime list
    must also be nonempty and repeat no prime. A refused argument raises
    ValueError, also where its reader never runs. There is no stability
    option: a `stable` verdict always names its theorem in its rule trail.
    """

    def __init__(self, a: Arrangement, primes: tuple[int, ...], max_subsets: int):
        check_max_subsets(max_subsets)
        if not primes:
            raise ValueError("at least one oracle prime is needed")
        for i, p in enumerate(primes):
            check_prime(p)
            if p in primes[:i]:
                raise ValueError(f"prime {p} is repeated")
        self.a = a
        self.primes = primes
        self.max_subsets = max_subsets

    @cached_property
    def basis_minors(self) -> tuple[int, ...]:
        return basis_minors(self.a)

    @cached_property
    def lattice(self) -> IntersectionLattice:
        return build_lattice(self.a)

    @cached_property
    def poincare(self) -> PoincareData:
        return poincare(self.lattice)

    @cached_property
    def local_data(self) -> tuple[LocalPointData, ...]:
        return local_data(self.lattice)

    @cached_property
    def delta(self) -> int | None:
        """The delta invariant of a line arrangement; None unless n = 2."""
        return delta_invariant(self.lattice) if self.a.n == 2 else None

    @cached_property
    def unavailable(self) -> str | None:
        """Why stability, Torelli, Chern, h0 and tensor data are missing, or None."""
        return steiner_unavailable(self.lattice)

    @cached_property
    def tensor(self) -> SteinerTensor | None:
        return None if self.unavailable else steiner_tensor(self.lattice)

    @cached_property
    def stability(self) -> StabilityVerdict | None:
        if self.unavailable:
            return None
        return classify(self.lattice, self.delta)

    @cached_property
    def torelli(self) -> TorelliVerdict | None:
        if self.unavailable:
            return None
        return torelli_verdict(self.lattice, self.stability,
                               max_subsets=self.max_subsets)

    @cached_property
    def chern_data(self) -> ChernData | None:
        return None if self.unavailable else chern(self.lattice, self.poincare)

    @cached_property
    def gale_check(self) -> GaleBijectionReport | None:
        """The bijection check, where `gale_unavailable` finds no objection."""
        if gale_unavailable(self.lattice):
            return None
        return verify_gale_bijection(self.tensor, self.basis_minors)

    # -- sections -------------------------------------------------------

    def report(self) -> dict:
        return {name: self.section(name) for name in SECTIONS}

    def section(self, name: str):
        """The report section under key `name`, one of SECTIONS, ready for json.dumps."""
        return jsonable(getattr(self, name + "_section")())

    def arrangement_section(self) -> dict:
        a = self.a
        return {
            "n": a.n,
            "m": a.m,
            "hyperplanes": a.forms,
            "essential": self.lattice.essential,
        }

    def lattice_section(self) -> dict:
        lattice = self.lattice
        flats = [{"indices": f.indices, "rank": f.rank, "s": f.s, "mobius": f.mobius}
                 for f in lattice.flats]
        counts = Counter(f.rank for f in lattice.flats)
        crossing = lattice.crossing
        return {
            "flats": flats,
            "flat_counts_by_rank": {str(r): counts[r] for r in sorted(counts)},
            "crossing": crossing.kind,
            "crossing_witness": crossing.witness.indices if crossing.witness else None,
        }

    def poincare_section(self) -> PoincareData:
        return self.poincare

    def chern_section(self) -> dict:
        cd = self.chern_data
        if cd is None:
            return {"status": "unavailable", "reason": self.unavailable}
        out = {
            "steiner_ct": cd.steiner_ct,
            "steiner_twisted_ct": cd.steiner_twisted_ct,
            "logfree_twisted_ct": cd.logfree_twisted_ct,
            "locally_free": cd.locally_free,
        }
        if self.a.n == 2:
            out["c1"] = cd.n2_c1
            out["c2"] = cd.n2_c2
        return out

    def delta_section(self) -> dict | None:
        if self.a.n != 2:
            return None
        out = {"total": self.delta, "per_point": self.local_data}
        if self.unavailable is None:
            h0_sheaf, h0_log = h0_values(self.lattice, self.delta)
            out["h0_twisted_sheaf"] = h0_sheaf
            out["h0_twisted_log"] = h0_log
        return out

    def stability_section(self) -> dict:
        verdict = self.stability
        if verdict is None:
            return {"status": "unavailable", "reason": self.unavailable}
        return {
            "status": verdict.status,
            "witnesses": verdict.witnesses,
            "rules_applied": verdict.rules,
        }

    def torelli_section(self) -> dict:
        verdict = self.torelli
        if verdict is None:
            return {"status": "unavailable", "reason": self.unavailable}
        out = {
            "status": verdict.status,
            "rule": verdict.rule,
            "witness_subset": verdict.witness_subset,
            "trace": verdict.trace,
            "subset_cap_exceeded": verdict.subset_cap_exceeded,
        }
        if verdict.conic is not None:
            out["conic"] = verdict.conic
        if verdict.rnc is not None:
            out["rnc"] = verdict.rnc
        return out

    def gale_section(self) -> dict:
        a, rep = self.a, self.gale_check
        if rep is None:
            return {"defined": False, "reason": gale_unavailable(self.lattice)}
        out = {
            "defined": True,
            "dual_n": a.m - a.n - 2,
            "dual_points": dual_columns(self.tensor),
            "dependent_sets_primal": rep.primal_dependent,
            "dependent_sets_dual": rep.actual_dual,
            "complement_bijection": rep.ok,
        }
        try:
            gale_dual(self.tensor)
            out["dual_arrangement"] = "defined"
        except GaleUndefined as exc:
            out["dual_arrangement"] = f"undefined: {exc}"
        return out

    def oracles_section(self) -> list[dict]:
        """The verification suite: named exact checks, each pass/fail/skip.

        The primes were checked when the Analysis was built. Each p is
        counted at q = next_valid_prime(minors, p); walked upward, a p at or
        below the last q shares it, so no prime is checked or counted twice.
        """
        a = self.a
        checks: list[dict] = []

        chosen, q = {}, 0
        for p in sorted(self.primes):
            if p > q:
                q = next_valid_prime(self.basis_minors, p)
            chosen[p] = q
        counts = {q: count_complement_points(a, q) for q in set(chosen.values())}
        for p in self.primes:
            q = chosen[p]
            predicted = complement_count_prediction(self.poincare, q)
            entry = {"check": f"finite_field_count_p{p}",
                     "status": "pass" if predicted == counts[q] else "fail",
                     "predicted": predicted, "counted": counts[q]}
            if q != p:
                entry["note"] = f"p = {p} degenerates the reduction; retried with {q}"
            checks.append(entry)

        if a.n == 2:
            ok = True
            detail = []
            for loc in self.local_data:
                lhs = loc.milnor
                rhs = 2 * loc.delta_local - loc.branches + 1
                if lhs != rhs:
                    ok = False
                detail.append({"indices": loc.indices, "milnor": lhs,
                               "two_delta_minus_r_plus_1": rhs})
            checks.append({"check": "milnor_delta_branches",
                           "status": "pass" if ok else "fail", "points": detail})

            # C(m, 2) less the Mobius sum over the points (the t^2 coefficient)
            lhs, rhs = comb(a.m, 2) - self.poincare.projective[2], self.delta
            checks.append({"check": "pair_count_identity",
                           "status": "pass" if lhs == rhs else "fail",
                           "lhs": lhs, "rhs": rhs})
        else:
            checks.append({"check": "milnor_delta_branches", "status": "skipped",
                           "reason": "defined for n = 2 only"})
            checks.append({"check": "pair_count_identity", "status": "skipped",
                           "reason": "defined for n = 2 only"})

        rep = self.gale_check
        if rep is not None:
            entry = {"check": "gale_complement_bijection",
                     "status": "pass" if rep.ok else "fail"}
            if not rep.kernel:
                entry["kernel"] = False
            if rep.missing or rep.extra:
                entry["missing"] = rep.missing
                entry["extra"] = rep.extra
            checks.append(entry)
        else:
            checks.append({"check": "gale_complement_bijection", "status": "skipped",
                           "reason": "needs an essential arrangement with m >= n + 3"})

        cd = self.chern_data
        if cd is not None:
            twisted = twist_transform(cd.steiner_ct, a.n)
            ok = twisted == cd.steiner_twisted_ct
            checks.append({"check": "twist_identity", "status": "pass" if ok else "fail",
                           "lhs": twisted, "rhs": cd.steiner_twisted_ct})
        else:
            checks.append({"check": "twist_identity", "status": "skipped",
                           "reason": "needs an essential arrangement with m >= n + 2"})

        checks.append(delta_bound_check(a.m, self.delta, self.stability))
        return checks


def delta_bound_check(m: int, delta: int | None,
                      verdict: StabilityVerdict | None) -> dict:
    """Bound on the delta invariant of m semi-stable lines (None unless n = 2).

    The quarter bound delta <= (m-1)(m-3)/4 follows from non-negativity of
    the discriminant; the stricter fifth bound is also reported because the
    two-triple five-line example sits exactly on the quarter bound while
    violating the fifth one.
    """
    if delta is None or verdict is None:
        return {"check": "delta_bound", "status": "skipped",
                "reason": "defined for n = 2 with a stability verdict"}
    if verdict.status not in (Status.STABLE, Status.NOT_STABLE):
        return {"check": "delta_bound", "status": "skipped",
                "reason": f"arrangement is {verdict.status.value}; bound applies "
                          "to semi-stable ones"}
    quarter = Fraction((m - 1) * (m - 3), 4)
    fifth = Fraction((m - 1) * (m - 3), 5)
    return {
        "check": "delta_bound",
        "status": "pass" if Fraction(delta) <= quarter else "fail",
        "delta": delta,
        "quarter_bound": quarter,
        "quarter_holds": Fraction(delta) <= quarter,
        "fifth_bound": fifth,
        "fifth_holds": Fraction(delta) <= fifth,
    }


def build_report(a: Arrangement, primes=DEFAULT_PRIMES,
                 max_subsets: int = DEFAULT_MAX_SUBSETS) -> dict:
    return Analysis(a, tuple(primes), max_subsets).report()


def render_check(c: dict) -> str:
    """One oracle entry as a line of `verify --pretty` and `analyze --pretty`."""
    line = f"{c['check']}: {c['status'].upper()}"
    if c["check"] == "delta_bound" and c["status"] != "skipped":
        line += (f" (delta = {c['delta']}, quarter bound {c['quarter_bound']}"
                 f" {'holds' if c['quarter_holds'] else 'fails'},"
                 f" fifth bound {c['fifth_bound']}"
                 f" {'holds' if c['fifth_holds'] else 'fails'})")
    return line


def render_pretty(report: dict) -> str:
    """Human-readable table mode for the --pretty flag."""
    lines = []
    arr = report["arrangement"]
    lines.append(f"arrangement: m = {arr['m']} hyperplanes in P^{arr['n']}"
                 + ("" if arr["essential"] else " (not essential)"))
    for i, row in enumerate(arr["hyperplanes"], start=1):
        lines.append(f"  {i}: {row}")
    lat = report["lattice"]
    lines.append(f"lattice: {lat['flat_counts_by_rank']} flats by rank; "
                 f"crossing type {lat['crossing']}")
    for f in lat["flats"]:
        if f["rank"] >= 2 and f["s"] > f["rank"]:
            lines.append(f"  heavy flat {f['indices']}: s = {f['s']}, "
                         f"mobius = {f['mobius']}")
    lines.append(f"poincare: projective {report['poincare']['projective']}, "
                 f"central {report['poincare']['central']}")
    ch = report["chern"]
    if "status" in ch:
        lines.append(f"chern: {ch['reason']}")
    else:
        extra = f", (c1, c2) = ({ch['c1']}, {ch['c2']})" if "c1" in ch else ""
        lines.append(f"chern: ct {ch['steiner_ct']}{extra}; "
                     f"locally free: {ch['locally_free']}")
    if report["delta"] is not None:
        lines.append(f"delta: {report['delta']['total']}")
    st = report["stability"]
    lines.append(f"stability: {st.get('status')}"
                 + (f" ({st['reason']})" if st.get("reason") else ""))
    for w in st.get("witnesses", []):
        lines.append(f"  witness {w['kind']} ({w['lhs']} vs {w['rhs']}): {w['detail']}"
                     + (f" at flat {w['flat_indices']}" if w["flat_indices"] else ""))
    to = report["torelli"]
    lines.append(f"torelli: {to.get('status')}"
                 + (f" via {to['rule']}" if to.get("rule") else "")
                 + (f" ({to['reason']})" if to.get("reason") else ""))
    ga = report["gale"]
    if ga["defined"]:
        lines.append(f"gale dual: points in P^{ga['dual_n']}, complement "
                     f"bijection {'holds' if ga['complement_bijection'] else 'FAILS'}")
    else:
        lines.append(f"gale dual: not defined ({ga['reason']})")
    lines.append("oracle checks:")
    for c in report["oracles"]:
        lines.append("  " + render_check(c))
    return "\n".join(lines) + "\n"
