"""Per-layer tracing for the pipeline benchmark, from outside the package.

`Tracer` wraps each layer's public functions for the duration of a `with`
block and puts the originals back on exit. A wrapper replaces the function
wherever the package holds a reference to it (the defining module and every
module that imported it by name), so calls made inside the package are traced
too. Nothing under `src/` changes.

Each wrapped call is a span. A span's self time is its duration minus the
time covered by the spans it called, and it is added to its layer's metric.
Counts are kept at the same boundaries and repeat exactly for the same input.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, metric that receives the span's self time). An
# attribute "Class.method" wraps a method on the class.
SPANS = (
    ("arrangement", "parse_arrangement_json", "arrangement.parse_s"),
    ("lattice", "build_lattice", "lattice.build_s"),
    ("linalg", "rref", "linalg.self_s"),
    ("linalg", "det", "linalg.self_s"),
    ("linalg", "kernel_basis", "linalg.self_s"),
    ("linalg", "QMatrix.rank", "linalg.self_s"),
    ("invariants", "poincare", "invariants.self_s"),
    ("invariants", "chern", "invariants.self_s"),
    ("invariants", "local_data", "invariants.self_s"),
    ("invariants", "delta_invariant", "invariants.self_s"),
    ("invariants", "h0_values", "invariants.self_s"),
    ("invariants", "complement_count_prediction", "invariants.self_s"),
    ("steiner", "steiner_tensor", "steiner.tensor_s"),
    ("steiner", "verify_gale_bijection", "steiner.gale_s"),
    ("steiner", "dual_columns", "steiner.gale_s"),
    ("steiner", "gale_dual", "steiner.gale_s"),
    ("stability", "classify", "stability.classify_s"),
    ("torelli", "torelli_verdict", "torelli.verdict_s"),
    ("torelli", "conic_test", "torelli.verdict_s"),
    ("ffcount", "prime_preserves_lattice", "ffcount.prime_select_s"),
    ("ffcount", "next_valid_prime", "ffcount.prime_select_s"),
    ("ffcount", "count_complement_points", "ffcount.count_s"),
    ("report", "build_report", "report.self_s"),
)

# The span the benchmark itself opens around `json.dumps(jsonable(report))`.
SERIALIZE = "report.serialize_s"

TIMES = sorted({metric for _, _, metric in SPANS} | {
    SERIALIZE, "ffcount.count_s.largest_p", "ffcount.count_s.smaller_p"})
COUNTS = ("lattice.flats", "linalg.eliminations", "invariants.chern_calls",
          "steiner.gale_calls", "torelli.conic_tests", "torelli.cap_hits",
          "ffcount.prime_checks", "ffcount.primes_rejected", "ffcount.points_computed")


class Tracer:
    """Context manager that traces the `arrinv` package while it is active."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)  # per layer
        self._stack: list[list] = []    # [metric, seconds covered by child spans]
        self._depth: dict[str, int] = defaultdict(int)   # open spans per layer
        self._counts_in_report: list[tuple[int, float]] = []   # (p, self s)
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def span(self, metric: str, fn, *args, **kwargs):
        """Call fn as a span charged to `metric`; return (result, self seconds)."""
        stack = self._stack
        frame = [metric, 0.0]
        stack.append(frame)
        layer = metric.split(".", 1)[0]
        self._depth[layer] += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            stack.pop()
            own = elapsed - frame[1]
            self.self_s[metric] += own
            if stack:
                stack[-1][1] += elapsed
            self._depth[layer] -= 1
            if not self._depth[layer]:
                self.inclusive_s[layer] += elapsed
        return result, own

    def _wrap(self, name: str, metric: str, fn):
        count = getattr(self, "_on_" + name, None)
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = not self._stack or self._stack[-1][0] != metric
            if name == "build_report":
                self._counts_in_report = []
            result, own = span(metric, fn, *args, **kwargs)
            if count is not None:
                count(args, kwargs, result, own, outer)
            return result

        return traced

    # -- counts at span boundaries --------------------------------------

    def _on_build_lattice(self, args, kwargs, result, own, outer):
        self.counts["lattice.flats"] += len(result.flats)

    def _on_elimination(self, args, kwargs, result, own, outer):
        # one public call is one elimination, whatever it calls inside linalg
        if outer:
            self.counts["linalg.eliminations"] += 1

    _on_rref = _on_det = _on_kernel_basis = _on_rank = _on_elimination

    def _on_chern(self, args, kwargs, result, own, outer):
        self.counts["invariants.chern_calls"] += 1

    def _on_verify_gale_bijection(self, args, kwargs, result, own, outer):
        self.counts["steiner.gale_calls"] += 1

    def _on_conic_test(self, args, kwargs, result, own, outer):
        self.counts["torelli.conic_tests"] += 1

    def _on_torelli_verdict(self, args, kwargs, result, own, outer):
        self.counts["torelli.cap_hits"] += bool(result.subset_cap_exceeded)

    def _on_prime_preserves_lattice(self, args, kwargs, result, own, outer):
        self.counts["ffcount.prime_checks"] += 1
        self.counts["ffcount.primes_rejected"] += not result

    def _on_count_complement_points(self, args, kwargs, result, own, outer):
        a = args[0] if args else kwargs["a"]
        p = args[1] if len(args) > 1 else kwargs["p"]
        # fibre work of the direct count: p^n fibres, each scanned by m forms
        self.counts["ffcount.points_computed"] += p ** a.n * a.m
        self._counts_in_report.append((p, own))

    def _on_build_report(self, args, kwargs, result, own, outer):
        # split counting time by prime: the report's largest prime against
        # the rest, whichever backend or algorithm does the count
        if self._counts_in_report:
            largest = max(range(len(self._counts_in_report)),
                          key=lambda i: self._counts_in_report[i][0])
            for i, (_, t) in enumerate(self._counts_in_report):
                key = "largest_p" if i == largest else "smaller_p"
                self.self_s["ffcount.count_s." + key] += t
        self._counts_in_report = []

    # -- patching ----------------------------------------------------------

    @staticmethod
    def _modules():
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == "arrinv" or name.startswith("arrinv."))]

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        try:
            for module_name, attr, metric in SPANS:
                module = sys.modules[f"arrinv.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, meth, self._wrap(meth, metric, getattr(owner, meth)))
                    continue
                original = getattr(module, attr)
                traced = self._wrap(attr, metric, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, traced)
        except BaseException:
            self._restore()
            raise
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self seconds and counts, every name present."""
        out: dict[str, float] = {name: self.self_s.get(name, 0.0) for name in TIMES}
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        checks = out["ffcount.prime_checks"]
        out["ffcount.prime_accept_ratio"] = (
            (checks - out["ffcount.primes_rejected"]) / checks if checks else 0.0)
        return out
