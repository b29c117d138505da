"""Pipeline benchmark: verified `arrinv analyze` calls on one workload.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 10 --trace 0

One caller in one process makes `analyze` calls in a closed loop: it sends the
next arrangement only when the previous report is complete, as a user of
`arrinv analyze` does. A call is `parse_arrangement_json(text)`, then
`build_report(a)` with the default primes and subset cap, then
`json.dumps(jsonable(report), indent=2)`, all in-process through the public
API of the package under `src/`.

`--trace 0` runs whole cycles of the seeded draw (see corpus.py) until
`--seconds` have passed and reports the end-to-end metrics. `--trace 1` runs
a fixed number of cycles twice, untraced and then traced, and reports the
per-layer metrics of trace.py together with the tracing overhead; the fixed
size makes every count repeat exactly for a given seed.

Every report is checked after the timed loop (checks.py). The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it print each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, corpus  # noqa: E402
from perfbench.trace import COUNTS, SERIALIZE, Tracer  # noqa: E402

# set-ups before and again after the timed loop; setup_s is the median of all
# of them, so it samples the machine at both ends of the run
SETUPS = 5
# cycles in a traced run (walked twice: untraced, then traced); about 6 s on
# fixtures and 8 s on on_conic per walk on the hardware described in README.md
TRACE_CYCLES = {"fixtures": 8, "on_conic": 1}
P90_MIN_REPORTS = 100  # p90 is shown only with at least ten samples beyond it

END_TO_END_UNITS = {"reports_per_s": "1/s", "report_ms.p50": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB", "verified_share": "share"}


@dataclass
class Api:
    """The package modules one `analyze` call goes through."""

    arrangement: object
    report: object

    def analyze(self, text: str, tracer: Tracer | None = None) -> str:
        a = self.arrangement.parse_arrangement_json(text)
        rep = self.report.build_report(a)
        if tracer is None:
            return self.serialize(rep)
        return tracer.span(SERIALIZE, self.serialize, rep)[0]

    def serialize(self, rep: dict) -> str:
        return json.dumps(self.report.jsonable(rep), indent=2)


def import_arrinv() -> Api:
    """Import `arrinv` afresh from this checkout's `src/`, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "arrinv" / "__init__.py").is_file():
        raise ImportError(f"no arrinv package under {src}")
    for name in [k for k in sys.modules if k == "arrinv" or k.startswith("arrinv.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    package = importlib.import_module("arrinv")
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise ImportError(f"arrinv resolved to {package.__file__}, not under {src}")
    return Api(importlib.import_module("arrinv.arrangement"),
               importlib.import_module("arrinv.report"))


def set_up(workload: str, seed: int):
    """Import the package and prepare the corpus; return the time it took too.

    The corpus makes each arrangement when the run reaches it (corpus.py), so
    set-up reads the fixtures and shuffles the pool.
    """
    gc.collect()
    t0 = perf_counter()
    api = import_arrinv()
    pool = corpus.Corpus(workload, ROOT)
    cycles = pool.cycles(seed)
    return perf_counter() - t0, api, pool, cycles


@dataclass
class Pass:
    """One walk over cycles of the draw: what was sent, returned and timed."""

    entries: list = field(default_factory=list)
    outputs: list = field(default_factory=list)   # JSON text, or the exception raised
    latencies: list = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Seconds spent in `analyze` calls; making the next input is not counted."""
        return sum(self.latencies)


def closed_loop(api: Api, cycles, seconds: float | None = None,
                tracer: Tracer | None = None) -> Pass:
    """Analyze whole cycles in order, stopping after `seconds` (None: all)."""
    run = Pass()
    for cycle in cycles:
        for entry in cycle:
            t0 = perf_counter()
            try:
                out = api.analyze(entry.text, tracer)
            except Exception as exc:  # a report that raises is a failed report
                out = exc
            run.latencies.append(perf_counter() - t0)
            run.entries.append(entry)
            run.outputs.append(out)
        if seconds is not None and run.elapsed >= seconds:
            break
    return run


def verify(api: Api, pool: corpus.Corpus, run: Pass) -> list[list[str]]:
    """Failure reasons per report of the pass, an empty list when verified."""
    refs = checks.load_refs(pool.workload)
    bases: dict[str, dict | str] = {}
    reasons = []
    for entry, out in zip(run.entries, run.outputs):
        if isinstance(out, Exception):
            reasons.append([f"raised {type(out).__name__}: {out}"])
            continue
        obj = json.loads(out)
        why = checks.report_failures(entry, obj, refs)
        if pool.workload == "fixtures":
            if entry.stratum not in bases:
                # entry 0 of a fixture stratum is the fixture itself
                try:
                    bases[entry.stratum] = json.loads(
                        api.analyze(pool.entry(entry.stratum, 0).text))
                except Exception as exc:
                    bases[entry.stratum] = f"fixture report raised {exc!r}"
            base = bases[entry.stratum]
            why += ([base] if isinstance(base, str)
                    else checks.invariance_failures(obj, base))
        reasons.append(why)
    return reasons


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(run: Pass, reasons) -> dict[str, float]:
    """Every end-to-end metric but setup_s, which main adds."""
    ok = [t for t, why in zip(run.latencies, reasons) if not why]
    return {
        "reports_per_s": len(ok) / run.elapsed,
        "report_ms.p50": 1e3 * statistics.median(ok) if ok else float("inf"),
        "peak_rss_mb": peak_rss_mb(),
        "verified_share": len(ok) / len(run.latencies),
    }


def per_layer(api: Api, cycles) -> tuple[Tracer, list[Pass]]:
    """The same cycles untraced, then traced; the tracer holds the metrics."""
    plain = closed_loop(api, cycles)
    with Tracer() as tracer:
        traced = closed_loop(api, cycles, tracer=tracer)
    return tracer, [plain, traced]


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in COUNTS:
        return "count"
    return "share" if name.endswith(("_ratio", "_share")) else "s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    setup_times = []
    try:
        for _ in range(SETUPS):
            seconds, api, pool, cycles = set_up(args.workload, args.seed)
            setup_times.append(seconds)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        tracer, passes = per_layer(api, list(islice(cycles, TRACE_CYCLES[args.workload])))
        metrics = tracer.metrics()
        metrics["trace.overhead_share"] = passes[1].elapsed / passes[0].elapsed - 1
    else:
        passes = [closed_loop(api, cycles, args.seconds)]
    if not passes[0].entries:
        print(f"error: workload {args.workload} drew no arrangement", file=sys.stderr)
        return 2
    per_pass = [verify(api, pool, run) for run in passes]
    if not args.trace:
        metrics = end_to_end(passes[0], per_pass[0])
        setup_times += [set_up(args.workload, args.seed)[0] for _ in range(SETUPS)]
        metrics["setup_s"] = statistics.median(setup_times)

    reasons = [why for whys in per_pass for why in whys]
    failed = sum(1 for why in reasons if why)
    for run, whys in zip(passes, per_pass):
        for entry, why in zip(run.entries, whys):
            if why:
                print(f"FAILED {entry.stratum}[{entry.index}]: {'; '.join(why)}",
                      file=sys.stderr)
    samples = len(passes[0].latencies)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"reports {samples} per pass in {len(passes)} pass(es)  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit_of(name)}")
    if args.trace:
        print("  time in each layer including the layers it calls:")
        for layer, seconds in sorted(tracer.inclusive_s.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:30s} {seconds:14.6g} s")
    elif samples >= P90_MIN_REPORTS:
        p90 = statistics.quantiles(passes[0].latencies, n=10, method="inclusive")[8]
        print(f"  {'report_ms.p90':32s} {1e3 * p90:14.6g} ms (n={samples})")
    result = {"correct": failed == 0, "attempted": len(reasons), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
