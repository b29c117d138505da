"""Write the reference digests for every arrangement in one workload's pool.

    python3 perfbench/make_refs.py --workload fixtures

Runs `analyze` on each pool entry and writes refs/<workload>.json. A report
whose oracle check fails, or (fixtures) whose invariant sections differ from
its fixture's report, stops the script before anything is written. Run it
only on a commit whose output is trusted: benchmark runs count every later
difference as a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, corpus  # noqa: E402
from perfbench.run import ROOT, import_arrinv  # noqa: E402

NOTE = ("SHA-256 of each pool entry's `analyze` JSON (json.dumps(jsonable(report), "
        "indent=2)) after removing oracles[*].backend, which names the counting "
        "build and not a result. Each entry is [input digest, output digest]; the "
        "input digest (16 hex digits of the SHA-256 of the input JSON) catches a "
        "generator that no longer reproduces the corpus.")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    args = ap.parse_args()
    api = import_arrinv()
    digests: dict[str, list[list[str]]] = {}
    t0 = perf_counter()
    for stratum, entries in corpus.Corpus(args.workload, ROOT).pool().items():
        rows, base = [], None
        for entry in entries:
            obj = json.loads(api.analyze(entry.text))
            bad = [o["check"] for o in obj["oracles"] if o["status"] == "fail"]
            if args.workload == "fixtures":
                base = base or obj  # entry 0 is the fixture itself
                bad += checks.invariance_failures(obj, base)
            if bad:
                print(f"{stratum}[{entry.index}] fails: {bad}", file=sys.stderr)
                return 1
            rows.append([checks.input_digest(entry.text), checks.digest(obj)])
        digests[stratum] = rows
        print(f"{stratum}: {len(rows)} reports, {perf_counter() - t0:.1f} s so far",
              flush=True)
    out = checks.REFS / f"{args.workload}.json"
    out.write_text(json.dumps({"note": NOTE, "workload": args.workload,
                               "digests": digests}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
