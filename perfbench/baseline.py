"""Time single `analyze` calls on the arrangements of the ROADMAP baseline.

    python3 perfbench/baseline.py

Cases: the 12 bundled fixtures together, and one random arrangement each for
n = 2, m = 8; n = 2, m = 12; n = 3, m = 8 (coefficients in [-5, 5], drawn by
this benchmark's generator). Each case is run untraced, then traced; the
table gives the untraced seconds and the traced self seconds of the two
largest layers.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import corpus  # noqa: E402
from perfbench.run import ROOT, import_arrinv  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def cases():
    fixtures = corpus.Corpus("fixtures", ROOT)
    yield "12 fixtures", [fixtures.entry(name, 0).text for name in sorted(fixtures.strata)]
    for n, m in ((2, 8), (2, 12), (3, 8)):
        rows = corpus.random_rows(random.Random(f"baseline/n{n}/m{m}"), n, m)
        yield f"random n={n} m={m}", [json.dumps({"n": n, "hyperplanes": rows})]


def main() -> int:
    api = import_arrinv()
    print(f"{'case':18s} {'seconds':>8s}  largest layers by traced self time")
    for name, texts in cases():
        t0 = perf_counter()
        for text in texts:
            api.analyze(text)
        seconds = perf_counter() - t0
        with Tracer() as tracer:
            for text in texts:
                api.analyze(text, tracer)
        times = {k: v for k, v in tracer.metrics().items()
                 if k.endswith("_s") and k.count(".") == 1}
        total = sum(times.values())
        top = sorted(times.items(), key=lambda kv: -kv[1])[:3]
        print(f"{name:18s} {seconds:8.3f}  " + ", ".join(
            f"{k} {100 * v / total:.0f}%" for k, v in top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
