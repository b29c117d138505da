"""Seeded corpora for the pipeline benchmark.

Each workload has a fixed pool per stratum (one stratum per fixture, or per
m). Entry i of a stratum is made from its own random stream, so it never
depends on the run's seed, and the committed reference digests (`refs/`)
cover every entry a run can draw.

The run's seed shuffles the entry numbers of each stratum. A run then walks
cycles; a cycle holds the next entry of each stratum its schedule names, so
every cycle has the same mix. Entries are made when the run reaches them. An
entry whose hyperplanes (as a set) were already drawn in this run is passed
over, so no arrangement repeats within a run. The draw ends when a stratum
runs dry.

The inputs are JSON texts in the format `arrinv analyze` reads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable, Iterator

WORKLOADS = ("fixtures", "on_conic")

# Pool sizes leave room for several times today's speed within one run; a
# run that uses up a stratum stops early.
FIXTURE_IMAGES = 300                # per fixture: entry 0 is the fixture itself
ON_CONIC_POOL = {10: 80, 11: 40}    # per m
# on_conic sends two m = 10 arrangements per m = 11 one, so the median latency
# of a run falls inside the m = 10 cluster instead of between the clusters.
ON_CONIC_SCHEDULE = ("m10", "m10", "m11")


@dataclass(frozen=True)
class Entry:
    """One pool arrangement and the JSON text handed to `analyze`."""

    stratum: str
    index: int
    text: str
    hyperplanes: frozenset  # canonical forms, to spot a relabelled repeat


def canonical_form(row) -> tuple[int, ...]:
    """Primitive integer form with first nonzero coefficient positive."""
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    form = [x // g for x in row]
    if next(x for x in form if x) < 0:
        form = [-x for x in form]
    return tuple(form)


def random_rows(rng: random.Random, n: int, m: int, bound: int = 5):
    """m pairwise distinct hyperplanes with coefficients in [-bound, bound]."""
    rows, forms = [], set()
    while len(rows) < m:
        row = [rng.randint(-bound, bound) for _ in range(n + 1)]
        if any(row) and canonical_form(row) not in forms:
            forms.add(canonical_form(row))
            rows.append(row)
    return rows


def _curve_rows(rng: random.Random, n: int, m: int, span: int):
    """Rows (1, t, ..., t^n) for m distinct integers t in [-span, span]."""
    ts = sorted(rng.sample(range(-span, span + 1), m))
    return [[t ** k for k in range(n + 1)] for t in ts]


def _unimodular(rng: random.Random, d: int) -> list[list[int]]:
    """A signed permutation followed by three elementary row operations."""
    perm = rng.sample(range(d), d)
    mat = [[(rng.choice((-1, 1)) if j == perm[i] else 0) for j in range(d)]
           for i in range(d)]
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    return mat


def _image(rows, mat):
    """Forms after the coordinate change x -> mat x, i.e. row vector c -> c mat."""
    d = len(mat)
    return [[sum(row[i] * mat[i][j] for i in range(d)) for j in range(d)]
            for row in rows]


def load_fixtures(root: Path) -> dict[str, tuple[int, list[list[int]]]]:
    """The bundled fixtures as {name: (n, rows)}, read from `fixtures/*.json`."""
    out = {}
    for path in sorted((root / "fixtures").glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        out[path.stem] = (obj["n"], obj["hyperplanes"])
    if not out:
        raise FileNotFoundError(f"no fixtures under {root / 'fixtures'}")
    return out


class Corpus:
    """The pool of one workload: strata of entries made on demand."""

    def __init__(self, workload: str, root: Path):
        # stratum -> (pool size, n, rows of entry i from its random stream)
        self.strata: dict[str, tuple[int, int, Callable]] = {}
        if workload == "fixtures":
            for name, (n, rows) in load_fixtures(root).items():
                self.strata[name] = (FIXTURE_IMAGES, n, lambda rng, i, rows=rows, n=n:
                                     rows if i == 0 else _image(rows, _unimodular(rng, n + 1)))
        elif workload == "on_conic":
            for m, size in ON_CONIC_POOL.items():
                self.strata[f"m{m}"] = (size, 2, lambda rng, i, m=m: _curve_rows(rng, 2, m, 12))
        else:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload

    def entry(self, stratum: str, index: int) -> Entry:
        _, n, make = self.strata[stratum]
        rows = make(random.Random(f"{self.workload}/{stratum}/{index}"), index)
        text = json.dumps({"n": n, "hyperplanes": [list(r) for r in rows]})
        return Entry(stratum, index, text, frozenset(canonical_form(r) for r in rows))

    def pool(self) -> dict[str, list[Entry]]:
        """Every entry, by stratum."""
        return {s: [self.entry(s, i) for i in range(size)]
                for s, (size, _, _) in sorted(self.strata.items())}

    def cycles(self, seed: int) -> Iterator[list[Entry]]:
        """The run's cycles for `seed`, in order, until a stratum runs dry."""
        rng = random.Random(seed)
        order = {s: rng.sample(range(size), size)
                 for s, (size, _, _) in sorted(self.strata.items())}
        return self._walk(order, rng)

    def _walk(self, order: dict[str, list[int]], rng: random.Random):
        seen: set[frozenset] = set()
        while True:
            cycle = []
            for s in self._schedule(rng):
                while True:
                    if not order[s]:
                        return
                    entry = self.entry(s, order[s].pop())
                    if entry.hyperplanes not in seen:
                        break
                seen.add(entry.hyperplanes)
                cycle.append(entry)
            yield cycle

    def _schedule(self, rng: random.Random) -> list[str]:
        if self.workload == "on_conic":
            return list(ON_CONIC_SCHEDULE)
        names = sorted(self.strata)
        rng.shuffle(names)
        return names
