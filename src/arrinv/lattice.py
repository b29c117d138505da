"""Intersection lattice of a projective arrangement.

Flats are the nonempty intersections of subsets of hyperplanes, identified by
their solution spaces and labeled by the maximal set of hyperplane labels
containing them. Ranks are codimensions; only flats of rank <= n (nonempty in
P^n) are kept. The lattice is built by iterative refinement: flats of rank
r+1 arise by cutting rank-r flats with one more hyperplane, deduplicated by
the canonical row-reduced basis of their equation spans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement
from .linalg import QMatrix, rref


@dataclass(frozen=True)
class Flat:
    """A lattice flat.

    indices: maximal 1-based labels of hyperplanes containing the flat.
    rank: codimension of the flat in P^n.
    equations: canonical (RREF) basis rows of the span of the defining forms.
    """

    indices: tuple[int, ...]
    rank: int
    equations: tuple[tuple[Fraction, ...], ...]

    @property
    def s(self) -> int:
        """Number of hyperplanes through the flat."""
        return len(self.indices)


@dataclass(frozen=True)
class IntersectionLattice:
    arrangement: Arrangement
    flats: tuple[Flat, ...]       # sorted by (rank, indices)
    mobius: tuple[int, ...]       # parallel to flats

    @property
    def n(self) -> int:
        return self.arrangement.n

    @property
    def m(self) -> int:
        return self.arrangement.m

    def flats_of_rank(self, r: int) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.rank == r)

    def mobius_of(self, flat: Flat) -> int:
        return self.mobius[self.flats.index(flat)]

    def items(self):
        return zip(self.flats, self.mobius)


def _canonical_span(rows, cols: int):
    """Canonical representation (RREF rows) of a row span."""
    reduced, _, rank = rref(QMatrix.from_rows(rows, cols))
    return tuple(reduced.entries[i] for i in range(rank))


def _maximal_labels(a: Arrangement, span) -> tuple[int, ...]:
    """All labels whose form lies in the span of the RREF rows `span`.

    A form lies in the span exactly when subtracting, for each row, its
    entry in that row's pivot column times the row leaves zero.
    """
    pivots = [next(c for c, x in enumerate(row) if x) for row in span]
    out = []
    for i, form in enumerate(a.forms, start=1):
        residue = form.coeffs
        for c, row in zip(pivots, span):
            x = residue[c]
            if x:
                residue = [v - x * w for v, w in zip(residue, row)]
        if not any(residue):
            out.append(i)
    return tuple(out)


def build_lattice(a: Arrangement) -> IntersectionLattice:
    """Enumerate all flats, attach maximal labels, compute Mobius values."""
    cols = a.n + 1
    ambient = Flat(indices=(), rank=0, equations=())
    by_rank: list[list[Flat]] = [[ambient]]
    current = {(): ambient}
    for r in range(1, a.n + 1):
        found: dict[tuple, Flat] = {}
        for flat in current.values():
            for j in range(1, a.m + 1):
                if j in flat.indices:
                    continue
                rows = list(flat.equations) + [a.form(j).coeffs]
                span = _canonical_span(rows, cols)
                # j outside the maximal label set guarantees independence
                assert len(span) == r
                if span in found:
                    continue
                labels = _maximal_labels(a, span)
                found[span] = Flat(indices=labels, rank=r, equations=span)
        level = sorted(found.values(), key=lambda f: f.indices)
        by_rank.append(level)
        current = {f.indices: f for f in level}
        if not level:
            break
    flats = tuple(f for level in by_rank for f in level)
    return IntersectionLattice(a, flats, mobius_values(flats))


def mobius_values(flats: tuple[Flat, ...]) -> tuple[int, ...]:
    """Mobius function by downward recursion from the ambient flat.

    mu(ambient) = 1 and mu(x) = -sum of mu(y) over flats y strictly
    containing x. Containment of flats is reverse inclusion of their maximal
    label sets.
    """
    order = sorted(range(len(flats)), key=lambda i: flats[i].rank)
    sets = [frozenset(f.indices) for f in flats]
    mu = [0] * len(flats)
    for i in order:
        if flats[i].rank == 0:
            mu[i] = 1
            continue
        acc = 0
        for j in order:
            if flats[j].rank >= flats[i].rank:
                break
            if sets[j] < sets[i]:
                acc += mu[j]
        # same-rank flats never contain each other strictly, so the early
        # break above is safe
        mu[i] = -acc
    return tuple(mu)


def mobius(lattice: IntersectionLattice) -> dict[tuple[int, ...], int]:
    """Mobius values keyed by flat label sets."""
    return {f.indices: v for f, v in lattice.items()}


class CrossingClass(enum.Enum):
    GENERIC = "generic"
    NORMAL_CROSSING_CODIM2_ONLY = "normal_crossing_codim2_only"
    NOT_NORMAL_CROSSING_CODIM2 = "not_normal_crossing_codim2"


@dataclass(frozen=True)
class CrossingReport:
    kind: CrossingClass
    witness: Flat | None  # a non-generic flat, when one exists


def classify_crossing(lattice: IntersectionLattice) -> CrossingReport:
    """Classify how the arrangement crosses itself.

    Generic: every flat of rank r lies on exactly r hyperplanes. If only
    flats of rank >= 3 violate that, the arrangement still has normal
    crossings in codimension 2. Witnesses report the shallowest offending
    flat.
    """
    bad_rank2 = None
    bad_deeper = None
    for f in lattice.flats:
        if f.s > f.rank:
            if f.rank == 2 and bad_rank2 is None:
                bad_rank2 = f
            elif f.rank > 2 and bad_deeper is None:
                bad_deeper = f
    if bad_rank2 is not None:
        return CrossingReport(CrossingClass.NOT_NORMAL_CROSSING_CODIM2, bad_rank2)
    if bad_deeper is not None:
        return CrossingReport(CrossingClass.NORMAL_CROSSING_CODIM2_ONLY, bad_deeper)
    return CrossingReport(CrossingClass.GENERIC, None)
