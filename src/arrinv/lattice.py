"""Intersection lattice of a projective arrangement.

Flats are the nonempty intersections of subsets of hyperplanes, labeled by
the maximal set of hyperplane labels containing them. Ranks are
codimensions; only flats of rank <= n (nonempty in P^n) are kept. This is
the lattice of flats of the matroid of the forms, so it is read off the
arrangement's rank table (`arrangement.subset_ranks`): a flat of rank r
spanned by r independent labels B, cut by a hyperplane j outside it, is the
rank-(r+1) flat of every label i with rank(B + j + i) = r + 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arrangement import Arrangement, subset_ranks


@dataclass(frozen=True)
class Flat:
    """A lattice flat.

    indices: maximal 1-based labels of hyperplanes containing the flat.
    rank: codimension of the flat in P^n.
    """

    indices: tuple[int, ...]
    rank: int

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

    @property
    def essential(self) -> bool:
        """True when the forms have rank n+1: no flat lies on all m hyperplanes."""
        return all(f.s < self.m for f in self.flats)

    def flats_of_rank(self, r: int) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.rank == r)

    def items(self):
        return zip(self.flats, self.mobius)


def build_lattice(a: Arrangement,
                  ranks: dict[tuple[int, ...], int] | None = None) -> IntersectionLattice:
    """Enumerate all flats from the rank table and compute Mobius values.

    `ranks` is `subset_ranks(a)`, computed here when not given. Each flat
    keeps a basis of independent labels while its rank level is cut; a label
    already on a flat found from the same parent is not cut again.
    """
    if ranks is None:
        ranks = subset_ranks(a)
    labels = range(1, a.m + 1)
    flats = [Flat((), 0)]
    level: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}   # flat -> basis
    for r in range(1, a.n + 1):
        found: dict[tuple[int, ...], tuple[int, ...]] = {}
        for indices, basis in level.items():
            covered = set(indices)
            for j in labels:
                if j in covered:
                    continue
                span = basis + (j,)
                flat = tuple(i for i in labels
                             if ranks[tuple(sorted({*span, i}))] == r)
                covered.update(flat)
                found.setdefault(flat, span)
        level = dict(sorted(found.items()))
        flats.extend(Flat(f, r) for f in level)
    flats = tuple(flats)
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
