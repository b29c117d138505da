"""Intersection lattice of a projective arrangement.

Flats are the nonempty intersections of subsets of hyperplanes, labeled by
the maximal set of hyperplane labels containing them. Ranks are
codimensions; only flats of rank <= n (nonempty in P^n) are kept. This is
the lattice of flats of the matroid of the forms, so it is read off the
arrangement's rank table (`arrangement.subset_ranks`): the flat of rank r
spanned by r independent labels S is their closure, every label i with
rank(S + i) = r. The lattice is the one place that decides dependence:
`independent` answers it for any label set, and `crossing` classifies it.
"""

import enum
from functools import cached_property
from typing import NamedTuple

from .arrangement import Arrangement, subset_ranks


class Flat(NamedTuple):
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


class CrossingClass(enum.Enum):
    GENERIC = "generic"
    NORMAL_CROSSING_CODIM2_ONLY = "normal_crossing_codim2_only"
    NOT_NORMAL_CROSSING_CODIM2 = "not_normal_crossing_codim2"


class CrossingReport(NamedTuple):
    kind: CrossingClass
    witness: Flat | None  # a non-generic flat, when one exists


class IntersectionLattice:
    def __init__(self, arrangement: Arrangement, flats: tuple[Flat, ...],
                 mobius: tuple[int, ...]):
        self.arrangement = arrangement
        self.flats = flats        # sorted by (rank, indices)
        self.mobius = mobius      # parallel to flats

    @property
    def n(self) -> int:
        return self.arrangement.n

    @property
    def m(self) -> int:
        return self.arrangement.m

    @cached_property
    def essential(self) -> bool:
        """True when the forms have rank n+1: no flat lies on all m hyperplanes."""
        return all(f.s < self.m for f in self.flats)

    @cached_property
    def dependent_flats(self) -> tuple[Flat, ...]:
        """Flats through more hyperplanes than their rank, in lattice order."""
        return tuple(f for f in self.flats if f.s > f.rank)

    @cached_property
    def crossing(self) -> CrossingReport:
        """How the arrangement crosses itself, witnessed by the shallowest offender.

        Generic: every flat of rank r lies on exactly r hyperplanes, so no
        flat is dependent (a rank-1 flat lies on one). If only flats of rank
        >= 3 violate that, the crossings are still normal in codimension 2.
        """
        if not self.dependent_flats:
            return CrossingReport(CrossingClass.GENERIC, None)
        witness = self.dependent_flats[0]  # flats run by rank
        kind = (CrossingClass.NOT_NORMAL_CROSSING_CODIM2 if witness.rank == 2
                else CrossingClass.NORMAL_CROSSING_CODIM2_ONLY)
        return CrossingReport(kind, witness)

    def independent(self, labels) -> bool:
        """True when every n+1 of the labels' forms (all, if fewer) are independent.

        Dependent labels span a flat of some rank r <= n holding more than r
        of them, and more than r labels of a rank-r flat are dependent, so
        only the flats through more hyperplanes than their rank are asked.
        """
        labels = set(labels)
        return all(len(labels.intersection(f.indices)) <= f.rank
                   for f in self.dependent_flats)

    def flats_of_rank(self, r: int) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.rank == r)

    def items(self):
        return zip(self.flats, self.mobius)


def build_lattice(a: Arrangement,
                  ranks: dict[tuple[int, ...], int] | None = None) -> IntersectionLattice:
    """Enumerate all flats from the rank table and compute Mobius values.

    `ranks` is `subset_ranks(a)`, computed here when not given. The flats of
    rank r are the closures of the table's independent r-sets.
    """
    if ranks is None:
        ranks = subset_ranks(a)
    labels = range(1, a.m + 1)
    found = {(0, ())}
    for span, rank in ranks.items():
        if len(span) == rank <= a.n:
            found.add((rank, tuple(i for i in labels
                                   if ranks[tuple(sorted({*span, i}))] == rank)))
    flats = tuple(Flat(indices, rank) for rank, indices in sorted(found))
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
