"""Intersection lattice of a projective arrangement.

Flats are the nonempty intersections of subsets of hyperplanes, labeled by
the maximal set of hyperplane labels containing them. Ranks are
codimensions; only flats of rank <= n (nonempty in P^n) are kept. This is
the lattice of flats of the matroid of the forms. One walk over the
no-broken-circuit (NBC) sets of labels gives both the flats and the Mobius
function: each NBC k-set closes to a flat of rank k, every flat is such a
closure, and mu of a flat is (-1)^k times the number of NBC sets spanning
it; each flat carries its value. Each step cuts a flat, kept as an integer
basis of its points, by one form, so the walk reads the forms alone. The
lattice is the one place that decides dependence: `independent` answers it
for any label set by label bitmasks, and `crossing` classifies it.
"""

import enum
from functools import cached_property
from math import gcd
from operator import mul
from typing import NamedTuple

from .arrangement import Arrangement


class Flat(NamedTuple):
    """A lattice flat.

    indices: maximal 1-based labels of hyperplanes containing the flat.
    rank: codimension of the flat in P^n.
    mobius: the Mobius function of the lattice from its bottom to the flat.
    """

    indices: tuple[int, ...]
    rank: int
    mobius: int

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
    def __init__(self, arrangement: Arrangement, flats: tuple[Flat, ...]):
        self.arrangement = arrangement
        self.flats = flats        # sorted by (rank, indices)

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
        only the flats through more hyperplanes than their rank are asked,
        each as a bitmask of its labels.
        """
        mask = sum(1 << i for i in set(labels))
        return all((mask & fm).bit_count() <= rank for fm, rank in self._dependent_masks)

    @cached_property
    def _dependent_masks(self) -> tuple[tuple[int, int], ...]:
        return tuple((sum(1 << i for i in f.indices), f.rank) for f in self.dependent_flats)

    def flats_of_rank(self, r: int) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.rank == r)


def build_lattice(a: Arrangement) -> IntersectionLattice:
    """Enumerate all flats and their Mobius values from the no-broken-circuit sets.

    A label set {s_1 < ... < s_k} is NBC (holds no broken circuit) when each
    s_j is the smallest label of the closure of {s_j, ..., s_k}. One
    depth-first walk prepends smaller labels to NBC sets and closes each
    candidate once; the flats are the closures found, and mu of a flat is
    the sum of (-1)^k over the NBC k-sets spanning it (Rota; Orlik-Terao,
    ch. 3). Each NBC set carries a basis of its flat's points, the kernel of
    its forms, starting from the unit vectors; a form lies in the span of
    the set exactly when it vanishes on that basis, so the closure is every
    form that does.
    """
    forms = a.forms
    labels = range(1, a.m + 1)
    mobius = {(0, ()): 1}
    walk = [((), [tuple(int(k == t) for k in range(a.n + 1)) for t in range(a.n + 1)])]
    while walk:
        tail, basis = walk.pop()
        if len(tail) == a.n:
            continue
        for i in range(1, tail[0] if tail else a.m + 1):
            # tail is NBC, so label i is outside its closure: (i, *tail) is
            # independent, and form i is nonzero on some vector v_t0 of the
            # basis. With c_t the form's value on v_t, the vectors
            # c_t0 v_t - c_t v_t0 (t != t0), each divided by its content,
            # span the flat of (i, *tail).
            c = [sum(map(mul, forms[i - 1], v)) for v in basis]
            t0 = next(t for t, ct in enumerate(c) if ct)
            cut = []
            for t, v in enumerate(basis):
                if t != t0:
                    w = [c[t0] * x - c[t] * y for x, y in zip(v, basis[t0])]
                    g = gcd(*w)
                    cut.append(tuple(x // g for x in w))
            nbc = (i, *tail)
            closure = tuple(j for j in labels
                            if not any(sum(map(mul, forms[j - 1], v)) for v in cut))
            if closure[0] == i:
                key = (len(nbc), closure)
                mobius[key] = mobius.get(key, 0) + (-1) ** len(nbc)
                walk.append((nbc, cut))
    return IntersectionLattice(a, tuple(Flat(indices, rank, mu)
                                        for (rank, indices), mu in sorted(mobius.items())))
