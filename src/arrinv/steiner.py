"""Defining tensor of an arrangement and Gale duality.

For an essential arrangement of m >= n+2 hyperplanes the relation space U of
the coefficient matrix has dimension m-n-1. The defining tensor sends a
relation a and a point v to the vector (a_1 f_1(v), ..., a_m f_m(v)), which
always sums to zero and therefore lands in the sum-zero subspace W of k^m.
A basis of U fixes the tensor and the map of the Steiner resolution
0 -> O(-1)^(m-n-1) -> O^(m-1) -> F -> 0, so a `SteinerTensor` is that basis,
a tuple of m-n-1 `Fraction` rows, which every reader takes. Its n+1 slices
along the coordinate directions of v are a view of it, tuples of rows too,
built on first use for `arrinv tensor` only.

The Gale dual arrangement reads the columns of the tensor's relation basis
as m forms in m-n-1 variables (`dual_columns`, a view for the report and
`gale_dual`), so the tensor is the one source of the dual points;
`gale_unavailable` is the one rule, read off the lattice, for where they
exist: a Steiner sheaf and m >= n+3, so that P^(m-n-2) is at least a line.
Dependent subsets of maximal size swap with their complements under this
duality (Eisenbud-Popescu, J. Algebra 230, 2000): where the relation basis
is a full-rank kernel of the forms, the dual points' dependent (m-n-1)-sets,
coincident points included, are the complements of the forms' dependent
(n+1)-sets. So `verify_gale_bijection` tests the kernel, reads the forms'
dependent sets off the zero basis gcds (`ffcount.basis_minors`) and sets
them against the (n+1)-sets `IntersectionLattice.independent` rejects, both
in lexicographic order. The tensor holds the intersection lattice it was
built from.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .arrangement import Arrangement, InvalidArrangement, parse_arrangement
from .invariants import require_steiner, steiner_unavailable
from .lattice import IntersectionLattice
from .linalg import Rows, bareiss, kernel_basis


class GaleUndefined(ValueError):
    """The Gale dual does not exist as an arrangement of distinct hyperplanes."""


def gale_unavailable(lattice: IntersectionLattice) -> str | None:
    """Why the arrangement of `lattice` has no Gale dual configuration, or None."""
    if lattice.m < lattice.n + 3:
        return (f"dual ambient space is empty or a point for m = {lattice.m}, "
                f"n = {lattice.n}; the construction needs m >= n + 3")
    return steiner_unavailable(lattice)


class SteinerTensor:
    """The defining tensor as its relation basis rows; `slices` is a view for `arrinv tensor`."""

    def __init__(self, lattice: IntersectionLattice, u_basis: Rows):
        self.lattice = lattice
        self.u_basis = u_basis    # (m-n-1) x m, canonical kernel basis

    @property
    def m(self) -> int:
        return self.lattice.m

    @property
    def n(self) -> int:
        return self.lattice.n

    @cached_property
    def slices(self) -> tuple[Rows, ...]:
        """n+1 matrices, each (m-1) x (m-n-1), rows in the basis e_i - e_m of W.

        Column j of slice k is (rel_j[r] f_r[k]) for r < m-1: the image of
        relation j at v = e_k, whose last coordinate the zero sum implies.
        """
        forms, rels = self.lattice.arrangement.forms, self.u_basis
        return tuple(tuple(tuple(rel[r] * forms[r][k] for rel in rels)
                           for r in range(self.m - 1))
                     for k in range(self.n + 1))


def steiner_tensor(lattice: IntersectionLattice) -> SteinerTensor:
    """The defining tensor of the lattice's arrangement.

    Raises ValueError where there is no Steiner sheaf
    (`invariants.steiner_unavailable`).
    """
    require_steiner(lattice, "defining tensor")
    # the (n+1) x m coefficient matrix has one column per form; an essential
    # arrangement has m - n - 1 relations
    a = lattice.arrangement
    return SteinerTensor(lattice, kernel_basis(tuple(zip(*a.forms))))


def dual_columns(t: SteinerTensor) -> list[tuple[Fraction, ...]]:
    """Columns of the tensor's relation basis, one per hyperplane."""
    return [tuple(row[i] for row in t.u_basis) for i in range(t.m)]


def gale_dual(t: SteinerTensor) -> Arrangement:
    """The dual arrangement of m hyperplanes in P^(m-n-2).

    Raises GaleUndefined with the reason of `gale_unavailable`, or when the
    dual configuration is not m distinct nonzero forms.
    """
    why = gale_unavailable(t.lattice)
    if why is not None:
        raise GaleUndefined(why)
    cols = dual_columns(t)
    for i, c in enumerate(cols, start=1):
        if all(x == 0 for x in c):
            raise GaleUndefined(
                f"hyperplane {i} appears in no relation; its dual form is zero")
    try:
        return parse_arrangement(t.m - t.n - 2, [list(c) for c in cols])
    except InvalidArrangement as exc:
        raise GaleUndefined(f"dual points collide: {exc}") from exc


class GaleBijectionReport(NamedTuple):
    ok: bool                                        # kernel, and no set missing or extra
    kernel: bool                                    # the basis is a rank m-n-1 kernel
    primal_dependent: tuple[tuple[int, ...], ...]   # (n+1)-sets the lattice rejects
    actual_dual: tuple[tuple[int, ...], ...]        # complements of the forms' dependent sets
    missing: tuple[tuple[int, ...], ...]            # complements the lattice has, the forms not
    extra: tuple[tuple[int, ...], ...]              # complements the forms have, the lattice not


def verify_gale_bijection(t: SteinerTensor, minors: tuple[int, ...]) -> GaleBijectionReport:
    """Check that dual dependent sets are exactly complements of primal ones.

    The primal sets are the (n+1)-sets the tensor's lattice finds dependent
    (`IntersectionLattice.independent`); the forms' dependent sets are those
    whose gcd in `minors`, `ffcount.basis_minors` of the lattice's
    arrangement, is zero. Both are in lexicographic order. Where the
    relation basis annihilates the forms and has rank m-n-1, the dual
    dependent sets are the complements of the forms' ones, so the check
    fails unless that kernel test holds and the two families agree.
    Raises GaleUndefined with the reason of `gale_unavailable`.
    """
    why = gale_unavailable(t.lattice)
    if why is not None:
        raise GaleUndefined(why)
    m, n, u, forms = t.m, t.n, t.u_basis, t.lattice.arrangement.forms
    kernel = bareiss(u)[0] == m - n - 1 and all(
        sum(c * f[k] for c, f in zip(row, forms)) == 0 for row in u for k in range(n + 1))
    labels = range(1, m + 1)
    sets = list(combinations(labels, n + 1))

    def complements(family):
        return tuple(sorted(tuple(i for i in labels if i not in s) for s in family))

    primal = tuple(s for s in sets if not t.lattice.independent(s))
    by_forms = tuple(s for s, g in zip(sets, minors, strict=True) if not g)
    missing = complements(set(primal) - set(by_forms))
    extra = complements(set(by_forms) - set(primal))
    return GaleBijectionReport(kernel and not missing and not extra, kernel, primal,
                               complements(by_forms), missing, extra)
