"""Numerical invariants of an arrangement and its logarithmic sheaves.

Two sheaves are tracked throughout: the "Steiner log sheaf" (the one
presented by the standard two-term resolution) and the full log sheaf of
rank n (its saturation). `steiner_unavailable` decides, for the whole sheaf
layer, where the resolution exists. Polynomials are tuples of int
coefficients, low degree first; a Chern polynomial on P^n stops at t^n.
"""

import enum
from itertools import accumulate
from math import comb
from typing import NamedTuple

from .lattice import CrossingClass, IntersectionLattice


def steiner_unavailable(lattice: IntersectionLattice) -> str | None:
    """Why the arrangement of `lattice` has no Steiner sheaf, or None.

    The resolution 0 -> O(-1)^(m-n-1) -> O^(m-1) -> F -> 0 needs an
    essential arrangement (the m-n-1 relations of the forms) with m >= n + 2.
    """
    if not lattice.essential:
        return "arrangement is not essential"
    if lattice.m < lattice.n + 2:
        return f"needs m >= n + 2, got m = {lattice.m}"
    return None


def require_steiner(lattice: IntersectionLattice, subject: str) -> None:
    """Raise ValueError naming `subject` when `steiner_unavailable` objects."""
    why = steiner_unavailable(lattice)
    if why is not None:
        raise ValueError(f"{subject}: {why}")


class PoincareData(NamedTuple):
    projective: tuple[int, ...]  # t^0 .. t^n
    central: tuple[int, ...]     # t^0 .. t^(n+1)


def poincare(lattice: IntersectionLattice) -> PoincareData:
    """Poincare polynomials from the Mobius data.

    projective(t) = sum over flats of mu(x) (-t)^rank(x), and the central
    version adds the degree-(n+1) term so that
    central = projective - projective(-1) * (-t)^(n+1).
    """
    n = lattice.n
    coeffs = [0] * (n + 1)
    for flat in lattice.flats:
        coeffs[flat.rank] += flat.mobius * ((-1) ** flat.rank)
    top = (-1) ** n * sum((-1) ** i * c for i, c in enumerate(coeffs))
    return PoincareData(tuple(coeffs), tuple(coeffs) + (top,))


class LocallyFree(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class ChernData(NamedTuple):
    """Chern polynomials of the sheaves of an arrangement with a Steiner sheaf.

    Coefficients run low degree first, t^0 .. t^n. The Steiner resolution
    0 -> O(-1)^(m-n-1) -> O^(m-1) -> F -> 0 makes both Steiner polynomials
    binomial: c_t(F) = (1-t)^-(m-n-1) and c_t(F(1)) = (1+t)^(m-1).
    """

    steiner_ct: tuple[int, ...]
    steiner_twisted_ct: tuple[int, ...]
    logfree_twisted_ct: tuple[int, ...]
    n2_c1: int | None
    n2_c2: int | None
    locally_free: LocallyFree


def twist_transform(ct: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Chern polynomial of F(1) from that of F for a rank-n sheaf on P^n.

    sum_i c_i t^i (1+t)^(n-i), up to t^n.
    """
    return tuple(sum(ct[i] * comb(n - i, k - i) for i in range(k + 1))
                 for k in range(n + 1))


def chern(lattice: IntersectionLattice, pd: PoincareData) -> ChernData:
    """Chern data of the sheaves of the lattice's arrangement.

    `pd` is `poincare(lattice)`. Raises ValueError where there is no
    Steiner sheaf (`steiner_unavailable`).
    """
    require_steiner(lattice, "Chern data")
    n, m = lattice.n, lattice.m
    steiner_ct = tuple(comb(m - n - 2 + i, i) for i in range(n + 1))
    steiner_twisted = tuple(comb(m - 1, i) for i in range(n + 1))
    # projective / (1+t): q_k = p_k - q_(k-1)
    logfree_twisted = tuple(accumulate(pd.projective, lambda q, c: c - q))

    n2_c1 = n2_c2 = None
    if n == 2:   # the t^2 coefficient of pd.projective is sum(s-1) over the points
        n2_c1, n2_c2 = m - 3, pd.projective[2] - 2 * m + 3

    crossing = lattice.crossing.kind
    if n <= 2 or crossing is CrossingClass.GENERIC:
        flag = LocallyFree.YES
    elif crossing is CrossingClass.NORMAL_CROSSING_CODIM2_ONLY:
        # normal crossings in codimension 2 without genericity rules out
        # local freeness for n >= 3
        flag = LocallyFree.NO
    else:
        flag = LocallyFree.UNKNOWN

    return ChernData(steiner_ct, steiner_twisted, logfree_twisted,
                     n2_c1, n2_c2, flag)


class LocalPointData(NamedTuple):
    """Curve-singularity numbers of a multiple point of a line arrangement."""

    indices: tuple[int, ...]
    s: int
    milnor: int          # (s-1)^2
    delta_local: int     # s(s-1)/2
    branches: int        # s
    torsion_length: int  # (s-1)(s-2)/2


def local_data(lattice: IntersectionLattice) -> tuple[LocalPointData, ...]:
    """Per-point data for n = 2; mu = 2*delta - r + 1 holds for every s."""
    if lattice.n != 2:
        raise ValueError("local singularity data is defined for n = 2 only")
    return tuple(LocalPointData(indices=f.indices, s=f.s, milnor=(f.s - 1) ** 2,
                                delta_local=comb(f.s, 2), branches=f.s,
                                torsion_length=comb(f.s - 1, 2))
                 for f in lattice.flats_of_rank(2))


def delta_invariant(lattice: IntersectionLattice) -> int:
    """Sum of C(s(x)-1, 2) over the multiple points of a line arrangement.

    Also checks the pair-count identity C(m,2) - sum(s-1) = sum C(s-1,2),
    which pins the lattice's rank-2 level against pure counting.
    """
    if lattice.n != 2:
        raise ValueError("delta invariant is defined for n = 2 only")
    points = lattice.flats_of_rank(2)
    total = sum(comb(f.s - 1, 2) for f in points)
    if comb(lattice.m, 2) - sum(f.s - 1 for f in points) != total:
        raise AssertionError("pair-count identity violated; lattice bug")
    return total


def h0_values(lattice: IntersectionLattice, delta: int) -> tuple[int, int]:
    """Global sections (steiner log sheaf, log sheaf), untwisted, n = 2.

    steiner: m - 1, from 0 -> O(-1)^(m-3) -> O^(m-1) -> F -> 0 (h0(F(1)) is
    2m).  log sheaf: m - 1 + delta, for `delta = delta_invariant(lattice)`.
    """
    if lattice.n != 2:
        raise ValueError("h0 formulas implemented for n = 2 only")
    require_steiner(lattice, "h0 formulas")
    return lattice.m - 1, lattice.m - 1 + delta


def complement_count_prediction(pd: PoincareData, p: int) -> int:
    """Lattice-side value the finite-field count must equal.

    `pd` is `poincare(lattice)`. The value is p^(n+1) * central(-1/p)
    expanded exactly: the central Poincare polynomial carries the full
    central intersection data, including the origin flat of an essential
    arrangement that the projective lattice omits.
    """
    top = len(pd.central) - 1
    return sum(c * (-1) ** i * p ** (top - i) for i, c in enumerate(pd.central))
