"""Recovering the arrangement from its sheaf: the Torelli analysis.

The question is whether the arrangement is determined by its logarithmic
sheaf. The implemented criteria all run on the dual configuration, the m
points of the dual projective space given by the coefficient vectors: the
integer rows of the `Arrangement` itself, so a sub-configuration is a set
of hyperplane labels.

For n = 2 the whole-set object is the space of conics through the dual
points (`conic_test`, which takes the arrangement). It is decided by
geometry, with no search: a family of conics through distinct points always
has a member nonsingular at all of them, and a unique conic is smooth or two
distinct lines, whose vertex is the one point to check. The other object, at
every n >= 2, is a smooth rational normal curve through the points
(`rnc_test`, which takes the intersection lattice and a label set; a smooth
conic for n = 2). Such a curve meets a hyperplane in at most n points, so
its points are in linear general position, and any n+2 such points lie on
one. Beyond n+2 points the first n+2 are a frame: after normalizing it to
the coordinate simplex plus the all-ones point (one RREF of the frame's
first n+1 points beside the others), the curves through the frame are
exactly t -> (1/(t - a_0) : ... : 1/(t - a_n)) with pairwise distinct poles
a_k, so membership reduces to a rank condition on coordinatewise reciprocals.

Linear general position is never decided here: `rnc_test` asks the lattice
once (`lattice.independent`, the dependence test the Gale check uses too),
and rule 1 asks it once per subset before the same frame test.
`torelli_verdict` combines the criteria into a five-way cascade. Proved and
NotProved verdicts rest on implemented case analysis, the Conjectured pair
reports which side of the open conjecture the configuration falls on.
"""

import enum
from fractions import Fraction
from itertools import combinations, islice
from math import comb
from typing import NamedTuple

from .arrangement import Arrangement
from .invariants import require_steiner
from .lattice import IntersectionLattice
from .linalg import bareiss, kernel_basis, primitive_integer_vector, rref
from .stability import StabilityVerdict, Status


class ConicClass(enum.Enum):
    NONSINGULAR = "nonsingular"
    TWO_DISTINCT_LINES = "two_distinct_lines"


class ConicResult(NamedTuple):
    """Conics through a planar point configuration.

    kernel_dim: dimension of the linear system of conics through the points.
    conic / classification / vertex describe the unique conic when
    kernel_dim == 1. all_points_nonsingular answers "is every configuration
    point a nonsingular point of some common conic".

    The points are distinct, and for kernel_dim >= 2 the answer is always
    yes, with no search:
    - five points with no three collinear impose independent conditions,
      so a family means at most four points or three collinear ones;
    - at most four points with no three collinear lie on a smooth conic;
    - three collinear points among at most four lie on their line L times
      a line through the point off L, if any, meeting L away from the
      points;
    - five points impose dependent conditions only when four of them lie on
      a line L. Then every conic through all the points contains L, the
      family is L times lines, and its dimension >= 2 leaves at most one
      point off L: again take L times a line through that point meeting L
      away from the points.
    For kernel_dim == 1 the conic is smooth or two distinct lines: were it
    a double line L^2, the points would all lie on L, and every L times a
    line would pass through them, a family of dimension 3.
    """

    kernel_dim: int
    conic: tuple[int, ...] | None            # (x2, xy, xz, y2, yz, z2) coefficients
    classification: ConicClass | None
    all_points_nonsingular: bool
    vertex: tuple[int, ...] | None           # singular point of a rank-2 conic


def _sym_matrix_2q(c) -> list[list[int]]:
    """Twice the symmetric matrix of the integer conic c."""
    a, b, cc, d, e, f = c
    return [[2 * a, b, cc], [b, 2 * d, e], [cc, e, 2 * f]]


def conic_test(a: Arrangement) -> ConicResult:
    """Conics through the dual points of a line arrangement.

    all_points_nonsingular is False when no conic passes through the
    points and True for a family (see `ConicResult`); a unique conic is
    smooth, or two distinct lines whose vertex must miss the points.
    """
    if a.n != 2:
        raise ValueError("conic test is defined for n = 2 only")
    kern = kernel_basis([[x * x, x * y, x * z, y * y, y * z, z * z]
                         for x, y, z in a.forms])
    kdim = len(kern)
    if kdim != 1:
        return ConicResult(kdim, None, None, kdim >= 2, None)
    c = primitive_integer_vector(kern[0])
    singular = kernel_basis(_sym_matrix_2q(c))
    if not singular:
        return ConicResult(1, c, ConicClass.NONSINGULAR, True, None)
    vertex = primitive_integer_vector(singular[0])
    return ConicResult(1, c, ConicClass.TWO_DISTINCT_LINES, vertex not in a.forms, vertex)


class RncVerdict(enum.Enum):
    ON_SMOOTH_RNC = "on_smooth_rnc"
    NOT_ON_SMOOTH_RNC = "not_on_smooth_rnc"
    DEGENERATE_CONFIGURATION = "degenerate_configuration"


class RncResult(NamedTuple):
    """What `rnc_test` found about a point set.

    DEGENERATE_CONFIGURATION: the points are outside linear general position,
    at any size. Frame and direction are set beyond n+2 points.
    """

    verdict: RncVerdict
    frame: tuple[int, ...] | None       # labels of the normalized frame
    direction: tuple[Fraction, ...] | None  # common direction of reciprocals
    detail: str


def rnc_test(lattice: IntersectionLattice,
             labels: tuple[int, ...] | None = None) -> RncResult:
    """Do the dual points of `labels` lie on a smooth rational normal curve?

    `labels` are distinct ints in 1..m, all m when None (others, bools
    included, raise ValueError); the curve has degree n, a conic for n = 2.
    Linear general position is asked of `lattice.independent` once: outside
    it the set is degenerate, within it at most n+2 points lie on a curve.
    """
    n, m = lattice.n, lattice.m
    labels = tuple(range(1, m + 1) if labels is None else labels)
    if (len(set(labels)) != len(labels)
            or not all(type(i) is int and 1 <= i <= m for i in labels)):
        raise ValueError(f"labels must be distinct ints in 1..{m}, got {list(labels)}")
    if not lattice.independent(labels):
        return RncResult(RncVerdict.DEGENERATE_CONFIGURATION, None, None,
                         "points are linearly degenerate")
    if len(labels) <= n + 2:
        return RncResult(RncVerdict.ON_SMOOTH_RNC, None, None,
                         "at most n+2 points in linear general position "
                         "always lie on a smooth curve")
    return _rnc_by_frame(lattice, labels)


def _rnc_by_frame(lattice: IntersectionLattice, labels: tuple[int, ...]) -> RncResult:
    """`rnc_test` of more than n+2 labels in linear general position.

    The first n+2 labels are the frame. With its base points as the columns
    of B, the RREF of [B | unit point | other points] is [I | lam | x_1 | ...],
    lam = B^-1 (unit point) and x = B^-1 p; the map diag(lam)^-1 B^-1 sends
    p to x_c / lam_c, whose reciprocals are lam_c / x_c. General position
    makes every x_c nonzero (else p shares a hyperplane with n base points),
    every lam / x non-constant (else p is the unit point) and its entries
    pairwise distinct (else p, the unit point and n-1 base points are
    dependent), so the points lie on a smooth curve exactly when the
    reciprocals and the all-ones vector span a pencil.
    """
    n = lattice.n
    forms = lattice.arrangement.forms
    reduced = rref(tuple(zip(*(forms[i - 1] for i in labels))))[0]
    recips = [tuple(row[n + 1] / row[k] for row in reduced)
              for k in range(n + 2, len(labels))]
    frame = labels[:n + 2]
    if bareiss([(1,) * (n + 1)] + recips)[0] > 2:
        return RncResult(RncVerdict.NOT_ON_SMOOTH_RNC, frame,
                         None, "reciprocal vectors span more than a pencil")
    return RncResult(RncVerdict.ON_SMOOTH_RNC, frame,
                     recips[0], "reciprocals fit a pole vector with distinct entries")


class TorelliStatus(enum.Enum):
    TORELLI_PROVED = "torelli_proved"
    NOT_TORELLI_PROVED = "not_torelli_proved"
    TORELLI_CONJECTURED = "torelli_conjectured"
    NOT_TORELLI_CONJECTURED = "not_torelli_conjectured"
    UNKNOWN = "unknown"


class TorelliVerdict(NamedTuple):
    status: TorelliStatus
    rule: str
    witness_subset: tuple[int, ...] | None
    conic: ConicResult | None
    rnc: RncResult | None
    trace: tuple[str, ...]
    subset_cap_exceeded: bool


DEFAULT_MAX_SUBSETS = 20000


def check_max_subsets(max_subsets) -> None:
    """Raise ValueError unless the rule-1 cap is an int >= 0 (a bool is not)."""
    if type(max_subsets) is not int or max_subsets < 0:
        raise ValueError(f"max_subsets must be an int >= 0, got {max_subsets!r}")


def torelli_verdict(lattice: IntersectionLattice, stability: StabilityVerdict,
                    max_subsets: int = DEFAULT_MAX_SUBSETS) -> TorelliVerdict:
    """Five-rule cascade deciding what is known about recoverability.

    The arrangement is the lattice's own; `stability` is its
    `stability.classify` verdict.
    Rule 1: a generic sub-arrangement whose dual points avoid every curve of
    the relevant family certifies recoverability, and adding hyperplanes
    preserves it. Any n+3 points in linear general position lie on exactly
    one curve of the family (a conic for n = 2, a rational normal curve for
    n >= 3: Castelnuovo), so a generic set on no such curve holds n+4 points
    on none, and only the (n+4)-subsets are scanned, lexicographically.
    Genericity is read off `lattice`, once per subset; a generic subset is a
    witness when the frame test behind `rnc_test` finds it on no smooth
    curve. For n = 2 that is on no conic at all: a conic through six points,
    no three collinear, contains no line and is smooth. Every subset visited
    counts toward `max_subsets`, non-generic ones included. When no witness
    turns up, `subset_cap_exceeded` is set exactly when C(m, n+4), the count
    a scan must visit to find nothing, exceeds `max_subsets`. The later
    rules then run. A `max_subsets` refused by `check_max_subsets` raises
    ValueError.
    The scan is skipped when all m dual points lie on one curve of the
    family: for n = 2 on a conic (kernel dimension >= 1 by `conic_test`;
    the conic passes through every subset's points and is smooth on a
    generic one), for n >= 3 on a smooth rational normal curve (`rnc_test`
    of the whole set; the curve passes through every subset's points).
    Rule 2: the six-line planar case is decided by whether all six dual
    points are nonsingular points of a common conic.
    Rule 3: five-line planar arrangements are never recoverable.
    Rule 4: all dual points on the nonsingular locus of a stable degenerate
    curve place the configuration on the negative side of the open
    conjecture (for n >= 3 only the smooth curve case is tested).
    Rule 5: everything else lands on the positive side of the conjecture.

    Unstable input yields Unknown: the moduli analysis behind the rules
    assumes the sheaf is at least semi-stable. On P^1 (n = 1) the sheaf is
    the line bundle of degree m - 2 whatever the m points are, so no rule
    runs and the verdict is NotProved (`line-bundle-case`). Raises
    ValueError where there is no Steiner sheaf
    (`invariants.steiner_unavailable`).
    """
    check_max_subsets(max_subsets)
    require_steiner(lattice, "Torelli analysis")
    a = lattice.arrangement
    n, m = a.n, a.m
    trace: list[str] = []
    conic_full = rnc_full = None
    cap_exceeded = False

    def verdict(status: TorelliStatus, rule: str, line: str,
                witness: tuple[int, ...] | None = None) -> TorelliVerdict:
        trace.append(line)
        return TorelliVerdict(status, rule, witness, conic_full, rnc_full,
                              tuple(trace), cap_exceeded)

    if stability.status is Status.UNSTABLE:
        return verdict(TorelliStatus.UNKNOWN, "unstable input outside the analyzed range",
                       "stability status unstable: no rule applies")
    if n == 1:
        return verdict(TorelliStatus.NOT_TORELLI_PROVED, "line-bundle-case",
                       "n = 1: the sheaf is a line bundle of degree m - 2, the same "
                       "for any m points")

    conic_full = conic_test(a) if n == 2 else None
    rnc_full = rnc_test(lattice) if n >= 3 else None
    on_curve = (conic_full.kernel_dim >= 1 if n == 2
                else rnc_full.verdict is RncVerdict.ON_SMOOTH_RNC)

    # rule 1: generic subset failing the osculation test; none can fail when
    # a curve passes through every dual point, hence every subset's points
    if not on_curve:
        subsets = combinations(range(1, m + 1), n + 4)
        for subset in islice(subsets, max_subsets):
            if lattice.independent(subset) and (_rnc_by_frame(lattice, subset).verdict
                                                is RncVerdict.NOT_ON_SMOOTH_RNC):
                return verdict(TorelliStatus.TORELLI_PROVED, "generic-subset-off-curve",
                               f"rule 1: generic subset {list(subset)} avoids every "
                               "curve of the family", subset)
        cap_exceeded = comb(m, n + 4) > max_subsets
    trace.append("rule 1: no generic subset fails the osculation test"
                 + (" (subset cap hit)" if cap_exceeded else ""))

    # every dual point on the nonsingular locus of one stable curve: a conic
    # for n = 2, a smooth rational normal curve for n >= 3
    on_stable_curve = on_curve and (n >= 3 or conic_full.all_points_nonsingular)

    # rule 2: six lines in the plane
    if n == 2 and m == 6:
        if not on_stable_curve:
            return verdict(TorelliStatus.TORELLI_PROVED, "six-line-conic-case",
                           "rule 2: the six dual points are not nonsingular "
                           "points of any common conic")
        return verdict(TorelliStatus.NOT_TORELLI_PROVED, "six-line-conic-case",
                       "rule 2: all six dual points sit on a common conic's "
                       "nonsingular locus")

    # rule 3: five lines in the plane
    if n == 2 and m == 5:
        return verdict(TorelliStatus.NOT_TORELLI_PROVED, "five-line-case",
                       "rule 3: five-line arrangements are never recoverable")

    # rule 4: dual points on the nonsingular locus of a stable curve
    if on_stable_curve:
        return verdict(TorelliStatus.NOT_TORELLI_CONJECTURED, "on-stable-curve",
                       "rule 4: dual points on a stable conic's nonsingular locus"
                       if n == 2 else
                       "rule 4: dual points on a smooth rational normal curve")

    return verdict(TorelliStatus.TORELLI_CONJECTURED, "default-conjecture",
                   "rule 5: no obstruction found; conjectured recoverable")
