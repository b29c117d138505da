"""Recovering the arrangement from its sheaf: the Torelli analysis.

The question is whether the arrangement is determined by its logarithmic
sheaf. The implemented criteria all run on the dual configuration, the m
points of the dual projective space given by the coefficient vectors.

For n = 2 the central object is the space of conics through the dual points
(`conic_test`). For higher n the analogous object is a smooth rational
normal curve through the points (`rnc_test`): after normalizing a frame of
n+2 points to the coordinate simplex plus the all-ones point, the curves
through the frame are exactly t -> (1/(t - a_0) : ... : 1/(t - a_n)) with
pairwise distinct poles a_k, so membership reduces to a rank condition on
coordinatewise reciprocals.

`torelli_verdict` combines the criteria into a five-way cascade; Proved and
NotProved verdicts rest on implemented case analysis, the Conjectured pair
reports which side of the open conjecture the configuration falls on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .arrangement import Arrangement
from .lattice import IntersectionLattice
from .linalg import (QMatrix, invert, kernel_basis, primitive_integer_vector,
                     solve_square)
from .stability import StabilityVerdict, Status


@dataclass(frozen=True)
class DualConfiguration:
    """The m coefficient vectors read as labeled points of the dual space."""

    n: int
    points: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.points)

    def subset(self, labels) -> "DualConfiguration":
        return DualConfiguration(self.n, tuple(self.points[i - 1] for i in sorted(labels)))


def dual_points(a: Arrangement) -> DualConfiguration:
    return DualConfiguration(a.n, tuple(f.coeffs for f in a.forms))


class ConicClass(enum.Enum):
    NONSINGULAR = "nonsingular"
    TWO_DISTINCT_LINES = "two_distinct_lines"
    DOUBLE_LINE = "double_line"


@dataclass(frozen=True)
class ConicResult:
    """Conics through a planar point configuration.

    kernel_dim: dimension of the linear system of conics through the points.
    conic / classification / vertex describe the unique conic when
    kernel_dim == 1. all_points_nonsingular answers "is every configuration
    point a nonsingular point of some common conic"; for pencils and larger
    families it is decided by an exact search for a smooth member.
    """

    kernel_dim: int
    conic: tuple[int, ...] | None            # (x2, xy, xz, y2, yz, z2) coefficients
    classification: ConicClass | None
    all_points_nonsingular: bool
    vertex: tuple[int, ...] | None           # singular point of a rank-2 conic


def _veronese_row(pt) -> list:
    x, y, z = pt
    return [x * x, x * y, x * z, y * y, y * z, z * z]


def _sym_matrix_2q(c) -> QMatrix:
    """Twice the symmetric matrix of the conic, integer for integer input."""
    a, b, cc, d, e, f = c
    return QMatrix.from_rows([
        [2 * a, b, cc],
        [b, 2 * d, e],
        [cc, e, 2 * f],
    ], 3)


def _classify_member(c, points) -> tuple[ConicClass, tuple[int, ...] | None, bool]:
    """Classify one conic and check the points avoid its singular locus."""
    q2 = _sym_matrix_2q(c)
    rank = q2.rank()
    if rank == 3:
        return ConicClass.NONSINGULAR, None, True
    if rank == 2:
        vertex_rows = kernel_basis(q2)
        vertex = primitive_integer_vector(vertex_rows.entries[0])
        ok = all(primitive_integer_vector(p) != vertex for p in points)
        return ConicClass.TWO_DISTINCT_LINES, vertex, ok
    # rank 1: a double line is singular everywhere along its support
    return ConicClass.DOUBLE_LINE, None, False


def conic_test(config: DualConfiguration) -> ConicResult:
    if config.n != 2:
        raise ValueError("conic test is defined for n = 2 only")
    rows = [_veronese_row(p) for p in config.points]
    kern = kernel_basis(QMatrix.from_rows(rows, 6))
    kdim = kern.rows
    if kdim == 0:
        return ConicResult(0, None, None, False, None)
    if kdim == 1:
        c = primitive_integer_vector(kern.entries[0])
        cls, vertex, ok = _classify_member(c, config.points)
        return ConicResult(1, c, cls, ok, vertex)
    # a family: look for a member that is smooth, or failing that a
    # two-distinct-lines member missing all the points with its vertex.
    # det of the member's symmetric matrix is a cubic form in the family
    # parameters, so scanning {0..3}^kdim decides "exists smooth member"
    # exactly; the reducible fallback on the same grid is sound when it
    # answers True.
    basis = [tuple(row) for row in kern.entries]
    best_ok = False
    for coeffs in product(range(4), repeat=kdim):
        if all(c == 0 for c in coeffs):
            continue
        member = [sum(coeffs[j] * basis[j][i] for j in range(kdim))
                  for i in range(6)]
        cls, _, ok = _classify_member(member, config.points)
        if cls is ConicClass.NONSINGULAR:
            return ConicResult(kdim, None, None, True, None)
        if ok:
            best_ok = True
    return ConicResult(kdim, None, None, best_ok, None)


class RncVerdict(enum.Enum):
    ON_SMOOTH_RNC = "on_smooth_rnc"
    NOT_ON_SMOOTH_RNC = "not_on_smooth_rnc"
    DEGENERATE_CONFIGURATION = "degenerate_configuration"


@dataclass(frozen=True)
class RncResult:
    verdict: RncVerdict
    frame: tuple[int, ...] | None       # labels of the normalized frame
    direction: tuple[Fraction, ...] | None  # common direction of reciprocals
    detail: str


def _in_linear_general_position(points, n: int) -> bool:
    """Every subset of size <= n+1 is linearly independent."""
    k = len(points)
    top = min(k, n + 1)
    for size in range(2, top + 1):
        for subset in combinations(range(k), size):
            mat = QMatrix.from_rows([points[i] for i in subset], n + 1)
            if mat.rank() < size:
                return False
    return True


def rnc_test(config: DualConfiguration) -> RncResult:
    """Do all points lie on a smooth rational normal curve of degree n?"""
    n = config.n
    pts = [tuple(Fraction(c) for c in p) for p in config.points]
    m = len(pts)
    if m <= n + 2:
        if _in_linear_general_position(pts, n):
            return RncResult(RncVerdict.ON_SMOOTH_RNC, None, None,
                             "at most n+2 points in linear general position "
                             "always lie on a smooth curve")
        return RncResult(RncVerdict.DEGENERATE_CONFIGURATION, None, None,
                         "points are linearly degenerate")

    # frame: first n+2 points (lexicographic subset order) in linear general
    # position. On a smooth curve every n+2 points qualify, so a missing
    # frame already settles the verdict.
    frame = None
    for subset in combinations(range(m), n + 2):
        if _in_linear_general_position([pts[i] for i in subset], n):
            frame = subset
            break
    if frame is None:
        return RncResult(RncVerdict.NOT_ON_SMOOTH_RNC, None, None,
                         "no n+2 points in linear general position; points on "
                         "a smooth curve would all qualify")

    # normalize the frame to e_0, ..., e_n, (1, ..., 1)
    base = QMatrix.from_rows(
        [[pts[i][k] for i in frame[: n + 1]] for k in range(n + 1)], n + 1)
    lam = solve_square(base, pts[frame[n + 1]])
    scaled = QMatrix.from_rows(
        [[base.entries[r][c] * lam[c] for c in range(n + 1)]
         for r in range(n + 1)], n + 1)
    transform = invert(scaled)

    rest = [i for i in range(m) if i not in frame]
    recips = []
    for i in rest:
        q = transform.matvec(pts[i])
        if any(x == 0 for x in q):
            return RncResult(
                RncVerdict.NOT_ON_SMOOTH_RNC, tuple(l + 1 for l in frame), None,
                f"point {i + 1} lands on a coordinate hyperplane of the "
                "normalized frame; curve points there are frame points")
        recips.append(tuple(Fraction(1) / x for x in q))

    ones = tuple(Fraction(1) for _ in range(n + 1))
    stack = QMatrix.from_rows([ones] + recips, n + 1)
    if stack.rank() > 2:
        return RncResult(RncVerdict.NOT_ON_SMOOTH_RNC, tuple(l + 1 for l in frame),
                         None, "reciprocal vectors span more than a pencil")

    direction = None
    for w in recips:
        mat = QMatrix.from_rows([ones, w], n + 1)
        if mat.rank() == 2:
            direction = w
            break
    if direction is None:
        # every residual point equals the unit point; impossible for distinct
        # points, but keep the branch total
        return RncResult(RncVerdict.NOT_ON_SMOOTH_RNC, tuple(l + 1 for l in frame),
                         None, "no independent reciprocal direction")
    if len(set(direction)) != n + 1:
        return RncResult(RncVerdict.NOT_ON_SMOOTH_RNC, tuple(l + 1 for l in frame),
                         direction, "pole parameters collide; every curve of the "
                         "family through these points is degenerate")
    return RncResult(RncVerdict.ON_SMOOTH_RNC, tuple(l + 1 for l in frame),
                     direction, "reciprocals fit a pole vector with distinct entries")


class TorelliStatus(enum.Enum):
    TORELLI_PROVED = "torelli_proved"
    NOT_TORELLI_PROVED = "not_torelli_proved"
    TORELLI_CONJECTURED = "torelli_conjectured"
    NOT_TORELLI_CONJECTURED = "not_torelli_conjectured"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TorelliVerdict:
    status: TorelliStatus
    rule: str
    witness_subset: tuple[int, ...] | None
    conic: ConicResult | None
    rnc: RncResult | None
    trace: tuple[str, ...]
    subset_cap_exceeded: bool


def _genericity(lattice: IntersectionLattice):
    """Genericity predicate on label sets, read off the lattice.

    A label set is generic when every n+1 of its forms (all, if fewer) are
    independent. Dependent labels span a flat of some rank r <= n holding
    more than r of them, and more than r labels of a rank-r flat are
    dependent; only flats through more hyperplanes than their rank count.
    """
    dependent = [(frozenset(f.indices), f.rank) for f in lattice.flats if f.s > f.rank]
    return lambda labels: all(len(flat.intersection(labels)) <= r
                              for flat, r in dependent)


DEFAULT_MAX_SUBSETS = 20000


def torelli_verdict(a: Arrangement, lattice: IntersectionLattice,
                    stability: StabilityVerdict,
                    max_subsets: int = DEFAULT_MAX_SUBSETS) -> TorelliVerdict:
    """Five-rule cascade deciding what is known about recoverability.

    Rule 1: a generic sub-arrangement whose dual points avoid every curve of
    the relevant family certifies recoverability, and adding hyperplanes
    preserves it. Subsets are searched by ascending size starting at
    max(n+4, 6) (for n = 2 any five points lie on a conic, so smaller subsets
    cannot fail), lexicographically within a size; for n = 2 the conservative
    failure reading "kernel dimension 0, on no conic at all" is used.
    Genericity is read off `lattice`, the lattice of `a`. Every subset
    visited counts toward `max_subsets` (>= 0), non-generic ones included;
    hitting the cap moves on to the later rules with `subset_cap_exceeded`
    set.
    Rule 2: the six-line planar case is decided by whether all six dual
    points are nonsingular points of a common conic.
    Rule 3: five-line planar arrangements are never recoverable.
    Rule 4: all dual points on the nonsingular locus of a stable degenerate
    curve place the configuration on the negative side of the open
    conjecture (for n >= 3 only the smooth curve case is tested).
    Rule 5: everything else lands on the positive side of the conjecture.

    Unstable input yields Unknown: the moduli analysis behind the rules
    assumes the sheaf is at least semi-stable.
    """
    if lattice.arrangement != a:
        raise ValueError("the lattice belongs to a different arrangement")
    trace: list[str] = []
    config = dual_points(a)
    n, m = a.n, a.m

    if stability.status is Status.UNSTABLE:
        return TorelliVerdict(TorelliStatus.UNKNOWN,
                              "unstable input outside the analyzed range",
                              None, None, None,
                              ("stability status unstable: no rule applies",), False)

    conic_full = conic_test(config) if n == 2 else None
    rnc_full = rnc_test(config) if n >= 3 else None

    # rule 1: generic subset failing the osculation test
    is_generic = _genericity(lattice)
    examined = 0
    cap_exceeded = False
    witness = None
    for subset in (s for size in range(max(n + 4, 6), m + 1)
                   for s in combinations(range(1, m + 1), size)):
        if examined >= max_subsets:
            cap_exceeded = True
            break
        examined += 1
        if not is_generic(subset):
            continue
        sub = config.subset(subset)
        if (conic_test(sub).kernel_dim == 0 if n == 2
                else rnc_test(sub).verdict is RncVerdict.NOT_ON_SMOOTH_RNC):
            witness = subset
            break
    if witness is not None:
        trace.append(f"rule 1: generic subset {list(witness)} avoids every "
                     "curve of the family")
        return TorelliVerdict(TorelliStatus.TORELLI_PROVED,
                              "generic-subset-off-curve", witness,
                              conic_full, rnc_full, tuple(trace), cap_exceeded)
    trace.append("rule 1: no generic subset fails the osculation test"
                 + (" (subset cap hit)" if cap_exceeded else ""))

    # rule 2: six lines in the plane
    if n == 2 and m == 6:
        assert conic_full is not None
        on_conic = conic_full.kernel_dim >= 1 and conic_full.all_points_nonsingular
        if not on_conic:
            trace.append("rule 2: the six dual points are not nonsingular "
                         "points of any common conic")
            return TorelliVerdict(TorelliStatus.TORELLI_PROVED, "six-line-conic-case",
                                  None, conic_full, rnc_full, tuple(trace), cap_exceeded)
        trace.append("rule 2: all six dual points sit on a common conic's "
                     "nonsingular locus")
        return TorelliVerdict(TorelliStatus.NOT_TORELLI_PROVED, "six-line-conic-case",
                              None, conic_full, rnc_full, tuple(trace), cap_exceeded)

    # rule 3: five lines in the plane
    if n == 2 and m == 5:
        trace.append("rule 3: five-line arrangements are never recoverable")
        return TorelliVerdict(TorelliStatus.NOT_TORELLI_PROVED, "five-line-case",
                              None, conic_full, rnc_full, tuple(trace), cap_exceeded)

    # rule 4: dual points on the nonsingular locus of a stable curve
    if n == 2:
        assert conic_full is not None
        if conic_full.kernel_dim >= 1 and conic_full.all_points_nonsingular:
            trace.append("rule 4: dual points on a stable conic's nonsingular locus")
            return TorelliVerdict(TorelliStatus.NOT_TORELLI_CONJECTURED,
                                  "on-stable-curve", None, conic_full, rnc_full,
                                  tuple(trace), cap_exceeded)
    else:
        assert rnc_full is not None
        if rnc_full.verdict is RncVerdict.ON_SMOOTH_RNC:
            trace.append("rule 4: dual points on a smooth rational normal curve")
            return TorelliVerdict(TorelliStatus.NOT_TORELLI_CONJECTURED,
                                  "on-stable-curve", None, conic_full, rnc_full,
                                  tuple(trace), cap_exceeded)

    trace.append("rule 5: no obstruction found; conjectured recoverable")
    return TorelliVerdict(TorelliStatus.TORELLI_CONJECTURED, "default-conjecture",
                          None, conic_full, rnc_full, tuple(trace), cap_exceeded)
