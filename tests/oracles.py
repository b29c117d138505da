"""Independent reference computations used to cross-check the library.

Everything here is deliberately written against the definitions, with no
reuse of the library's lattice, elimination or counting code paths, so
agreement is meaningful: ranks and minors come from the textbook Fraction
elimination below rather than the library's fraction-free routine, the
Moebius oracle sums signed generating subsets instead of recursing over the
poset, the point counter loops over the whole affine space instead of
walking fibers (for lines a second counter, fast at any prime, sums
inclusion-exclusion over the distinct lines mod p and their meeting
points), primality is decided by trial division instead of Miller-Rabin,
a prime is judged by ranking every set of at most n+1 forms
over Q and mod p instead of by divisibility of basis minors, each basis
gcd is the gcd of its minors on every set of r columns instead of one
determinant over the pivot columns of an echelon form, a closure is
read off an echelon form of its label set instead of off a walk that cuts
flats by forms, polynomial products are multiplied out term by term
instead of read off closed binomials, and Torelli rule 1 is an exhaustive
scan of every subset, which for n = 2 decides conics by brackets of the
points instead of by the frame normalization of the library's `rnc_test`,
and a conic nonsingular at every point of a small or nearly collinear set
is built from line pairs instead of read off the space of conics.

One exception: for n >= 3 that scan asks the library's `rnc_test`, on the
sub-arrangement's own lattice, whether a subset's dual points lie on a
smooth rational normal curve. There is no second implementation of that
test here for n >= 3; its own sample tests (twisted cubics, their
perturbations, hand-made frames) cover it. For n = 2 the brackets are the
second implementation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from arrinv.arrangement import Arrangement
from arrinv.lattice import Flat, build_lattice
from arrinv.steiner import SteinerTensor
from arrinv.torelli import RncVerdict, rnc_test


def _echelon(rows) -> tuple[list[list[Fraction]], int]:
    """Row echelon form by Gaussian elimination over Fraction; (rows, swaps)."""
    work = [[Fraction(x) for x in r] for r in rows]
    top = swaps = 0
    for c in range(len(work[0]) if work else 0):
        sel = next((r for r in range(top, len(work)) if work[r][c]), None)
        if sel is None:
            continue
        if sel != top:
            work[top], work[sel] = work[sel], work[top]
            swaps += 1
        for r in range(top + 1, len(work)):
            f = work[r][c] / work[top][c]
            work[r] = [x - f * y for x, y in zip(work[r], work[top])]
        top += 1
    return work, swaps


def fraction_rank(rows) -> int:
    """Rank over Q: the nonzero rows of the echelon form."""
    return sum(1 for r in _echelon(rows)[0] if any(r))


def fraction_det(rows) -> Fraction:
    """Determinant of a square matrix: signed product of the echelon diagonal."""
    work, swaps = _echelon(rows)
    out = Fraction((-1) ** swaps)
    for i, r in enumerate(work):
        out *= r[i]
    return out


def rank_mod_p(rows, p: int) -> int:
    """Rank of integer rows mod a prime p by Gauss-Jordan with inverses mod p."""
    work = [[c % p for c in r] for r in rows]
    cols = len(work[0])
    pr = 0
    for c in range(cols):
        sel = None
        for r in range(pr, len(work)):
            if work[r][c] % p:
                sel = r
                break
        if sel is None:
            continue
        work[pr], work[sel] = work[sel], work[pr]
        inv = pow(work[pr][c], p - 2, p)
        work[pr] = [x * inv % p for x in work[pr]]
        for r in range(len(work)):
            if r != pr and work[r][c]:
                g = work[r][c]
                work[r] = [(x - g * y) % p for x, y in zip(work[r], work[pr])]
        pr += 1
    return pr


def is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def prime_preserves_lattice_by_ranks(a: Arrangement, p: int) -> bool:
    """True when every set of at most n+1 forms keeps its rank over Q mod p.

    The definition itself, one rank over Q and one mod p per set, against
    which the library's divisibility test on basis minors is checked.
    """
    return all(rank_mod_p(rows, p) == fraction_rank(rows)
               for size in range(1, min(a.n + 1, a.m) + 1)
               for rows in combinations(a.forms, size))


def basis_gcds_by_minors(a: Arrangement) -> tuple[int, ...]:
    """g_B for every basis B, label sets in lexicographic order, by definition.

    r is the rank of all the forms, and g_B the gcd of the r x r minors of
    B's forms over every set of r columns; the zero ones, of dependent
    sets, are dropped. `ffcount.basis_minors` must return the same tuple.
    """
    r = fraction_rank(a.forms)
    column_sets = list(combinations(range(a.n + 1), r))
    gcds = (gcd(*(int(fraction_det([[row[c] for c in cols] for row in rows]))
                  for cols in column_sets))
            for rows in combinations(a.forms, r))
    return tuple(g for g in gcds if g)


def slice_at_point(t: SteinerTensor, point) -> tuple[tuple[Fraction, ...], ...]:
    """The (m-1) x (m-n-1) matrix of the tensor contracted with a point."""
    if len(point) != t.n + 1:
        raise ValueError("point has wrong dimension")
    rows = []
    for r in range(t.m - 1):
        rows.append(tuple(
            sum((Fraction(point[k]) * t.slices[k][r][j]
                 for k in range(t.n + 1)), Fraction(0))
            for j in range(t.m - t.n - 1)))
    return tuple(rows)


def _rank_of(a: Arrangement, labels) -> int:
    return fraction_rank([a.forms[i - 1] for i in labels])


def _in_span(echelon, v) -> bool:
    """True when v lies in the span of the nonzero rows of an echelon form.

    Each row clears v at its pivot, the row's first nonzero entry; v is in
    the span exactly when nothing is left.
    """
    v = [Fraction(x) for x in v]
    for row in echelon:
        c = next((k for k, x in enumerate(row) if x), None)
        if c is not None and v[c]:
            f = v[c] / row[c]
            v = [x - f * y for x, y in zip(v, row)]
    return not any(v)


def flats_by_closure(a: Arrangement) -> set[tuple[tuple[int, ...], int]]:
    """(labels, rank) of every flat: the closure of each label set of size <= n.

    The closure of S is every label whose form adds nothing to the rank of S,
    that is lies in the span of S's echelon form. Every flat of rank r <= n
    is the closure of r independent labels.
    """
    out = set()
    for size in range(min(a.n, a.m) + 1):
        for subset in combinations(range(1, a.m + 1), size):
            echelon = _echelon([a.forms[i - 1] for i in subset])[0]
            rank = sum(1 for r in echelon if any(r))
            closure = tuple(i for i in range(1, a.m + 1)
                            if _in_span(echelon, a.forms[i - 1]))
            out.add((closure, rank))
    return out


def mobius_by_subsets(a: Arrangement, flat: Flat) -> int:
    """Signed count of the subsets of the flat's hyperplanes that span it.

    In a geometric lattice mu(x) equals the sum of (-1)^|S| over the sets S
    of atoms whose closure is x; for hyperplanes that means subsets of the
    maximal label set with the same span.
    """
    target = flat.rank
    labels = flat.indices
    total = 0
    for size in range(target, len(labels) + 1):
        for subset in combinations(labels, size):
            if _rank_of(a, subset) == target:
                total += (-1) ** size
    if not labels:
        total = 1
    return total


def truncated_product(factors, degree: int) -> tuple[int, ...]:
    """Product of integer polynomials, low degree first, up to t^degree.

    Every pair of terms is multiplied out in full; the cut comes at the end.
    """
    out = [1]
    for f in factors:
        new = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                new[i + j] += a * b
        out = new
    return tuple(out[:degree + 1] + [0] * (degree + 1 - len(out)))


def brute_complement_count(a: Arrangement, p: int) -> int:
    """Walk all of F_p^(n+1) and test every form. Slow and obviously right."""
    count = 0
    for point in product(range(p), repeat=a.n + 1):
        if all(sum(c * x for c, x in zip(f, point)) % p != 0 for f in a.forms):
            count += 1
    return count


def _projective_mod_p(v, p: int) -> tuple[int, ...]:
    """The representative of v mod p whose first nonzero entry is 1."""
    v = [x % p for x in v]
    lead = pow(next(x for x in v if x), p - 2, p)
    return tuple(x * lead % p for x in v)


def line_complement_count(a: Arrangement, p: int) -> int:
    """Points of F_p^3 on none of the lines (n = 2), by inclusion-exclusion.

    With k distinct lines mod p and r_P of them through a point P, the lines
    cover k(p + 1) - sum_P (r_P - 1) points of P^2(F_p), and each point of
    the complement is p - 1 points of F_p^3. A form that vanishes mod p
    vanishes everywhere, so then nothing is left.
    """
    if a.n != 2:
        raise ValueError("line_complement_count needs n = 2")
    if any(all(c % p == 0 for c in f) for f in a.forms):
        return 0
    lines = {_projective_mod_p(f, p) for f in a.forms}
    points = {_projective_mod_p(_cross(u, v), p) for u, v in combinations(lines, 2)}
    excess = sum(sum(_dot(u, pt) % p == 0 for u in lines) - 1 for pt in points)
    return (p - 1) * (p * p + p + 1 - len(lines) * (p + 1) + excess)


def dependent_subsets_by_minors(a: Arrangement) -> set[tuple[int, ...]]:
    """(n+1)-subsets with vanishing maximal minor, straight off the matrix."""
    return {subset for subset in combinations(range(1, a.m + 1), a.n + 1)
            if fraction_det([a.forms[i - 1] for i in subset]) == 0}


def sextuple_on_conic(points) -> bool:
    """Six points of P^2, no three collinear: do they lie on a conic?

    They do exactly when [123][145][246][356] = [124][135][236][456], where
    [ijk] is the determinant of points i, j and k.
    """
    def b(i, j, k):
        return fraction_det([points[i - 1], points[j - 1], points[k - 1]])
    return (b(1, 2, 3) * b(1, 4, 5) * b(2, 4, 6) * b(3, 5, 6)
            == b(1, 2, 4) * b(1, 3, 5) * b(2, 3, 6) * b(4, 5, 6))


def _cross(u, v) -> tuple[int, ...]:
    """The line through two points of P^2, or the point on two lines."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


def _line_pair(line, other) -> list[list[int]]:
    """Symmetric matrix of the conic line * other, times two."""
    return [[line[i] * other[j] + other[i] * line[j] for j in range(3)]
            for i in range(3)]


# points of P^2 to complete a configuration with
_GRID = [p for p in product(range(-4, 5), repeat=3) if any(p)]


def conic_nonsingular_at(points) -> list[list[int]]:
    """Symmetric matrix of a conic through `points`, nonsingular at each.

    The points are distinct integer points of P^2: at most four, or all but
    at most one on a line. With no three collinear, they are completed to
    four such points p1..p4, and the pencil spanned by the line pairs
    (p1p2)(p3p4) and (p1p3)(p2p4) has only three singular members, so one
    of three members tried has a nonzero determinant. Otherwise, with L
    the line of a collinear triple, the conic is L times a line through the
    point off L (or any point off L) that meets L at none of the points.
    """
    def collinear(p, q, r):
        return fraction_det([p, q, r]) == 0

    triple = next((t for t in combinations(points, 3) if collinear(*t)), None)
    if triple is None:
        four = list(points)
        while len(four) < 4:
            four.append(next(g for g in _GRID
                             if all(any(_cross(p, g)) for p in four)
                             and not any(collinear(p, q, g)
                                         for p, q in combinations(four, 2))))
        p1, p2, p3, p4 = four
        first = _line_pair(_cross(p1, p2), _cross(p3, p4))
        second = _line_pair(_cross(p1, p3), _cross(p2, p4))
        members = ([[f + t * s for f, s in zip(fr, sr)] for fr, sr in zip(first, second)]
                   for t in (1, 2, 3))
        return next(q for q in members if fraction_det(q) != 0)
    line = _cross(triple[0], triple[1])
    off = [p for p in points if _dot(line, p) != 0]
    if len(off) > 1:
        raise ValueError("more than one point off the line of a collinear triple")
    q = off[0] if off else next(g for g in _GRID if _dot(line, g) != 0)
    other = next(o for o in (_cross(q, g) for g in _GRID)
                 if any(o) and all(any(_cross(_cross(line, o), p)) for p in points))
    return _line_pair(line, other)


def rule1_by_exhaustion(a: Arrangement, max_subsets: int):
    """Torelli rule 1 by scanning every subset: (witness, cap hit).

    Subsets of size >= max(n+4, 6) are visited by size, then
    lexicographically, each counted toward `max_subsets`. A subset is
    generic when no n+1 of its forms have a vanishing minor. It is a
    witness when it is generic and its dual points lie on no curve of the
    family. For n = 2 the first five points lie on exactly one conic, so
    the subset misses every conic when some later point makes a sextuple
    with them that `sextuple_on_conic` rejects. For n >= 3 `rnc_test` of
    the sub-arrangement's lattice finds them on no smooth rational normal
    curve.
    """
    dependent = dependent_subsets_by_minors(a)
    examined = 0
    for size in range(max(a.n + 4, 6), a.m + 1):
        for subset in combinations(range(1, a.m + 1), size):
            if examined >= max_subsets:
                return None, True
            examined += 1
            if any(t in dependent for t in combinations(subset, a.n + 1)):
                continue
            if a.n == 2:
                points = [a.forms[i - 1] for i in subset]
                off_curve = not all(sextuple_on_conic(points[:5] + [p])
                                    for p in points[5:])
            else:
                sub = Arrangement(a.n, tuple(a.forms[i - 1] for i in subset))
                off_curve = (rnc_test(build_lattice(sub)).verdict
                             is RncVerdict.NOT_ON_SMOOTH_RNC)
            if off_curve:
                return subset, False
    return None, False
