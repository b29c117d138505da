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
determinant over the pivot columns of an echelon form, the dual points'
dependent sets are ranked point set by point set instead of read off the
forms' zero gcds by Gale duality, the GIT intersection over a flat is
dim E + dim F - dim(E + F) with the flat's subspace stacked in every block
instead of dim E less the rank of the tensor image off the flat, a closure is
read off an echelon form of its label set instead of off a walk that cuts
flats by forms, polynomial products are multiplied out term by term
instead of read off closed binomials, and Torelli rule 1 is an exhaustive
scan of every subset, which decides curves by brackets of the points for
n = 2 and by Goppa's criterion on the Gale transform for n >= 3 instead of
by the frame normalization of the library's `rnc_test`, a conic
nonsingular at every point of a small or nearly collinear set is built
from line pairs instead of read off the space of conics, and a
restriction writes the other forms in a kernel basis of the hyperplane
instead of cutting flats by forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from arrinv.arrangement import Arrangement, canonical_form
from arrinv.lattice import Flat
from arrinv.steiner import SteinerTensor


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
            if work[r][c]:
                f = work[r][c] / work[top][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[top])]
        top += 1
    return work, swaps


def kernel_basis(rows) -> list[list[Fraction]]:
    """Right null space of nonempty rows over Q, one vector per free column.

    A free column c gives the vector with 1 at c and 0 at the other free
    columns, its pivot entries found by back-substitution through the
    echelon form, last pivot first.
    """
    work = [r for r in _echelon(rows)[0] if any(r)]
    pivots = [next(c for c, x in enumerate(r) if x) for r in work]
    basis = []
    for free in (c for c in range(len(rows[0])) if c not in pivots):
        v = [Fraction(0)] * len(rows[0])
        v[free] = Fraction(1)
        for r, c in reversed(list(zip(work, pivots))):
            v[c] = -sum(x * y for x, y in zip(r, v)) / r[c]
        basis.append(v)
    return basis


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
    sets, are kept. `ffcount.basis_minors` must return the same tuple.
    """
    r = fraction_rank(a.forms)
    column_sets = list(combinations(range(a.n + 1), r))
    return tuple(gcd(*(int(fraction_det([[row[c] for c in cols] for row in rows]))
                       for cols in column_sets))
                 for rows in combinations(a.forms, r))


def dual_dependent_sets(t: SteinerTensor) -> tuple[tuple[int, ...], ...]:
    """The (m-n-1)-sets of dual points, `u_basis` columns, of rank below m-n-1.

    Read off the dual points themselves, one rank per set, in lexicographic
    order: the Gale check must find the same sets as the complements of the
    forms' dependent (n+1)-sets.
    """
    size = t.m - t.n - 1
    columns = list(zip(*t.u_basis))
    return tuple(s for s in combinations(range(1, t.m + 1), size)
                 if fraction_rank([columns[i - 1] for i in s]) < size)


def git_intersection_by_stacking(t: SteinerTensor, flat: Flat) -> int:
    """dim(E meet W' tensor V*) for the sum-zero vectors W' on a flat's labels.

    Everything is written in the m-1 coordinates of the basis e_i - e_m of
    the sum-zero space W. E spans the relation rows' images, block k at
    v = e_k, and F is W', spanned by e_a - e_b for consecutive labels a < b
    of the flat, placed in each of the n+1 blocks: the intersection has
    dimension dim E + dim F - dim(E + F).
    """
    m, n, forms = t.m, t.n, t.lattice.arrangement.forms
    e = [[rel[r] * forms[r][k] for k in range(n + 1) for r in range(m - 1)]
         for rel in t.u_basis]
    w_prime = []
    for a, b in zip(flat.indices, flat.indices[1:]):
        y = [0] * m
        y[a - 1], y[b - 1] = 1, -1
        w_prime.append(y[: m - 1])
    f = [[0] * (k * (m - 1)) + row + [0] * ((n - k) * (m - 1))
         for k in range(n + 1) for row in w_prime]
    return fraction_rank(e) + fraction_rank(f) - fraction_rank(e + f)


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


def restriction(a: Arrangement, h: int) -> Arrangement:
    """A^H for H the hyperplane of label h: the other forms, read on H.

    With the columns of a kernel basis of H's row as coordinates on H, a
    form f restricts to its values on those columns; the restrictions are
    canonicalized and equal ones merged, first label first. H lies in P^n,
    so A^H lies in P^(n-1); P^0 is no arrangement's space, so n = 1 has none.
    """
    if a.n == 1:
        raise ValueError("the restriction of an arrangement in P^1 lies in P^0")
    basis = kernel_basis([a.forms[h - 1]])
    rows = (canonical_form([sum(c * x for c, x in zip(f, v)) for v in basis])
            for i, f in enumerate(a.forms, start=1) if i != h)
    return Arrangement(a.n - 1, tuple(dict.fromkeys(rows)))


def deletion(a: Arrangement, h: int) -> Arrangement:
    """A minus H for H the hyperplane of label h."""
    return Arrangement(a.n, a.forms[:h - 1] + a.forms[h:])


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


def rnc_by_gale(points) -> bool:
    """Do n+4 points of P^n in linear general position lie on a rational
    normal curve?

    Goppa's criterion (Eisenbud-Popescu, J. Algebra 230, 2000): they do
    exactly when their Gale transform, n+4 points of P^2, lies on a conic.
    The transform is the columns of a kernel basis of the (n+1) x (n+4)
    matrix whose columns are the points; scaling a point scales its
    transform, so the test is well defined. The transform of points in
    linear general position is in linear general position too, so a conic
    through them holds no three on a line and is smooth.
    The transform lies on a conic exactly when its Veronese rows
    x^2, y^2, z^2, xy, xz, yz have rank below 6.
    """
    n = len(points) - 4
    if n < 2 or any(len(p) != n + 1 for p in points):
        raise ValueError("rnc_by_gale needs n + 4 points of P^n, n >= 2")
    kernel = kernel_basis([list(coords) for coords in zip(*points)])
    veronese = [[x * x, y * y, z * z, x * y, x * z, y * z] for x, y, z in zip(*kernel)]
    return fraction_rank(veronese) < 6


def rule1_by_exhaustion(a: Arrangement, max_subsets: int):
    """Torelli rule 1 by scanning every subset: (witness, cap hit).

    Subsets of size >= max(n+4, 6) are visited by size, then
    lexicographically, each counted toward `max_subsets`. A subset is
    generic when no n+1 of its forms have a vanishing minor. It is a
    witness when it is generic and its dual points lie on no curve of the
    family. For n = 2 the first five points lie on exactly one conic, so
    the subset misses every conic when some later point makes a sextuple
    with them that `sextuple_on_conic` rejects. For n >= 3 the first n+3
    points lie on exactly one rational normal curve (Castelnuovo), so the
    subset misses every curve when some later point makes an (n+4)-set
    with them that `rnc_by_gale` rejects.
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
            points = [a.forms[i - 1] for i in subset]
            on_curve = sextuple_on_conic if a.n == 2 else rnc_by_gale
            if not all(on_curve(points[:a.n + 3] + [p]) for p in points[a.n + 3:]):
                return subset, False
    return None, False
