"""Finite-field complement counting and the choice of primes to count at.

The count of points of F_p^(n+1) lying on none of the hyperplanes is an
independent oracle for the lattice and Mobius computations; see
`invariants.complement_count_prediction` for the lattice-side quantity it
must match. The count walks the p^n fibers over the last coordinate and
closes each fiber in O(m); it is exact at every prime, forms that coincide
mod p included. One rule says when it must equal the prediction: a prime
is accepted when it divides no basis gcd (`basis_minors`). Then every set
of forms keeps its rank mod p, so the reduction mod p keeps the lattice
over Q. The gcds come from the forms alone, one echelon form and one
determinant over Z per basis, never from a lattice or a rank mod p.
"""

from itertools import combinations, product
from math import lcm

from .arrangement import Arrangement
from .linalg import bareiss, det, rref


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_prime(p) -> None:
    """Raise ValueError unless p is a prime int (a bool is not an int here)."""
    if type(p) is not int:
        raise ValueError(f"prime must be an int, got {p!r}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def count_complement_points(a: Arrangement, p: int) -> int:
    """Points of F_p^(n+1) on none of the hyperplanes, exact at every prime.

    Instead of visiting all p^(n+1) points it walks the p^n fibers over the
    last coordinate and, within a fiber, counts the union of the single
    roots each form contributes. A p refused by `check_prime` raises
    ValueError.
    """
    check_prime(p)
    m, d = a.m, a.n + 1
    inv = [0] * p  # inverse table; inv[0] unused
    for x in range(1, p):
        inv[x] = pow(x, p - 2, p)
    last = [f[d - 1] % p for f in a.forms]
    heads = [tuple(c % p for c in f[: d - 1]) for f in a.forms]
    count = 0
    for prefix in product(range(p), repeat=d - 1):
        roots = set()
        dead = False
        for i in range(m):
            head = heads[i]
            s = 0
            for c, v in zip(head, prefix):
                s += c * v
            s %= p
            x = last[i]
            if x == 0:
                if s == 0:
                    dead = True  # the form vanishes on the whole fiber
                    break
            else:
                roots.add((-s * inv[x]) % p)
        if not dead:
            count += p - len(roots)
    return count


def basis_minors(a: Arrangement) -> tuple[int, ...]:
    """g_B for every basis B of the forms, label sets in lexicographic order.

    A basis is a label set B with |B| = rank(B) = r, the rank of all the
    forms, and g_B is the gcd of the r x r minors of B's forms. Each form is
    its pivot entries times R, the r nonzero rows of the forms' RREF, so by
    Cauchy-Binet each minor of B is det B_P (P the pivot columns) times the
    same minor of R. Those of R generate (1/L)Z, L their common denominator,
    so g_B = |det B_P| / L, zero exactly when B is dependent; for an
    essential arrangement L = 1 and g_B = |det B|.
    """
    reduced, pivots = rref(a.forms)
    r = len(pivots)
    denominator = lcm(*(det([[row[c] for c in cols] for row in reduced[:r]]).denominator
                        for cols in combinations(range(a.n + 1), r) if cols != pivots))
    dets = (bareiss([[row[c] for c in pivots] for row in rows])[1]
            for rows in combinations(a.forms, r))
    return tuple(abs(d.numerator) // denominator for d in dets if d)


def prime_preserves_lattice(minors: tuple[int, ...], p: int) -> bool:
    """True when p divides no basis gcd in `minors` (`basis_minors`).

    Ranks can only drop mod p, and every independent set extends to a
    basis, so p keeps the rank of every set of forms exactly when every
    basis keeps rank r mod p, that is when p divides none of its gcds.
    Then the whole intersection lattice mod p agrees with the lattice over
    Q, which is exactly what the counting identity needs.
    """
    return all(g % p for g in minors)


def next_valid_prime(minors: tuple[int, ...], start: int) -> int:
    """Smallest prime >= start dividing no basis gcd in `minors` (`basis_minors`)."""
    p = max(2, start)
    while True:
        if is_prime(p) and prime_preserves_lattice(minors, p):
            return p
        p += 1
