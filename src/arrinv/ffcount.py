"""Finite-field complement counting and the choice of primes to count at.

The count of points of F_p^(n+1) lying on none of the hyperplanes is an
independent oracle for the lattice and Mobius computations; see
`invariants.complement_count_prediction` for the lattice-side quantity it
must match. The count walks the p^n fibers over the last coordinate and
closes each fiber in O(m), with one inverse per form; it is exact at every
prime, forms that coincide or vanish mod p included. One rule says when it
must equal the prediction: a prime is accepted when it divides no nonzero
basis gcd (`basis_minors`). Then every set of forms keeps its rank mod p, so
the reduction mod p keeps the lattice over Q. The gcds come from the forms
alone, one echelon form and one determinant over Z per r-set, never from a
lattice or a rank mod p. Primality is a Miller-Rabin test that is exact
below PSI_13; a larger number is refused, not guessed.
"""

from itertools import combinations, product
from math import lcm

from .arrangement import Arrangement
from .linalg import bareiss, det, rref


# the 13 primes up to 41, and psi_13, the least odd composite that is a
# strong probable prime to all of them (Sorenson-Webster, Math. Comp. 86, 2017)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Miller-Rabin to every base in MR_BASES, exact for p < PSI_13.

    A p at or above PSI_13 raises ValueError rather than risk a wrong answer.
    """
    if p >= PSI_13:
        raise ValueError(f"primality is decided only below {PSI_13}, got {p}")
    if p < 2:
        return False
    for b in MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p) -> None:
    """Raise ValueError unless p is a prime int (a bool is not an int here).

    A p at or above PSI_13 gets `is_prime`'s refusal.
    """
    if type(p) is not int:
        raise ValueError(f"prime must be an int, got {p!r}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def count_complement_points(a: Arrangement, p: int) -> int:
    """Points of F_p^(n+1) on none of the hyperplanes, exact at every prime.

    Instead of visiting all p^(n+1) points it walks the p^n fibers over the
    last coordinate. Within a fiber a form whose last coefficient is a unit
    mod p has one root, read off with one inverse per form; a form whose
    last coefficient vanishes mod p has none, or vanishes on the whole
    fiber and closes it. So forms that coincide or vanish mod p are counted
    exactly too. A p refused by `check_prime` raises ValueError.
    """
    check_prime(p)
    heads = [tuple(c % p for c in f[:-1]) for f in a.forms]
    invs = [pow(f[-1], -1, p) if f[-1] % p else 0 for f in a.forms]
    count = 0
    for prefix in product(range(p), repeat=a.n):
        roots = set()
        for head, inv in zip(heads, invs):
            s = 0
            for c, v in zip(head, prefix):
                s += c * v
            if inv:
                roots.add(-s * inv % p)
            elif s % p == 0:
                break   # the form vanishes on the whole fiber
        else:
            count += p - len(roots)
    return count


def basis_minors(a: Arrangement) -> tuple[int, ...]:
    """g_B for every r-set B of the forms, label sets in lexicographic order.

    r is the rank of all the forms, and g_B the gcd of the r x r minors of
    B's forms, kept when it is zero, exactly when B is dependent. Each form is
    its pivot entries times R, the r nonzero rows of the forms' RREF, so by
    Cauchy-Binet each minor of B is det B_P (P the pivot columns) times the
    same minor of R. Those of R generate (1/L)Z, L their common denominator,
    so g_B = |det B_P| / L; for an essential arrangement L = 1, r = n+1 and
    g_B = |det B|.
    """
    reduced, pivots = rref(a.forms)
    r = len(pivots)
    denominator = lcm(*(det([[row[c] for c in cols] for row in reduced[:r]]).denominator
                        for cols in combinations(range(a.n + 1), r) if cols != pivots))
    dets = (bareiss([[row[c] for c in pivots] for row in rows])[1]
            for rows in combinations(a.forms, r))
    return tuple(abs(d.numerator) // denominator for d in dets)


def prime_preserves_lattice(minors: tuple[int, ...], p: int) -> bool:
    """True when p divides no nonzero basis gcd in `minors` (`basis_minors`).

    A zero gcd, of a dependent set, is skipped. Ranks can only drop mod p,
    and every independent set extends to a basis, so p keeps the rank of
    every set of forms exactly when every basis keeps rank r mod p, that is
    when p divides none of its gcds. Then the whole intersection lattice
    mod p agrees with the lattice over Q, which the counting identity needs.
    """
    return all(g % p for g in minors if g)


def next_valid_prime(minors: tuple[int, ...], start: int) -> int:
    """Smallest prime >= start dividing no basis gcd in `minors` (`basis_minors`)."""
    p = max(2, start)
    while True:
        if is_prime(p) and prime_preserves_lattice(minors, p):
            return p
        p += 1
