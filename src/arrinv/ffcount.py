"""Finite-field complement counting with backend dispatch.

The count of points of F_p^(n+1) lying on none of the hyperplanes is an
independent oracle for the lattice and Mobius computations; see
`invariants.complement_count_prediction` for the lattice-side quantity it
must match.

A compiled kernel is used when the optional extension built; otherwise the
pure-Python backend takes over. Both are exposed so tests and the benchmark
can compare them directly.
"""

from __future__ import annotations

from itertools import combinations

from . import _ffpure
from .arrangement import Arrangement
from .linalg import QMatrix, bareiss

try:
    from . import _ffkernel
    _HAVE_KERNEL = True
except ImportError:
    _ffkernel = None
    _HAVE_KERNEL = False

# the compiled kernel uses fixed-size C integers; stay well inside them
_KERNEL_MAX_FORMS = 512
_KERNEL_MAX_DIM = 8


class DegenerateReduction(ValueError):
    """A prime under which the arrangement degenerates."""


def kernel_available() -> bool:
    return _HAVE_KERNEL


def backend_name() -> str:
    return "compiled" if _HAVE_KERNEL else "pure"


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


def count_points_raw(coeffs: list[tuple[int, ...]], p: int,
                     backend: str = "auto") -> int:
    """Count F_p^d points avoiding all forms, no validity checking."""
    if backend not in ("auto", "compiled", "pure"):
        raise ValueError(f"unknown backend {backend!r}")
    reduced = [tuple(c % p for c in f) for f in coeffs]
    m = len(reduced)
    d = len(reduced[0])
    use_kernel = _HAVE_KERNEL and backend != "pure" and \
        m <= _KERNEL_MAX_FORMS and d <= _KERNEL_MAX_DIM
    if backend == "compiled" and not _HAVE_KERNEL:
        raise RuntimeError("compiled kernel is not available")
    if use_kernel or backend == "compiled":
        flat = [c for f in reduced for c in f]
        return _ffkernel.count_nonvanishing(flat, m, d, p)
    return _ffpure.count_nonvanishing(reduced, p)


def check_reduction(a: Arrangement, p: int) -> None:
    """Raise DegenerateReduction if two forms become proportional mod p."""
    forms = [f.coeffs for f in a.forms]
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            if bareiss((forms[i], forms[j]), p)[0] < 2:
                raise DegenerateReduction(
                    f"hyperplanes {i + 1} and {j + 1} coincide mod {p}")


def count_complement_points(a: Arrangement, p: int, backend: str = "auto") -> int:
    """Points of F_p^(n+1) on none of the hyperplanes, counted directly."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    check_reduction(a, p)
    return count_points_raw([f.coeffs for f in a.forms], p, backend)


def subset_ranks(a: Arrangement) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
    """Every subset of at most n+1 forms with its rank over Q.

    Computed from the forms themselves, never from a lattice, so a prime is
    judged against the true ranks even when the lattice under test is wrong.
    """
    forms = [f.coeffs for f in a.forms]
    return tuple((rows, QMatrix.from_rows(rows, a.n + 1).rank())
                 for size in range(1, min(a.n + 1, a.m) + 1)
                 for rows in combinations(forms, size))


def prime_preserves_lattice(ranks, p: int) -> bool:
    """True when every subset in `ranks` (from `subset_ranks`) keeps its rank mod p.

    Rank preservation of the small subsets forces the whole intersection
    lattice mod p to agree with the lattice over Q, which is exactly what the
    counting identity needs. (A stricter test than the pairwise check in
    count_complement_points.)
    """
    return all(bareiss(rows, p)[0] == rank for rows, rank in ranks)


def next_valid_prime(ranks, start: int) -> int:
    """Smallest lattice-preserving prime >= start for the `subset_ranks` given."""
    p = max(2, start)
    while True:
        if is_prime(p) and prime_preserves_lattice(ranks, p):
            return p
        p += 1
