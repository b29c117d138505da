"""Relabeling and a unimodular change of coordinates move nothing coordinate-free.

For an arrangement A, a permutation pi of its labels and a unimodular U,
the image lists form pi(j) U as its label j. Its report, with each label j
mapped back to pi(j), must equal A's wherever the report does not depend on
coordinates: the lattice and what is read off it, the verdicts, the Gale
dependent sets and the oracle entries. The basis gcds, and so the primes
counted at, are invariant under both moves. A failure points at a
coordinate-dependent step: a pivot choice, a canonical sign or a
lexicographic tie-break.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrinv.arrangement import canonical_form, parse_arrangement
from arrinv.ffcount import basis_minors, next_valid_prime
from arrinv.report import Analysis


@st.composite
def unimodular(draw, d: int) -> list[list[int]]:
    """A d x d integer matrix of determinant +-1: a signed permutation
    matrix, then columns plus small multiples of other columns."""
    perm = draw(st.permutations(range(d)))
    u = [[draw(st.sampled_from([1, -1])) if j == perm[i] else 0 for j in range(d)]
         for i in range(d)]
    for _ in range(draw(st.integers(0, 2 * d))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        c = draw(st.integers(-2, 2))
        for row in u:
            row[j] += c * row[i] if i != j else 0
    return u


@st.composite
def moved_arrangements(draw):
    """(A, pi, image of A, oracle primes); n >= 3 draws that would count
    past p = 17 are skipped, since the count costs p^n fibers."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n + 1, n + 6))
    row = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1).filter(any)
    a = parse_arrangement(n, draw(st.lists(row, min_size=m, max_size=m,
                                           unique_by=canonical_form)))
    primes = (7, 11) if n <= 2 else (5, 7)
    assume(n <= 2 or next_valid_prime(basis_minors(a), max(primes)) <= 17)
    pi = draw(st.permutations(range(a.m)))
    u = draw(unimodular(n + 1))
    image = parse_arrangement(n, [[sum(c * col[k] for c, col in zip(a.forms[i], u))
                                   for k in range(n + 1)] for i in pi])
    return a, pi, image, primes


def coordinate_free(analysis: Analysis, label) -> dict:
    """The parts of an analysis that must not move, each label j read as label(j)."""
    def sets(family):
        return sorted(sorted(map(label, s)) for s in family)

    lattice = analysis.lattice
    stability, torelli, gale = analysis.stability, analysis.torelli, analysis.gale_check
    return {
        "flats": sorted((sorted(map(label, f.indices)), f.rank, f.mobius) for f in lattice.flats),
        "crossing": lattice.crossing.kind,
        "poincare": analysis.poincare,
        "chern": analysis.chern_data,
        "delta": analysis.delta,
        "stability": stability and stability.status,
        "torelli": torelli and (torelli.status, torelli.rule),
        "gale": gale and (sets(gale.primal_dependent), sets(gale.actual_dual), gale.ok),
        "oracles": [(c["check"], c["status"], c.get("counted"))
                    for c in analysis.section("oracles")],
    }


@given(moved_arrangements())
@settings(max_examples=100, deadline=None)
def test_relabeled_unimodular_image_has_the_same_report(drawn):
    a, pi, image, primes = drawn
    uncapped = 2 ** a.m   # more than the number of label sets, so rule 1 scans them all
    base = coordinate_free(Analysis(a, primes, uncapped), lambda j: j)
    moved = coordinate_free(Analysis(image, primes, uncapped), lambda j: pi[j - 1] + 1)
    assert moved == base
