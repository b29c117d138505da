"""Finite-field point counting against the brute oracle, and prime choice."""

from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrinv import report
from arrinv.arrangement import (Arrangement, InvalidArrangement, canonical_form,
                                parse_arrangement)
from arrinv.ffcount import (PSI_13, basis_minors, check_prime, count_complement_points,
                            is_prime, next_valid_prime, prime_preserves_lattice)
from arrinv.fixtures import fixture, fixture_names
from arrinv.invariants import complement_count_prediction, poincare
from arrinv.lattice import build_lattice
from arrinv.report import Analysis
from arrinv.torelli import DEFAULT_MAX_SUBSETS
from oracles import (basis_gcds_by_minors, brute_complement_count, fraction_rank,
                     is_prime_by_trial_division, line_complement_count,
                     prime_preserves_lattice_by_ranks, rank_mod_p)


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 20_000) if is_prime(n) != is_prime_by_trial_division(n)] == []


@pytest.mark.parametrize("n, prime", [
    (2 ** 61 - 1, True),
    (10000000000037, True),
    (3825123056546413051, False),        # a strong pseudoprime to every base up to 31
    (318665857834031151167461, False),   # ... and to every base up to 37
])
def test_is_prime_at_large_numbers(n, prime):
    assert is_prime(n) is prime


def test_a_number_at_or_above_psi_13_is_refused():
    # psi_13 is a strong pseudoprime to all 13 bases, so it gets no answer
    assert PSI_13 == 3317044064679887385961981
    for p in (PSI_13, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=rf"^primality is decided only below {PSI_13}, "
                                             rf"got {p}$"):
            check_prime(p)


@st.composite
def small_arrangements(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    row = st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1).filter(any)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    try:
        return parse_arrangement(n, rows)
    except InvalidArrangement:   # two rows reduce to the same form
        assume(False)


# at the smallest primes forms most often coincide or become proportional,
# and the count stays exact there
@given(small_arrangements(), st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=300, deadline=None)
def test_count_matches_brute_force(a, p):
    assert count_complement_points(a, p) == brute_complement_count(a, p)


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("p", [7, 11, 13, 101])
def test_fixture_counts_match_inclusion_exclusion_over_lines(name, p):
    a = fixture(name)
    assert count_complement_points(a, p) == line_complement_count(a, p)


@st.composite
def lines_meeting_mod_p(draw):
    """(lines, p): some rows are a x + b y + p z for rows x, y already drawn,
    so mod p they coincide with x (b = 0) or pass through the point x . y."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    row = st.lists(st.integers(-9, 9), min_size=3, max_size=3)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for _ in range(draw(st.integers(1, 3))):
        x, y, z = (draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(row))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * u + b * v + p * w for u, v, w in zip(x, y, z)])
    try:
        return parse_arrangement(2, rows), p
    except InvalidArrangement:   # a zero row, or two rows with the same form
        assume(False)


@given(lines_meeting_mod_p())
@settings(max_examples=300, deadline=None)
def test_line_counts_match_inclusion_exclusion_when_lines_meet_mod_p(drawn):
    a, p = drawn
    assert count_complement_points(a, p) == line_complement_count(a, p)
    if p <= 7:
        assert line_complement_count(a, p) == brute_complement_count(a, p)


def test_a_form_vanishing_mod_p_leaves_no_points():
    # parsing divides a form by its content, so only a direct Arrangement
    # holds a form that vanishes mod p
    a = Arrangement(2, ((1, 2, 3), (7, 0, 14)))
    assert count_complement_points(a, 7) == line_complement_count(a, 7) == 0
    assert brute_complement_count(a, 7) == 0


def test_count_rejects_a_non_prime():
    with pytest.raises(ValueError, match=r"^4 is not prime$"):
        count_complement_points(parse_arrangement(1, [[1, 0], [0, 1]]), 4)


def test_count_rejects_a_prime_that_is_not_an_int():
    # is_prime takes 7.0 for 7, and the count would then fail on a float
    with pytest.raises(ValueError, match=r"^prime must be an int, got 7\.0$"):
        count_complement_points(fixture("generic5"), 7.0)


def test_degenerate_reduction_count_value():
    # two distinct lines through the origin of F_5^2: (p-1)^2 points on neither
    a = parse_arrangement(1, [[1, 0], [1, 7]])
    assert count_complement_points(a, 5) == 16
    assert brute_complement_count(a, 5) == 16


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("p", [7, 11])
def test_fixture_counts_match_lattice_prediction(name, p):
    a = fixture(name)
    lat = build_lattice(a)
    assert prime_preserves_lattice(basis_minors(a), p)
    assert count_complement_points(a, p) == complement_count_prediction(poincare(lat), p)


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_counts_match_at_101(name):
    a = fixture(name)
    lat = build_lattice(a)
    assert count_complement_points(a, 101) == complement_count_prediction(poincare(lat), 101)


def test_prime_validity_and_next_valid():
    a = parse_arrangement(1, [[1, 0], [1, 7]])
    minors = basis_minors(a)
    assert minors == (7,)
    assert not prime_preserves_lattice(minors, 7)
    assert prime_preserves_lattice(minors, 11)
    assert next_valid_prime(minors, 7) == 11


def test_non_essential_prime_rejected_by_the_gcd_of_minors():
    # three lines through (0 : 0 : 1); the 3 x 3 determinant is 0, but the
    # pair {1, 2} has 2 x 2 minors (7, 0, 0): mod 7 lines 1 and 2 coincide
    a = parse_arrangement(2, [[1, 0, 0], [1, 7, 0], [0, 1, 0]])
    minors = basis_minors(a)
    assert minors == (7, 1, 1)
    assert not prime_preserves_lattice(minors, 7)
    assert not prime_preserves_lattice_by_ranks(a, 7)
    assert next_valid_prime(minors, 7) == 11


@st.composite
def maybe_flat_arrangements(draw):
    """Arrangements with n <= 4; with `flat` every last coefficient is 0, so
    the forms span less than the whole dual space."""
    n = draw(st.integers(1, 4))
    flat = draw(st.booleans())
    row = st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1)
    rows = draw(st.lists(row, min_size=1, max_size=7 - n // 2))
    if flat:
        rows = [r[:-1] + [0] for r in rows]
    try:
        return parse_arrangement(n, rows)
    except InvalidArrangement:   # a zero row, or two rows with the same form
        assume(False)


@given(maybe_flat_arrangements(), st.sampled_from([2, 3, 5, 7, 11, 13]))
@settings(max_examples=300, deadline=None)
def test_prime_check_matches_ranks_mod_p(a, p):
    minors = basis_minors(a)
    # one gcd per basis, none zero: a zero gcd is divisible by every prime,
    # so `next_valid_prime` would search forever
    r = fraction_rank(a.forms)
    assert 0 not in minors
    assert len(minors) == sum(fraction_rank(rows) == r for rows in combinations(a.forms, r))
    assert prime_preserves_lattice(minors, p) == prime_preserves_lattice_by_ranks(a, p)
    q = p
    while not (is_prime(q) and prime_preserves_lattice_by_ranks(a, q)):
        q += 1
    assert next_valid_prime(minors, p) == q


@st.composite
def spanned_arrangements(draw):
    """At least r forms, integer combinations of r drawn rows, n = 1..5 and
    r = 1..n+1, so every rank occurs and the forms of rank r < n + 1 pass
    through a common point. About one draw in five has 30-digit
    coefficients, and one in four has rows ending in n + 1 - r zeros."""
    n = draw(st.sampled_from(range(1, 6)))
    r = draw(st.sampled_from(range(1, n + 2)))
    scale = draw(st.sampled_from([1, 1, 1, 1, 10 ** 29]))
    zeros = draw(st.sampled_from([0, 0, 0, n + 1 - r]))
    entry = st.integers(-99, 99).map(lambda x: x // 10 * scale + x % 10)
    row = st.lists(entry, min_size=n + 1 - zeros, max_size=n + 1 - zeros)
    spanning = [v + [0] * zeros for v in draw(st.lists(row, min_size=r, max_size=r))]
    weights = st.lists(st.integers(-3, 3), min_size=r, max_size=r)
    rows = [[sum(w * v[k] for w, v in zip(ws, spanning)) for k in range(n + 1)]
            for ws in draw(st.lists(weights, min_size=r, max_size=8))]
    forms = tuple({canonical_form(f): None for f in rows if any(f)})
    assume(forms)
    return Arrangement(n, forms)


@given(spanned_arrangements())
@settings(max_examples=1000, deadline=None)
def test_basis_minors_match_the_gcds_of_all_minors(a):
    # one determinant per basis on the pivot columns of the forms' RREF
    # against the gcd of the minors on every set of r columns
    assert basis_minors(a) == basis_gcds_by_minors(a)


@st.composite
def reports_with_coincidences(draw):
    """(arrangement, report primes, forced): when forced, the forms x_0 and
    x_0 + p x_1, which coincide mod the first report prime p, are rows."""
    n = draw(st.integers(1, 3))
    primes = tuple(draw(st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1,
                                 max_size=2, unique=True)))
    row = st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1)
    rows = draw(st.lists(row, min_size=1, max_size=6 - n))
    forced = draw(st.booleans())
    if forced:
        rows += [[1] + [0] * n, [1, primes[0]] + [0] * (n - 1)]
    try:
        return parse_arrangement(n, rows), primes, forced
    except InvalidArrangement:   # a zero row, or two rows with the same form
        assume(False)


@given(reports_with_coincidences())
@settings(max_examples=150, deadline=None)
def test_every_prime_a_report_counts_at_keeps_every_pair_apart(drawn):
    # the one prime rule of a report implies that no two forms coincide mod
    # the prime counted at, so a pairwise check inside the count could never
    # fire from a report
    a, primes, forced = drawn
    counted_at = []

    def recording(arr, q):
        counted_at.append(q)
        return count_complement_points(arr, q)

    with patch.object(report, "count_complement_points", recording):
        checks = Analysis(a, primes, DEFAULT_MAX_SUBSETS, True).oracles_section()
    # entries that retry to one prime share its count
    assert len(counted_at) == len(set(counted_at)) <= len(primes)
    for q in counted_at:
        assert all(rank_mod_p(pair, q) == 2 for pair in combinations(a.forms, 2))
        assert prime_preserves_lattice_by_ranks(a, q)
    counts = [c for c in checks if c["check"].startswith("finite_field_count_p")]
    assert all(c["status"] == "pass" for c in counts)
    if forced:   # x_0 and x_0 + p x_1 coincide mod p: the retry note path ran
        note = counts[0]["note"]
        assert note.startswith(f"p = {primes[0]} degenerates")
        q = int(note.rsplit(maxsplit=1)[1])
        assert q > primes[0] and q in counted_at


def test_n3_arrangement_at_101():
    # codim-2 degeneracy in P^3, counted at the large prime
    a = parse_arrangement(3, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0],
                              [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    lat = build_lattice(a)
    assert count_complement_points(a, 101) == complement_count_prediction(poincare(lat), 101)
