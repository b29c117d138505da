"""Slope-stability analysis of the logarithmic sheaf.

`classify` runs these steps, in order:

* a combinatorial flat test: a flat of rank r on s hyperplanes destabilizes
  when s is too large against the threshold (m-1)(r-1)/n + 1 (strict excess
  means unstable, equality rules out stability);
* the n=2 discriminant test (m-1)(m-3) - 4*delta < 0, which is
  4c2 - c1^2 < 0 for the n=2 Chern numbers by the pair-count identity;
* two theorems from the literature, the only source of a stable verdict:
  generic arrangements are stable (Bohnhorst-Spindler), and so are n=2
  arrangements with m >= 6 and delta = 1 (Schenck). A stable verdict's
  last rule names the theorem it rests on.

On P^2 the flats of rank >= 2 are points, with threshold (m+1)/2, so an
equality witness needs odd m.

Two more tests are implemented but not yet wired into `classify`:

* `git_ratio_test`, a GIT test on the defining tensor: a flat on s >= 2
  hyperplanes destabilizes when, for the space W' of sum-zero vectors on
  its labels, dim(E meet W'xV*) / dim W' exceeds dim E / dim W, which
  is (m-n-1)/(m-1) since the relation basis maps injectively onto E;
* `free_splitting_stability`, a splitting test for arrangements known to
  be free with given exponents.

The classifier never guesses: when no implemented criterion decides, it
returns Undetermined with the evidence that was gathered.
"""

import enum
from fractions import Fraction
from typing import NamedTuple

from .invariants import require_steiner
from .lattice import CrossingClass, Flat, IntersectionLattice
from .steiner import SteinerTensor
from .linalg import bareiss


class Status(enum.Enum):
    UNSTABLE = "unstable"
    NOT_STABLE = "not_stable"        # semi-stable at best
    STABLE = "stable"
    UNDETERMINED = "undetermined"


class WitnessKind(enum.Enum):
    FLAT_RATIO = "flat_ratio"
    DISCRIMINANT = "discriminant"
    SPLITTING = "splitting"


class Witness(NamedTuple):
    kind: WitnessKind
    lhs: Fraction
    rhs: Fraction
    strict: bool
    flat_indices: tuple[int, ...] | None
    detail: str


class StabilityVerdict(NamedTuple):
    status: Status
    witnesses: tuple[Witness, ...]
    rules_applied: tuple[str, ...]  # rule trail with provenance notes


def combinatorial_destabilizer(lattice: IntersectionLattice) -> Witness | None:
    """Scan flats of rank >= 2 against the threshold (m-1)(r-1)/n + 1.

    Returns a strict witness if one exists, otherwise an equality witness,
    otherwise None. Flats are scanned in lattice order, so the reported
    witness is deterministic.
    """
    m, n = lattice.m, lattice.n
    equality = None
    for f in lattice.flats:
        if f.rank < 2:
            continue
        bound = Fraction((m - 1) * (f.rank - 1), n) + 1
        s = Fraction(f.s)
        if s > bound:
            return Witness(WitnessKind.FLAT_RATIO, s, bound, True, f.indices,
                           f"flat on {f.s} hyperplanes exceeds the rank-{f.rank} threshold")
        if s == bound and equality is None:
            equality = Witness(
                WitnessKind.FLAT_RATIO, s, bound, False, f.indices,
                f"flat on {f.s} hyperplanes meets the rank-{f.rank} threshold exactly")
    return equality


def discriminant_test(lattice: IntersectionLattice, delta: int) -> tuple[Fraction, Witness | None]:
    """n=2 only: (m-1)(m-3) - 4*delta for `delta_invariant(lattice)`; negative means unstable."""
    if lattice.n != 2:
        raise ValueError("discriminant test is defined for n = 2 only")
    require_steiner(lattice, "discriminant test")
    m = lattice.m
    value = Fraction((m - 1) * (m - 3) - 4 * delta)
    if value < 0:
        return value, Witness(WitnessKind.DISCRIMINANT, value, Fraction(0), True,
                              None, "negative discriminant forces a destabilizing subsheaf")
    return value, None


class GitRatioResult(NamedTuple):
    dim_intersection: int
    lhs: Fraction  # dim(E meet W'xV*) / dim W', with dim W' = s-1
    rhs: Fraction  # dim E / dim W, with dim W = m-1


def git_ratio_test(t: SteinerTensor, flat: Flat) -> GitRatioResult:
    """Compare the concentration of the tensor image over a flat with its slope.

    W' is the space of sum-zero vectors on the flat's s labels, a proper
    nonzero subspace of the sum-zero space W for a flat of the tensor's
    lattice on s >= 2 hyperplanes. E spans the relation rows' images in
    V* tensor W, block k at v = e_k, in all m coordinates. An image has
    entries rel[r]*f_r[k] and no form is zero, so the images of the
    relation basis are independent and dim E = m-n-1. An image lies in
    W'xV* exactly when it vanishes at every label off the flat, so
    dim(E meet W'xV*) is dim E less the rank of the images on those labels.
    """
    if flat not in t.lattice.flats or flat.s < 2:
        raise ValueError("flat must be a flat of the tensor's lattice "
                         "on at least two hyperplanes")
    forms = t.lattice.arrangement.forms
    off = [r for r in range(t.m) if r + 1 not in flat.indices]
    dim_e = t.m - t.n - 1
    dim_int = dim_e - bareiss([[rel[r] * forms[r][k] for k in range(t.n + 1) for r in off]
                               for rel in t.u_basis])[0]
    return GitRatioResult(dim_int, Fraction(dim_int, flat.s - 1), Fraction(dim_e, t.m - 1))


def free_splitting_stability(exponents: list[int]) -> StabilityVerdict:
    """Stability of a direct sum of line bundles with the given exponents."""
    if not exponents:
        raise ValueError("empty exponent list")
    if len(exponents) == 1:
        return StabilityVerdict(Status.STABLE, (),
                                ("splitting: a line bundle is stable",))
    lo, hi = min(exponents), max(exponents)
    mean = Fraction(sum(exponents), len(exponents))
    if lo != hi:
        w = Witness(WitnessKind.SPLITTING, Fraction(hi), mean, True, None,
                    f"summand of slope {hi} exceeds the mean slope {mean}")
        return StabilityVerdict(Status.UNSTABLE, (w,),
                                ("splitting: unequal exponents destabilize",))
    w = Witness(WitnessKind.SPLITTING, Fraction(hi), mean, False, None,
                "equal-slope summands make a strictly semi-stable sum")
    return StabilityVerdict(Status.NOT_STABLE, (w,),
                            ("splitting: equal exponents, semi-stable but not stable",))


def classify(lattice: IntersectionLattice, delta: int | None) -> StabilityVerdict:
    """Combine the implemented tests into one verdict on the lattice's sheaf.

    Order: destabilizing witnesses first (combinatorial, then the n=2
    discriminant), then stability by a cited theorem (Bohnhorst-Spindler
    for generic arrangements; Schenck for n=2 single-triple-point
    arrangements with m >= 6), whose name ends the rule trail, else
    Undetermined. `delta` is `delta_invariant(lattice)` for n = 2, else
    None. Raises ValueError where there is no Steiner sheaf
    (`invariants.steiner_unavailable`).
    """
    require_steiner(lattice, "stability analysis")
    m, n = lattice.m, lattice.n
    witnesses: list[Witness] = []
    rules: list[str] = []

    comb_wit = combinatorial_destabilizer(lattice)
    if comb_wit is not None:
        witnesses.append(comb_wit)
        rules.append("flat-ratio: strict excess" if comb_wit.strict
                     else "flat-ratio: equality")
        if comb_wit.strict:
            return StabilityVerdict(Status.UNSTABLE, tuple(witnesses), tuple(rules))

    if n == 2:
        value, disc_wit = discriminant_test(lattice, delta)
        if disc_wit is not None:
            witnesses.append(disc_wit)
            rules.append(f"discriminant: {value} < 0")
            return StabilityVerdict(Status.UNSTABLE, tuple(witnesses), tuple(rules))
        rules.append(f"discriminant: {value} >= 0, inconclusive")

    if comb_wit is not None:
        # equality witness survived the unstable checks
        return StabilityVerdict(Status.NOT_STABLE, tuple(witnesses), tuple(rules))

    if lattice.crossing.kind is CrossingClass.GENERIC:
        rules.append("generic arrangements give stable Steiner bundles "
                     "(Bohnhorst-Spindler)")
        return StabilityVerdict(Status.STABLE, tuple(witnesses), tuple(rules))
    if n == 2 and m >= 6 and delta == 1:
        rules.append("single modest multiple point (delta = 1, m >= 6) "
                     "is stable (Schenck)")
        return StabilityVerdict(Status.STABLE, tuple(witnesses), tuple(rules))

    rules.append("no implemented criterion decides; verdict left open")
    return StabilityVerdict(Status.UNDETERMINED, tuple(witnesses), tuple(rules))
