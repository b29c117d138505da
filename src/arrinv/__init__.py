"""Exact invariants of hyperplane arrangements in projective space.

The package computes, over exact rational arithmetic: the intersection
lattice with its Moebius function, Poincare and Chern polynomials of the
logarithmic sheaves, the defining tensor and the dual configuration,
stability classification of the associated sheaf, and recoverability
verdicts, together with a finite-field counting oracle that cross-checks
the lattice computation.
"""

from .arrangement import (Arrangement, InvalidArrangement, canonical_form,
                          parse_arrangement, parse_arrangement_json)
from .ffcount import (basis_minors, count_complement_points, next_valid_prime,
                      prime_preserves_lattice)
from .fixtures import fixture, fixture_names, fixture_note
from .invariants import (ChernData, LocallyFree, PoincareData, chern,
                         complement_count_prediction, delta_invariant, h0_values,
                         local_data, poincare, require_steiner,
                         steiner_unavailable, twist_transform)
from .lattice import CrossingClass, Flat, IntersectionLattice, build_lattice
from .report import build_report
from .stability import (StabilityVerdict, Status, Witness, WitnessKind, classify,
                        combinatorial_destabilizer, discriminant_test,
                        free_splitting_stability, git_ratio_test)
from .steiner import (GaleBijectionReport, GaleUndefined, SteinerTensor,
                      dual_columns, gale_dual, gale_unavailable,
                      steiner_tensor, verify_gale_bijection)
from .torelli import (ConicClass, ConicResult, RncResult, RncVerdict,
                      TorelliStatus, TorelliVerdict, conic_test, rnc_test,
                      torelli_verdict)

__version__ = "0.1.0"

__all__ = [
    "Arrangement", "ChernData", "ConicClass", "ConicResult", "CrossingClass",
    "Flat", "GaleBijectionReport", "GaleUndefined",
    "IntersectionLattice", "LocallyFree", "InvalidArrangement", "PoincareData",
    "RncResult", "RncVerdict", "StabilityVerdict", "Status", "SteinerTensor",
    "TorelliStatus", "TorelliVerdict", "Witness", "WitnessKind", "basis_minors",
    "build_lattice", "build_report", "canonical_form", "chern", "classify",
    "combinatorial_destabilizer",
    "complement_count_prediction", "conic_test", "count_complement_points",
    "delta_invariant", "discriminant_test", "dual_columns", "fixture",
    "fixture_names", "fixture_note", "free_splitting_stability", "gale_dual",
    "gale_unavailable", "git_ratio_test", "h0_values", "local_data",
    "next_valid_prime", "parse_arrangement", "parse_arrangement_json", "poincare",
    "prime_preserves_lattice", "require_steiner", "rnc_test", "steiner_tensor",
    "steiner_unavailable", "torelli_verdict", "twist_transform",
    "verify_gale_bijection",
]
