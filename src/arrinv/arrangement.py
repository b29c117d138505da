"""Hyperplane arrangements in projective space.

An arrangement is a labeled list of m distinct hyperplanes in P^n, each given
by a linear form in the n+1 homogeneous coordinates. Forms are stored in a
canonical primitive integer representation: denominators cleared, content
divided out, first nonzero coefficient positive. Labels are 1-based
throughout the public surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import QMatrix, primitive_integer_vector, qval


class InvalidArrangement(ValueError):
    """Raised on malformed arrangement input."""


@dataclass(frozen=True)
class LinearForm:
    """A primitive integer linear form c_0 T_0 + ... + c_n T_n."""

    coeffs: tuple[int, ...]

    @classmethod
    def from_values(cls, values: Sequence) -> "LinearForm":
        # bool is a subclass of int, so JSON true/false would pass as 1/0
        if any(isinstance(v, bool) for v in values):
            raise InvalidArrangement("bad coefficient: booleans are not numbers")
        try:
            rationals = [qval(v) for v in values]
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidArrangement(f"bad coefficient: {exc}") from exc
        if all(x == 0 for x in rationals):
            raise InvalidArrangement("zero form is not a hyperplane")
        return cls(primitive_integer_vector(rationals))

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != len(self.coeffs):
            raise ValueError("dimension mismatch")
        return sum((Fraction(c) * qval(p) for c, p in zip(self.coeffs, point)),
                   Fraction(0))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


@dataclass(frozen=True)
class Arrangement:
    """m labeled hyperplanes in P^n. Forms are canonical and pairwise distinct."""

    n: int
    forms: tuple[LinearForm, ...]

    @property
    def m(self) -> int:
        return len(self.forms)

    def form(self, label: int) -> LinearForm:
        """1-based access matching the labels used in all reported data."""
        if not 1 <= label <= self.m:
            raise IndexError(f"label out of range: {label}")
        return self.forms[label - 1]

    def coefficient_matrix(self) -> QMatrix:
        """(n+1) x m matrix whose columns are the forms."""
        rows = [[self.forms[i].coeffs[k] for i in range(self.m)]
                for k in range(self.n + 1)]
        return QMatrix.from_rows(rows, self.m)

    def form_matrix(self) -> QMatrix:
        """m x (n+1) matrix whose rows are the forms."""
        return QMatrix.from_rows([f.coeffs for f in self.forms], self.n + 1)

    def restrict(self, labels: Sequence[int]) -> "Arrangement":
        """Sub-arrangement on a sorted subset of labels."""
        return Arrangement(self.n, tuple(self.form(i) for i in sorted(labels)))

    def to_json_dict(self) -> dict:
        return {"n": self.n,
                "hyperplanes": [list(f.coeffs) for f in self.forms]}


def parse_arrangement(n: int, rows: Iterable[Sequence]) -> Arrangement:
    """Validate and canonicalize raw coefficient rows."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidArrangement(f"ambient dimension must be a positive integer, got {n!r}")
    forms = []
    for idx, row in enumerate(rows, start=1):
        if not isinstance(row, (list, tuple)) or len(row) != n + 1:
            raise InvalidArrangement(
                f"hyperplane {idx}: expected {n + 1} coefficients, got {row!r}")
        try:
            forms.append(LinearForm.from_values(row))
        except InvalidArrangement as exc:
            raise InvalidArrangement(f"hyperplane {idx}: {exc}") from None
    if not forms:
        raise InvalidArrangement("an arrangement needs at least one hyperplane")
    seen: dict[tuple[int, ...], int] = {}
    for idx, f in enumerate(forms, start=1):
        if f.coeffs in seen:
            raise InvalidArrangement(
                f"hyperplanes {seen[f.coeffs]} and {idx} coincide "
                f"(both reduce to {f})")
        seen[f.coeffs] = idx
    return Arrangement(n, tuple(forms))


def parse_arrangement_json(text: str) -> Arrangement:
    """Parse the canonical JSON input format."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArrangement(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "hyperplanes" not in obj:
        raise InvalidArrangement('input must be {"n": ..., "hyperplanes": [...]}')
    if not isinstance(obj["hyperplanes"], list):
        raise InvalidArrangement('"hyperplanes" must be a list of coefficient rows')
    return parse_arrangement(obj["n"], obj["hyperplanes"])


def is_essential(a: Arrangement) -> bool:
    """True when the forms span the full dual space (rank n+1)."""
    return a.form_matrix().rank() == a.n + 1
