"""Hyperplane arrangements in projective space.

An arrangement is a labeled list of m distinct hyperplanes in P^n, each given
by a linear form in the n+1 homogeneous coordinates. Each form is stored as
a plain tuple of ints, its canonical primitive row (`canonical_form`):
denominators cleared, content divided out, first nonzero coefficient
positive. The same rows, read as points of the dual projective space, are
the dual configuration of the Torelli analysis. Labels are 1-based
throughout the public surface. The forms alone fix the intersection
lattice (`lattice.build_lattice`) and the basis minors that decide which
primes keep it (`ffcount.basis_minors`).
"""

import json
from typing import Iterable, NamedTuple, Sequence

from .linalg import MAX_DIGITS, primitive_integer_vector, qval

_COEFF_BOUND = 10 ** MAX_DIGITS   # canonical coefficients stay below it


class InvalidArrangement(ValueError):
    """Raised on malformed arrangement input."""


def canonical_form(values: Sequence) -> tuple[int, ...]:
    """The primitive integer row of a nonzero rational form c_0 T_0 + ... + c_n T_n."""
    # bool is a subclass of int, so JSON true/false would pass as 1/0
    if any(isinstance(v, bool) for v in values):
        raise InvalidArrangement("bad coefficient: booleans are not numbers")
    try:
        rationals = [qval(v) for v in values]
    except ZeroDivisionError as exc:   # its message is only a repr, "Fraction(1, 0)"
        raise InvalidArrangement("bad coefficient: zero denominator") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidArrangement(f"bad coefficient: {exc}") from exc
    if all(x == 0 for x in rationals):
        raise InvalidArrangement("zero form is not a hyperplane")
    row = primitive_integer_vector(rationals)
    if any(abs(c) >= _COEFF_BOUND for c in row):
        raise InvalidArrangement(
            f"bad coefficient: the canonical form has more than {MAX_DIGITS} digits")
    return row


class Arrangement(NamedTuple):
    """m labeled hyperplanes in P^n, one canonical integer row per hyperplane.

    The rows are pairwise distinct. Read as points of the dual space they
    are the arrangement's dual configuration.
    """

    n: int
    forms: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.forms)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "hyperplanes": [list(f) for f in self.forms]}


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
            forms.append(canonical_form(row))
        except InvalidArrangement as exc:
            raise InvalidArrangement(f"hyperplane {idx}: {exc}") from None
    if not forms:
        raise InvalidArrangement("an arrangement needs at least one hyperplane")
    seen: dict[tuple[int, ...], int] = {}
    for idx, f in enumerate(forms, start=1):
        if f in seen:
            raise InvalidArrangement(
                f"hyperplanes {seen[f]} and {idx} coincide (both reduce to {f})")
        seen[f] = idx
    return Arrangement(n, tuple(forms))


def parse_arrangement_json(text: str) -> Arrangement:
    """Parse the canonical JSON input format."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArrangement(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:   # an integer literal beyond Python's digit limit
        raise InvalidArrangement(
            f"invalid JSON: an integer has more than {MAX_DIGITS} digits") from exc
    except RecursionError as exc:
        raise InvalidArrangement("invalid JSON: nested too deeply") from exc
    if not isinstance(obj, dict) or "n" not in obj or "hyperplanes" not in obj:
        raise InvalidArrangement('input must be {"n": ..., "hyperplanes": [...]}')
    if not isinstance(obj["hyperplanes"], list):
        raise InvalidArrangement('"hyperplanes" must be a list of coefficient rows')
    return parse_arrangement(obj["n"], obj["hyperplanes"])

