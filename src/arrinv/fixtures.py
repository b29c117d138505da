"""Named example arrangements used by the test suite and the CLI.

Each entry records the ambient dimension, integer coefficient rows, and a
note on what the example exhibits. Coordinates are chosen so the stated
singularity pattern is exact: the listed concurrences happen and no others.
"""

from .arrangement import Arrangement, parse_arrangement

_FIXTURES: dict[str, tuple[int, list[list[int]], str]] = {
    "boolean_n2": (
        2,
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "the three coordinate lines; smallest essential arrangement in the plane",
    ),
    "a3_braid": (
        2,
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1]],
        "braid arrangement on four strands, essentialized; six lines forming "
        "a complete quadrilateral with four triple points and three doubles",
    ),
    "generic5": (
        2,
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3]],
        "five lines in general position; every intersection point is a double",
    ),
    "generic6_on_conic": (
        2,
        [[1, 0, 0], [1, 1, 1], [1, 2, 4], [1, 3, 9], [1, 4, 16], [1, 5, 25]],
        "six general-position lines whose dual points (1, t, t^2) all lie on "
        "the smooth conic xz = y^2",
    ),
    "generic6_off_conic": (
        2,
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3], [1, 3, 2]],
        "six general-position lines whose dual points lie on no conic at all",
    ),
    "m5_one_triple": (
        2,
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 2, 1]],
        "five lines with a single triple point (lines 1, 2, 3)",
    ),
    "m5_two_triples": (
        2,
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1]],
        "five lines with two triple points (lines 1,2,3 and 1,4,5) sharing line 1",
    ),
    "m6_one_triple": (
        2,
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 2, 1], [1, 3, 4]],
        "six lines with a single triple point (lines 1, 2, 3)",
    ),
    "m6_four_concurrent": (
        2,
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0], [0, 0, 1], [1, 3, 1]],
        "six lines of which the first four share a point; the combinatorial "
        "instability bound fires strictly",
    ),
    "m6_two_triples_F1": (
        2,
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1], [1, 2, 3]],
        "six lines with two triple points joined by a common line (line 1 "
        "passes through both)",
    ),
    "m6_two_triples_F2": (
        2,
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, -1], [0, 1, -2], [1, 1, -3]],
        "six lines with two triple points not joined by any line of the "
        "arrangement; the dual points split into two collinear trios",
    ),
    "m6_three_triples": (
        2,
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],
        "six lines with three triple points (1,2,3), (1,4,5), (2,4,6)",
    ),
}


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


def fixture(name: str) -> Arrangement:
    if name not in _FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; see fixture_names()")
    n, rows, _ = _FIXTURES[name]
    return parse_arrangement(n, rows)


def fixture_note(name: str) -> str:
    if name not in _FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; see fixture_names()")
    return _FIXTURES[name][2]
