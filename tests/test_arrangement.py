"""Arrangement parsing, canonicalization, and the bundled examples."""

import json
import pathlib

import pytest

from arrinv.arrangement import (InvalidArrangement, canonical_form, parse_arrangement,
                                parse_arrangement_json)
from arrinv.fixtures import fixture, fixture_names
from arrinv.lattice import build_lattice

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_forms_are_canonicalized():
    a = parse_arrangement(2, [[2, 4, 0], ["1/2", 0, "1/2"]])
    assert a.forms[0] == (1, 2, 0)
    assert a.forms[1] == (1, 0, 1)


def test_negative_leading_coefficient_is_flipped():
    assert canonical_form([-2, 4, 0]) == (1, -2, 0)


def test_duplicate_hyperplanes_rejected_with_both_indices():
    with pytest.raises(InvalidArrangement) as err:
        parse_arrangement(2, [[1, 0, 0], [0, 1, 0], ["2/2", 0, 0]])
    assert "1" in str(err.value) and "3" in str(err.value)


def test_zero_form_rejected():
    with pytest.raises(InvalidArrangement):
        parse_arrangement(2, [[0, 0, 0]])


def test_wrong_row_length_rejected():
    with pytest.raises(InvalidArrangement) as err:
        parse_arrangement(2, [[1, 0]])
    assert "expected 3" in str(err.value)


def test_bad_dimension_rejected():
    with pytest.raises(InvalidArrangement):
        parse_arrangement(0, [[1]])


@pytest.mark.parametrize("text, message", [
    ('{"n": true, "hyperplanes": [[1, 0], [0, 1], [1, 1]]}', "positive integer"),
    ('{"n": 2, "hyperplanes": [[true, false, 0], [0, 1, 0], [0, 0, 1]]}',
     "hyperplane 1: bad coefficient"),
    ('{"n": 2, "hyperplanes": [[1, 0, 0], [0, 1, 0], [0, 0, false]]}',
     "hyperplane 3: bad coefficient"),
])
def test_json_booleans_rejected(text, message):
    with pytest.raises(InvalidArrangement) as err:
        parse_arrangement_json(text)
    assert message in str(err.value)


def test_boolean_coefficient_rejected_by_canonical_form():
    with pytest.raises(InvalidArrangement):
        canonical_form([True, 0, 1])


def test_json_parse_reports_position():
    with pytest.raises(InvalidArrangement) as err:
        parse_arrangement_json('{"n": 2,\n "hyperplanes": [[1,0,0],}')
    assert "line 2" in str(err.value)


def test_json_requires_both_keys():
    with pytest.raises(InvalidArrangement):
        parse_arrangement_json('{"n": 2}')


def test_essentiality():
    assert build_lattice(fixture("boolean_n2")).essential
    concurrent = parse_arrangement(2, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    assert not build_lattice(concurrent).essential


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_files_round_trip(name):
    path = FIXTURE_DIR / f"{name}.json"
    parsed = parse_arrangement_json(path.read_text(encoding="utf-8"))
    assert parsed == fixture(name)
    # and the serialized form parses back to the same object
    text = json.dumps(parsed.to_json_dict())
    assert parse_arrangement_json(text) == parsed


@pytest.mark.parametrize("name", fixture_names())
def test_fixtures_are_essential(name):
    assert build_lattice(fixture(name)).essential
