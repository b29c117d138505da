"""End to end tests for the command line interface.

Commands are driven through ``arrinv.cli.main`` with captured streams, the
same entry point the console script uses.
"""

from __future__ import annotations

import json

import pytest

from arrinv.cli import main
from arrinv.fixtures import fixture, fixture_names
from arrinv.lattice import build_lattice
from arrinv.report import build_report, jsonable, oracle_checks


FIXDIR = "fixtures"


def run(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def path(name):
    return f"{FIXDIR}/{name}.json"


class TestAnalyze:
    def test_reruns_are_byte_identical(self, capsys):
        rc1, out1, _ = run(capsys, ["analyze", path("a3_braid")])
        rc2, out2, _ = run(capsys, ["analyze", path("a3_braid")])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_json_sections_present(self, capsys):
        rc, out, _ = run(capsys, ["analyze", path("m6_one_triple")])
        assert rc == 0
        d = json.loads(out)
        for key in ("arrangement", "lattice", "poincare", "chern", "delta",
                    "stability", "torelli", "gale", "oracles"):
            assert key in d
        assert out.endswith("\n")

    def test_pretty_mode_mentions_the_headline_facts(self, capsys):
        rc, out, _ = run(capsys, ["analyze", "--pretty", path("a3_braid")])
        assert rc == 0
        assert "projective [1, 6, 11]" in out
        assert "stability: unstable" in out

    def test_single_section_commands_match_analyze(self, capsys):
        _, full, _ = run(capsys, ["analyze", path("generic5")])
        whole = json.loads(full)
        for cmd, keys in (("lattice", ("lattice",)),
                          ("invariants", ("poincare", "chern", "delta")),
                          ("stability", ("stability",)),
                          ("torelli", ("torelli",)),
                          ("gale", ("gale",))):
            _, out, _ = run(capsys, [cmd, path("generic5")])
            part = json.loads(out)
            if len(keys) == 1:
                assert part == whole[keys[0]]
            else:
                assert set(part) == set(keys)
                for k in keys:
                    assert part[k] == whole[k]


class TestTensor:
    def test_tensor_output_shape(self, capsys):
        rc, out, _ = run(capsys, ["tensor", path("a3_braid")])
        assert rc == 0
        d = json.loads(out)
        assert d["m"] == 6 and d["n"] == 2
        assert len(d["relation_basis"]) == 3      # m - n - 1
        assert len(d["slices"]) == 3              # n + 1
        assert len(d["slices"][0]) == 5           # m - 1 rows
        assert len(d["slices"][0][0]) == 3        # m - n - 1 columns


class TestVerify:
    def test_all_checks_pass_on_the_braid(self, capsys):
        rc, out, _ = run(capsys, ["verify", path("a3_braid")])
        assert rc == 0
        d = json.loads(out)
        assert d["ok"] is True
        names = [c["check"] for c in d["checks"]]
        assert names == ["finite_field_count_p7", "finite_field_count_p11",
                         "finite_field_count_p101", "milnor_delta_branches",
                         "pair_count_identity", "gale_complement_bijection",
                         "twist_identity", "delta_bound"]
        assert all(c["status"] in ("pass", "skipped") for c in d["checks"])

    def test_prime_flag_changes_the_oracle_primes(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--prime", "5", "--prime", "13",
                                  path("a3_braid")])
        assert rc == 0
        names = [c["check"] for c in json.loads(out)["checks"]]
        assert "finite_field_count_p5" in names
        assert "finite_field_count_p13" in names
        assert "finite_field_count_p7" not in names

    def test_pretty_mode_prints_one_line_per_check(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--pretty", path("a3_braid")])
        assert rc == 0
        assert "finite_field_count_p7: PASS" in out
        assert "all checks passed" in out

    def test_delta_bound_documents_the_failing_fifth_bound(self, capsys):
        # discriminant-zero five line arrangement: delta meets the quarter
        # bound exactly while the stronger fifth bound fails
        rc, out, _ = run(capsys, ["verify", path("m5_two_triples")])
        assert rc == 0
        check = {c["check"]: c for c in json.loads(out)["checks"]}["delta_bound"]
        assert check["status"] == "pass"
        assert check["delta"] == 2
        assert check["quarter_bound"] == 2 and check["quarter_holds"] is True
        assert check["fifth_bound"] == "8/5" and check["fifth_holds"] is False

    def test_corrupted_lattice_is_caught_by_the_oracles(self):
        # verification harness negative control: predictions drawn from the
        # wrong lattice must disagree with the direct point counts
        a = fixture("m5_one_triple")
        wrong = build_lattice(fixture("m5_two_triples"))
        checks = oracle_checks(a, wrong)
        ff = [c for c in checks if c["check"].startswith("finite_field")]
        assert ff and all(c["status"] == "fail" for c in ff)

    def test_verify_exit_code_reflects_failures(self, capsys, monkeypatch):
        wrong = build_lattice(fixture("m5_two_triples"))
        import arrinv.cli as cli_mod
        monkeypatch.setattr(cli_mod, "build_lattice", lambda arr: wrong)
        rc, out, _ = run(capsys, ["verify", path("m5_one_triple")])
        assert rc == 1
        assert json.loads(out)["ok"] is False


class TestConjecture:
    def test_generic_six_lines_agree_with_their_dual(self, capsys):
        rc, out, _ = run(capsys, ["conjecture", path("generic6_off_conic")])
        assert rc == 0
        d = json.loads(out)
        assert d["primal"]["status"] == "stable"
        assert d["dual"]["status"] == "stable"
        assert d["agreement"] == "agree"
        assert d["counterexample_candidate"] is False

    def test_too_few_hyperplanes_is_a_usage_error(self, capsys):
        rc, _, err = run(capsys, ["conjecture", path("boolean_n2")])
        assert rc == 2
        assert "m >= n + 3" in err

    def test_undefined_dual_is_a_usage_error(self, capsys):
        rc, _, err = run(capsys, ["conjecture", path("m5_one_triple")])
        assert rc == 2
        assert "collide" in err


class TestExamples:
    def test_list_names_every_fixture(self, capsys):
        rc, out, _ = run(capsys, ["examples", "list"])
        assert rc == 0
        assert json.loads(out) == fixture_names()

    def test_show_round_trips_through_the_parser(self, capsys, tmp_path):
        rc, out, _ = run(capsys, ["examples", "show", "m6_three_triples"])
        assert rc == 0
        d = json.loads(out)
        assert set(d) == {"n", "hyperplanes", "note"}
        f = tmp_path / "roundtrip.json"
        f.write_text(out)
        rc2, out2, _ = run(capsys, ["analyze", str(f)])
        assert rc2 == 0
        got = json.loads(out2)
        assert got["arrangement"]["m"] == 6

    def test_unknown_name_points_at_the_list_command(self, capsys):
        rc, _, err = run(capsys, ["examples", "show", "nope"])
        assert rc == 2
        assert "examples list" in err


class TestErrors:
    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, ["analyze", "no_such_file.json"])
        assert rc == 2
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text('{"n": 2,\n "hyperplanes": [[1, 0, ]]}\n')
        rc, _, err = run(capsys, ["analyze", str(f)])
        assert rc == 2
        assert "line" in err

    def test_invalid_arrangement(self, capsys, tmp_path):
        f = tmp_path / "zero.json"
        f.write_text(json.dumps({"n": 2, "hyperplanes": [[1, 0, 0], [0, 0, 0]]}))
        rc, _, err = run(capsys, ["analyze", str(f)])
        assert rc == 2
        assert "zero" in err

    def test_extra_keys_are_tolerated(self, capsys, tmp_path):
        f = tmp_path / "extra.json"
        f.write_text(json.dumps({"n": 2, "note": "hello",
                                 "hyperplanes": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        rc, out, _ = run(capsys, ["analyze", str(f)])
        assert rc == 0

    def test_boolean_input_is_invalid(self, capsys, tmp_path):
        f = tmp_path / "bools.json"
        f.write_text('{"n": true, "hyperplanes": [[true, false], [false, true], '
                     '[true, true]]}')
        rc, out, err = run(capsys, ["analyze", str(f)])
        assert rc == 2
        assert out == ""
        assert "positive integer" in err

    def test_fraction_strings_accepted(self, capsys, tmp_path):
        f = tmp_path / "frac.json"
        f.write_text(json.dumps({"n": 2, "hyperplanes": [["1/2", 0, 0],
                                                         [0, 1, 0], [0, 0, 1],
                                                         [1, 1, "2/3"]]}))
        rc, out, _ = run(capsys, ["analyze", str(f)])
        assert rc == 0
        d = json.loads(out)
        assert d["arrangement"]["m"] == 4


class TestFlags:
    def test_max_subsets_is_plumbed_through(self, capsys):
        rc, out, _ = run(capsys, ["torelli", "--max-subsets", "0",
                                  path("generic6_off_conic")])
        assert rc == 0
        d = json.loads(out)
        assert d["subset_cap_exceeded"] is True
        assert d["status"] == "torelli_proved"

    @pytest.mark.parametrize("flag, value", [
        ("--prime", "1"), ("--prime", "4"), ("--prime", "-7"), ("--prime", "x"),
        ("--max-subsets", "-1"), ("--max-subsets", "2.5"),
    ])
    def test_bad_numbers_are_usage_errors(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["torelli", flag, value, path("generic5")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be" in captured.err

    def test_no_literature_rules_weakens_generic_verdicts(self, capsys):
        rc, out, _ = run(capsys, ["stability", "--no-literature-rules",
                                  path("generic5")])
        assert rc == 0
        assert json.loads(out)["status"] == "undetermined"
        rc, out, _ = run(capsys, ["stability", path("generic5")])
        assert json.loads(out)["status"] == "stable"


class TestReportHelpers:
    def test_jsonable_renders_fractions(self):
        from fractions import Fraction
        assert jsonable(Fraction(8, 5)) == "8/5"
        assert jsonable(Fraction(4, 2)) == 2
        assert jsonable({"a": [Fraction(1, 3)]}) == {"a": ["1/3"]}

    def test_build_report_is_json_serializable_for_all_fixtures(self):
        for name in fixture_names():
            rep = build_report(fixture(name))
            json.dumps(jsonable(rep))
