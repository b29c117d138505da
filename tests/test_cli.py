"""End to end tests for the command line interface.

Commands are driven through ``arrinv.cli.main`` with captured streams, the
same entry point the console script uses.
"""

from __future__ import annotations

import json
import pathlib

import pytest

import arrinv.report as report_mod
import arrinv.steiner as steiner_mod
from arrinv.cli import main
from arrinv.fixtures import fixture, fixture_names
from arrinv.lattice import build_lattice
from arrinv.report import DEFAULT_PRIMES, Analysis, build_report, jsonable
from arrinv.stability import Status, StabilityVerdict
from arrinv.torelli import DEFAULT_MAX_SUBSETS


FIXDIR = "fixtures"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# six concurrent lines: not essential, yet m >= n + 3
CONCURRENT6 = {"n": 2, "hyperplanes": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0],
                                       [1, 3, 0], [1, 4, 0]]}


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

    def test_pretty_mode_prints_why_the_gale_dual_is_undefined(self, capsys):
        rc, out, _ = run(capsys, ["analyze", "--pretty", path("boolean_n2")])
        assert rc == 0
        assert ("gale dual: not defined (dual ambient space is empty or a point "
                "for m = 3, n = 2; the construction needs m >= n + 3)\n") in out

    def test_pretty_mode_prints_why_there_is_no_torelli_verdict(self, capsys):
        # the same availability reason as the stability line above it
        rc, out, _ = run(capsys, ["analyze", "--pretty", path("boolean_n2")])
        assert rc == 0
        assert ("stability: unavailable (needs m >= n + 2, got m = 3)\n"
                "torelli: unavailable (needs m >= n + 2, got m = 3)\n") in out

    @pytest.mark.parametrize("name", fixture_names() + ["concurrent6"])
    def test_single_section_commands_match_analyze(self, capsys, tmp_path, name):
        if name == "concurrent6":
            f = tmp_path / "concurrent6.json"
            f.write_text(json.dumps(CONCURRENT6))
            arr = str(f)
        else:
            arr = path(name)
        rc, full, _ = run(capsys, ["analyze", arr])
        assert rc == 0
        whole = json.loads(full)
        for cmd, keys in (("lattice", ("lattice",)),
                          ("invariants", ("poincare", "chern", "delta")),
                          ("stability", ("stability",)),
                          ("torelli", ("torelli",)),
                          ("gale", ("gale",))):
            rc, out, _ = run(capsys, [cmd, arr])
            assert rc == 0
            part = json.loads(out)
            if len(keys) == 1:
                assert part == whole[keys[0]]
            else:
                assert set(part) == set(keys)
                for k in keys:
                    assert part[k] == whole[k]
        _, out, _ = run(capsys, ["verify", arr])
        assert json.loads(out)["checks"] == whole["oracles"]

    def test_non_essential_input_with_room_for_a_dual(self, capsys, tmp_path):
        f = tmp_path / "concurrent6.json"
        f.write_text(json.dumps(CONCURRENT6))
        rc, out, err = run(capsys, ["analyze", str(f)])
        assert rc == 0 and err == ""
        d = json.loads(out)
        assert list(d) == ["arrangement", "lattice", "poincare", "chern", "delta",
                           "stability", "torelli", "gale", "oracles"]
        assert d["arrangement"]["essential"] is False
        assert d["gale"] == {"defined": False,
                             "reason": "arrangement is not essential"}
        rc, out, _ = run(capsys, ["gale", str(f)])
        assert rc == 0
        assert json.loads(out) == d["gale"]
        rc, out, _ = run(capsys, ["analyze", "--pretty", str(f)])
        assert rc == 0
        assert "gale dual: not defined (arrangement is not essential)" in out

    def test_no_h0_values_without_a_steiner_sheaf(self, capsys, tmp_path):
        # five concurrent lines: m >= n + 2, but not essential
        f = tmp_path / "concurrent5.json"
        f.write_text(json.dumps({"n": 2, "hyperplanes": CONCURRENT6["hyperplanes"][:5]}))
        rc, out, err = run(capsys, ["invariants", str(f)])
        assert rc == 0 and err == ""
        d = json.loads(out)
        assert d["chern"] == {"status": "unavailable",
                              "reason": "arrangement is not essential"}
        assert d["delta"]["total"] == 6
        assert "h0_twisted_sheaf" not in d["delta"]
        assert "h0_twisted_log" not in d["delta"]

    def test_pretty_mode_prints_no_delta_line_above_the_plane(self, capsys, tmp_path):
        # the delta invariant is defined for line arrangements only
        f = tmp_path / "planes.json"
        f.write_text(json.dumps({"n": 3, "hyperplanes": [
            [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]]}))
        rc, out, err = run(capsys, ["analyze", "--pretty", str(f)])
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert not any(line.startswith("delta") for line in lines)
        chern = next(i for i, line in enumerate(lines) if line.startswith("chern: "))
        assert lines[chern + 1] == "stability: stable"

    def test_three_points_on_the_line(self, capsys, tmp_path):
        f = tmp_path / "points.json"
        f.write_text(json.dumps({"n": 1, "hyperplanes": [[1, 0], [0, 1], [1, 1]]}))
        rc, out, err = run(capsys, ["analyze", str(f)])
        assert rc == 0 and err == ""
        torelli = json.loads(out)["torelli"]
        assert torelli["status"] == "not_torelli_proved"
        assert torelli["rule"] == "line-bundle-case"
        assert len(torelli["trace"]) == 1
        rc, out, err = run(capsys, ["torelli", str(f)])
        assert rc == 0 and err == ""
        assert json.loads(out) == torelli


class TestGale:
    def test_a_form_in_no_relation_has_no_dual_form(self, capsys, tmp_path):
        # five concurrent lines and z = 0: only form 6 has a z coefficient, so
        # every relation among the forms leaves it out
        f = tmp_path / "concurrent5_and_z.json"
        f.write_text(json.dumps({"n": 2, "hyperplanes": CONCURRENT6["hyperplanes"][:5]
                                 + [[0, 0, 1]]}))
        rc, out, err = run(capsys, ["gale", str(f)])
        assert rc == 0 and err == ""
        d = json.loads(out)
        assert d["dual_arrangement"] == ("undefined: hyperplane 6 appears in no "
                                         "relation; its dual form is zero")
        assert d["dual_points"][5] == [0, 0, 0]
        # the ten triples of the five concurrent lines swap with the ten
        # triples holding the zero point
        assert d["complement_bijection"] is True
        assert len(d["dependent_sets_primal"]) == 10
        assert all(6 in s for s in d["dependent_sets_dual"])


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

    def test_tensor_prints_why_it_is_undefined(self, capsys, tmp_path):
        # five concurrent lines: m >= n + 2, but not essential
        f = tmp_path / "concurrent5.json"
        f.write_text(json.dumps({"n": 2, "hyperplanes": CONCURRENT6["hyperplanes"][:5]}))
        rc, out, err = run(capsys, ["tensor", str(f)])
        assert rc == 2 and out == ""
        assert err == "error: defining tensor: arrangement is not essential\n"


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

    @pytest.mark.parametrize("name", fixture_names())
    def test_count_entries_hold_results_only(self, capsys, name):
        # nothing about how the count ran, so the report is the same everywhere
        rc, out, _ = run(capsys, ["analyze", path(name)])
        assert rc == 0
        entries = json.loads(out)["oracles"]
        rc, out, _ = run(capsys, ["verify", path(name)])
        assert rc == 0
        entries += json.loads(out)["checks"]
        counts = [c for c in entries if c["check"].startswith("finite_field_count_p")]
        assert len(counts) == 2 * len(DEFAULT_PRIMES)
        for c in counts:
            assert set(c) <= {"check", "status", "predicted", "counted", "note"}

    def test_pretty_mode_prints_one_line_per_check(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--pretty", path("a3_braid")])
        assert rc == 0
        assert "finite_field_count_p7: PASS" in out
        assert "all checks passed" in out

    def test_pretty_mode_prints_the_readme_example(self, capsys):
        # the one fixture whose pretty output shows the delta bound detail
        expected = ("finite_field_count_p7: PASS\n"
                    "finite_field_count_p11: PASS\n"
                    "finite_field_count_p101: PASS\n"
                    "milnor_delta_branches: PASS\n"
                    "pair_count_identity: PASS\n"
                    "gale_complement_bijection: PASS\n"
                    "twist_identity: PASS\n"
                    "delta_bound: PASS (delta = 2, quarter bound 2 holds, "
                    "fifth bound 8/5 fails)\n"
                    "all checks passed\n")
        rc, out, err = run(capsys, ["verify", "--pretty", path("m5_two_triples")])
        assert (rc, out, err) == (0, expected, "")
        assert ("$ arrinv verify --pretty fixtures/m5_two_triples.json\n"
                + expected) in README.read_text()

    def test_wrong_dual_configuration_fails_the_bijection(self, capsys, monkeypatch):
        # swapping dual points 1 and 4 moves the complement of the triple
        # point's lines {1, 2, 3} from {4, 5, 6} to {1, 5, 6}
        columns = steiner_mod.dual_columns

        def swapped(t):
            cols = columns(t)
            cols[0], cols[3] = cols[3], cols[0]
            return cols

        monkeypatch.setattr(steiner_mod, "dual_columns", swapped)
        rc, out, _ = run(capsys, ["verify", path("m6_one_triple")])
        assert rc == 1
        d = json.loads(out)
        assert d["ok"] is False
        gale = {c["check"]: c for c in d["checks"]}["gale_complement_bijection"]
        assert gale == {"check": "gale_complement_bijection", "status": "fail",
                        "missing": [[4, 5, 6]], "extra": [[1, 5, 6]]}

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
        analysis = Analysis(fixture("m5_one_triple"), DEFAULT_PRIMES,
                            DEFAULT_MAX_SUBSETS, True)
        analysis.lattice = build_lattice(fixture("m5_two_triples"))
        checks = analysis.oracles_section()
        ff = [c for c in checks if c["check"].startswith("finite_field")]
        assert len(ff) == len(DEFAULT_PRIMES)
        assert all(c["status"] == "fail" for c in ff)

    def test_verify_exit_code_reflects_failures(self, capsys, monkeypatch):
        wrong = build_lattice(fixture("m5_two_triples"))
        monkeypatch.setattr(report_mod, "build_lattice", lambda arr, ranks: wrong)
        rc, out, _ = run(capsys, ["verify", path("m5_one_triple")])
        assert rc == 1
        d = json.loads(out)
        assert d["ok"] is False
        ff = [c for c in d["checks"] if c["check"].startswith("finite_field")]
        assert ff and all(c["status"] == "fail" for c in ff)


class TestConjecture:
    def test_generic_six_lines_agree_with_their_dual(self, capsys):
        rc, out, _ = run(capsys, ["conjecture", path("generic6_off_conic")])
        assert rc == 0
        d = json.loads(out)
        assert d["primal"]["status"] == "stable"
        assert d["dual"]["status"] == "stable"
        assert d["agreement"] == "agree"
        assert d["counterexample_candidate"] is False

    def test_unstable_braid_agrees_with_its_dual(self, capsys):
        rc, out, err = run(capsys, ["conjecture", path("a3_braid")])
        assert rc == 0 and err == ""
        d = json.loads(out)
        assert d["primal"]["status"] == "unstable"
        assert d["dual"]["status"] == "unstable"
        assert d["agreement"] == "agree"
        assert d["counterexample_candidate"] is False

    def test_open_verdicts_leave_the_agreement_undetermined(self, capsys):
        rc, out, err = run(capsys, ["conjecture", path("m6_three_triples")])
        assert rc == 0 and err == ""
        d = json.loads(out)
        assert d["primal"]["status"] == "undetermined"
        assert d["agreement"] == "undetermined"
        assert d["counterexample_candidate"] is False

    def test_disagreement_is_flagged_but_exits_zero(self, capsys, monkeypatch):
        primal = fixture("generic6_off_conic")
        classify = report_mod.classify

        def unstable_dual(lattice, delta, literature_rules):
            if lattice.arrangement == primal:
                return classify(lattice, delta, literature_rules)
            return StabilityVerdict(Status.UNSTABLE, (), ("forced for the test",))

        monkeypatch.setattr(report_mod, "classify", unstable_dual)
        rc, out, err = run(capsys, ["conjecture", path("generic6_off_conic")])
        assert rc == 0
        d = json.loads(out)
        assert d["primal"]["status"] == "stable"
        assert d["dual"]["status"] == "unstable"
        assert d["agreement"] == "disagree"
        assert d["counterexample_candidate"] is True
        assert err == ("WARNING: primal and dual stability verdicts disagree; this "
                       "contradicts the duality conjecture, check the input "
                       "carefully\n")

    def test_too_few_hyperplanes_is_a_usage_error(self, capsys):
        rc, _, err = run(capsys, ["conjecture", path("boolean_n2")])
        assert rc == 2
        assert "m >= n + 3" in err

    def test_non_essential_input_prints_the_reason(self, capsys, tmp_path):
        f = tmp_path / "concurrent6.json"
        f.write_text(json.dumps(CONCURRENT6))
        rc, out, err = run(capsys, ["conjecture", str(f)])
        assert rc == 2 and out == ""
        assert err == ("error: dual arrangement undefined: "
                       "arrangement is not essential\n")

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

    def test_binary_file(self, capsys, tmp_path):
        f = tmp_path / "binary.json"
        f.write_bytes(b"\xff\xfe")
        rc, _, err = run(capsys, ["analyze", str(f)])
        assert rc == 2
        assert "not UTF-8 text" in err

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

    @pytest.mark.parametrize("hyperplanes, message", [
        ([], "an arrangement needs at least one hyperplane"),
        (5, '"hyperplanes" must be a list of coefficient rows'),
    ])
    def test_hyperplanes_must_be_a_nonempty_list(self, capsys, tmp_path,
                                                 hyperplanes, message):
        f = tmp_path / "rows.json"
        f.write_text(json.dumps({"n": 2, "hyperplanes": hyperplanes}))
        rc, out, err = run(capsys, ["analyze", str(f)])
        assert (rc, out, err) == (2, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("coeff", ["1e99999999", "1e-99999999", "1E+4_301"])
    def test_huge_decimal_exponent_is_invalid(self, capsys, tmp_path, coeff):
        # refused before Fraction builds a power of ten with 10^8 digits
        f = tmp_path / "exponent.json"
        f.write_text(json.dumps({"n": 2, "hyperplanes": [[coeff, 0, 0], [0, 1, 0],
                                                         [0, 0, 1]]}))
        rc, out, err = run(capsys, ["analyze", str(f)])
        assert (rc, out) == (2, "")
        assert "exponent exceeds 4300" in err

    def test_integer_beyond_the_digit_limit_is_invalid(self, capsys, tmp_path):
        f = tmp_path / "digits.json"
        f.write_text('{"n": 2, "hyperplanes": [[' + "7" * 4301
                     + ', 0, 0], [0, 1, 0], [0, 0, 1]]}')
        rc, out, err = run(capsys, ["analyze", str(f)])
        assert (rc, out) == (2, "")
        assert "more than 4300 digits" in err

    def test_deeply_nested_json_is_invalid(self, capsys, tmp_path):
        f = tmp_path / "deep.json"
        f.write_text('{"n": 2, "hyperplanes": ' + "[" * 100000 + "]" * 100000 + "}")
        rc, out, err = run(capsys, ["analyze", str(f)])
        assert (rc, out) == (2, "")
        assert "nested too deeply" in err

    def test_canonical_coefficient_beyond_the_digit_limit_is_invalid(
            self, capsys, tmp_path):
        # 10^4300 has 4301 digits, so the report could not print this form
        f = tmp_path / "scaled.json"
        f.write_text(json.dumps({"n": 2, "hyperplanes": [["1e4300", 1, 0],
                                                         [0, 1, 0], [0, 0, 1]]}))
        rc, out, err = run(capsys, ["analyze", str(f)])
        assert (rc, out) == (2, "")
        assert "more than 4300 digits" in err

    @pytest.mark.parametrize("exc", [AssertionError("twist identity failed"),
                                     ValueError("a bug")])
    def test_internal_errors_have_their_own_exit_code(self, capsys, monkeypatch,
                                                       exc):
        def broken(*args):
            raise exc
        monkeypatch.setattr(report_mod, "chern", broken)
        rc, out, err = run(capsys, ["analyze", path("a3_braid")])
        assert rc == 3
        assert out == ""
        assert err == f"error: internal error: {type(exc).__name__}: {exc}\n"

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
        command = "verify" if flag == "--prime" else "torelli"
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value, path("generic5")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be" in captured.err

    @pytest.mark.parametrize("argv", [
        ["examples", "list", "--prime", "7"],
        ["examples", "show", "generic5", "--pretty"],
        ["lattice", "--pretty"],
        ["invariants", "--no-literature-rules"],
        ["gale", "--max-subsets", "5"],
        ["tensor", "--max-subsets", "5"],
        ["stability", "--prime", "7"],
        ["torelli", "--no-literature-rules"],
        ["verify", "--max-subsets", "5"],
        ["conjecture", "--pretty"],
    ])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, capsys, argv):
        if argv[0] != "examples":
            argv = argv + [path("generic5")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

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
