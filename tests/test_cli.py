"""End to end tests for the command line interface.

Commands are driven through ``arrinv.cli.main`` with captured streams, the
same entry point the console script uses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import re

import pytest

import arrinv.report as report_mod
from arrinv.arrangement import parse_arrangement_json
from arrinv.cli import OPTIONS, build_parser, main
from arrinv.fixtures import fixture, fixture_names
from arrinv.lattice import build_lattice
from arrinv.report import DEFAULT_PRIMES, build_report, jsonable
from arrinv.stability import Status, StabilityVerdict
from test_report import PLANES_OF_RANK_3, sweep_input


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
FIXDIR = README.parent / "fixtures"

# six concurrent lines: not essential, yet m >= n + 3
CONCURRENT6 = {"n": 2, "hyperplanes": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0],
                                       [1, 3, 0], [1, 4, 0]]}


# SHA-256 of the stdout of `arrinv tensor`: the relation basis and the n+1
# slices. Keyed by fixture (boolean_n2 has no tensor and prints nothing)
# and by (row kind, n, m) of `test_report.sweep_input`, n = 1..4 and
# m = n+2..n+5, so slices of every n up to 4 are covered.
TENSOR_DIGESTS = {
    "a3_braid": "1e720645ec19de29c2ec5446a8ac883fbdec749922dc6093b96dd742e2b89028",
    "boolean_n2": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "generic5": "81ff9b45bc244285344cc84a50be514b5f5a1d59308c1bc5aa5a3603d2310ac7",
    "generic6_off_conic": "c27b31e94f358ceada6a8632b517092332ee6ec440a9e48fabebe3f566a95838",
    "generic6_on_conic": "9cdb2218aea30a3134eb0637bc0d70478636a0a3412fcd233b3fd69abbfc677a",
    "m5_one_triple": "fed87eaa1fada96f3312f59e99c25c92c3d8363ecaef27815a40beea0299d165",
    "m5_two_triples": "16ef087bf0b4092a0173489490167cb6603230b80d15475fdc385afd3f508eb9",
    "m6_four_concurrent": "319c111b62a4515e035dceb85499ea21cec724defc6ffc424b2c8a00f1b181df",
    "m6_one_triple": "4f1aa771546e0ef0e213be2f4a8fa82ae69d63ec7b79182620ad403494cf1703",
    "m6_three_triples": "7f1a43530eb4792b389b0ee73940665104ad4e52d055202132c8bde37936177d",
    "m6_two_triples_F1": "59a060004d9128c20c38634b8f8b7aa0f3871ff5eb1943a737038f46ff9ce319",
    "m6_two_triples_F2": "0717050bef5854387399952b22798a59afe24a277b68ca3ea5f109b3143d215b",
    ("curve", 1, 3): "935e72329e5caa22e649a45f8107da1db223ec812800f1bbf79a28be7b0e559f",
    ("random", 1, 3): "8aac69defd4989449390dfa5344f04f93272880e6b8c901013901218afabe47e",
    ("curve", 1, 4): "8abcdfac0c0a4b2cbfbbad1334ec9faac0ce84b5ac38e0e2a61c605d8c506871",
    ("random", 1, 4): "a36b00a0166e9f9f38a1b3bfb2ffbd7d1b13e789087814da16ba6bd396345b22",
    ("curve", 1, 5): "ea32af89ff72a7f70886193ed6ad8c6588afd542311c730834620c594edd4028",
    ("random", 1, 5): "5a4ee6ad23891cf32a389dd6c3a586b5e271e079f667726e5fa6b3406050921f",
    ("curve", 1, 6): "c1a220e32fb2edd7fb587d7b52b29472e1f1b307ba06185049ea57d5b9c4a156",
    ("random", 1, 6): "c146a611a87ac78709ae0d4fcc4636e1d3ced728c3f8dcbe68ae56060d88bf8b",
    ("curve", 2, 4): "70083c8a3222b96fdff097da1020d73243904f8d36e3ce678706c00d30565e27",
    ("random", 2, 4): "b74999c2c41741a4842b85ace5997001b68bbffcf68c10407b3ffdd855ac84c7",
    ("curve", 2, 5): "78b21e2a7a57dc89f6631fa98a04ded6100a5d188f5171b73f52f6b1954736cc",
    ("random", 2, 5): "1b2f71faccf7c49b3ce333b32b8d9c22a8206e10ee845b09214cc44142e41040",
    ("curve", 2, 6): "ed9a25641d5ee472805a1ba6e2733a0aab7f7d6a418d3b88f724a5d47144e0c8",
    ("random", 2, 6): "76d60f1147d928894228007a43fa0242295e9d4d56343be959f93d07b41a5524",
    ("curve", 2, 7): "8eca77b504b53de4c070100bcaa359b32ccff872a037b2fe6b6597951ed1c0ce",
    ("random", 2, 7): "820a858d63e66ffca3cc78b506c1808854a887d7b814c657b3efda85e2b515eb",
    ("curve", 3, 5): "71d17e068ec33e31e17bc76d6e2f6add36f2f01e265c023c7a030a78d93ebef4",
    ("random", 3, 5): "7bfed1edd00859b530e4e05768241acce38b25521e3b1162ca3d434be12f9131",
    ("curve", 3, 6): "30ce29c8f6a27054bd3cb03dde2a9893bf971b6e325f58fd8724ed7aa385fe6e",
    ("random", 3, 6): "53246d2cf5f8fed8840f85b1f616962f93400be0aaaf6ae39b344c7b50b7a01d",
    ("curve", 3, 7): "f9acfc752e51b34b131bec150d95e7203781051d9c8c8b6542ed0537d2a2db45",
    ("random", 3, 7): "838d37780dcb3fead9d38a6b9033ab19cc1145b15e7a7b501f6221cf78b3ebe9",
    ("curve", 3, 8): "dd8c18ca51788661bdca60e2b0a9fab50c096e704b88ef01f6296cd7d3a137f4",
    ("random", 3, 8): "499028019f0c216a60966aa0c4e7279199722513d2479c35bc4e14fb094c1fff",
    ("curve", 4, 6): "303c1319076f3d87343b710af6b60dd7a9fa634778182d6b39d4285980668b42",
    ("random", 4, 6): "98f74a5f0dcf93db5a57364341dd1efe6b136dd8edecaefb86dc5e5fb323125e",
    ("curve", 4, 7): "c4ca9abbc656a94f6d03b8533d92cf2269f8c9332745e316595d0738e328532c",
    ("random", 4, 7): "931bcc040138d42fa1bd013e197ee6c67a1892fc27452cfc64eeca7e6daf4267",
    ("curve", 4, 8): "5148307eaf23a4ae98fb5e3bc9f582db27cbffd92814589e9ac2637004ae0499",
    ("random", 4, 8): "0b50507daee8c2d5042ef13170e7fc9df993a11673a14071212c2fe6f2265c6e",
    ("curve", 4, 9): "2a155e8364e845ed8a4b666127a9f519c615e4ef69df6be8da0ec19b25a49fda",
    ("random", 4, 9): "965653159a917d24c36bfbb834f54018d1e191e12bdcdaa1b09bc24c2edc9850",
}


# SHA-256 of the stdout of `arrinv analyze --prime 2 --prime 3 --prime 5` on
# arrangements that are not essential, pinning the primes counted at, the
# retry notes and the counts: 2 and 3 divide a basis gcd of each, and on the
# ten planes through a line 5 and 7 do too, so those retry with 11.
NON_ESSENTIAL_DIGESTS = {
    "six_concurrent_lines": (
        CONCURRENT6,
        "c2efea496b971a1507f5eada09c46f09ee001f06a037022e491e9a8dde8069cc"),
    "ten_planes_through_a_line": (
        {"n": 3, "hyperplanes": [[1, -5, 2, 1], [0, 3, -1, -1], [1, 4, -1, -2],
                                 [1, -8, 3, 2], [1, -2, 1, 0], [3, -3, 2, -1],
                                 [1, 7, -2, -3], [2, -1, 1, -1], [1, 1, 0, -1],
                                 [5, -4, 3, -2]]},
        "1dd078443be655e02e58d117563dd52702a879cff0c3544284710ffa43559f57"),
    "twelve_planes_through_a_point": (
        {"n": 3, "hyperplanes": [[2, -1, -1, 0], [1, -1, 0, 0], [3, -1, 0, -1],
                                 [4, -1, -1, -1], [1, 0, -1, 0], [3, 0, -1, -1],
                                 [2, 0, 0, -1], [0, 1, -1, 0], [1, 0, 1, -1],
                                 [1, 1, 0, -1], [2, 1, -1, -1], [0, 1, 1, -1]]},
        "4629721fec41b8d7180a6645624bc6d500ea29f7b70512c6eb6d410ed984be78"),
    "planes_of_rank_3": (
        PLANES_OF_RANK_3.to_json_dict(),
        "cffb69063f5dd596596bcae76fbef3ebcf7c3933e264d706fb6b5592c3e0f98a"),
}


def run(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def path(name):
    return str(FIXDIR / f"{name}.json")


class TestAnalyze:
    def test_reruns_are_byte_identical(self, capsys):
        rc1, out1, _ = run(capsys, ["analyze", path("a3_braid")])
        rc2, out2, _ = run(capsys, ["analyze", path("a3_braid")])
        assert rc1 == rc2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("name", list(NON_ESSENTIAL_DIGESTS))
    def test_non_essential_output_matches_the_pinned_digest(self, capsys, tmp_path,
                                                            name):
        arrangement, digest = NON_ESSENTIAL_DIGESTS[name]
        f = tmp_path / "input.json"
        f.write_text(json.dumps(arrangement))
        rc, out, err = run(capsys, ["analyze", str(f), "--prime", "2", "--prime", "3",
                                    "--prime", "5"])
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

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

    def test_pretty_mode_prints_each_check_as_verify_does(self, capsys):
        # one renderer for both commands, so the delta bound detail shows here too
        rc, out, _ = run(capsys, ["analyze", "--pretty", path("m5_two_triples")])
        _, checks, _ = run(capsys, ["verify", "--pretty", path("m5_two_triples")])
        assert rc == 0
        assert out.split("oracle checks:\n")[1] == "".join(
            f"  {line}\n" for line in checks.splitlines()[:-1])
        assert out.endswith("  delta_bound: PASS (delta = 2, quarter bound 2 holds, "
                            "fifth bound 8/5 fails)\n")

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

    @pytest.mark.parametrize("key", list(TENSOR_DIGESTS), ids=lambda k: (
        k if isinstance(k, str) else "-".join(map(str, k))))
    def test_tensor_output_matches_the_pinned_digest(self, capsys, tmp_path, key):
        if isinstance(key, str):
            arg = path(key)
        else:
            arg = tmp_path / "sweep.json"
            arg.write_text(json.dumps(sweep_input(*key).to_json_dict()))
        _, out, _ = run(capsys, ["tensor", str(arg)])
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TENSOR_DIGESTS[key]


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
        # the README example, the one fixture whose fifth delta bound fails
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

    def test_verify_exit_code_reflects_failures(self, capsys, monkeypatch):
        wrong = build_lattice(fixture("m5_two_triples"))
        monkeypatch.setattr(report_mod, "build_lattice", lambda arr: wrong)
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

        def unstable_dual(lattice, delta):
            if lattice.arrangement == primal:
                return classify(lattice, delta)
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

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_file_is_the_show_output(self, capsys, name):
        # fixtures.py is the one source of the bundled files
        rc, out, _ = run(capsys, ["examples", "show", name])
        assert rc == 0
        assert (FIXDIR / f"{name}.json").read_bytes() == out.encode("utf-8")

    def test_fixture_directory_holds_exactly_the_fixtures(self):
        files = sorted(f.name for f in FIXDIR.iterdir())
        assert files == sorted(f"{name}.json" for name in fixture_names())


class TestReadme:
    """README's command block and flags paragraph name what the parser has."""

    @staticmethod
    def _commands() -> dict[str, argparse.ArgumentParser]:
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        return sub.choices

    def test_command_block_names_every_subcommand_and_no_other(self):
        block = README.read_text().split("Commands:\n\n```\n", 1)[1].split("\n```", 1)[0]
        named = {line.split()[1] for line in block.splitlines()
                 if line.startswith("arrinv ")}
        assert named == set(self._commands())

    def test_flags_paragraph_names_every_option_and_no_other(self):
        para = README.read_text().split("\nFlags, ", 1)[1].split("\n\n", 1)[0]
        flags = {flag for flag, _ in OPTIONS.values()}
        assert set(re.findall(r"--[a-z][a-z-]*", para)) == flags
        # each flag is followed by the commands that accept it
        named = {flag: set(re.findall(r"`(\w+)`", commands)) for flag, commands
                 in re.findall(r"`(--[a-z-]+)[^`]*`\s+\(([^)]*)\)", para)}
        assert named == {flag: {name for name, p in self._commands().items()
                                if flag in p._option_string_actions}
                         for flag in flags}


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

    @staticmethod
    def refused(capsys, argv):
        """Exit code, stdout and stderr of `main`, a usage error's SystemExit included."""
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    # the stderr of an integer that the library's rule refuses
    REFUSALS = {
        "1": "error: 1 is not prime\n",
        "4": "error: 4 is not prime\n",
        "-7": "error: -7 is not prime\n",
        "-1": "error: max_subsets must be an int >= 0, got -1\n",
        str(2 ** 89 - 1): "error: primality is decided only below "
                          f"3317044064679887385961981, got {2 ** 89 - 1}\n",
    }

    @pytest.mark.parametrize("flag, value", [
        ("--prime", "1"), ("--prime", "4"), ("--prime", "-7"), ("--prime", "x"),
        ("--prime", str(2 ** 89 - 1)), ("--max-subsets", "-1"), ("--max-subsets", "2.5"),
    ])
    def test_bad_numbers_are_usage_errors(self, capsys, flag, value):
        command = "verify" if flag == "--prime" else "torelli"
        rc, out, err = self.refused(capsys, [command, flag, value, path("generic5")])
        assert rc == 2
        assert out == ""
        if value in self.REFUSALS:
            assert err == self.REFUSALS[value]
        else:  # not an integer: argparse's usage error
            assert f"argument {flag}: invalid int value: {value!r}" in err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_a_repeated_prime_is_a_usage_error(self, capsys, command):
        rc, out, err = self.refused(capsys, [command, "--prime", "7", "--prime", "11",
                                             "--prime", "7", path("generic5")])
        assert rc == 2
        assert out == ""
        assert err == "error: prime 7 is repeated\n"

    @pytest.mark.parametrize("argv", [
        ["examples", "list", "--prime", "7"],
        ["examples", "show", "generic5", "--pretty"],
        ["lattice", "--pretty"],
        ["invariants", "--max-subsets", "5"],
        ["gale", "--max-subsets", "5"],
        ["tensor", "--max-subsets", "5"],
        ["stability", "--prime", "7"],
        ["torelli", "--pretty"],
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

    @pytest.mark.parametrize("command", ["analyze", "verify", "stability", "conjecture"])
    def test_no_literature_rules_is_a_usage_error(self, capsys, command):
        # the commands that once took the switch: a stable verdict always
        # names its theorem in rules_applied, so no option weakens it
        with pytest.raises(SystemExit) as exc:
            main([command, "--no-literature-rules", path("generic5")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --no-literature-rules" in captured.err


class TestReportHelpers:
    def test_jsonable_renders_fractions(self):
        from fractions import Fraction
        assert jsonable(Fraction(8, 5)) == "8/5"
        assert jsonable(Fraction(4, 2)) == 2
        assert jsonable({"a": [Fraction(1, 3)]}) == {"a": ["1/3"]}

    def test_jsonable_rejects_result_records(self):
        # records are NamedTuples, which a tuple check alone would turn into lists
        from fractions import Fraction
        from arrinv.lattice import Flat
        from arrinv.stability import Witness, WitnessKind
        records = [Flat((1, 2), 1, 1),
                   Witness(WitnessKind.DISCRIMINANT, Fraction(-1), Fraction(0), True)]
        for record in records:
            with pytest.raises(TypeError, match="not jsonable"):
                jsonable(record)
            with pytest.raises(TypeError, match="not jsonable"):
                jsonable({"section": [record]})

    def test_build_report_is_json_serializable_for_all_fixtures(self):
        for name in fixture_names():
            rep = build_report(fixture(name))
            json.dumps(jsonable(rep))

    @pytest.mark.parametrize("name", fixture_names() + ["concurrent6"])
    def test_build_report_dumps_as_analyze_prints_it(self, capsys, tmp_path, name):
        # no section holds a raw Fraction, the Gale dual points included
        file = pathlib.Path(path(name))
        if name == "concurrent6":
            file = tmp_path / "c6.json"
            file.write_text(json.dumps(CONCURRENT6))
        rc, out, _ = run(capsys, ["analyze", str(file)])
        assert rc == 0
        a = parse_arrangement_json(file.read_text())
        assert json.dumps(build_report(a), indent=2) + "\n" == out
