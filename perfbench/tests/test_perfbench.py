"""Tests of the pipeline benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import checks, corpus, run, trace  # noqa: E402

ROOT = run.ROOT


@pytest.fixture(scope="module")
def api():
    return run.import_arrinv()


@pytest.fixture(scope="module")
def corpora():
    return {w: corpus.Corpus(w, ROOT) for w in corpus.WORKLOADS}


def _first_cycles(pool, seed, count):
    return list(islice(pool.cycles(seed), count))


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_deterministic_per_seed(workload, corpora):
    pool = corpora[workload]
    assert corpus.Corpus(workload, ROOT).pool() == pool.pool()
    assert _first_cycles(pool, 3, 5) == _first_cycles(pool, 3, 5)
    assert _first_cycles(pool, 3, 5) != _first_cycles(pool, 4, 5)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_arrangements_in_a_run_are_distinct_and_cycles_share_one_mix(workload, corpora):
    cycles = list(corpora[workload].cycles(11))  # the whole draw
    drawn = [e.hyperplanes for cycle in cycles for e in cycle]
    assert len(set(drawn)) == len(drawn)
    for e in (e for cycle in cycles for e in cycle):
        rows = json.loads(e.text)["hyperplanes"]
        assert e.hyperplanes == frozenset(corpus.canonical_form(r) for r in rows)
        assert len(e.hyperplanes) == len(rows)
    assert len({tuple(sorted(e.stratum for e in c)) for c in cycles}) == 1


def test_fixture_stratum_starts_with_the_fixture_itself(corpora):
    for name, (n, rows) in corpus.load_fixtures(ROOT).items():
        entry = corpora["fixtures"].entry(name, 0)
        assert json.loads(entry.text) == {"n": n, "hyperplanes": rows}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_pool_reproduces_the_reference_inputs(workload, corpora):
    refs = checks.load_refs(workload)
    pool = corpora[workload].pool()
    assert sorted(refs) == sorted(pool)
    for stratum, entries in pool.items():
        assert [checks.input_digest(e.text) for e in entries] == \
            [want_in for want_in, _ in refs[stratum]]


def _arrinv_namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "arrinv" or name.startswith("arrinv.")}


def test_tracer_restores_the_original_functions(api):
    before = _arrinv_namespaces()
    qmatrix = sys.modules["arrinv.linalg"].QMatrix
    rank = qmatrix.__dict__["rank"]
    report = sys.modules["arrinv.report"]
    with pytest.raises(RuntimeError):
        with trace.Tracer():
            # a by-name import elsewhere in the package is wrapped as well
            assert report.count_complement_points is not \
                before["arrinv.report"]["count_complement_points"]
            assert qmatrix.__dict__["rank"] is not rank
            raise RuntimeError("leave the block early")
    after = _arrinv_namespaces()
    for name, namespace in before.items():
        assert all(after[name][k] is v for k, v in namespace.items()), name
    assert qmatrix.__dict__["rank"] is rank


# A metric that must record work on the workload built to stress that layer; a
# renamed function drops its span and fails here instead of reading 0.
STRESSED = {
    "fixtures": ("lattice.flats", "linalg.eliminations", "invariants.chern_calls",
                 "steiner.gale_calls", "torelli.conic_tests", "ffcount.prime_checks",
                 "ffcount.points_computed"),
    "on_conic": ("torelli.conic_tests", "ffcount.primes_rejected"),
}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_each_layer_records_work_where_it_is_stressed(workload, api, corpora):
    first = next(corpora[workload].cycles(0))
    cycle = first if workload == "fixtures" else first[:1]
    plain = [api.analyze(e.text) for e in cycle]
    with trace.Tracer() as tracer:
        traced = [api.analyze(e.text, tracer) for e in cycle]
    assert traced == plain
    metrics = tracer.metrics()
    for name in STRESSED[workload]:
        assert metrics[name] > 0, name
    if workload == "fixtures":
        for name in trace.TIMES:
            assert metrics[name] > 0, name


@pytest.fixture(scope="module")
def braid(api, corpora):
    entry = corpora["fixtures"].entry("a3_braid", 0)
    return entry, json.loads(api.analyze(entry.text))


def test_verified_report_passes_and_backend_is_not_hashed(braid):
    entry, obj = braid
    refs = checks.load_refs("fixtures")
    assert checks.report_failures(entry, obj, refs) == []
    renamed = copy.deepcopy(obj)
    for o in renamed["oracles"]:
        if "backend" in o:
            o["backend"] = "another-build"
    assert checks.report_failures(entry, renamed, refs) == []


def test_corrupted_report_counts_as_failed(braid):
    entry, obj = braid
    refs = checks.load_refs("fixtures")
    drifted = copy.deepcopy(obj)
    drifted["lattice"]["flats"][-1]["mobius"] += 1
    assert checks.report_failures(entry, drifted, refs) == ["digest mismatch"]
    failing = copy.deepcopy(obj)
    failing["oracles"][0]["status"] = "fail"
    assert checks.report_failures(entry, failing, refs)[0].startswith("oracle check failed")
    assert checks.invariance_failures(drifted, obj) == [
        "invariance: flats differs from the fixture"]


def test_failed_reports_lower_the_verified_share(api, corpora, monkeypatch):
    cycle = next(corpora["fixtures"].cycles(0))[:3]
    good = run.closed_loop(api, [cycle])
    good.outputs[1] = good.outputs[1].replace('"mobius": -1', '"mobius": 1', 1)
    monkeypatch.setattr(api.report, "build_report", _raise)
    raised = run.closed_loop(api, [cycle[:1]])
    monkeypatch.undo()
    assert isinstance(raised.outputs[0], RuntimeError)
    for loop, failed in ((good, 1), (raised, 1)):
        reasons = run.verify(api, corpora["fixtures"], loop)
        assert sum(1 for why in reasons if why) == failed
        share = run.end_to_end(loop, reasons)["verified_share"]
        assert share == (len(reasons) - failed) / len(reasons)


def _raise(*args, **kwargs):
    raise RuntimeError("report blew up")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = set(trace.TIMES) | set(trace.COUNTS) | {
        "ffcount.prime_accept_ratio", "trace.overhead_share"}
    assert set(per_layer) == traced
    assert all(run.unit_of(name) == unit for name, unit in per_layer.items())
