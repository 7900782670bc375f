"""Tests for the benchmark itself (not collected by the repo's tier-1 run):

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qkdnet import load_topology, parse_scenario  # noqa: E402

# simulated seconds for smoke runs: long enough for 11+ delivered requests
SMOKE_S = {"vienna-steady": 20, "grid-churn": 6, "relay-bulk": 12}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_and_valid(name):
    assert workloads.generate(name, 3) == workloads.generate(name, 3)
    for seed in (0, 1, 2**40):
        w = workloads.generate(name, seed)
        load_topology(w.topology)
        parse_scenario(w.scenario)


def test_seed_changes_inputs():
    a, b = workloads.generate("grid-churn", 1), workloads.generate("grid-churn", 2)
    assert a.topology != b.topology and a.scenario != b.scenario
    assert workloads.generate("relay-bulk", 1).digests() != workloads.generate("relay-bulk", 2).digests()


def test_spec_names_every_metric_once():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.GENERATORS)


@pytest.mark.parametrize("name", sorted(SMOKE_S))
def test_smoke_run_passes_output_checks(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = run.run_workload(name, 1, seconds=0, trace=False, duration_s=SMOKE_S[name])
    assert out["correct"] and out["attempted"] == run.MIN_REPEATS and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END_UNITS


def test_traced_smoke_run_accounts_for_all_time(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = run.run_workload("grid-churn", 1, seconds=0, trace=True,
                           duration_s=SMOKE_S["grid-churn"], sweep_lengths_s=(4, 6, 8, 10))
    assert out["correct"] and out["failed"] == 0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.PER_LAYER_UNITS
    self_times = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") or k == "harness.report.s")
    assert self_times == pytest.approx(metrics["trace.run_s"], rel=0.01)
    assert metrics["q3p.reserve.calls"] > 0 and metrics["harness.events.produce_tick"] == 60
    detail = json.loads((tmp_path / "grid-churn-1" / "result.json").read_text())
    assert detail["output_sha256"]
    assert (tmp_path / "grid-churn-1" / "traced" / "spans.csv.gz").exists()


def test_hooks_rebind_where_callers_look_and_report_missing_targets():
    import qkdnet.harness
    import qkdnet.routing

    original = qkdnet.routing.shortest_path
    tracer = spans.Tracer()
    tracer.install(spans.HOOKS + (spans.Hook("gone", "qkdnet.q3p", "KeyStore.renamed"),))
    try:
        assert qkdnet.harness.shortest_path is qkdnet.routing.shortest_path is not original
        assert tracer.missing == ["gone: qkdnet.q3p.KeyStore.renamed"]
    finally:
        tracer.uninstall()
    assert qkdnet.harness.shortest_path is original


def test_raising_run_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    runner = run.Runner("relay-bulk", 1)
    good = workloads.generate("relay-bulk", 1, 4)
    bad = workloads.Workload(good.name, good.topology,
                             good.scenario + "[event] t=1 kind=fail link=NOPE\n")
    result = runner.child(runner.write_inputs(bad, "input"), "rep1")
    assert not result["ok"] and result["problems"][0].startswith("ScenarioError")
