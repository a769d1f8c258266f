"""Every committed bench record, `BENCH_*.json` at the repo root, is complete.

A record merges one seed's `meshbench/run.py --workload all` lines, untraced
(`end_to_end`) and traced (`per_layer`), with the run record of each workload
at each setting (`runs`). It must hold every workload and every end-to-end
metric that BENCHMARK.json names, a per-layer section, and only runs that were
correct and steady.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.fixture(params=RECORDS, ids=[p.name for p in RECORDS])
def record(request):
    return json.loads(request.param.read_text())


def test_every_workload_has_every_end_to_end_metric(record):
    assert set(record["end_to_end"]) == set(WORKLOADS)
    for workload in WORKLOADS:
        metrics = record["end_to_end"][workload]
        for metric in BENCHMARK["end_to_end"]:
            assert metrics[metric["name"]]["unit"] == metric["unit"], (workload, metric)
            assert isinstance(metrics[metric["name"]]["value"], (int, float)), (workload, metric)


def test_has_a_per_layer_section(record):
    assert set(record["per_layer"]) == set(WORKLOADS)
    for workload in WORKLOADS:
        missing = {m["name"] for m in BENCHMARK["per_layer"]} - set(record["per_layer"][workload])
        assert not missing, (workload, sorted(missing))


def test_every_run_is_correct_and_steady(record):
    runs = record["runs"]
    assert sorted((r["workload"], r["trace"]) for r in runs) == sorted(
        (w, trace) for w in WORKLOADS for trace in (0, 1))
    for run in runs:
        assert run["correct"] is True and run["steady"] is True, run
