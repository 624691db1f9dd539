"""Smoke test of the perf ledger: names, units, pins — not timings.

``run.py --smoke`` runs all six workloads at tiny sizes in one child
interpreter (one repetition plus the traced one, no set-up launches), so
the whole module costs a few seconds.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
RUN = LEDGER / "run.py"


def _ledger(*args: str) -> tuple[int, dict]:
    """Exit code and the JSON object on the last stdout line."""
    done = subprocess.run(
        [sys.executable, str(RUN), *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.stdout.strip(), done.stderr
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke() -> tuple[int, dict]:
    return _ledger("--smoke")


def test_every_workload_emits_every_declared_metric(smoke, declared):
    code, summary = smoke
    assert code == 0 and summary["correct"], summary
    units = {
        m["name"]: m["unit"]
        for m in declared["end_to_end"] + declared["per_layer"]
    }
    # --smoke makes no set-up launches, so it has no setup_s to report.
    del units["setup_s"]
    assert set(summary["workloads"]) == {w["name"] for w in declared["workloads"]}
    for workload, entry in summary["workloads"].items():
        assert entry["attempted"] >= 1 and entry["failed"] == 0, workload
        assert set(entry["metrics"]) == set(units), workload
        for name, metric in entry["metrics"].items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
            assert metric["unit"] == units[name], (workload, name)
            assert isinstance(metric["value"], (int, float)), (workload, name)
    for key in ("python", "numpy", "scipy", "nproc", "soa_available"):
        assert key in summary["environment"]


def test_layers_report_where_they_did_work(smoke):
    """Each workload moves the per-layer metrics named for it."""
    _, summary = smoke
    busy = {
        "lu_predict": ["sim.run_s", "sim.pred_err_pct", "dps.events", "des.events",
                       "netmodel.submit_s", "cpumodel.rates_computed"],
        "lu_measure": ["testbed.run_s", "dps.events", "netmodel.warm_starts"],
        "server_eager": ["clusterserver.run_s", "clusterserver.arrivals_s", "des.events",
                         "clusterserver.sched_allocate_calls"],
        "server_stream": ["des.epoch_count", "des.barrier_wait_s",
                          "clusterserver.allocations_elided"],
        "churn_dense": ["netmodel.maxmin_s", "netmodel.packet_soa_s",
                        "des.horizon_heap_ops", "netmodel.rates_computed"],
        "service_closed": ["service.req_p50_ms", "service.exec_p50_ms",
                           "service.throughput_rps", "service.executed"],
    }
    for workload, names in busy.items():
        metrics = summary["workloads"][workload]["metrics"]
        for name in names + ["wall_s", "peak_rss_mb"]:
            assert metrics[name]["value"] > 0, (workload, name)
        assert "bench.trace_overhead_frac" in metrics


def test_benchmark_json_declares_exactly_what_the_code_emits(declared):
    spec = importlib.util.spec_from_file_location("ledger_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert declared["paths"] == ["benchmarks/ledger"]
    assert declared["command"] == ["python3", "benchmarks/ledger/run.py"]


def test_wrong_pin_is_a_failed_operation(tmp_path):
    expected = json.loads((LEDGER / "expected.json").read_text(encoding="utf-8"))
    expected["smoke"]["churn_dense"]["outputs"]["maxmin"]["events"] += 1
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected), encoding="utf-8")
    code, result = _ledger(
        "--smoke", "--workload", "churn_dense", "--expected", str(wrong)
    )
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
