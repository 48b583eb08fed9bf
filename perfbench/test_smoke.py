"""Tiny-size smoke runs of every benchmark workload.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

Each run goes through the workload's output checks and prints the
JSON result line; one traced run checks the ledger's metric names.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import run  # noqa: E402


def bench(workload, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_passes_its_output_checks(workload):
    doc = result(bench(workload))
    assert doc["correct"] is True
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    assert [(k, v["unit"]) for k, v in doc["metrics"].items()] == list(
        run.END_TO_END
    )
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_run_reports_every_ledger_metric():
    doc = result(bench("fleet", trace=1))
    assert doc["correct"] is True
    assert [(k, v["unit"]) for k, v in doc["metrics"].items()] == list(
        ledger.LAYER_METRICS
    )
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert metrics["cdi.run_fleet_s"] >= metrics["cdi.self_s"] > 0
    assert metrics["model.evaluate_calls"] == 1
    assert metrics["des.events"] == 0  # the fleet engine runs no DES


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        ledger.LAYER_METRICS
    )


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = bench("paper", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_import_seconds_counts_outermost_entries_only():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        150 |   scipy",
        "import time:        30 |         30 |     scipy.stats",
        "import time:        20 |         50 |   repro.model",
        "import time:        10 |        210 | repro",
    ])
    assert ledger.import_seconds(report, "scipy") == pytest.approx(180e-6)
    assert ledger.import_seconds(report, "networkx") == 0.0
