"""Smoke test of the benchmark itself, at 33 nodes and one timed op per run.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload runs and passes its checks, that each run prints
every metric of BENCHMARK.json by name and ends in the JSON result, and that
the traced runs record a span for every per-layer timing metric.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("roundtrip-elliptic", "solve-hyperbolic", "inverse-files")
NODES = 33

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--nodes", str(NODES)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _record(workload: str, trace: int) -> dict:
    with open(os.path.join(HERE, "out", f"{workload}-seed7-trace{trace}.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs():
    return {(w, t): _bench(w, t) for w in WORKLOADS for t in (0, 1)}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_every_metric(runs, workload, trace):
    proc = runs[workload, trace]
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in specs} == {k: v["unit"] for k, v in result["metrics"].items()}
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    accuracy = {"roundtrip-elliptic": "recovery_err", "solve-hyperbolic": "residual_err",
                "inverse-files": "metric_law_err"}[workload]
    assert {m["name"] for m in specs} | {"failed_frac", accuracy} <= printed


def test_trace_has_a_span_for_every_timing_metric(runs):
    timing = {m["name"][:-2] for m in SPEC["per_layer"]
              if m["name"].endswith("_s") and not m["name"].startswith("trace.")}
    seen = set()
    for workload in WORKLOADS:
        assert runs[workload, 1].returncode == 0
        spans = _record(workload, 1)["spans"]
        seen |= {s["name"] for s in spans}
        for s in spans:
            assert s["end"] >= s["start"] and s["op"] >= 0
            if s["parent"] is not None:
                assert spans[s["parent"]]["op"] == s["op"]
    assert timing <= seen, sorted(timing - seen)


def test_self_times_add_up_to_the_traced_op(runs):
    for workload in WORKLOADS:
        assert runs[workload, 1].returncode == 0
        record = _record(workload, 1)
        self_sum = sum(v for k, v in record["metrics"].items() if k.endswith("_s"))
        assert self_sum == pytest.approx(sum(record["traced_op_s"]) / len(record["traced_op_s"]), rel=1e-9)


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("roundtrip-elliptic", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
