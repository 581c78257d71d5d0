"""`scripts/bench.py` times library internals by name; each of its stages still runs."""

import importlib.util
import json
import sys
from pathlib import Path

from minksurf import analysis

BENCH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
STAGES = {
    "goursat_hyperbolic_triple", "solve_goursat_hyperbolic", "goursat_march", "goursat_degenerate_triple",
    "coefficient_matrices", "integrate_frame", "integrate_position", "compatibility_residual", "reconstruct",
    "geometric_frame", "frame_functions", "invariants", "canonicalize", "roundtrip",
}


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_stages_run():
    stages = load_bench()._stages(33)
    assert set(stages) == STAGES
    for fn in stages.values():
        fn()


def test_bench_analysis_rows_analyse_on_every_call(monkeypatch):
    # an immersion keeps its analysis, so a row that reused one would skip it after the warm-up
    stages = load_bench()._stages(33)
    calls = []
    geometric_frame = analysis.geometric_frame
    monkeypatch.setattr(analysis, "geometric_frame", lambda m: calls.append(1) or geometric_frame(m))
    for stage in ("invariants", "canonicalize"):
        for _ in range(2):
            calls.clear()
            stages[stage]()
            assert len(calls) == 1, stage


def test_bench_records_times_and_minor_faults_per_stage(monkeypatch, tmp_path):
    bench = load_bench()
    monkeypatch.setattr(bench, "NODES", (33,))
    monkeypatch.setattr(bench, "REPEATS", 1)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", "--out", str(out), "--label", "here"])
    bench.main()
    run = json.loads(out.read_text())["runs"]["here"]
    for key in ("stages_ms", "stages_minflt"):
        assert set(run[key]) == STAGES
        assert all(set(by_nodes) == {"33"} for by_nodes in run[key].values())
    assert all(isinstance(f, int) and f >= 0 for by_nodes in run["stages_minflt"].values() for f in by_nodes.values())
    assert isinstance(run["cold_import_ms"], float) and run["cold_import_ms"] > 0
