"""`scripts/bench.py` times library internals by name; each of its stages still runs."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


def test_bench_stages_run():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    stages = bench._stages(33)
    assert set(stages) == {
        "goursat_hyperbolic_triple", "solve_goursat_hyperbolic", "goursat_march", "goursat_degenerate_triple",
        "coefficient_matrices", "integrate_frame", "integrate_position", "compatibility_residual", "reconstruct",
        "geometric_frame", "frame_functions", "invariants", "canonicalize", "roundtrip",
    }
    for fn in stages.values():
        fn()
