#!/usr/bin/env python3
"""Stage wall times of the Goursat solvers, reconstruction and the inverse direction at 65, 129 and 257 nodes.

Times, with `time.perf_counter` and no library timer, the median of
REPEATS calls (after one untimed warm-up call) of:

  goursat_hyperbolic_triple   the eps = -1 fixture: order-8 jet edge data + Picard sweep
  solve_goursat_hyperbolic    the Picard sweep alone, on edge data sampled beforehand
  goursat_march               one Goursat march: the first sweep's g on the same data
  goursat_degenerate_triple   the degenerate fixture: Goursat march + Simpson for lambda
  integrate_frame             `frames.integrate_frame` (both transport paths) of the
                              positive order-6 jet triple at radius 0.1, with its
                              triple and coefficient matrices built beforehand
  reconstruct                 `frames.reconstruct` of the same triple: residual gate,
                              coefficient matrices, transport, position, compatibility
  geometric_frame             `analysis.geometric_frame` of the reconstructed positive
                              order-6 jet at radius 0.1, built beforehand
  frame_functions             `analysis.frame_functions` of that geometric frame,
                              built beforehand
  invariants                  `analysis.invariants` of the same immersion
  canonicalize                `canonical.canonicalize` of the same immersion

The result is stored under `--label` in the JSON file `--out`, next to the
runs already there, with the machine and the Python, numpy and scipy
versions.  To compare two commits, run the script on each checkout with the
same `--out` and a label per side:

    PYTHONPATH=<checkout>/src python scripts/bench.py --out BENCH.json --label <commit>
"""

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np
import scipy

from minksurf import analysis, canonical, fixtures, frames, natural
from minksurf.fields import GridSpec
from minksurf.natural import Case

NODES = (65, 129, 257)
REPEATS = 5


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _hyperbolic_edges(nodes: int):
    """solve_goursat_hyperbolic's keyword arguments for the goursat-hyperbolic fixture, as arrays."""
    grid = GridSpec(0.0, 0.5, 0.0, 0.5, nodes, nodes)
    P, Q, G = fixtures._hyperbolic_edge_functions()
    u, v = grid.u_nodes, grid.v_nodes
    zero = np.zeros(nodes)
    return dict(
        p_bottom=P(u, zero), p_left=P(zero, v), q_left=Q(zero, v), q_top=Q(u, zero + 0.5),
        g_bottom=G(u, zero), g_left=G(zero, v), grid=grid,
    )


def _first_march(nodes: int):
    """A call of the first sweep's Goursat march on the goursat-hyperbolic edge data."""
    e = _hyperbolic_edges(nodes)
    pb, pl, ql, qt = e["p_bottom"], e["p_left"], e["q_left"], e["q_top"]
    pq = (pb[:, None] + pl[None, :] - pb[0]) * (ql[None, :] + qt[:, None] - ql[-1])
    return lambda: natural._goursat_march(e["grid"], e["g_bottom"], e["g_left"], pq, natural._hyperbolic_rhs)


def _stages(nodes: int) -> dict:
    edges = _hyperbolic_edges(nodes)
    # the positive order-6 jet at radius 0.1 and its immersion, as `roundtrip-elliptic` builds them
    t = fixtures.jet_triple(Case.POSITIVE_KH, order=6, radius=0.1, nodes=nodes)
    cm = frames.coefficient_matrices(t)
    bundle = frames.reconstruct(t)
    m = analysis.Immersion(bundle.grid, bundle.points)
    frame = analysis.geometric_frame(m)
    return {
        "goursat_hyperbolic_triple": lambda: fixtures.goursat_hyperbolic_triple(nodes),
        "solve_goursat_hyperbolic": lambda: natural.solve_goursat_hyperbolic(**edges),
        "goursat_march": _first_march(nodes),
        "goursat_degenerate_triple": lambda: fixtures.goursat_degenerate_triple(nodes),
        "integrate_frame": lambda: frames.integrate_frame(cm),
        "reconstruct": lambda: frames.reconstruct(t),
        "geometric_frame": lambda: analysis.geometric_frame(m),
        "frame_functions": lambda: analysis.frame_functions(frame),
        "invariants": lambda: analysis.invariants(m),
        "canonicalize": lambda: canonical.canonicalize(m),
    }


def median_ms(fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(1e3 * statistics.median(times), 2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file; runs under other labels are kept")
    ap.add_argument("--label", required=True, help="name of this run, e.g. the commit measured")
    args = ap.parse_args()

    ms = {}
    for n in NODES:
        for stage, fn in _stages(n).items():
            ms.setdefault(stage, {})[str(n)] = median_ms(fn)
            print(f"{stage:28s} {n:4d} nodes  {ms[stage][str(n)]:9.2f} ms", flush=True)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc.setdefault("runs", {})[args.label] = {
        "machine": {"cpu": _cpu_model(), "cpus": os.cpu_count(), "arch": platform.machine()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "statistic": f"median of {REPEATS} wall-clock calls after one warm-up, ms",
        "stages_ms": ms,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
