#!/usr/bin/env python3
"""Stage wall times and minor page faults of the solvers, reconstruction and inverse direction at 65, 129 and 257 nodes.

Times, with `time.perf_counter` and no library timer, the median of
REPEATS calls (after one untimed warm-up call) of:

  goursat_hyperbolic_triple   the eps = -1 fixture: order-8 jet edge data + Picard sweep
  solve_goursat_hyperbolic    the Picard sweep alone, on edge data sampled beforehand
  goursat_march               the Goursat march of the degenerate fixture alone, its
                              only caller in the library, on the fixture's edge data
  goursat_degenerate_triple   the degenerate fixture: Goursat march + Simpson for lambda
  coefficient_matrices        `frames.coefficient_matrices` of the positive order-6 jet
                              triple at radius 0.1, built beforehand
  integrate_frame             `frames.integrate_frame` (both transport paths) of the
                              same triple, with its coefficient matrices built beforehand
  integrate_position          `frames.integrate_position` of the same triple's frames,
                              transported beforehand
  compatibility_residual      `frames.compatibility_residual` of the same triple, with
                              its residual report built beforehand
  reconstruct                 `frames.reconstruct` of the same triple: residual gate,
                              coefficient matrices, transport, position, compatibility
  geometric_frame             `analysis.geometric_frame` of the reconstructed positive
                              order-6 jet at radius 0.1, built beforehand
  frame_functions             `analysis.frame_functions` of that geometric frame,
                              built beforehand
  invariants                  `analysis.invariants` of a fresh `Immersion` of the same
                              points per call: an immersion keeps its analysis, so a
                              reused one would time only the part after it
  canonicalize                `canonical.canonicalize` of a fresh `Immersion` of the same
                              points per call
  roundtrip                   the `roundtrip-elliptic` op on that jet: `fixtures.jet_triple`,
                              `reconstruct`, `invariants` and `canonicalize`

Each call's minor page faults (the process's `resource.getrusage` ru_minflt
delta) are recorded too, as their median: a fresh large temporary costs a
fault per page on first touch, which the wall time alone does not separate.

One more row, `cold_import`, is the median wall time of REPEATS fresh
interpreters (after one untimed warm-up) that run `import minksurf.cli`
from the same source tree: the start-up cost of every CLI command.

The result is stored under `--label` in the JSON file `--out`, next to the
runs already there, with the machine and the Python, numpy and scipy
versions (scipy as installed; the package does not import it).  To compare
two commits, run the script on each checkout with the same `--out` and a
label per side:

    PYTHONPATH=<checkout>/src python scripts/bench.py --out BENCH.json --label <commit>
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

import minksurf
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


def _degenerate_march(nodes: int):
    """A call of the goursat-degenerate fixture's Goursat march: coef = -nu^2, nu = 1 + u, eps = 0."""
    grid = fixtures.default_grid(nodes)
    edge = np.full(nodes, fixtures.DEGENERATE_EDGE_LEVEL)
    nu = 1.0 + grid.u_nodes
    coef = np.broadcast_to(-(nu * nu)[:, None], (nodes, nodes))
    return lambda: natural._goursat_march(grid, edge, edge, coef, 0)


def _roundtrip(nodes: int) -> None:
    """jet -> reconstruct -> invariants -> canonicalize, as the `roundtrip-elliptic` workload runs it."""
    t = fixtures.jet_triple(Case.POSITIVE_KH, order=6, radius=0.1, nodes=nodes)
    m = analysis.Immersion(t.grid, frames.reconstruct(t).points)
    analysis.invariants(m)
    canonical.canonicalize(m)


def _stages(nodes: int) -> dict:
    edges = _hyperbolic_edges(nodes)
    # the positive order-6 jet at radius 0.1 and its immersion, as `roundtrip-elliptic` builds them
    t = fixtures.jet_triple(Case.POSITIVE_KH, order=6, radius=0.1, nodes=nodes)
    cm = frames.coefficient_matrices(t)
    rep = natural.residual(t)
    bundle = frames.reconstruct(t)
    m = analysis.Immersion(bundle.grid, bundle.points)
    frame = analysis.geometric_frame(m)
    return {
        "goursat_hyperbolic_triple": lambda: fixtures.goursat_hyperbolic_triple(nodes),
        "solve_goursat_hyperbolic": lambda: natural.solve_goursat_hyperbolic(**edges),
        "goursat_march": _degenerate_march(nodes),
        "goursat_degenerate_triple": lambda: fixtures.goursat_degenerate_triple(nodes),
        "coefficient_matrices": lambda: frames.coefficient_matrices(t),
        "integrate_frame": lambda: frames.integrate_frame(cm),
        "integrate_position": lambda: frames.integrate_position(bundle.frames, t.mu, np.zeros(4)),
        "compatibility_residual": lambda: frames.compatibility_residual(rep, t.mu),
        "reconstruct": lambda: frames.reconstruct(t),
        "geometric_frame": lambda: analysis.geometric_frame(m),
        "frame_functions": lambda: analysis.frame_functions(frame),
        "invariants": lambda: analysis.invariants(analysis.Immersion(m.grid, m.points)),
        "canonicalize": lambda: canonical.canonicalize(analysis.Immersion(m.grid, m.points)),
        "roundtrip": lambda: _roundtrip(nodes),
    }


def median_call(fn) -> tuple[float, int]:
    """Median wall time (ms) and median minor page faults of REPEATS calls of fn, after one warm-up."""
    fn()
    times, faults = [], []
    for _ in range(REPEATS):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    return round(1e3 * statistics.median(times), 2), int(statistics.median(faults))


def cold_import() -> float:
    """Median wall time (ms) of REPEATS fresh interpreters importing minksurf.cli from this process's source tree.

    One warm-up interpreter runs first, untimed.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(minksurf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    times = []
    for k in range(REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import minksurf.cli"], env=env, check=True)
        if k:
            times.append(time.perf_counter() - t0)
    return round(1e3 * statistics.median(times), 2)


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file; runs under other labels are kept")
    ap.add_argument("--label", required=True, help="name of this run, e.g. the commit measured")
    args = ap.parse_args()

    ms, minflt = {}, {}
    for n in NODES:
        for stage, fn in _stages(n).items():
            ms.setdefault(stage, {})[str(n)], minflt.setdefault(stage, {})[str(n)] = median_call(fn)
            print(f"{stage:28s} {n:4d} nodes  {ms[stage][str(n)]:9.2f} ms  {minflt[stage][str(n)]:7d} minor faults",
                  flush=True)

    cold_ms = cold_import()
    print(f"{'cold_import':28s}             {cold_ms:9.2f} ms", flush=True)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc.setdefault("runs", {})[args.label] = {
        "machine": {"cpu": _cpu_model(), "cpus": os.cpu_count(), "arch": platform.machine()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),  # the tests' reference; the package runs without it
        "statistic": f"median of {REPEATS} calls after one warm-up: wall clock in ms, and minor page faults "
                     "(the process's getrusage ru_minflt delta)",
        "stages_ms": ms,
        "stages_minflt": minflt,
        "cold_import_ms": cold_ms,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
