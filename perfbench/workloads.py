"""The three benchmark workloads: inputs from a seed, one op, its checks.

Each workload has a ``setup(seed, nodes, workdir)`` that builds what the op
needs and an ``op(state, k)`` that runs the pipeline once, as the k-th op of
the run (the warm-up is op 0), and returns an ``Outcome``.  The seed is the
jet RNG seed; seed 7 reproduces the pinned fixtures
(``minksurf.fixtures.JET_RNG_SEED``).  The library only sees the inputs the
seed generates.

Run as a script, this module times one cold set-up (imports plus input
generation) and prints the seconds; ``run.py`` uses it to measure
``setup_s`` in fresh processes.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io as stdio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

from minksurf import analysis, canonical, cli, fixtures, frames, io, jets, natural  # noqa: E402
from minksurf.fields import GridSpec  # noqa: E402
from minksurf.natural import Case  # noqa: E402

# correctness bounds of the per-op checks
RECOVERY_TOL = 5e-4      # acceptance criterion 2's triple-recovery bound
RESIDUAL_H_FACTOR = 2.0  # hyperbolic residual <= 2 h, the solver's stated O(h)
METRIC_LAW_TOL = 1e-3    # canonical metric law |f sqrt|mu| - 1|


@dataclass
class Outcome:
    """What one op produced: the failed checks and the values it measured."""

    failures: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def seed_setup(seed: int, nodes: int, workdir: str) -> dict:
    """Set-up of the workloads whose op builds its own input from the seed."""
    return {"seed": seed, "nodes": nodes}


# ---------------------------------------------------------------------------
# roundtrip-elliptic: jet -> reconstruct -> invariants -> canonicalize


def roundtrip_op(state: dict, k: int) -> Outcome:
    t = fixtures.jet_triple(Case.POSITIVE_KH, order=6, radius=0.1, nodes=state["nodes"], seed=state["seed"])
    bundle = frames.reconstruct(t)  # raises ResidualTooLarge if the gate fails
    m = analysis.Immersion(bundle.grid, bundle.points)
    funcs = analysis.invariants(m).functions
    su, sv = m.grid.interior(2)
    err = max(
        float(np.max(np.abs(funcs.lambda1.values - t.lam.values)[su, sv])),
        float(np.max(np.abs(funcs.mu1.values - t.mu.values)[su, sv])),
        float(np.max(np.abs(funcs.nu.values - t.nu.values)[su, sv])),
    )
    case = canonical.canonicalize(m).diagnostics["case"]
    out = Outcome(values={
        "recovery_err": err,
        "gram_drift": bundle.diagnostics["gram_drift"],
        "path_discrepancy": bundle.diagnostics["path_discrepancy"],
    })
    out.check(err <= RECOVERY_TOL, f"recovery_err {err:.3e} > {RECOVERY_TOL:.0e}")
    out.check(case == "positive", f"canonical case {case!r} != 'positive'")
    return out


# ---------------------------------------------------------------------------
# solve-hyperbolic: order-8 jet edge data -> characteristic Picard sweep


HYPERBOLIC_ORDER = 8


def hyperbolic_op(state: dict, k: int) -> Outcome:
    # Op k solves for jet seed seed + k.  The Picard sweep count (7 to 10 over
    # seeds 0-30) follows the edge data, and each sweep is ~10% of the op, so
    # a run on one seed would time that seed's sweep count, not the solver.
    rng = np.random.default_rng(state["seed"] + k)
    # edge data built as minksurf.fixtures builds the goursat-hyperbolic fixture
    s = jets.JetSeed.random(HYPERBOLIC_ORDER, rng, amplitude=0.35)
    jt = jets.jet_manufacture(Case.NEGATIVE_KH, HYPERBOLIC_ORDER, s, center=(0.25, 0.25), radius=0.26, nodes=9)
    lam_e, nu_e, mu_e = jt.lam.evaluator, jt.nu.evaluator, jt.mu.evaluator
    P = lambda U, V: lam_e(U, V) + nu_e(U, V)  # noqa: E731
    Q = lambda U, V: lam_e(U, V) - nu_e(U, V)  # noqa: E731
    G = lambda U, V: np.log(np.abs(mu_e(U, V)))  # noqa: E731
    grid = GridSpec(0.0, 0.5, 0.0, 0.5, state["nodes"], state["nodes"])
    t = natural.solve_goursat_hyperbolic(  # raises NoConvergence if the sweep stalls
        p_bottom=lambda u: P(u, 0.0),
        p_left=lambda v: P(0.0, v),
        q_left=lambda v: Q(0.0, v),
        q_top=lambda u: Q(u, 0.5),
        g_bottom=lambda u: G(u, 0.0),
        g_left=lambda v: G(0.0, v),
        grid=grid,
    )
    err = natural.residual(t).interior_max_abs
    bound = RESIDUAL_H_FACTOR * grid.hu
    out = Outcome(values={"residual_err": err})
    out.check(err <= bound, f"residual_err {err:.3e} > 2h = {bound:.3e}")
    return out


# ---------------------------------------------------------------------------
# inverse-files: `minksurf analyze` and `minksurf canonicalize` on a CSV


def inverse_setup(seed: int, nodes: int, workdir: str) -> dict:
    t = fixtures.jet_triple(Case.DEGENERATE, nodes=nodes, seed=seed)
    bundle = frames.reconstruct(t)
    os.makedirs(workdir, exist_ok=True)
    csv = os.path.join(workdir, "immersion.csv")
    io.write_immersion_csv(analysis.Immersion(bundle.grid, bundle.points), csv)
    return {"csv": csv, "workdir": workdir}


def inverse_op(state: dict, k: int) -> Outcome:
    d = state["workdir"]
    r_analyze = os.path.join(d, "analyze.json")
    r_canon = os.path.join(d, "canonicalize.json")
    sink = stdio.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc_a = cli.run(["analyze", "--immersion", state["csv"], "--out", os.path.join(d, "invariants"),
                        "--report", r_analyze])
        rc_c = cli.run(["canonicalize", "--immersion", state["csv"], "--out", os.path.join(d, "canonical"),
                        "--report", r_canon])
    out = Outcome()
    out.check(rc_a == 0, f"analyze exited {rc_a}")
    out.check(rc_c == 0, f"canonicalize exited {rc_c}")
    if out.failures:
        return out
    with open(r_analyze) as fh:
        cls = json.load(fh)["metrics"]["classification"]
    with open(r_canon) as fh:
        diag = json.load(fh)["metrics"]
    err = float(diag["metric_law_max_dev"])
    out.values["metric_law_err"] = err
    out.check(cls == "pnmc", f"classification {cls!r} != 'pnmc'")
    out.check(diag["case"] == "degenerate", f"canonical case {diag['case']!r} != 'degenerate'")
    out.check(err <= METRIC_LAW_TOL, f"metric_law_err {err:.3e} > {METRIC_LAW_TOL:.0e}")
    return out


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, int, str], dict]
    op: Callable[[dict, int], Outcome]
    nodes: int
    # the accuracy value this workload reports beside the metrics
    accuracy: str


WORKLOADS = {
    "roundtrip-elliptic": Workload(seed_setup, roundtrip_op, 129, "recovery_err"),
    "solve-hyperbolic": Workload(seed_setup, hyperbolic_op, 257, "residual_err"),
    "inverse-files": Workload(inverse_setup, inverse_op, 129, "metric_law_err"),
}


if __name__ == "__main__":
    # usage: workloads.py <workload> <seed> <nodes> <workdir>; prints set-up seconds
    name, seed, nodes, workdir = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    WORKLOADS[name].setup(seed, nodes, workdir)
    print(repr(time.perf_counter() - _T0))
