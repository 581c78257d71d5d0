"""Pipeline benchmark for minksurf.

    python3 perfbench/run.py --workload roundtrip-elliptic --seed 7 --seconds 25 --trace 0

Run from the repository root.  It imports minksurf from ``src/`` of the same
checkout, builds the workload's inputs from ``--seed`` (the jet RNG seed;
seed 7 reproduces the pinned fixtures), runs one warm-up op, then runs ops
back to back in a closed loop (one client, the next op starts when the last
ends) for ``--seconds``.  Every op is checked; an op that raises or fails a
check counts as failed.

Times are wall seconds rescaled to a reference host speed: each timed op is
bracketed by a fixed probe kernel (see ``calibrate.py``), which removes the
drift of a shared machine.  The raw wall times are printed and recorded too.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced ops on the same inputs and
reports the per-layer metrics of ``BENCHMARK.json`` as means over the traced
ops (self seconds or counts per op), with the tracing slowdown (mean traced
over mean untraced op, minus one) as ``trace.overhead_frac``.

Every metric is printed by name with its unit, then the run metadata; the
last line of standard output is the JSON result.  The run record, with the
spans of a traced run, goes to ``perfbench/out/``.  ``--nodes`` overrides
every workload's grid size (the smoke test uses it).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("roundtrip-elliptic", "solve-hyperbolic", "inverse-files")
SETUP_REPEATS = 3  # cold set-ups per run; setup_s is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cold_setup(workload: str, seed: int, nodes: int, workdir: str) -> float:
    """Imports plus input generation, timed inside a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), workload, str(seed), str(nodes), workdir],
        env=env, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _run_op(workload, state, k):
    """The k-th checked op of a run: (failure text or None, measured values)."""
    try:
        out = workload.op(state, k)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return f"{type(exc).__name__}: {exc}", {}
    return "; ".join(out.failures) or None, out.values


class Tally:
    """Ops attempted and failed, each distinct failure message, op values."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.values: list[dict] = []

    def add(self, failure, values) -> None:
        self.attempted += 1
        self.values.append(values)
        if failure is not None:
            self.failed += 1
            if failure not in self.messages:
                self.messages.append(failure)


def measure_end_to_end(wl, name, seed, nodes, seconds, workdir, tally):
    import calibrate  # loads numpy, so only after main() has capped the thread pools

    clock = calibrate.Clock()
    setups = []
    for k in range(SETUP_REPEATS):
        _, scale, cold_s = clock.time(_cold_setup, name, seed, nodes, os.path.join(workdir, f"setup{k}"))
        setups.append(cold_s * scale)
    state = wl.setup(seed, nodes, workdir)
    tally.add(*clock.time(_run_op, wl, state, 0)[2])  # warm-up: checked, not timed
    walls, times, ok_times = [], [], []
    start = time.perf_counter()
    while True:
        wall, scale, (failure, values) = clock.time(_run_op, wl, state, len(walls) + 1)
        tally.add(failure, values)
        walls.append(wall)
        times.append(wall * scale)
        if failure is None:
            ok_times.append(wall * scale)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {
        "ops_per_s": len(ok_times) / sum(times),
        "op_s_p50": statistics.median(ok_times or times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"op samples": len(ok_times), "op wall s p50": statistics.median(walls),
            "host speed": statistics.median(t / w for w, t in zip(walls, times))}
    return metrics, info, {"op_s": times, "op_wall_s": walls, "setup_s": setups}


def measure_per_layer(wl, seed, nodes, seconds, workdir, tally):
    import calibrate
    from tracing import METHOD_SPANS, ROOT_SPAN, SPANS, Tracer

    state = wl.setup(seed, nodes, workdir)
    tally.add(*_run_op(wl, state, 0))  # warm-up
    tracer = Tracer()

    def traced_op(op_id):
        tracer.install()
        try:
            return tracer.op(op_id, _run_op, wl, state, op_id + 1)
        finally:
            tracer.uninstall()

    clock = calibrate.Clock()
    plain, scales, traced_values = [], [], []
    start = time.perf_counter()
    while True:
        # each untraced op runs the same input as the traced op after it
        wall, scale, (failure, values) = clock.time(_run_op, wl, state, len(scales) + 1)
        tally.add(failure, values)
        plain.append(wall * scale)
        _, scale, (failure, values) = clock.time(traced_op, len(scales))
        tally.add(failure, values)
        scales.append(scale)
        traced_values.append(values)
        if time.perf_counter() - start >= seconds:
            break

    # self seconds (rescaled like every time) and counts, summed over traced ops
    n = len(scales)
    tot: dict[str, float] = {}
    for op_id, acc in tracer.per_op().items():
        for key, val in acc.items():
            tot[key] = tot.get(key, 0) + (val if "#" in key else val * scales[op_id])
    per_op = lambda key: tot.get(key, 0) / n  # noqa: E731
    counted = lambda counter: sum(v for k, v in tot.items() if k.endswith("#" + counter)) / n  # noqa: E731
    traced = [(s.end - s.start) * scales[s.op] for s in tracer.spans if s.name == ROOT_SPAN]

    metrics = {f"{span}_s": per_op(span) for span in (*SPANS, *METHOD_SPANS)}
    metrics.update({
        "frames.spline_evals": per_op("frames#spline_evals"),
        "frames.gram_drift": statistics.fmean(v.get("gram_drift", 0.0) for v in traced_values),
        "frames.path_discrepancy": statistics.fmean(v.get("path_discrepancy", 0.0) for v in traced_values),
        "jets.p_mul_calls": counted("p_mul_calls"),
        "fields.scalarfield_init_calls": per_op("fields.scalarfield_init#calls"),
        "minkowski.lorentz_inner_calls": counted("lorentz_inner_calls"),
        "analysis.geometric_frame_calls": per_op("analysis.geometric_frame#calls"),
        "io.bytes_read": counted("bytes_read"),
        "io.bytes_written": counted("bytes_written"),
        "trace.unattributed_s": per_op(ROOT_SPAN),
        "trace.overhead_frac": statistics.fmean(traced) / statistics.fmean(plain) - 1.0,
    })
    info = {"traced ops": n, "untraced op s mean": statistics.fmean(plain),
            "traced op s mean (sum of self times)": statistics.fmean(traced)}
    return metrics, info, {"op_s": plain, "traced_op_s": traced, "scales": scales, "spans": tracer.records()}


def _git_commit():
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _metadata(args, nodes) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "minksurf", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):  # show_config's layout differs across numpy versions
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "nodes": nodes, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 client",
        "cpu_model": _cpu_model(), "nproc": _nproc(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS}, "blas": blas,
    }


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nodes", type=int, default=None, help="grid size for every workload")
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # cap native thread pools at the CPUs this process may use
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(_nproc()))
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import minksurf
        import workloads
    except ImportError as exc:
        return _fail(f"cannot import minksurf from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(minksurf.__file__)) != os.path.join(SRC, "minksurf"):
        return _fail(f"imported minksurf from {minksurf.__file__}, not from {SRC}")

    wl = workloads.WORKLOADS[args.workload]
    nodes = args.nodes or wl.nodes
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tally = Tally()
    try:
        if args.trace:
            metrics, info, record = measure_per_layer(wl, args.seed, nodes, args.seconds, workdir, tally)
        else:
            metrics, info, record = measure_end_to_end(
                wl, args.workload, args.seed, nodes, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(wanted):
        return _fail(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(wanted)}")

    accuracy = [v[wl.accuracy] for v in tally.values if wl.accuracy in v]
    checks = {
        "failed_frac": (tally.failed / tally.attempted, "frac", f"{tally.failed} of {tally.attempted} ops"),
        wl.accuracy: (max(accuracy, default=float("nan")), "abs", "worst op"),
    }
    for name, unit in wanted.items():
        print(f"{name:38s} {metrics[name]:<24.10g} {unit}")
    for name, (value, unit, note) in checks.items():
        print(f"{name:38s} {value:<24.10g} {unit}  ({note})")
    for name, value in info.items():
        print(f"  {name}: {value:.6g}")
    for message in tally.messages:
        print(f"FAILED: {message}")
    meta = _metadata(args, nodes)
    print("meta " + json.dumps(meta, sort_keys=True))

    record.update(meta=meta, metrics=metrics, checks={k: v[0] for k, v in checks.items()}, failures=tally.messages)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
