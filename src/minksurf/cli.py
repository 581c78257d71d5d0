"""Command-line front end.

Subcommands: residual, solve, reconstruct, analyze, canonicalize, roundtrip,
export.  A JSON job file (--config) supplies defaults for the chosen command;
explicit flags override it; unknown config keys are rejected.  Exit codes:
0 success, 1 configuration or validation error, 2 numerical failure,
3 I/O error.  Reports are deterministic JSON (17 significant digits), so a
repeated run with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import fixtures, io
from .analysis import Immersion, invariants
from .canonical import canonicalize
from .errors import ConfigError, MinksurfError, ValidationError
from .frames import TOL_BUILD, reconstruct
from .natural import Case, residual

# per-command option schema: dest -> (type, default); used both for argparse
# and for validating job-config keys
SCHEMAS = {
    "residual": {"fixture": (str, "constant"), "triple": (str, None), "nodes": (int, 65),
                 "order": (int, 6), "radius": (float, 0.1), "case": (str, "positive"),
                 "report": (str, None)},
    "solve": {"method": (str, "goursat-degenerate"), "nodes": (int, 65), "order": (int, 6),
              "radius": (float, 0.1), "case": (str, "positive"), "seed": (int, fixtures.JET_RNG_SEED),
              "out": (str, None), "report": (str, None)},
    "reconstruct": {"fixture": (str, None), "triple": (str, None), "nodes": (int, 65),
                    "order": (int, 6), "radius": (float, 0.1), "case": (str, "positive"),
                    "tol_build": (float, TOL_BUILD), "force": (bool, False),
                    "out": (str, None), "report": (str, None)},
    "analyze": {"immersion": (str, None), "fixture": (str, None), "nodes": (int, None),
                "out": (str, None), "report": (str, None)},
    "canonicalize": {"immersion": (str, None), "out": (str, None), "report": (str, None)},
    "roundtrip": {"fixture": (str, "jet"), "nodes": (int, 65), "order": (int, 6),
                  "radius": (float, 0.1), "case": (str, "positive"),
                  "tol_build": (float, TOL_BUILD), "report": (str, None)},
    "export": {"bundle": (str, None), "out": (str, None), "report": (str, None)},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minksurf",
        description="Timelike surfaces with parallel normalized mean curvature direction: "
        "natural systems, reconstruction, analysis, canonical parameters.",
    )
    parser.add_argument("--config", help="JSON job file with defaults for the subcommand")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command)
        for dest, (typ, _default) in schema.items():
            flag = "--" + dest.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, action="store_const", const=True, default=None, dest=dest)
            else:
                p.add_argument(flag, type=typ, default=None, dest=dest)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    schema = SCHEMAS[args.command]
    merged = {}
    config = {}
    if args.config:
        with open(args.config) as fh:
            try:
                config = json.load(fh)
            except ValueError as exc:  # malformed JSON or undecodable bytes
                raise ConfigError(f"{args.config}: malformed job config: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("job config must be a JSON object")
        command = config.pop("command", args.command)
        if command != args.command:
            raise ConfigError(f"config is for command {command!r}, not {args.command!r}")
        unknown = set(config) - set(schema)
        if unknown:
            raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    for dest, (typ, default) in schema.items():
        cli_val = getattr(args, dest)
        if cli_val is not None:
            merged[dest] = cli_val
        elif dest in config:
            merged[dest] = _config_value(dest, typ, config[dest])
        else:
            merged[dest] = default
    if "tol_build" in merged and not merged["tol_build"] > 0:  # NaN too
        raise ConfigError("tol_build must be positive")
    if merged.get("nodes") is not None and merged["nodes"] < 5:
        raise ConfigError("nodes must be at least 5")
    return merged


def _config_value(dest: str, typ: type, val):
    """A job-file value of the schema's type; JSON's loose types are not coerced.

    An int key takes an integer or an integral float (33.0, not 33.7); a
    float key takes any finite number; neither takes a boolean or a string.
    """
    if isinstance(val, bool):
        ok = typ is bool
    elif typ is int:
        ok = isinstance(val, int) or (isinstance(val, float) and val.is_integer())
    elif typ is float:
        ok = isinstance(val, (int, float)) and bool(np.isfinite(val))
    else:
        ok = isinstance(val, typ)
    if not ok:
        raise ConfigError(f"config key {dest} must be of type {typ.__name__}, got {val!r}")
    return typ(val)


def _case_of(name: str) -> Case:
    try:
        return Case(name)
    except ValueError:
        raise ConfigError(f"case must be one of {sorted(c.value for c in Case)}") from None


def _load_triple(opts: dict):
    if opts.get("triple"):
        return io.read_triple_bundle(opts["triple"])
    name = opts.get("fixture") or "constant"
    return fixtures.make_triple_fixture(
        name,
        nodes=opts["nodes"],
        order=opts["order"],
        radius=opts["radius"],
        case=_case_of(opts["case"]),
    )


def _finish(report: dict, opts: dict, lines: list[str]) -> int:
    for line in lines:
        print(line)
    if opts.get("report"):
        io.write_report(report, opts["report"])
    else:
        sys.stdout.write(io.report_text(report))
    return 0


def _cmd_residual(opts: dict) -> int:
    t = _load_triple(opts)
    rep = residual(t)
    metrics = {
        "r1_max": rep.r1.max_abs(), "r1_interior_max": rep.r1.interior_max_abs(),
        "r2_max": rep.r2.max_abs(), "r2_interior_max": rep.r2.interior_max_abs(),
        "r3_max": rep.r3.max_abs(), "r3_interior_max": rep.r3.interior_max_abs(),
        "max_abs": rep.max_abs, "interior_max_abs": rep.interior_max_abs,
    }
    report = _report("residual", opts, {}, metrics)
    lines = [
        f"r1 max {metrics['r1_max']:.3e} (interior {metrics['r1_interior_max']:.3e})",
        f"r2 max {metrics['r2_max']:.3e} (interior {metrics['r2_interior_max']:.3e})",
        f"r3 max {metrics['r3_max']:.3e} (interior {metrics['r3_interior_max']:.3e})",
    ]
    return _finish(report, opts, lines)


def _cmd_solve(opts: dict) -> int:
    if not opts.get("out"):
        raise ConfigError("solve needs --out for the triple bundle")
    method = opts["method"]
    if method == "jet":
        t = fixtures.jet_triple(
            case=_case_of(opts["case"]), order=opts["order"],
            radius=opts["radius"], nodes=opts["nodes"], seed=opts["seed"],
        )
    elif method == "goursat-degenerate":
        t = fixtures.goursat_degenerate_triple(opts["nodes"])
    elif method == "goursat-hyperbolic":
        t = fixtures.goursat_hyperbolic_triple(opts["nodes"])
    else:
        raise ConfigError(f"unknown solve method {method!r}")
    rep = residual(t)
    io.write_triple_bundle(t, opts["out"])
    metrics = {"residual_max": rep.max_abs, "residual_interior_max": rep.interior_max_abs}
    report = _report("solve", opts, {}, metrics)
    return _finish(report, opts, [f"solved {method}: interior residual {rep.interior_max_abs:.3e}"])


def _cmd_reconstruct(opts: dict) -> int:
    if not opts.get("out"):
        raise ConfigError("reconstruct needs --out for the bundle directory")
    t = _load_triple(opts)
    bundle = reconstruct(t, tol_build=opts["tol_build"], force=opts["force"])
    os.makedirs(opts["out"], exist_ok=True)
    m = Immersion(bundle.grid, bundle.points)
    io.write_immersion_csv(m, os.path.join(opts["out"], "immersion.csv"))
    io.write_vtk_structured(
        os.path.join(opts["out"], "surface.vtk"),
        m,
        n1=bundle.frames[..., 2, :],
        n2=bundle.frames[..., 3, :],
    )
    io.write_report(bundle.diagnostics, os.path.join(opts["out"], "diagnostics.json"))
    report = _report("reconstruct", opts, {"tol_build": opts["tol_build"]}, bundle.diagnostics)
    return _finish(report, opts, [
        f"gram_drift {bundle.diagnostics['gram_drift']:.3e}  "
        f"path_discrepancy {bundle.diagnostics['path_discrepancy']:.3e}"
    ])


def _load_immersion(opts: dict) -> Immersion:
    if opts.get("immersion"):
        return io.read_immersion_csv(opts["immersion"])
    if opts.get("fixture") == "cylinder":
        return fixtures.cylinder_immersion(opts["nodes"])
    if opts.get("fixture"):
        bundle = reconstruct(fixtures.make_triple_fixture(opts["fixture"], nodes=opts["nodes"]))
        return Immersion(bundle.grid, bundle.points)
    raise ConfigError("need --immersion CSV or --fixture")


def _cmd_analyze(opts: dict) -> int:
    if opts.get("immersion"):
        if opts["nodes"] is not None:
            raise ConfigError("analyze --immersion takes its grid from the CSV; nodes must not be given")
    elif opts["nodes"] is None:
        opts = {**opts, "nodes": 65}
    m = _load_immersion(opts)
    rep = invariants(m)
    summary = io.invariant_report_dict(rep)
    if opts.get("out"):
        io.write_invariant_report(rep, opts["out"])
    report = _report("analyze", opts, {}, summary)
    return _finish(report, opts, [f"classification: {summary['classification']}"])


def _cmd_canonicalize(opts: dict) -> int:
    if not opts.get("immersion"):
        raise ConfigError("canonicalize needs --immersion CSV")
    if not opts.get("out"):
        raise ConfigError("canonicalize needs --out for the bundle directory")
    result = canonicalize(io.read_immersion_csv(opts["immersion"]))
    os.makedirs(opts["out"], exist_ok=True)
    io.write_triple_bundle(result.triple, opts["out"])
    io.write_immersion_csv(result.immersion, os.path.join(opts["out"], "immersion.csv"))
    io.write_report(result.repar.to_dict(), os.path.join(opts["out"], "reparametrization.json"))
    report = _report("canonicalize", opts, {}, result.diagnostics)
    return _finish(report, opts, [f"canonical case: {result.diagnostics['case']}"])


def _cmd_roundtrip(opts: dict) -> int:
    t = fixtures.make_triple_fixture(
        opts["fixture"], nodes=opts["nodes"], order=opts["order"],
        radius=opts["radius"], case=_case_of(opts["case"]),
    )
    rep = residual(t)
    bundle = reconstruct(t, tol_build=opts["tol_build"])
    m = Immersion(bundle.grid, bundle.points)
    inv = invariants(m)
    su, sv = m.grid.interior(2)
    funcs = inv.functions
    err = max(
        float(np.max(np.abs(funcs.lambda1.values[su, sv] - t.lam.values[su, sv]))),
        float(np.max(np.abs(funcs.mu1.values[su, sv] - t.mu.values[su, sv]))),
        float(np.max(np.abs(funcs.nu.values[su, sv] - t.nu.values[su, sv]))),
    )
    metrics = {
        "residual_interior_max": rep.interior_max_abs,
        "gram_drift": bundle.diagnostics["gram_drift"],
        "path_discrepancy": bundle.diagnostics["path_discrepancy"],
        "compat_max": bundle.diagnostics["compat_max"],
        "triple_recovery_error": err,
        "classification": inv.classification.value,
    }
    report = _report("roundtrip", opts, {"tol_build": opts["tol_build"]}, metrics)
    return _finish(report, opts, [f"triple recovery error: {err:.6e}"])


def _cmd_export(opts: dict) -> int:
    if not opts.get("bundle") or not opts.get("out"):
        raise ConfigError("export needs --bundle (dir with immersion.csv) and --out (.vtk)")
    m = io.read_immersion_csv(os.path.join(opts["bundle"], "immersion.csv"))
    io.write_vtk_structured(opts["out"], m)
    report = _report("export", opts, {}, {"points": m.grid.Nu * m.grid.Nv})
    return _finish(report, opts, [f"wrote {opts['out']}"])


def _report(command: str, opts: dict, tolerances: dict, metrics: dict) -> dict:
    # list only the options the command read: a triple bundle has its own
    # grid, and only the jet reads the jet options
    unread = {"report"}
    if opts.get("triple"):
        unread |= {"fixture", "nodes"}
    if opts.get("triple") or "jet" not in (opts.get("fixture"), opts.get("method")):
        unread |= {"order", "radius", "case", "seed"}
    inputs = {k: v for k, v in sorted(opts.items()) if k not in unread and v is not None}
    return {
        "command": command,
        "inputs": inputs,
        "tolerances": tolerances,
        "metrics": metrics,
        "status": "ok",
    }


_HANDLERS = {
    "residual": _cmd_residual,
    "solve": _cmd_solve,
    "reconstruct": _cmd_reconstruct,
    "analyze": _cmd_analyze,
    "canonicalize": _cmd_canonicalize,
    "roundtrip": _cmd_roundtrip,
    "export": _cmd_export,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the error report goes where the merged options say; if the merge itself
    # failed, only the command-line flag is known
    report_path = args.report
    try:
        opts = _merge_config(args)
        report_path = opts["report"]
        return _HANDLERS[args.command](opts)
    except ValidationError as exc:
        _emit_error(args.command, report_path, exc)
        return 1
    except MinksurfError as exc:  # NumericalError and the rest
        _emit_error(args.command, report_path, exc)
        return 2
    except OSError as exc:
        _emit_error(args.command, report_path, exc)
        return 3


def _emit_error(command: str, report_path: str | None, exc: Exception) -> None:
    report = {
        "command": command,
        "status": "error",
        "error": type(exc).__name__,
        "message": str(exc),
    }
    for key in ("sweep", "s", "node", "uv", "deltas"):  # where a numerical failure happened
        if getattr(exc, key, None) is not None:
            report[key] = getattr(exc, key)
    if report_path:
        try:
            io.write_report(report, report_path)
        except OSError:
            pass
    sys.stderr.write(io.report_text(report))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
