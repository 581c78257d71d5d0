"""Command-line front end.

Subcommands: residual, solve, reconstruct, analyze, canonicalize, roundtrip,
export.  Each input has one spelling: --fixture a built triple (or the
cylinder), --triple a triple bundle, --immersion a surface CSV, --tol-build
the residual gate (inf opens it).  A JSON job file (--config) supplies
defaults for the chosen command; explicit flags override it; unknown config
keys are rejected.  Exit codes, each non-zero one with a JSON error report:
0 success, 1 configuration or validation error (a malformed command line
too), 2 numerical failure, 3 I/O error.  Reports are deterministic JSON (17
significant digits), so a repeated run with the same inputs is byte-identical.
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
from .fields import is_integral
from .frames import TOL_BUILD, reconstruct
from .natural import Case, residual

# the jet options of the commands that build a triple, defaulting to the default jet
JET_OPTIONS = {"order": (int, fixtures.JET_ORDER), "radius": (float, fixtures.JET_RADIUS),
               "case": (str, fixtures.JET_CASE.value)}

# per-command option schema: dest -> (type, default); used both for argparse
# and for validating job-config keys
SCHEMAS = {
    "residual": {"fixture": (str, "constant"), "triple": (str, None), "nodes": (int, 65), **JET_OPTIONS,
                 "report": (str, None)},
    "solve": {"fixture": (str, "goursat-degenerate"), "nodes": (int, 65), **JET_OPTIONS,
              "seed": (int, fixtures.JET_RNG_SEED), "out": (str, None), "report": (str, None)},
    "reconstruct": {"fixture": (str, "constant"), "triple": (str, None), "nodes": (int, 65), **JET_OPTIONS,
                    "tol_build": (float, TOL_BUILD), "out": (str, None), "report": (str, None)},
    "analyze": {"immersion": (str, None), "fixture": (str, None), "nodes": (int, None),
                "out": (str, None), "report": (str, None)},
    "canonicalize": {"immersion": (str, None), "out": (str, None), "report": (str, None)},
    "roundtrip": {"fixture": (str, "jet"), "nodes": (int, 65), **JET_OPTIONS,
                  "tol_build": (float, TOL_BUILD), "report": (str, None)},
    "export": {"immersion": (str, None), "out": (str, None), "report": (str, None)},
}

# what the jet reads of a command's options: the table, and solve's seed
JET_KEYS = (*JET_OPTIONS, "seed")


class _Parser(argparse.ArgumentParser):
    """A malformed command line (an abbreviated option too) is a ConfigError, reported like any other; -h exits 0.

    A subcommand's parser sets `command`; the error carries it, and the report writes it.
    """

    command = None

    def error(self, message):
        exc = ConfigError(f"{self.prog}: {message}")
        exc.command = self.command
        raise exc


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minksurf", allow_abbrev=False,
        description="Timelike surfaces with parallel normalized mean curvature direction: "
        "natural systems, reconstruction, analysis, canonical parameters.",
    )
    parser.add_argument("--config", help="JSON job file with defaults for the subcommand")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        p.command = command
        for dest, (typ, _default) in schema.items():
            p.add_argument("--" + dest.replace("_", "-"), type=typ, default=None, dest=dest)
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
    # GridSpec checks nodes and reconstruct checks tol_build, both before any output
    if merged.get("seed", 0) < 0:  # numpy's generator takes no negative seed
        raise ConfigError("seed must be non-negative")
    return merged


def _config_value(dest: str, typ: type, val):
    """A job-file value of the schema's type; JSON's loose types are not coerced.

    An int key takes an integer or an integral float (33.0, not 33.7); a
    float key takes any finite number, so a job file opens the build gate
    with a large tolerance, not inf; no key takes a boolean.
    """
    if typ is int:
        ok = is_integral(val)
    elif typ is float:
        ok = type(val) in (int, float) and bool(np.isfinite(val))  # a bool's type is bool
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
    """The triple of `--triple`, or else of the named fixture, built from the jet options given."""
    if opts.get("triple"):
        return io.read_triple_bundle(opts["triple"])
    jet = {k: opts[k] for k in JET_KEYS if k in opts}
    if "case" in jet:
        jet["case"] = _case_of(jet["case"])
    return fixtures.make_triple_fixture(opts["fixture"], opts["nodes"], **jet)


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
    t = _load_triple(opts)
    rep = residual(t)
    io.write_triple_bundle(t, opts["out"])
    metrics = {"residual_max": rep.max_abs, "residual_interior_max": rep.interior_max_abs}
    report = _report("solve", opts, {}, metrics)
    return _finish(report, opts, [f"solved {opts['fixture']}: interior residual {rep.interior_max_abs:.3e}"])


def _cmd_reconstruct(opts: dict) -> int:
    if not opts.get("out"):
        raise ConfigError("reconstruct needs --out for the bundle directory")
    t = _load_triple(opts)
    bundle = reconstruct(t, tol_build=opts["tol_build"])
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
        bundle = reconstruct(_load_triple(opts))
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
    t = _load_triple(opts)
    bundle = reconstruct(t, tol_build=opts["tol_build"])
    m = Immersion(bundle.grid, bundle.points)
    inv = invariants(m)
    su, sv = m.grid.interior(2)
    funcs = inv.functions
    pairs = ((funcs.lambda1, t.lam), (funcs.mu1, t.mu), (funcs.nu, t.nu))
    err = max(float(np.max(np.abs(a.values[su, sv] - b.values[su, sv]))) for a, b in pairs)
    metrics = {
        "residual_interior_max": bundle.diagnostics["residual_max"],
        "gram_drift": bundle.diagnostics["gram_drift"],
        "path_discrepancy": bundle.diagnostics["path_discrepancy"],
        "compat_max": bundle.diagnostics["compat_max"],
        "triple_recovery_error": err,
        "classification": inv.classification.value,
    }
    report = _report("roundtrip", opts, {"tol_build": opts["tol_build"]}, metrics)
    return _finish(report, opts, [f"triple recovery error: {err:.6e}"])


def _cmd_export(opts: dict) -> int:
    if not opts.get("immersion") or not opts.get("out"):
        raise ConfigError("export needs --immersion CSV and --out (.vtk)")
    m = io.read_immersion_csv(opts["immersion"])
    io.write_vtk_structured(opts["out"], m)
    report = _report("export", opts, {}, {"points": m.grid.Nu * m.grid.Nv})
    return _finish(report, opts, [f"wrote {opts['out']}"])


def _report(command: str, opts: dict, tolerances: dict, metrics: dict) -> dict:
    # list only the options the command read: a triple bundle has its own
    # grid, and only the jet reads the jet options
    unread = {"report"}
    if opts.get("triple"):
        unread |= {"fixture", "nodes"}
    if opts.get("triple") or opts.get("fixture") != "jet":
        unread |= set(JET_KEYS)
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


def _report_flag(argv: list[str] | None) -> str | None:
    """The --report of a command line that failed to parse, when that flag itself is well-formed."""
    parser = _Parser(add_help=False, allow_abbrev=False)
    parser.add_argument("--report")
    try:
        return parser.parse_known_args(argv)[0].report
    except ConfigError:  # --report without its value
        return None


def run(argv: list[str] | None = None) -> int:
    # the error report goes where the merged options say; if the merge itself
    # failed, only the command-line flag is known, and if parsing failed, only
    # a well-formed --report on the malformed line
    command = report_path = None
    try:
        parser = _build_parser()
        try:
            args, unknown = parser.parse_known_args(argv)
            command = args.command
            if unknown:
                parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        except ConfigError:
            report_path = _report_flag(argv)
            raise
        report_path = args.report
        opts = _merge_config(args)
        report_path = opts["report"]
        # the finiteness checks raise typed errors; numpy's warnings would only precede their report
        with np.errstate(all="ignore"):
            return _HANDLERS[command](opts)
    except ValidationError as exc:
        _emit_error(command, report_path, exc)
        return 1
    except MinksurfError as exc:  # NumericalError and the rest
        _emit_error(command, report_path, exc)
        return 2
    except OSError as exc:
        _emit_error(command, report_path, exc)
        return 3


def _emit_error(command: str | None, report_path: str | None, exc: Exception) -> None:
    report = {
        "command": command,
        "status": "error",
        "error": type(exc).__name__,
        "message": str(exc),
    }
    # the error's own fields: where it failed, at how many nodes, what it measured against which tolerance
    if isinstance(exc, MinksurfError):
        report.update((k, v) for k, v in vars(exc).items() if v is not None)
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
