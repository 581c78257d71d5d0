"""In-memory span tracer that wraps minksurf's public functions from outside.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each traced
function wherever a ``minksurf`` module binds it (``minksurf.frames.residual``
as well as ``minksurf.natural.residual``), so calls made inside the library
are caught too; ``Tracer.uninstall`` puts every original back.

A span records its name, start, end, parent span and op id.  Its self time is
its duration minus the time covered by its child spans.  Counters (spline
evaluations, ``p_mul`` and ``lorentz_inner`` calls, file bytes) add no span:
they count against the innermost open span, and their time stays in it.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field

# span name -> (module that defines the function, attribute name).  The span
# name's prefix is the layer; each span's self time becomes `<name>_s`.
SPANS = {
    "frames.integrate_frame": ("minksurf.frames", "integrate_frame"),
    "frames.coefficient_matrices": ("minksurf.frames", "coefficient_matrices"),
    "frames.integrate_position": ("minksurf.frames", "integrate_position"),
    "frames.compatibility_residual": ("minksurf.frames", "compatibility_residual"),
    "jets.jet_manufacture": ("minksurf.jets", "jet_manufacture"),
    "natural.solve_goursat_hyperbolic": ("minksurf.natural", "solve_goursat_hyperbolic"),
    "natural.residual": ("minksurf.natural", "residual"),
    "minkowski.gram_residual": ("minksurf.minkowski", "gram_residual"),
    "analysis.geometric_frame": ("minksurf.analysis", "geometric_frame"),
    "analysis.frame_functions": ("minksurf.analysis", "frame_functions"),
    "analysis.invariants": ("minksurf.analysis", "invariants"),
    "canonical.canonicalize": ("minksurf.canonical", "canonicalize"),
    "io.read_immersion_csv": ("minksurf.io", "read_immersion_csv"),
    "io.write_field_csv": ("minksurf.io", "write_field_csv"),
    "io.write_immersion_csv": ("minksurf.io", "write_immersion_csv"),
    "io.write_report": ("minksurf.io", "write_report"),
    "cli.run": ("minksurf.cli", "run"),
}
# methods are wrapped on their class: span name -> (module, class, method)
METHOD_SPANS = {
    "fields.scalarfield_init": ("minksurf.fields", "ScalarField", "__post_init__"),
    "analysis.resample": ("minksurf.analysis", "Immersion", "resample"),
}
# counters: counter name -> (module, owner class or None, attribute)
COUNTERS = {
    "spline_evals": ("scipy.interpolate", "RectBivariateSpline", "__call__"),
    "p_mul_calls": ("minksurf.jets", None, "p_mul"),
    "lorentz_inner_calls": ("minksurf.minkowski", None, "lorentz_inner"),
}
# io spans also count the bytes of the file named by their path argument
READS = {"io.read_immersion_csv"}
WRITES = {"io.write_field_csv", "io.write_immersion_csv", "io.write_report"}

ROOT_SPAN = "op"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    child_time: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """Records spans for ops run between ``install`` and ``uninstall``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        op = self.spans[parent].op if parent is not None else -1
        self.spans.append(Span(name, time.perf_counter(), parent, op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.end - span.start

    def count(self, name: str, n: int = 1) -> None:
        if self._stack:
            counts = self.spans[self._stack[-1]].counts
            counts[name] = counts.get(name, 0) + n

    def op(self, op_id: int, fn, *args):
        """Run one op under a root span with the given op id."""
        idx = self._open(ROOT_SPAN)
        self.spans[idx].op = op_id
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- patching ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if name in READS or name in WRITES:
                    path = args[0] if name in READS else args[1]
                    key = "bytes_read" if name in READS else "bytes_written"
                    if os.path.exists(path):
                        tracer.count(key, os.path.getsize(path))
                tracer._close(idx)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapped) -> None:
        """Point every minksurf module attribute bound to `original` at `wrapped`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "minksurf" or modname.startswith("minksurf.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, original, True))
                    setattr(mod, attr, wrapped)

    def _patch_class(self, cls, attr: str, wrapped) -> None:
        self._restore.append((cls, attr, cls.__dict__.get(attr), attr in cls.__dict__))
        setattr(cls, attr, wrapped)

    def install(self) -> None:
        for name, (modname, attr) in SPANS.items():
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self._span_wrapper(name, original))
        for name, (modname, clsname, attr) in METHOD_SPANS.items():
            cls = getattr(sys.modules[modname], clsname)
            self._patch_class(cls, attr, self._span_wrapper(name, getattr(cls, attr)))
        for name, (modname, clsname, attr) in COUNTERS.items():
            mod = sys.modules[modname]
            if clsname is None:
                original = getattr(mod, attr)
                self._rebind(original, self._count_wrapper(name, original))
            else:
                cls = getattr(mod, clsname)
                self._patch_class(cls, attr, self._count_wrapper(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        for owner, attr, original, present in reversed(self._restore):
            if present:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def per_op(self) -> dict[int, dict[str, float]]:
        """Self seconds per span name and counts per (layer, counter), per op."""
        out: dict[int, dict[str, float]] = {}
        for span in self.spans:
            acc = out.setdefault(span.op, {})
            acc[span.name] = acc.get(span.name, 0.0) + span.self_time
            acc[span.name + "#calls"] = acc.get(span.name + "#calls", 0) + 1
            layer = span.name.split(".")[0]
            for counter, n in span.counts.items():
                key = f"{layer}#{counter}"
                acc[key] = acc.get(key, 0) + n
        return out

    def records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "self": s.self_time, "counts": s.counts}
            for s in self.spans
        ]
