"""Span tracer for the traced benchmark run.

The tracer never edits the package.  It rebinds, in the namespace of
the calling module, the public functions that module calls into (for
example `causalkit.relate.dp2_margins` or `causalkit.flows.frames`), so
every call crossing a module boundary records a span: name, start, end
and parent.  Spans stay in memory and are written out when the run ends.
The wrappers are installed only around traced passes, so the untraced
passes of the same process run the package exactly as a user would.

If a later change renames or merges a wrapped function, the binding is
reported as missing and the metrics that depend on it read 0; the run
still completes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time

import numpy as np

# (module whose namespace is rebound, attribute, span name).  A name
# listed under several modules is one layer seen from several callers.
WRAPS = (
    ("causalkit.relate", "dp2_margins", "dp.margins"),
    ("causalkit.dp", "dp2_margins", "dp.margins"),
    ("causalkit.relate", "_dp2_margins_split", "dp.split"),
    ("causalkit.relate", "dp2_check", "dp.check"),
    ("causalkit.relate", "null_eigenvectors", "dp.eigen"),
    ("causalkit.flows", "null_quadratic_margins", "dp.quad"),
    ("causalkit.relate", "frames", "lorentz.frames"),
    ("causalkit.flows", "frames", "lorentz.frames"),
    ("causalkit.dp", "orthonormal_frame", "lorentz.frames"),
    ("causalkit.relate", "classify", "lorentz.classify"),
    ("causalkit.dp", "classify", "lorentz.classify"),
    ("causalkit.relate", "eval_expr", "exprcore.eval"),
    ("causalkit.relate", "eval_dual", "exprcore.eval"),
    ("causalkit.flows", "eval_expr", "exprcore.eval"),
    ("causalkit.flows", "eval_dual", "exprcore.eval"),
    ("causalkit.catalog", "eval_expr", "exprcore.eval"),
    ("causalkit.relate", "check_proper_causal", "relate.check"),
    ("causalkit.flows", "check_proper_causal", "relate.check"),
    ("causalkit.catalog", "check_proper_causal", "relate.check"),
    ("causalkit.catalog", "check_isomorphism", "relate.iso"),
    ("causalkit.relate", "check_conformal", "relate.conformal"),
    ("causalkit.catalog", "check_submonoid", "flows.submonoid"),
    ("causalkit.catalog", "builtin", "catalog.builtin"),
)

# Sampler classes are called through their instances, so their method
# is rebound on the class itself.
METHOD_WRAPS = (
    ("causalkit.relate", "RegionSampler", "points", "relate.sampler"),
    ("causalkit.relate", "UnionSampler", "points", "relate.sampler"),
)

# spans whose input batch size is recorded, and the one whose batches
# are kept so its grid-only pass can be replayed after the run
SIZED = ("dp.margins", "dp.quad")
CAPTURED = "dp.margins"

# a polished row counts as useful when polish lowered it by more than
# this share of the row's scale
USEFUL_REL = 1e-12


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self.rows = {}
        self.captured = []
        self.missing = []
        self._ids = itertools.count()
        self._main_ident = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._undo = []

    # -- span recording -------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread inherits the main thread's open span
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; the benchmark's own call sites use this."""
        sid, parent, stack = self._enter()
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))
        if name in SIZED:
            shape = np.shape(args[0])
            self.rows[sid] = (shape[0], shape[-1] - 1)
            if name == CAPTURED:
                self.captured.append((sid, args[0], out[0]))
        return out

    def _wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return traced

    # -- installing the wrappers ----------------------------------------

    def install(self):
        for modname, attr, name in WRAPS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self._note_missing(f"{modname}.{attr}")
                continue
            self._undo.append((mod, attr, fn))
            setattr(mod, attr, self._wrapper(fn, name))
        for modname, clsname, attr, name in METHOD_WRAPS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is None:
                self._note_missing(f"{modname}.{clsname}.{attr}")
                continue
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrapper(fn, name))

    def uninstall(self):
        while self._undo:
            obj, attr, fn = self._undo.pop()
            setattr(obj, attr, fn)

    def _note_missing(self, what):
        if what not in self.missing:
            self.missing.append(what)

    def reset_capture(self):
        self.captured = []

    def write(self, path):
        """Write every span as [id, name, start, end, parent], one per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _union_length(intervals):
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s[4], []).append(s)

    def named(self, name):
        """Spans called `name`, except those nested in another one."""
        return [s for s in self.spans if s[1] == name and not self._has_ancestor(s, name)]

    def _has_ancestor(self, span, name):
        parent = span[4]
        while parent is not None:
            p = self.by_id.get(parent)
            if p is None:
                return False
            if p[1] == name:
                return True
            parent = p[4]
        return False

    def total(self, name):
        return sum(s[3] - s[2] for s in self.named(name))

    def self_time(self, name):
        """Summed duration of `name` spans minus what their children cover."""
        total = 0.0
        for s in self.named(name):
            kids = [(c[2], c[3]) for c in self.children.get(s[0], ())]
            total += (s[3] - s[2]) - _union_length(kids)
        return total


def replay_grid(tracer, dp2_margins):
    """Time the grid-only search (`steps=0`) on the kept batches.

    Runs after the traced passes with the wrappers removed, so no span
    covers it.  Returns {span id: grid margins, seconds, row scales}.
    """
    out = {}
    for sid, That, _ in tracer.captured:
        That = np.asarray(That, dtype=float)
        start = time.perf_counter()
        grid = dp2_margins(That, steps=0)[0]
        out[sid] = {
            "grid": grid,
            "grid_s": time.perf_counter() - start,
            "scale": np.maximum(1.0, np.abs(That).max(axis=(1, 2))),
        }
    return out


def layer_metrics(tracer, traced_walls, untraced_walls, replay, tol, grid_points):
    """Per-layer metrics of the traced passes.

    Times and counts are per traced pass.  The grid/polish split comes
    from the one pass whose batches were kept and replayed.  A layer
    that did no work in the workload reads 0, and so does a ratio
    without a base.  `grid_points(d)` is the grid size on S^(d-1).
    """
    idx = SpanIndex(tracer.spans)
    passes = max(1, len(traced_walls))
    m = {}

    margins = idx.named("dp.margins")
    margins_s = sum(s[3] - s[2] for s in margins)
    rows = sum(tracer.rows[s[0]][0] for s in margins)
    m["dp.margins_s"] = margins_s / passes
    m["dp.margins_rows"] = rows / passes
    m["dp.rows_per_s"] = rows / margins_s if margins_s > 0 else 0.0

    grid_s = sum(r["grid_s"] for r in replay.values())
    kept_s = sum(s[3] - s[2] for s in margins if s[0] in replay)
    m["dp.grid_s"] = grid_s
    m["dp.polish_s"] = kept_s - grid_s
    useful = near_zero = kept_rows = 0
    for sid, _, full in tracer.captured:
        r = replay.get(sid)
        if r is None:
            continue
        full = np.asarray(full)
        kept_rows += len(full)
        useful += int(np.sum(full < r["grid"] - USEFUL_REL * r["scale"]))
        near_zero += int(np.sum(np.abs(full) <= tol * r["scale"]))
    m["dp.polish_useful_frac"] = useful / kept_rows if kept_rows else 0.0
    m["dp.near_zero_frac"] = near_zero / kept_rows if kept_rows else 0.0

    checks = idx.named("dp.check")
    m["dp.check_ms.p50"] = (statistics.median((s[3] - s[2]) * 1e3 for s in checks)
                            if checks else 0.0)
    m["dp.check_calls"] = len(checks) / passes
    m["dp.eigen_s"] = idx.total("dp.eigen") / passes
    quads = idx.named("dp.quad")
    m["dp.quad_s"] = idx.total("dp.quad") / passes
    m["dp.quad_rows"] = sum(tracer.rows[s[0]][0] for s in quads) / passes

    busy = capacity = 0.0
    temp = 0
    for split in idx.named("dp.split"):
        kids = [c for c in idx.children.get(split[0], ()) if c[1] == "dp.margins"]
        # the chunks of one split scan at the same time
        temp = max(temp, sum(_grid_bytes(tracer, c[0], grid_points) for c in kids))
        if len(kids) >= 2:
            busy += sum(c[3] - c[2] for c in kids)
            capacity += len(kids) * (split[3] - split[2])
    for s in margins:
        temp = max(temp, _grid_bytes(tracer, s[0], grid_points))
    m["dp.parallel_eff"] = busy / capacity if capacity > 0 else 0.0
    m["mem.grid_temp_mb"] = temp / 2**20

    m["lorentz.frames_s"] = idx.total("lorentz.frames") / passes
    m["lorentz.frames_calls"] = len(idx.named("lorentz.frames")) / passes
    m["lorentz.classify_s"] = idx.total("lorentz.classify") / passes

    m["exprcore.eval_s"] = idx.total("exprcore.eval") / passes
    m["exprcore.calls"] = len(idx.named("exprcore.eval")) / passes

    m["relate.check_s"] = idx.total("relate.check") / passes
    m["relate.checks"] = len(idx.named("relate.check")) / passes
    m["relate.self_s"] = idx.self_time("relate.check") / passes
    m["relate.sampler_s"] = idx.total("relate.sampler") / passes

    scans = idx.named("flows.submonoid")
    scan_ids = {s[0] for s in scans}
    inner = sum(1 for s in idx.named("relate.check") if s[4] in scan_ids)
    m["flows.submonoid_s"] = idx.total("flows.submonoid") / passes
    m["flows.checks_per_scan"] = inner / len(scans) if scans else 0.0
    m["flows.nullcone_s"] = idx.total("flows.nullcone") / passes

    m["catalog.builtin_s"] = idx.total("catalog.builtin") / passes
    m["catalog.scenario_self_s"] = idx.self_time("catalog.scenario") / passes

    m["trace.overhead_s"] = (statistics.fmean(traced_walls)
                             - statistics.fmean(untraced_walls))
    return m


def _grid_bytes(tracer, sid, grid_points):
    """Computed size of the (rows, grid, d) float64 scan temporary."""
    rows, d = tracer.rows[sid]
    return rows * grid_points(d) * d * 8
