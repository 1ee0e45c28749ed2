"""Outside-in span recorder for the per-layer metrics.

Each stage function is wrapped wherever a ``barlineage`` module (or the
package itself) binds it, so calls made through a ``from .x import f``
binding are seen too; ``counts`` is wrapped on ``ObservationTree``.
Nothing under ``src/`` is edited.  A span is ``[name, start, end,
parent, depth, note]``; spans stay in memory and are reduced to metrics
once per traced call.

Pool workers are traced by replacing the ``ProcessPoolExecutor`` that
``barlineage`` modules bind with a subclass whose tasks return their
spans alongside their result.  Workers forked from the traced process
inherit the wrapped functions; a worker started another way returns no
spans, and its stages then read 0.
"""

from __future__ import annotations

import functools
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from time import perf_counter

import numpy as np

# (module, attribute, where the call's tree depth comes from): an int is
# a positional argument index, "result" the returned tree, None the first
# argument with a ``depth`` attribute, else the enclosing span's depth
STAGES = (
    ("numerics", "replica_stream", None),
    ("numerics", "invert", None),
    ("numerics", "gaussian_pair", None),
    ("tree", "ObservationTree.counts", None),
    ("gw", "simulate_observation_tree", 1),
    ("gw", "estimate_reproduction", None),
    ("gw", "gw_mean_test", None),
    ("bar", "simulate_bar_values", 1),
    ("bar", "sufficient_stats", None),
    ("bar", "ls_estimate", None),
    ("bar", "residual_noise_estimates", None),
    ("bar", "asymptotic_covariance", None),
    ("bar", "estimate_bar", None),
    ("bar", "fixed_point_test", None),
    ("bar", "coefficient_test", None),
    ("mc", "run_replica", 2),
    ("lineage_io", "ingest", "result"),
)
# spans kept only for their self time
OUTER = (("mc", "run_table"), ("cli", "main"))
DEPTHS = (7, 9, 11)
POOL = "mc.pool"


def stage_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


def _depth_from(spec, args, result):
    if spec == "result":
        return getattr(result[0], "depth", None) if isinstance(result, tuple) else None
    if isinstance(spec, int):
        return args[spec] if len(args) > spec and isinstance(args[spec], int) else None
    for a in args:
        d = getattr(a, "depth", None)
        if isinstance(d, int):
            return d
    return None


def _note(name, result):
    """A small summary of a result the counters need."""
    if name == "mc.run_replica":
        return "used" if isinstance(result, float) else str(result)
    tree = result[0] if name == "lineage_io.ingest" else result
    if name in ("lineage_io.ingest", "gw.simulate_observation_tree"):
        return (int(np.count_nonzero(tree.delta)), tree.delta.size - 1)
    return None


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.pools: list = []  # [start, end, first worker span start]
        # a span with no depth of its own or from its parent (say a test
        # run on an estimate) takes the depth of the last span that had one
        self.recent_depth = None
        self._patches: list = []

    def wrap(self, name, fn, depth_spec=None, noted=False):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = rec.stack[-1] if rec.stack else -1
            depth = _depth_from(depth_spec, args, None) if depth_spec != "result" else None
            if depth is None and parent >= 0:
                depth = rec.spans[parent][4]
            if depth is None:
                depth = rec.recent_depth
            span = [name, 0.0, 0.0, parent, depth, None]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                rec.stack.pop()
            if depth_spec == "result":
                span[4] = _depth_from("result", args, result)
            if span[4] is not None:
                rec.recent_depth = span[4]
            if noted:
                span[5] = _note(name, result)
            return result

        return traced

    def install(self):
        """Wrap every stage at each place a barlineage module binds it."""
        import barlineage  # noqa: F401  (loads every submodule)

        global _ACTIVE
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "barlineage" or n.startswith("barlineage."))]
        specs = [(m, a, d) for m, a, d in STAGES] + [(m, a, None) for m, a in OUTER]
        for module, attr, depth_spec in specs:
            home = sys.modules.get(f"barlineage.{module}")
            if home is None:
                continue
            name = stage_name(module, attr)
            noted = name in ("mc.run_replica", "lineage_io.ingest",
                             "gw.simulate_observation_tree")
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._patch(cls, meth, self.wrap(name, vars(cls)[meth], depth_spec, noted))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original, depth_spec, noted)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, traced)
        pool_cls = _traced_pool(self)
        for m in mods:
            for key, val in list(vars(m).items()):
                if val is ProcessPoolExecutor:
                    self._patch(m, key, pool_cls)
        _ACTIVE = self

    def _patch(self, obj, key, value):
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self):
        global _ACTIVE
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()
        _ACTIVE = None

    def take(self):
        """Hand over and clear the recorded spans and pool records."""
        spans, pools = self.spans, self.pools
        self.spans, self.stack, self.pools = [], [], []
        return spans, pools


# the recorder a forked pool worker inherited from the traced process
_ACTIVE: Recorder | None = None


def _traced_task(fn, /, *args, **kwargs):
    rec = _ACTIVE
    if rec is None:
        return fn(*args, **kwargs), []
    rec.spans, rec.stack = [], []
    result = fn(*args, **kwargs)
    return result, rec.take()[0]


def _traced_pool(rec: Recorder):
    class TracedPool(ProcessPoolExecutor):
        """Counts pool start-ups and brings each task's spans home."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._bench_start = perf_counter()
            self._bench_parent = rec.stack[-1] if rec.stack else -1
            self._bench_spans: list = []

        def submit(self, fn, /, *args, **kwargs):
            inner = super().submit(_traced_task, fn, *args, **kwargs)
            outer = Future()

            def relay(f):
                if outer.cancelled():
                    return
                exc = f.exception()
                if exc is not None:
                    outer.set_exception(exc)
                    return
                result, spans = f.result()
                self._bench_spans.append(spans)
                outer.set_result(result)

            inner.add_done_callback(relay)
            return outer

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait=wait, **kwargs)
            if self._bench_start is None:
                return
            end = perf_counter()
            starts = [s[0][1] for s in self._bench_spans if s]
            rec.pools.append([self._bench_start, end, min(starts) if starts else None])
            rec.spans.append([POOL, self._bench_start, end, self._bench_parent, None, None])
            # a worker's roots get no parent: their time ran beside the
            # pool's, not inside it
            for spans in self._bench_spans:
                base = len(rec.spans)
                rec.spans.extend([n, s, e, p + base if p >= 0 else -1, d, note]
                                 for n, s, e, p, d, note in spans)
            self._bench_start = None

    return TracedPool


# ------------------------------------------------------------------ reduction

class Stats:
    """Per-layer metrics accumulated over traced calls."""

    def __init__(self):
        self.durations: dict = {}   # (stage, depth) -> [seconds]
        self.self_time: dict = {}   # stage -> seconds
        self.wall = 0.0
        self.calls: dict = {}       # stage -> number of calls
        self.used_replicas = 0
        self.replicas = 0
        self.per_used: dict = {}    # stage -> calls inside replicas that gave a p-value
        self.observed = [0, 0]
        self.pool_starts = 0
        self.pool_startup: list = []
        self.tables = 0
        self.files = 0

    def add(self, spans, pools, wall, tables=0, files=0):
        self.wall += wall
        self.tables += tables
        self.files += files
        self.pool_starts += len(pools)
        self.pool_startup += [first - start for start, _, first in pools if first is not None]
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, depth, note) in enumerate(spans):
            dur = end - start
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.durations.setdefault((name, depth), []).append(dur)
            if name == "mc.run_replica":
                self.replicas += 1
                self.used_replicas += note == "used"
            elif isinstance(note, tuple):
                self.observed[0] += note[0]
                self.observed[1] += note[1]
            while parent >= 0 and spans[parent][0] != "mc.run_replica":
                parent = spans[parent][3]
            if parent >= 0 and spans[parent][5] == "used":
                self.per_used[name] = self.per_used.get(name, 0) + 1

    def metrics(self, overhead_frac: float) -> dict:
        out = {}
        for module, attr, _ in STAGES:
            name = stage_name(module, attr)
            for d in DEPTHS:
                xs = self.durations.get((name, d), [])
                out[f"{name}.d{d}.us_p50"] = 1e6 * float(np.median(xs)) if xs else 0.0
            out[f"{name}.self_share"] = _ratio(self.self_time.get(name, 0.0), self.wall)
        for d in DEPTHS:
            xs = self.durations.get(("mc.run_replica", d), [])
            out[f"mc.run_replica.d{d}.us_p99"] = (
                1e6 * float(np.percentile(xs, 99)) if xs else 0.0)
        for module, attr in OUTER:
            name = stage_name(module, attr)
            out[f"{name}.self_share"] = _ratio(self.self_time.get(name, 0.0), self.wall)
        out["tree.counts.calls_per_replica"] = _ratio(
            self.per_used.get("tree.counts", 0), self.used_replicas)
        out["numerics.invert.calls_per_replica"] = _ratio(
            self.per_used.get("numerics.invert", 0), self.used_replicas)
        out["lineage_io.ingest.calls_per_file"] = _ratio(
            self.calls.get("lineage_io.ingest", 0), self.files)
        out["mc.pool_starts"] = _ratio(self.pool_starts, self.tables)
        out["mc.pool.startup_us_p50"] = (
            1e6 * float(np.median(self.pool_startup)) if self.pool_startup else 0.0)
        out["mc.used_frac"] = _ratio(self.used_replicas, self.replicas)
        out["tree.observed_frac"] = _ratio(*self.observed)
        out["trace.overhead_frac"] = overhead_frac
        return out


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0
