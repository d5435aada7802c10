"""Span tracing of legsynth's public functions, installed from outside.

`install` replaces each traced function at every name a legsynth module
binds it to (modules import functions by name, so `legsynth.nsga2.sweep`
and `legsynth.synthesis.sweep` are wrapped along with
`legsynth.fourbar.sweep`).  Each wrapper records one span per call.
Spans are kept per thread, so self time (a span's duration minus that of
the spans it encloses) stays correct under the scan's thread pool; the
per-call times there include waiting for the interpreter lock.
"""

import functools
import os
import sys
import threading
import time
from collections import Counter

# module.function (or module.Class.method) inside the legsynth package
LAYERS = (
    "lptau.lp_tau",
    "fourbar.sweep",
    "fourbar.gait_metrics",
    "synthesis.assemble",
    "synthesis.solve",
    "synthesis.reduced_objective",
    "search.scan",
    "search.pareto_filter",
    "search.write_sampling_table",
    "nsga2.evaluate_leg",
    "nsga2.fast_nondominated_sort",
    "nsga2.crowding_distance",
    "nsga2.hypervolume_2d",
    "nsga2.evolve",
    "slam.predict",
    "slam.observe",
    "slam.correct",
    "slam.update_map",
    "slam.simulate",
    "slam.plan_path",
    "slam.write_run_log",
    "slam.write_grid_pgm",
    "svgplot.SvgPlot.write",
    "cli.main",
)


def _bytes_written(position):
    def probe(args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[position]
        return {"bytes": os.path.getsize(path)}
    return probe


# Counters read from each call's arguments or result, after its span ends.
PROBES = {
    "synthesis.solve": lambda a, k, r: {"rank_deficient": int(bool(r.rank_deficient))},
    "search.scan": lambda a, k, r: {"attempted": len(r),
                                    "assemblable": sum(bool(x.feasible) for x in r)},
    "search.pareto_filter": lambda a, k, r: {"n_in": len(a[0]), "n_out": len(r)},
    "search.write_sampling_table": _bytes_written(1),
    "slam.write_run_log": _bytes_written(1),
    "slam.write_grid_pgm": _bytes_written(1),
    "svgplot.SvgPlot.write": _bytes_written(1),
    "slam.observe": lambda a, k, r: {"rays": len(r.rays),
                                     "hits": sum(bool(x.hit) for x in r.rays)},
    "slam.correct": lambda a, k, r: {"skipped": int(bool(r.skipped))},
    "slam.plan_path": lambda a, k, r: {"cells": len(r)},
}


class Tracer:
    """Per-thread span statistics: calls, time_s, self_s and probe counters."""

    def __init__(self):
        self._local = threading.local()
        self._tables = []
        self._lock = threading.Lock()

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "table"):
            local.table, local.stack = {}, []
            with self._lock:
                self._tables.append(local.table)
        return local.table, local.stack

    def wrap(self, name, fn, probe=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            table, stack = self._thread_state()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                stat = self._close(name, table, stack, start)
                stat["raised." + type(err).__name__] += 1
                raise
            stat = self._close(name, table, stack, start)
            if probe is not None:
                try:
                    stat.update(probe(args, kwargs, result))
                except (AttributeError, TypeError, LookupError, OSError):
                    # the call's signature or result changed: keep the
                    # span, lose only the counters
                    stat["probe_failed"] += 1
            return result
        return span

    @staticmethod
    def _close(name, table, stack, start):
        elapsed = time.perf_counter() - start
        enclosed = stack.pop()
        if stack:
            stack[-1] += elapsed
        stat = table.setdefault(name, Counter())
        stat["calls"] += 1
        stat["time_s"] += elapsed
        stat["self_s"] += elapsed - enclosed
        return stat

    def summary(self):
        """{layer: {stat: total}} over all threads, plus `threads`, the
        number of distinct threads that called the layer."""
        with self._lock:
            tables = list(self._tables)
        merged = {}
        for table in tables:
            for name, stat in table.items():
                total = merged.setdefault(name, Counter())
                total.update(stat)
                total["threads"] += 1
        return {name: dict(stat) for name, stat in merged.items()}


def install(tracer):
    """Wrap every layer in LAYERS; returns the layers that were not found."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "legsynth" or n.startswith("legsynth.")]
    missing = []
    for layer in LAYERS:
        module_name, _, attr = layer.partition(".")
        module = sys.modules.get(f"legsynth.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(method) if isinstance(owner, type) else None
            if not callable(original):
                missing.append(layer)
                continue
            setattr(owner, method, tracer.wrap(layer, original, PROBES.get(layer)))
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            missing.append(layer)
            continue
        wrapped = tracer.wrap(layer, original, PROBES.get(layer))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing
