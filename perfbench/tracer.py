"""Outside-in tracer for ftrot's layers.

The tracer wraps public functions of the package by rebinding every
module attribute that holds them, so a call reaches the wrapper
whichever module it is made from (``schemes.get_code`` and
``codes.get_code`` alike).  Nothing in ``src/`` changes.

Two kinds of record are kept in memory and written out at the end:

* spans, for calls that happen a few times per operation: name, start,
  end and the index of the enclosing span;
* leaf aggregates, for hot calls (about sixty thousand ``analytics``
  calls per planning pass): per (enclosing span, name) a call count,
  the summed duration and the summed self time.  Recording a span per
  hot call would cost more than the work it measures.

A span's self time is its duration minus its child spans and minus the
self time of the leaves directly under it (see `self_times`).  The
generator ``iter_plans`` is a leaf whose iteration is timed, because
creating a generator runs none of its body.

The tracer is meant for single-threaded callers: mcsim's worker
threads only reach the progress hook, which appends a timestamp.
"""

from __future__ import annotations

import json
import sys
import time
from statistics import median
from typing import Callable

from measure import percentile

perf = time.perf_counter

SPANS = (
    ("cli", "main"),
    ("schemes", "scaffold_optimize"),
    ("schemes", "simulate_walk"),
    ("codes", "get_code"),
    ("bench", "pareto_report"),
    ("bench", "pareto_front"),
    ("bench", "rs_curve"),
    ("bench", "coh_curve"),
    ("mcsim", "estimate"),
)


def self_times(spans: list, leaves: dict) -> list[float]:
    """Self time of each span: duration minus child span durations minus
    the self time of leaf aggregates whose parent it is.

    `spans` holds (name, start, end, parent) with parent -1 at the root;
    `leaves` maps (parent, name) to (calls, total_s, self_s).
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    for (parent, _), (_, _, leaf_self) in leaves.items():
        if parent >= 0:
            own[parent] -= leaf_self
    return own


class Tracer:
    """Context manager that installs the wrappers on entry and restores
    the original functions on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list] = {}
        self.plans = 0
        self.front_in = 0
        self.front_out = 0
        self.walks: list[tuple[float, int]] = []
        self.mc_calls: list[tuple[int, float, list[float]]] = []
        # child time of each open call, above a root entry nothing reads
        self._frames: list[float] = [0.0]
        self._top = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _span(self, name: str, fn: Callable, args, kwargs):
        parent = self._top
        rec = [name, 0.0, 0.0, parent]
        self._top = len(self.spans)
        self.spans.append(rec)
        self._frames.append(0.0)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            self._frames.pop()
            self._top = parent
            rec[1], rec[2] = start, end
            self._frames[-1] += end - start

    # -- wrappers ------------------------------------------------------

    def _wrap_span(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return wrapper

    def _wrap_leaf(self, name: str, fn: Callable) -> Callable:
        frames, leaves = self._frames, self.leaves

        def wrapper(*args, **kwargs):
            frames.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                child = frames.pop()
                key = (self._top, name)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
                frames[-1] += dur

        return wrapper

    def _wrap_iteration(self, name: str, fn: Callable) -> Callable:
        timed_next = self._wrap_leaf(name, next)

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = timed_next(gen)
                except StopIteration:
                    return
                self.plans += 1
                yield item

        return wrapper

    def _wrap_pareto_front(self, fn: Callable) -> Callable:
        def wrapper(points):
            points = list(points)
            front = self._span("bench.pareto_front", fn, (points,), {})
            self.front_in += len(points)
            self.front_out += len(front)
            return front

        return wrapper

    def _wrap_simulate_walk(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            start = perf()
            stats = self._span("schemes.simulate_walk", fn, args, kwargs)
            steps = round(stats.mean_steps * stats.n_walks)
            self.walks.append((perf() - start, steps))
            return stats

        return wrapper

    def _wrap_estimate(self, fn: Callable) -> Callable:
        def wrapper(*args, progress=None, **kwargs):
            marks: list[float] = []

            def hook(done: int, total: int) -> None:
                marks.append(perf())
                if progress is not None:
                    progress(done, total)

            start = perf()
            stats = self._span("mcsim.estimate", fn, args, dict(kwargs, progress=hook))
            self.mc_calls.append((kwargs.get("threads", 1), start, marks))
            return stats

        return wrapper

    # -- installation --------------------------------------------------

    def _rebind(self, original: object, wrapper: object) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ftrot" and not mod_name.startswith("ftrot."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def __enter__(self) -> "Tracer":
        from ftrot import analytics, bench, cli, codes, mcsim, schemes

        mods = {
            "analytics": analytics,
            "bench": bench,
            "cli": cli,
            "codes": codes,
            "mcsim": mcsim,
            "schemes": schemes,
        }
        special = {
            "bench.pareto_front": self._wrap_pareto_front,
            "schemes.simulate_walk": self._wrap_simulate_walk,
            "mcsim.estimate": self._wrap_estimate,
        }
        for mod_name, attr in SPANS:
            name = f"{mod_name}.{attr}"
            fn = getattr(mods[mod_name], attr)
            wrap = special.get(name)
            self._rebind(fn, wrap(fn) if wrap else self._wrap_span(name, fn))
        leaves = [f"analytics.{attr}" for attr in analytics.__all__
                  if callable(getattr(analytics, attr))
                  and not isinstance(getattr(analytics, attr), type)]
        leaves.append("schemes.walk_expected_steps")
        for name in leaves:
            mod_name, attr = name.split(".")
            fn = getattr(mods[mod_name], attr)
            self._rebind(fn, self._wrap_leaf(name, fn))
        fn = schemes.iter_plans
        self._rebind(fn, self._wrap_iteration("schemes.iter_plans", fn))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def summary(self, ops: int) -> dict[str, float]:
        """Per-layer figures; counts and times are per operation unless
        the name says otherwise."""
        own = self_times(self.spans, self.leaves)

        def leaf_sum(prefix: str, field: int) -> float:
            return sum(v[field] for (_, n), v in self.leaves.items() if n.startswith(prefix))

        def span_values(name: str, values: list[float]) -> list[float]:
            return [v for rec, v in zip(self.spans, values) if rec[0] == name]

        durations = [end - start for _, start, end, _ in self.spans]
        intervals = []
        batches = []
        for threads, start, marks in self.mc_calls:
            batches.append(len(marks))
            if threads == 1:
                edges = [start] + marks
                intervals += [b - a for a, b in zip(edges, edges[1:])]
        walk_s = sum(w[0] for w in self.walks)
        cli_self = span_values("cli.main", own)
        get_code_self = span_values("codes.get_code", own)
        bench_self = sum(v for rec, v in zip(self.spans, own) if rec[0].startswith("bench."))
        plan_self = leaf_sum("schemes.iter_plans", 2) + leaf_sum("schemes.walk_expected_steps", 2)
        walk_ms = [v * 1e3 for v in span_values("schemes.simulate_walk", durations)]
        return {
            "mcsim.batch_ms_p50": percentile(intervals, 500) * 1e3 if intervals else 0.0,
            "mcsim.batch_ms_p90": percentile(intervals, 900) * 1e3 if intervals else 0.0,
            "mcsim.batches": median(batches) if batches else 0,
            "analytics.calls": leaf_sum("analytics.", 0) / ops,
            "analytics.self_ms": leaf_sum("analytics.", 2) * 1e3 / ops,
            "analytics.success_rate.self_ms": leaf_sum("analytics.success_rate", 2) * 1e3 / ops,
            "schemes.plans": self.plans / ops,
            "schemes.plan_self_us": plan_self * 1e6 / self.plans if self.plans else 0.0,
            "schemes.walk_ms_p50": median(walk_ms) if walk_ms else 0.0,
            "schemes.walk_steps_per_s": sum(w[1] for w in self.walks) / walk_s if walk_s else 0.0,
            "bench.self_ms": bench_self * 1e3 / ops,
            "bench.front_ratio": self.front_out / self.front_in if self.front_in else 0.0,
            "codes.get_code.calls": len(get_code_self) / ops,
            "codes.get_code.self_ms": sum(get_code_self) * 1e3 / ops,
            "cli.self_ms_p50": median(cli_self) * 1e3 if cli_self else 0.0,
        }

    def dump(self, path) -> None:
        """Write every span (with its self time) and leaf aggregate."""
        own = self_times(self.spans, self.leaves)
        data = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "self": o}
                for (n, s, e, p), o in zip(self.spans, own)
            ],
            "leaves": [
                {"parent": p, "name": n, "calls": c, "total": t, "self": o}
                for (p, n), (c, t, o) in self.leaves.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
