"""Span tracing of blindjam's layers from outside the package.

The tracer replaces public functions by timing wrappers at the module
attribute each caller looks up at run time (``experiments.rate_lower_bound``
is the name ``sweep_power`` resolves, ``receiver.nearest_index`` the one the
decoders resolve), so nothing under ``src/`` changes. Spans are kept in
memory; ``write`` dumps them as JSON lines once the run is over.

A sweep cell has no public function of its own. Both sweeps open every cell
with a call to ``default_budget``, so the tracer starts a cell span there and
ends it at the end of the last traced call made in it.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import threading
import time

# The eight layers are the package's modules. Each traced function belongs to
# the module that defines it, whichever module's attribute is wrapped.
LAYERS = ("streams", "channel", "schemes", "constellation", "receiver",
          "infometrics", "experiments", "cli")

# mixtures up to this many components are split out as "small": the size at
# which the seed's mixture_logpdf stops evaluating every component
SMALL_MIXTURE = 2048


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (attribute owner module, attribute, span name, work count of one call)
TRACED = (
    ("cli", "entrypoint", "cli.entrypoint", None),
    ("cli", "compare_schemes", "experiments.compare_schemes", None),
    ("experiments", "sweep_power", "experiments.sweep_power", None),
    ("experiments", "sweep_ser", "experiments.sweep_ser", None),
    ("experiments", "rate_lower_bound", "infometrics.rate_lower_bound", None),
    ("experiments", "estimate_ser", "receiver.estimate_ser",
     lambda a, k, r: r.trials),
    ("receiver", "estimate_eve_u_error", "receiver.estimate_eve_u_error",
     lambda a, k, r: r.trials),
    ("infometrics", "mixture_entropy", "infometrics.mixture_entropy",
     lambda a, k, r: len(_arg(a, k, 0, "spec"))),
    ("infometrics", "mixture_logpdf", "infometrics.mixture_logpdf",
     lambda a, k, r: _size(r)),
    ("receiver", "nearest_index", "constellation.nearest_index",
     lambda a, k, r: _size(r)),
    ("receiver", "enumerate_sum_lattice", "constellation.enumerate_sum_lattice",
     lambda a, k, r: len(r)),
    ("constellation", "enumerate_sum_lattice", "constellation.enumerate_sum_lattice",
     lambda a, k, r: len(r)),
    ("constellation", "fit_dmin_exponent", "constellation.fit_dmin_exponent", None),
    ("constellation", "min_distance", "constellation.min_distance", None),
    ("receiver", "encode", "schemes.encode", None),
    ("receiver", "sample_symbols", "schemes.sample_symbols", None),
    ("receiver", "legit_output", "channel.output", None),
    ("receiver", "eve_output", "channel.output", None),
) + tuple(
    (mod, "substream", "streams.substream", None)
    for mod in ("channel", "schemes", "constellation", "receiver", "infometrics")
) + (("experiments", "default_budget", "channel.default_budget", None),)

CELL_START = "channel.default_budget"
SWEEPS = ("experiments.sweep_power", "experiments.sweep_ser")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "thread",
                 "count", "size", "last_child_end")

    def __init__(self, sid, name, start, parent, run, thread):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.thread = thread
        self.count = None
        self.size = None
        self.last_child_end = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []
        self._open_cells: dict[int, Span] = {}
        self._sweep: Span | None = None
        self.run = 0

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # cells closed by their sweep on another thread linger here
        while stack and stack[-1].end is not None:
            stack.pop()
        return stack

    def _open(self, name, parent_id=None) -> Span:
        stack = self._stack()
        if parent_id is None and stack:
            parent_id = stack[-1].id
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(), parent_id,
                        self.run, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        stack = self._stack()
        while stack:
            top = stack.pop()
            if top is span:
                break
            self._close_cell(top)
        span.end = time.perf_counter()
        if span.parent is not None:
            with self._lock:
                parent = self.spans[span.parent]
                if parent.last_child_end is None or span.end > parent.last_child_end:
                    parent.last_child_end = span.end

    def _close_cell(self, cell: Span) -> None:
        with self._lock:
            self._open_cells.pop(cell.id, None)
        cell.end = cell.last_child_end if cell.last_child_end is not None else cell.start

    def _start_cell(self) -> None:
        stack = self._stack()
        if stack and stack[-1].name == "experiments.cell":
            self._close_cell(stack.pop())
        sweep = self._sweep
        cell = self._open("experiments.cell",
                          parent_id=sweep.id if sweep is not None else None)
        with self._lock:
            self._open_cells[cell.id] = cell

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself, around a block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _end_sweep(self, sweep: Span) -> None:
        self._sweep = None
        with self._lock:
            cells = [c for c in self._open_cells.values() if c.parent == sweep.id]
        for cell in cells:
            self._close_cell(cell)

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, func, name, count_fn):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if name == CELL_START:
                tracer._start_cell()
            with tracer.span(name) as span:
                if name in SWEEPS:
                    tracer._sweep = span
                try:
                    result = func(*args, **kwargs)
                finally:
                    if name in SWEEPS:
                        tracer._end_sweep(span)
            if count_fn is not None:
                span.count = count_fn(args, kwargs, result)
            if name == "infometrics.mixture_logpdf":
                span.size = len(_arg(args, kwargs, 1, "spec"))
            if name in ("receiver.estimate_ser", "receiver.estimate_eve_u_error"):
                span.size = _arg(args, kwargs, 2, "n_trials")
            if name in SWEEPS:
                span.size = kwargs.get("workers", 1)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every traced attribute; ``modules`` maps names to modules."""
        for mod_name, attr, name, count_fn in TRACED:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._patches.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, count_fn))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "run": s.run,
                                     "thread": s.thread, "count": s.count,
                                     "size": s.size}) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _quantile(values, q) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, max(0, round(q * (len(values) - 1))))]


def unit_metrics(spans: list[Span], root: Span, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced unit whose root span is ``root``."""
    spans = [s for s in spans if s.run == root.run and s is not root]
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))

    def total(name, attr="duration", pred=None):
        return sum(getattr(s, attr) or 0 for s in spans
                   if s.name == name and (pred is None or pred(s)))

    def count(name):
        return sum(1 for s in spans if s.name == name)

    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_s[s.layer] += s.duration - _covered(children.get(s.id, ()), s.start, s.end)
    wall = root.duration
    cells = [s.duration for s in spans if s.name == "experiments.cell"]
    logpdf_s = total("infometrics.mixture_logpdf")
    queries = total("infometrics.mixture_logpdf", "count")
    entropy_sizes = [s.count for s in spans if s.name == "infometrics.mixture_entropy"]
    ser_budget = total("receiver.estimate_ser", "size")
    # sweeps on the thread pool: their cells' busy time against the time the
    # pool's threads were there for
    pooled = {s.id: s for s in spans if s.name in SWEEPS and (s.size or 1) > 1}
    pooled_cells = sum(s.duration for s in spans
                       if s.name == "experiments.cell" and s.parent in pooled)
    pooled_capacity = sum(s.size * s.duration for s in pooled.values())
    m = {
        "infometrics.logpdf_s": logpdf_s,
        "infometrics.logpdf_queries": queries,
        "infometrics.queries_per_s": queries / logpdf_s if logpdf_s > 0 else 0.0,
        "infometrics.logpdf_s_small": total(
            "infometrics.mixture_logpdf", pred=lambda s: s.size <= SMALL_MIXTURE),
        "infometrics.logpdf_s_large": total(
            "infometrics.mixture_logpdf", pred=lambda s: s.size > SMALL_MIXTURE),
        "infometrics.entropy_calls": len(entropy_sizes),
        "infometrics.entropy_s": total("infometrics.mixture_entropy"),
        "infometrics.entropy_components_max": max(entropy_sizes, default=0),
        "infometrics.rate_bound_calls": count("infometrics.rate_lower_bound"),
        "infometrics.rate_bound_s": total("infometrics.rate_lower_bound"),
        "experiments.cells": len(cells),
        "experiments.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "experiments.cell_s_p90": _quantile(cells, 0.9),
        "experiments.cell_s_max": max(cells, default=0.0),
        "experiments.parallel_efficiency": (
            pooled_cells / pooled_capacity if pooled_capacity else 0.0),
        "receiver.ser_s": total("receiver.estimate_ser"),
        "receiver.ser_trials": total("receiver.estimate_ser", "count"),
        "receiver.ser_trial_ratio": (
            total("receiver.estimate_ser", "count") / ser_budget if ser_budget else 0.0),
        "receiver.eve_u_s": total("receiver.estimate_eve_u_error"),
        "receiver.eve_u_trials": total("receiver.estimate_eve_u_error", "count"),
        "constellation.nearest_s": total("constellation.nearest_index"),
        "constellation.nearest_queries": total("constellation.nearest_index", "count"),
        "constellation.enumerate_s": total("constellation.enumerate_sum_lattice"),
        "constellation.enumerate_calls": count("constellation.enumerate_sum_lattice"),
        "constellation.enumerate_points": total("constellation.enumerate_sum_lattice",
                                                "count"),
        "constellation.min_distance_s": total("constellation.min_distance"),
        "schemes.encode_s": total("schemes.encode"),
        "schemes.sample_symbols_s": total("schemes.sample_symbols"),
        "streams.substream_s": total("streams.substream"),
        "streams.substream_calls": count("streams.substream"),
        "channel.output_s": total("channel.output"),
        "cli.overhead_s": self_s["cli"],
        "trace.overhead_s": wall - untraced_wall_s,
        "trace.coverage": _covered(children.get(root.id, ()), root.start, root.end) / wall,
    }
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = self_s[layer]
    return m
