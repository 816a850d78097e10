"""Benchmark-side tracing: spans around calls into the pipeline's layers.

Wrappers are installed over public functions and methods of the
pipeline from this file; no file under ``src/`` changes.  Spans (id,
parent id, name, start, end) stay in memory and are reduced once, when
the traced pass ends.  A span's layer is its name up to the first dot,
and the layer names are the pipeline's module names.

The observability context of :mod:`repro.obs` is never enabled here:
enabling it forces the interpreter fallback, and the trace would then
describe a different, slower program.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float]  # (id, parent id, name, start, end)


def _ir_instructions(module) -> int:
    return sum(
        len(block.instrs)
        for func in module.functions.values()
        for block in func.blocks.values()
    )


class Tracer:
    """In-memory span and counter recorder (thread-aware parents)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None):
        """``fn`` wrapped so every call records one span named ``name``;
        ``after(tracer, result)`` runs outside the span."""
        clock, spans, ids = self.clock, self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable):
        """``fn`` wrapped to count its calls only (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _count_ir(tracer: Tracer, module) -> None:
    tracer.counts["ir.instructions"] += _ir_instructions(module)


#: (module, attribute path, span or counter name, kind, after hook).
TARGETS = (
    ("repro.api", "AnalysisSession.analyze", "api.analyze", "span", None),
    ("repro.driver", "compile_program", "lang.compile", "span", _count_ir),
    ("repro.interp.codegen", "compile_module_codegen",
     "interp.codegen_compile", "span", None),
    ("repro.core.instrument", "build_observe_module",
     "instrument.observe_build", "span", None),
    ("repro.core.instrument", "build_test_module",
     "instrument.test_build", "span", None),
    ("repro.core.payload", "outline_payload", "payload.outline", "span", None),
    ("repro.core.schedule_engine", "SerialScheduleEngine.run",
     "schedule_engine.run", "span", None),
    ("repro.core.schedule_engine", "ProcessScheduleEngine.run",
     "schedule_engine.run", "span", None),
    ("repro.core.liveout", "capture", "liveout.capture", "span", None),
    ("repro.core.liveout", "snapshot_digest", "liveout.digest", "span", None),
    ("repro.core.liveout", "snapshots_equal", "liveout.compare", "span", None),
    ("repro.analysis.commutativity", "StaticCommutativityAnalysis.analyze",
     "analysis.static", "span", None),
    ("repro.analysis.defuse", "ReachingDefs.__init__",
     "analysis.defuse_builds", "count", None),
    ("repro.analysis.loops", "build_loop_forest",
     "analysis.loop_forest_builds", "count", None),
    ("repro.analysis.liveness", "Liveness.__init__",
     "analysis.liveness_builds", "count", None),
    ("repro.analysis.sccdag", "build_sccdag", "sccdag.build", "span", None),
    ("repro.cache.store", "AnalysisCache.lookup", "cache.lookup", "span", None),
    ("repro.cache.store", "AnalysisCache.store", "cache.store", "span", None),
    ("repro.cache.store", "AnalysisCache.register_module",
     "cache.register", "span", None),
    ("repro.batch", "run_batch", "batch.run", "span", None),
    ("repro.obs.ledger", "RunLedger.record", "ledger.record", "span", None),
)


def install(tracer: Tracer, layers: Optional[Iterable[str]] = None) -> None:
    """Wrap every target (or those whose layer is in ``layers``).

    Module-level functions are also rebound wherever a ``repro`` module
    imported them by name, so call sites see the wrapper."""
    wanted = set(layers) if layers is not None else None
    replaced: Dict[int, Callable] = {}
    for modname, path, name, kind, after in TARGETS:
        if wanted is not None and name.split(".")[0] not in wanted:
            continue
        module = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        if kind == "span":
            wrapped = tracer.span(name, original, after)
        else:
            wrapped = tracer.counter(name, original)
        setattr(owner, attr, wrapped)
        if not owner_name:
            replaced[id(original)] = wrapped
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None and wrapped is not value:
                setattr(module, attr, wrapped)


# -- reduction ----------------------------------------------------------------


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float,
                   hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(
        (max(s, lo), min(e, hi)) for s, e in intervals
    ):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ms(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus the part of its
    interval covered by its child spans, summed by layer."""
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(
        list
    )
    for _sid, parent, _name, start, end in spans:
        children[parent].append((start, end))
    out: Dict[str, float] = collections.Counter()
    for sid, _parent, name, start, end in spans:
        own = (end - start) - covered_length(children.get(sid, ()), start, end)
        out[name.split(".")[0]] += own * 1000.0
    return dict(out)


def summarize(tracer: Tracer) -> Dict[str, object]:
    """Totals per span name (ms and calls), counters and layer self time."""
    total_ms: Dict[str, float] = collections.Counter()
    calls: Dict[str, int] = collections.Counter()
    for _sid, _parent, name, start, end in tracer.spans:
        total_ms[name] += (end - start) * 1000.0
        calls[name] += 1
    return {
        "total_ms": dict(total_ms),
        "calls": dict(calls),
        "counts": dict(tracer.counts),
        "self_ms": self_times_ms(tracer.spans),
        "spans": len(tracer.spans),
    }
