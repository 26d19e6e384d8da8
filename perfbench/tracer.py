"""Span timing from outside the program, by wrapping public entry points.

The benchmark never edits ``src/``: a traced run replaces a method on a
live object with a timing shim that records one span per call.  Spans
nest per thread, so a layer's *self* time is its span minus the spans
of deeper layers that ran inside it on the same thread.  Work that hops
threads (the coalescing front end hands batches to a dispatcher thread)
is attributed by the caller from the per-layer totals.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np


@dataclass
class LayerStats:
    """Aggregate of every span recorded for one layer."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    items: int = 0
    #: Sum of span x items: time that each work unit spent inside.
    item_ns: int = 0


class Tracer:
    """Collects per-layer span statistics; ``enabled`` gates recording."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.layers: Dict[str, LayerStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def stats(self, layer: str) -> LayerStats:
        return self.layers.get(layer, LayerStats())

    def record(self, layer: str, span_ns: int, self_ns: Optional[int] = None,
               items: int = 1) -> None:
        """Add one span (its self time defaults to the whole span)."""
        with self._lock:
            stats = self.layers.setdefault(layer, LayerStats())
            stats.calls += 1
            stats.total_ns += span_ns
            stats.self_ns += span_ns if self_ns is None else self_ns
            stats.items += items
            stats.item_ns += span_ns * items

    def count(self, layer: str, items: int) -> None:
        """Count one event carrying ``items`` units (no time)."""
        with self._lock:
            stats = self.layers.setdefault(layer, LayerStats())
            stats.calls += 1
            stats.items += items

    def wrap(
        self,
        obj,
        method: str,
        layer: str,
        items: Optional[Callable] = None,
        observe: Optional[Callable] = None,
    ) -> None:
        """Replace ``obj.method`` with a shim recording ``layer`` spans.

        ``items(args, kwargs)`` counts the work units of one call
        (queries, samples); ``observe(result)`` sees each result.
        """
        inner = getattr(obj, method)
        tracer = self

        def shim(*args, **kwargs):
            if not tracer.enabled:
                return inner(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = inner(*args, **kwargs)
            finally:
                span = time.perf_counter_ns() - start
                child = stack.pop()
                if stack:
                    stack[-1] += span
            if observe is not None:
                observe(result)
            n = items(args, kwargs) if items is not None else 1
            tracer.record(layer, span, span - child, n)
            return result

        setattr(obj, method, shim)


def n_queries(args, kwargs) -> int:
    """Rows in the first argument (a query, query batch or feature batch)."""
    first = args[0] if args else next(iter(kwargs.values()))
    shape = np.shape(first)
    return int(shape[0]) if len(shape) == 2 else 1


def no_items(args, kwargs) -> int:
    """For layers whose work units are counted by the layer above."""
    return 0


def instrument_resilient(tracer: Tracer, array) -> None:
    """Wrap one ``ResilientTDAMArray`` and the arrays beneath it.

    The resilient layer is the logical view (``search*``, ``top_k_batch``,
    ``write_all``); the array layer is the physical ``FastTDAMArray`` and
    its fault-injection wrapper, reached through the resilient array's
    attributes.
    """

    def note_degraded(result) -> None:
        tracer.count("resilient.degraded", int(bool(result.degraded)))

    for method in ("search", "search_batch", "top_k_batch"):
        tracer.wrap(array, method, "resilient", items=n_queries,
                    observe=note_degraded)
    tracer.wrap(array, "write_all", "resilient.write")
    for method in (
        "mismatch_count_batch", "mismatch_matrix", "mismatch_tensor",
        "batch_result_from_mismatch_counts", "result_from_mismatch_matrix",
        "top_k_batch",
    ):
        tracer.wrap(array._physical, method, "array", items=no_items)
    for method in (
        "faulted_mismatch_matrix", "faulted_mismatch_tensor",
        "mismatch_count_batch",
    ):
        tracer.wrap(array._backing, method, "array", items=no_items)
    tracer.wrap(array._physical, "write", "array.write")
    tracer.wrap(array._physical, "invalidate_threshold_cache", "array.write")


def instrument_service(tracer: Tracer, service) -> None:
    """Wrap a ``TDAMSearchService`` and every replica behind it."""

    def note_attempts(result) -> None:
        first = result[0] if isinstance(result, list) else result
        tracer.count("service.attempts", int(first.attempts))

    for method in ("search", "search_batch", "top_k"):
        tracer.wrap(service, method, "service", items=n_queries,
                    observe=note_attempts)
    tracer.wrap(service, "write_all", "service.write")
    for shard in service.shards:
        instrument_resilient(tracer, shard.array)


def stack_layers(st: Callable[[str], LayerStats], n_queries: int,
                 rows: int) -> Dict[str, float]:
    """Per-query figures of the service -> resilient -> array stack,
    from the layers :func:`instrument_service` records."""
    n = max(1, n_queries)
    array_s = st("array").self_ns / 1e9
    attempts = st("service.attempts")
    degraded = st("resilient.degraded")
    return {
        "service.attempts_per_call": attempts.items / max(1, attempts.calls),
        "resilient.self_us_per_query": st("resilient").self_ns / 1e3 / n,
        "resilient.degraded_frac": degraded.items / max(1, degraded.calls),
        "array.us_per_query": st("array").self_ns / 1e3 / n,
        "array.row_queries_per_s": rows * n / array_s if array_s else 0.0,
    }
