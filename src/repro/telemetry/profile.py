"""Profiling hooks: an opt-in probe registry at fixed instrumentation
points.

The array / resilience / Monte Carlo code calls
:func:`emit_probe(event, **payload)` at its probe points; payloads are
plain dicts of scalars.  Nothing happens (one dict lookup) unless a
hook was registered for that event -- registering is the opt-in.  This
is the software analog of the waveform probes a hardware evaluation
would attach: per-stage mismatch counts, TDC sense margins in LSBs,
cache hits, repair actions, refresh debt, Monte Carlo shard timings.

The probe-point catalog (:data:`PROBE_EVENTS`) is closed by default --
registering or emitting an undeclared event raises, which turns typos
into errors instead of silent dead probes.  Extensions declare their own
points with :func:`declare_probe_event`.

Hook failures are contained: a raising hook is logged (with the package
logger) and skipped, never allowed to break a search.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Tuple

from repro.telemetry.log import get_logger

Hook = Callable[..., None]

#: The probe-point catalog: event name -> payload description.
PROBE_EVENTS: Dict[str, str] = {
    "array.search": (
        "one scalar search served: rows, stages, best_row, "
        "min/max mismatches, latency_s, energy_j"
    ),
    "array.search_batch": (
        "one batched search served: rows, stages, queries, "
        "min/max mismatches, latency_s (slowest), energy_j (total)"
    ),
    "array.write_all": "full-array program: rows, stages",
    "kernel.autotune": (
        "kernel or query-chunk decision autotuned: key (geometry), "
        "winner, per-candidate best seconds; kind=chunk for chunk-size "
        "decisions, traced=True when quarantined"
    ),
    "mvm.matmul": (
        "one bit-serial MVM product served: kernel, n_out, n_in, "
        "n_batch, weight_bits, activation_bits, modeled latency_s and "
        "energy_j"
    ),
    "mvm.encode": (
        "one in-fabric HDC encode served: n_samples, dimension, "
        "weight_bits, activation_bits, modeled latency_s and energy_j"
    ),
    "topk.ranked": "count-ranked top-k served: rows, queries, k",
    "cache.threshold": (
        "threshold/level-table cache event: op in "
        "{hit, rebuild, invalidate}"
    ),
    "tdc.decode": (
        "one TDC decode: n values, min/mean sense margin in LSBs "
        "(0.5 = ideal center, 0 = on a decision boundary)"
    ),
    "resilience.bist": (
        "BIST completed: n_rows, dead_rows, faulty_cells, n_writes"
    ),
    "resilience.repair": (
        "repair plan applied: masked_stages, remapped_rows, retired_rows"
    ),
    "resilience.refresh": (
        "refresh executed: rows_rewritten, age_s cleared, refresh_debt "
        "(age/interval at trigger time)"
    ),
    "resilience.recalibrated": (
        "replica TDC recalibrated after drift exceeded the margin"
    ),
    "mc.run": "Monte Carlo run finished: n_runs, workers, elapsed_s",
    "mc.shard": (
        "one Monte Carlo shard finished: shard, trials, elapsed_s, worker"
    ),
    "mc.fallback_serial": (
        "sharding fell back to serial: requested workers, reason"
    ),
    "experiment.run": "one experiment runner finished: name, elapsed_s",
    "service.request": (
        "one serving-layer request finished: outcome in "
        "{ok, degraded, deadline, rejected, unavailable}, shard, "
        "attempts, elapsed_s"
    ),
    "service.retry": (
        "one retry scheduled: shard, attempt, backoff_s, reason"
    ),
    "service.breaker": (
        "circuit breaker transition: shard, from_state, to_state, reason"
    ),
    "service.deadline_miss": (
        "a request ran out of deadline: elapsed_s, deadline_s, attempts"
    ),
    "service.checkpoint": (
        "checkpoint activity: op in {save, restore, reject}, trigger, path"
    ),
    "chaos.scenario": (
        "one chaos scenario finished: name, requests, deadline_hit_rate, "
        "wrong_unflagged, passed"
    ),
    "service.admission": (
        "front-end admission decision: outcome in {admitted, "
        "shed_queue_full, shed_queue_deadline, shed_quota, "
        "shed_draining}, tenant, queue_depth, retry_after_s"
    ),
    "coalesce.flush": (
        "one coalesced batch dispatched: kind in {search, topk}, size, "
        "reason in {full, window, drain}, waited_s, shed_stale"
    ),
    "frontend.request": (
        "one front-end request finished: outcome in {ok, degraded, "
        "deadline, unavailable, error}, tenant, elapsed_s, batch_size"
    ),
    "frontend.drain": (
        "front-end drained: pending requests flushed at shutdown"
    ),
    "partition.gather": (
        "partitioned scatter/gather merged: queries, partitions_searched, "
        "partitions_skipped, coverage, elapsed_s"
    ),
    "index.route": (
        "coarse-quantizer routing decided: queries, nprobe, clusters "
        "(distinct clusters touched by the batch)"
    ),
    "index.probe": (
        "clustered-index probe served: queries, k, nprobe, rows_probed, "
        "rows_total, candidates (keys kept in the candidate grid: "
        "min(k, shard rows) per probed (query, shard) pair)"
    ),
    "net.frame": (
        "one wire frame processed: direction in {in, out}, type "
        "(message type), bytes (payload size)"
    ),
    "net.drain": (
        "socket server drained: connections notified (GOAWAY), "
        "in-flight requests finished, elapsed_s"
    ),
    "net.fault": (
        "one injected wire fault fired: kind in {disconnect, truncate, "
        "corrupt_length, bit_flip, stall}, direction, offset"
    ),
}

_lock = threading.Lock()
_hooks: Dict[str, Tuple[Hook, ...]] = {}
_log = get_logger(__name__)


def declare_probe_event(event: str, description: str) -> None:
    """Add a probe point to the catalog (idempotent for equal text)."""
    with _lock:
        existing = PROBE_EVENTS.get(event)
        if existing is not None and existing != description:
            raise ValueError(
                f"probe event {event!r} already declared: {existing!r}"
            )
        PROBE_EVENTS[event] = description


def register_probe(event: str, hook: Hook) -> Hook:
    """Attach ``hook`` to a cataloged probe point; returns the hook.

    Hooks are called as ``hook(event, **payload)`` in registration
    order.  Unknown events raise ``ValueError`` (see
    :func:`declare_probe_event`).
    """
    if event not in PROBE_EVENTS:
        raise ValueError(
            f"unknown probe event {event!r}; declare it first "
            f"(known: {sorted(PROBE_EVENTS)})"
        )
    with _lock:
        _hooks[event] = _hooks.get(event, ()) + (hook,)
    return hook


def unregister_probe(event: str, hook: Hook) -> None:
    """Detach one previously registered hook (no-op if absent)."""
    with _lock:
        current = _hooks.get(event, ())
        remaining = tuple(h for h in current if h is not hook)
        if remaining:
            _hooks[event] = remaining
        else:
            _hooks.pop(event, None)


def clear_probes() -> None:
    """Detach every hook (the catalog itself is untouched)."""
    with _lock:
        _hooks.clear()


def active_probe_events() -> Tuple[str, ...]:
    """Events that currently have at least one hook attached."""
    with _lock:
        return tuple(sorted(_hooks))


def emit_probe(event: str, **payload: Any) -> None:
    """Fire the hooks of ``event`` with ``payload``.

    Cheap when dormant: one dict lookup and out.  Unknown events raise
    so an instrumentation typo cannot create a probe point nobody can
    subscribe to.  A raising hook is logged and skipped.
    """
    hooks = _hooks.get(event)
    if hooks is None:
        if event not in PROBE_EVENTS:
            raise ValueError(f"unknown probe event {event!r}")
        return
    for hook in hooks:
        try:
            hook(event, **payload)
        except Exception:
            _log.warning(
                "probe hook failed", exc_info=True,
                extra={"event": event, "hook": repr(hook)},
            )


class ProbeRecorder:
    """A list-backed hook for tests and notebooks.

    Instances are callable with the hook signature and remember every
    ``(event, payload)`` they see::

        rec = ProbeRecorder()
        register_probe("mc.fallback_serial", rec)
        ...
        assert rec.events() == ["mc.fallback_serial"]
    """

    def __init__(self) -> None:
        self.records: List[Tuple[str, Dict[str, Any]]] = []
        self._lock = threading.Lock()

    def __call__(self, event: str, **payload: Any) -> None:
        with self._lock:
            self.records.append((event, payload))

    def events(self) -> List[str]:
        """The observed event names, in order."""
        with self._lock:
            return [event for event, _ in self.records]

    def payloads(self, event: str) -> List[Dict[str, Any]]:
        """Payloads recorded for one event, in order."""
        with self._lock:
            return [p for e, p in self.records if e == event]

    def clear(self) -> None:
        with self._lock:
            self.records.clear()
