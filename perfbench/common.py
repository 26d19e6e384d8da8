"""Shared pieces of the workloads: inputs, timing statistics, results."""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent

#: Seed kept out of every tuning run: a later claim is re-checked on it.
HELD_OUT_SEED = 90210

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The per-layer metrics every traced run prints, with their units.
#: A layer that a workload never crosses reads 0.
LAYER_METRICS: Dict[str, str] = {
    "net.client_call_us": "us",
    "net.transport_us": "us",
    "frontend.self_us": "us",
    "frontend.batch_size_mean": "count",
    "admission.shed_frac": "frac",
    "service.self_us_per_query": "us",
    "service.attempts_per_call": "count",
    "resilient.self_us_per_query": "us",
    "resilient.degraded_frac": "frac",
    "array.us_per_query": "us",
    "array.row_queries_per_s": "1/s",
    "array.write_ms": "ms",
    "index.route_us": "us",
    "index.probe_us": "us",
    "index.rows_probed_per_query": "count",
    "index.useful_frac": "frac",
    "store.build_s": "s",
    "hdc.encode_us_per_sample": "us",
    "mvm.matmul_us": "us",
    "fabric.search_ns_per_query": "ns",
    "fabric.encode_ns_per_query": "ns",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}

#: The end-to-end metrics every untraced run prints, with their units.
E2E_METRICS: Dict[str, str] = {
    "setup_s": "s",
    "p50_ms": "ms",
    "qps": "1/s",
    "quality": "frac",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """What one workload run measured and how its answers scored."""

    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: Workload parameters and workload-specific figures (not gated).
    record: Dict[str, Any] = field(default_factory=dict)

    def fail(self, line: str) -> None:
        self.failed += 1
        self.mismatches.append(line)


class Rounds:
    """A closed loop over a query pool: ``batch`` single requests, then
    one request for the same ``batch`` rows, round after round.

    Subclasses serve rows ``lo:lo + n`` in :meth:`call` and check the
    answer in :meth:`score`; only the call is timed.  The host reference
    is timed before each round, and the round's times are also kept
    stated at the quiet-host speed (see :func:`host_scale`).
    """

    name = "rounds"

    def __init__(self, pool_size: int, batch: int, outcome: Outcome) -> None:
        self.pool_size = pool_size
        self.batch = batch
        self.outcome = outcome
        self.single_s: List[float] = []
        self.batch_s: List[float] = []
        #: The same times, stated at the quiet-host speed.
        self.single_norm: List[float] = []
        self.batch_norm: List[float] = []
        self.cursor = 0
        self.scale = 1.0

    def call(self, lo: int, n: int, single: bool):
        raise NotImplementedError

    def score(self, answer, lo: int, single: bool) -> None:
        raise NotImplementedError

    def _timed(self, lo: int, n: int, single: bool, times: List[float],
               norm: List[float]):
        from repro.service.errors import ServiceError

        start = time.perf_counter()
        try:
            answer = self.call(lo, n, single)
        except ServiceError as exc:
            self.outcome.attempted += n
            self.outcome.fail(f"{self.name} error: {exc!r}")
            return None
        took = time.perf_counter() - start
        times.append(took)
        norm.append(took * self.scale)
        self.outcome.attempted += n
        self.score(answer, lo, single)
        return answer

    def run(self, duration_s: float) -> Tuple[int, float, int, float]:
        """Loop for ``duration_s``; returns (singles, their busy s,
        batched rows, their busy s)."""
        singles, batches = len(self.single_s), len(self.batch_s)
        end = time.perf_counter() + duration_s
        while time.perf_counter() < end:
            lo = self.cursor % self.pool_size
            self.scale = host_scale()
            for i in range(lo, lo + self.batch):
                self._timed(i, 1, True, self.single_s, self.single_norm)
            self._timed(lo, self.batch, False, self.batch_s, self.batch_norm)
            self.cursor += self.batch
        return (
            len(self.single_s) - singles, sum(self.single_s[singles:]),
            (len(self.batch_s) - batches) * self.batch,
            sum(self.batch_s[batches:]),
        )

    def p50_ms(self) -> float:
        """Median single-request latency at the quiet-host speed, ms."""
        return percentile_ms(self.single_norm, 50)

    def qps(self) -> float:
        """Batched rows per second of busy time at the quiet-host speed."""
        busy = float(np.sum(self.batch_norm))
        return len(self.batch_norm) * self.batch / busy


#: Time the reference work of :func:`reference_s` takes on a quiet host
#: (about its 10th percentile on the 2-vCPU cloud VM the bounds were set
#: on).  Only the scale of the normalized figures depends on it.
REFERENCE_S = 0.6e-3

_REFERENCE: List[np.ndarray] = []


def reference_s() -> float:
    """Time one fixed piece of reference work, the benchmark's own: many
    small numpy calls (compare, row sums, argsort) on 64 x 64 level
    matrices.  Per-call overhead of this kind dominates the workloads'
    single requests, and it slows with the host as they do."""
    if not _REFERENCE:
        rng = np.random.default_rng(0)
        _REFERENCE.extend(
            rng.integers(0, 4, (64, 64), dtype=np.uint8) for _ in range(16)
        )
    start = time.perf_counter()
    for _ in range(4):
        for levels in _REFERENCE:
            np.argsort((levels != levels[0]).sum(axis=1))[:10]
    return time.perf_counter() - start


def host_scale() -> float:
    """The factor that states a time measured now at the quiet-host speed.

    A shared host's speed drifts by up to 1.7x in phases of one to thirty
    seconds as other tenants come and go, so a run's wall-clock figures
    move with the share of it that fell in slow phases.  A time
    multiplied by ``REFERENCE_S / reference_s()``, with the reference
    timed just before, is in units of the reference work and does not.
    Preemption only ever adds time, so the fastest of three timings is
    the best estimate of the host's speed at that moment.
    """
    return REFERENCE_S / min(reference_s() for _ in range(3))


def percentile_ms(samples_s: List[float], q: float) -> float:
    """The ``q``-th percentile of second-valued samples, in ms."""
    return float(np.percentile(np.asarray(samples_s), q)) * 1e3


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or its reaped children), MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_setup(build: Callable[[], Any], teardown: Callable[[Any], None],
                repeats: int = SETUP_REPEATS) -> Tuple[Any, float, List[float]]:
    """Build ``repeats`` times; keep the last, report the median time.

    Each earlier build is torn down and collected before the next one
    starts, so two never hold memory at once and the peak RSS is that
    of one build.
    """
    times: List[float] = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
    return state, statistics.median(times), times


def perturbed_queries(stored: np.ndarray, n: int, levels: int,
                      noise: float, rng: np.random.Generator) -> np.ndarray:
    """Queries near random stored rows: each stage re-drawn w.p. ``noise``."""
    base = stored[rng.integers(0, stored.shape[0], size=n)]
    flip = rng.random(base.shape) < noise
    fresh = rng.integers(0, levels, size=base.shape)
    return np.where(flip, fresh, base).astype(np.int64)


def clustered_levels(n_rows: int, n_stages: int, levels: int,
                     n_clusters: int, noise: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Rows near random cluster centers: each stage re-drawn w.p. ``noise``."""
    centers = rng.integers(0, levels, (n_clusters, n_stages))
    return perturbed_queries(centers, n_rows, levels, noise, rng)


@contextmanager
def scratch_dir(name: str) -> Iterator[Path]:
    """A private directory inside the checkout, removed on exit."""
    path = ROOT / ".perfbench_tmp" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass


def autotune_record() -> Dict[str, Any]:
    """This process's kernel and query-chunk autotune decisions: which
    kernel served each geometry (they can differ from run to run)."""
    from repro.core.kernels import autotune_decisions, chunk_decisions

    return {
        "kernels": {repr(k): v for k, v in autotune_decisions().items()},
        "chunks": {repr(k): v for k, v in chunk_decisions().items()},
    }


def layer_values(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 for the layers a workload never crosses."""
    unknown = set(values) - set(LAYER_METRICS)
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    out = {name: 0.0 for name in LAYER_METRICS}
    out.update({k: float(v) for k, v in values.items()})
    return out


def overhead(untraced_s: float, traced_s: float) -> float:
    """Relative cost of tracing on the same work (traced / untraced - 1)."""
    return traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
