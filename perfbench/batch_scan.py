"""``batch-scan``: large batched scans beside periodic reprogramming.

One closed-loop caller sends 64-query ``search_batch`` and
``top_k(k=10)`` calls, alternating, to a ``TDAMSearchService`` over two
4096 x 128 ``ResilientTDAMArray`` replicas.  Every 16 batches a full
``write_all`` reprograms the replicas with the other of two matrices.

Why: at this size the array kernels and the resilient logical view
dominate, and the net and front-end layers are absent.  The writes sit
inside the timed loop, so a cache that speeds search by slowing
reprogramming shows in ``qps``.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from perfbench.common import (
    Outcome,
    autotune_record,
    host_scale,
    layer_values,
    overhead,
    peak_rss_mb,
    percentile_ms,
    perturbed_queries,
    timed_setup,
)
from perfbench.oracle import HammingOracle, describe_mismatch
from perfbench.tracer import Tracer, instrument_service, stack_layers
from repro.core.config import TDAMConfig
from repro.core.kernels import clear_autotune_cache
from repro.resilience.resilient import ResilientTDAMArray
from repro.service.errors import ServiceError
from repro.service.server import TDAMSearchService

STAGES = 128
REPLICAS = 2
K = 10
WRITE_EVERY = 16
QUERY_NOISE = 0.25
#: Generous: the first calls autotune, and no call may miss.
DEADLINE_S = 10.0


def params(smoke: bool) -> Dict[str, int]:
    return {
        "rows": 96 if smoke else 4096,
        "stages": STAGES,
        "replicas": REPLICAS,
        "batch": 8 if smoke else 64,
        "k": K,
        "write_every_batches": WRITE_EVERY,
    }


class _Loop:
    """The closed loop and its scoring, shared by both trace phases."""

    def __init__(self, service, mats, pools, want_d, want_top, batch,
                 outcome: Outcome) -> None:
        self.service = service
        self.mats = mats
        self.pools = pools
        self.want_d = want_d
        self.want_best = [np.argmin(d, axis=1) for d in want_d]
        self.want_top = want_top
        self.batch = batch
        self.outcome = outcome
        self.epoch = 0
        self.search_s: List[float] = []
        self.topk_s: List[float] = []
        self.write_s: List[float] = []
        self.fabric: List[tuple] = []
        #: Search-call and busy times at the quiet-host speed (see
        #: :func:`host_scale`), and the queries they served.
        self.search_norm: List[float] = []
        self.busy_norm = 0.0
        self.queries = 0

    def run(self, duration_s: float) -> tuple:
        """Loop for ``duration_s``; returns (queries, busy seconds)."""
        queries = 0
        busy = 0.0
        end = time.perf_counter() + duration_s
        while time.perf_counter() < end:
            m = self.epoch % 2
            if self.epoch > 0:
                scale = host_scale()
                start = time.perf_counter()
                self.service.write_all(self.mats[m])
                took = time.perf_counter() - start
                self.write_s.append(took)
                self.busy_norm += took * scale
                busy += took
            for b in range(WRITE_EVERY):
                lo = b * self.batch
                qs = self.pools[m][lo:lo + self.batch]
                scale = host_scale()
                start = time.perf_counter()
                try:
                    if b % 2 == 0:
                        answer = self.service.search_batch(qs)
                    else:
                        answer = self.service.top_k(qs, K)
                except ServiceError as exc:
                    self.outcome.attempted += qs.shape[0]
                    self.outcome.fail(f"batch-scan error: {exc!r}")
                    continue
                took = time.perf_counter() - start
                busy += took
                queries += qs.shape[0]
                self.busy_norm += took * scale
                self.queries += qs.shape[0]
                if b % 2 == 0:
                    self.search_s.append(took)
                    self.search_norm.append(took * scale)
                    self._score_search(answer, m, lo)
                else:
                    self.topk_s.append(took)
                    self._score_top_k(answer, m, lo)
            self.epoch += 1
        return queries, busy

    def p50_ms(self) -> float:
        """Median ``search_batch`` latency at the quiet-host speed, ms."""
        return percentile_ms(self.search_norm, 50)

    def qps(self) -> float:
        """Queries per second of search, top-k and write time, at the
        quiet-host speed."""
        return self.queries / self.busy_norm

    def _score_search(self, responses, m: int, lo: int) -> None:
        self.outcome.attempted += len(responses)
        for i, r in enumerate(responses):
            if self.epoch < 2:
                self.fabric.append((r.result.latency_s, r.result.energy_j))
            if r.degraded:
                continue
            want = self.want_d[m][lo + i]
            if (
                r.best_row != self.want_best[m][lo + i]
                or not np.array_equal(r.result.hamming_distances, want)
            ):
                self.outcome.fail(describe_mismatch(
                    f"batch-scan search m{m}", lo + i, r.best_row,
                    int(self.want_best[m][lo + i]),
                ))

    def _score_top_k(self, response, m: int, lo: int) -> None:
        rows = np.asarray(response.rows)
        self.outcome.attempted += rows.shape[0]
        if response.degraded:
            return
        want = self.want_top[m][lo:lo + rows.shape[0]]
        for i in np.flatnonzero((rows != want).any(axis=1)):
            self.outcome.fail(describe_mismatch(
                f"batch-scan top-k m{m}", lo + int(i), rows[i].tolist(),
                want[i].tolist(),
            ))


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    p = params(smoke)
    config = TDAMConfig(n_stages=STAGES)
    rng = np.random.default_rng(seed)
    mats = [
        rng.integers(0, config.levels, (p["rows"], STAGES)) for _ in range(2)
    ]
    pools = [
        perturbed_queries(
            mat, p["batch"] * WRITE_EVERY, config.levels, QUERY_NOISE, rng
        )
        for mat in mats
    ]
    oracles = [HammingOracle(mat) for mat in mats]
    want_d = [o.distances(pool) for o, pool in zip(oracles, pools)]
    want_top = [o.rank(d, K) for o, d in zip(oracles, want_d)]

    def build() -> TDAMSearchService:
        # Autotune and level tables are set-up work: start them cold.
        clear_autotune_cache()
        service = TDAMSearchService(
            [ResilientTDAMArray(config, p["rows"]) for _ in range(REPLICAS)],
            default_deadline_s=DEADLINE_S,
        )
        service.write_all(mats[0])
        service.search_batch(pools[0][:p["batch"]])
        service.top_k(pools[0][:p["batch"]], K)
        return service

    service, setup_s, setup_times = timed_setup(build, lambda s: None)
    outcome = Outcome(record={"params": p, "setup_times_s": setup_times})
    loop = _Loop(service, mats, pools, want_d, want_top, p["batch"], outcome)

    if not trace:
        queries, busy = loop.run(seconds)
        fab = np.asarray(loop.fabric)
        outcome.e2e = {
            "setup_s": setup_s,
            "p50_ms": loop.p50_ms(),
            "qps": loop.qps(),
            "quality": 1.0 - outcome.failed / max(1, outcome.attempted),
            "peak_rss_mb": peak_rss_mb(),
        }
        outcome.record.update({
            "autotune": autotune_record(),
            "all_p50_ms": percentile_ms(loop.search_s, 50),
            "all_qps": queries / busy,
            "p95_ms": percentile_ms(loop.search_s, 95),
            "p99_ms": percentile_ms(loop.search_s, 99),
            "search_calls": len(loop.search_s),
            "topk_p50_ms": percentile_ms(loop.topk_s, 50),
            "topk_p99_ms": percentile_ms(loop.topk_s, 99),
            "topk_calls": len(loop.topk_s),
            "write_p50_ms": percentile_ms(loop.write_s, 50),
            "writes": len(loop.write_s),
            "fabric_ns_per_query": float(fab[:, 0].mean() * 1e9),
            "fabric_pj_per_query": float(fab[:, 1].mean() * 1e12),
        })
        return outcome

    q_a, busy_a = loop.run(seconds / 2)
    fab = np.asarray(loop.fabric)
    tracer = Tracer()
    instrument_service(tracer, service)
    q_b, busy_b = loop.run(seconds / 2)
    st = tracer.stats
    self_sum = sum(
        st(name).self_ns for name in (
            "service", "service.write", "resilient", "resilient.write",
            "array", "array.write",
        )
    ) / 1e9
    outcome.layers = layer_values({
        **stack_layers(st, st("resilient").items, p["rows"]),
        "service.self_us_per_query":
            st("service").self_ns / 1e3 / max(1, st("service").items),
        "array.write_ms":
            st("array.write").self_ns / 1e6 / max(1, st("service.write").calls),
        "fabric.search_ns_per_query": float(fab[:, 0].mean() * 1e9),
        "trace.overhead_frac": overhead(busy_a / q_a, busy_b / q_b),
        "trace.unattributed_frac": 1.0 - self_sum / busy_b,
    })
    return outcome
