"""``ann-probe``: routed top-k over a memory-mapped clustered corpus.

``IndexSearchService.top_k(k=10, nprobe=8)`` over about 10^5 rows x 64
stages held in a ``BitPlaneStore`` built during set-up.  The closed
loop interleaves single-query requests (latency) with 64-query batches
(throughput).

Why: routing, shard mapping and the prune/refine cascade dominate here,
and ``quality`` (recall@10 against the exhaustive oracle) exposes a
speed-up that trades away accuracy.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from perfbench.common import (
    Outcome,
    autotune_record,
    Rounds,
    clustered_levels,
    layer_values,
    overhead,
    peak_rss_mb,
    percentile_ms,
    perturbed_queries,
    scratch_dir,
    timed_setup,
)
from perfbench.oracle import (
    HammingOracle,
    describe_mismatch,
    recall_at_k,
    routed_top_k,
)
from perfbench.tracer import Tracer, n_queries
from repro.core.config import TDAMConfig
from repro.core.kernels import clear_autotune_cache
from repro.index.cluster_index import ClusteredTDAMIndex
from repro.index.service import IndexSearchService

STAGES = 64
K = 10
NPROBE = 8
CORPUS_NOISE = 0.25
QUERY_NOISE = 0.15
DEADLINE_S = 10.0
CORPUS_SEED = 1


def params(smoke: bool) -> Dict[str, int]:
    return {
        "rows": 3000 if smoke else 100_000,
        "stages": STAGES,
        "clusters": 16 if smoke else 128,
        "k": K,
        "nprobe": NPROBE,
        "batch": 16 if smoke else 64,
        "pool": 64 if smoke else 256,
    }


class _Loop(Rounds):
    """Routed top-k calls, scored against the routed oracle."""

    name = "ann-probe"

    def __init__(self, service, pool, want, batch, outcome) -> None:
        super().__init__(pool.shape[0], batch, outcome)
        self.service = service
        self.pool = pool
        self.want = want
        self.first_batch_rows = np.full_like(want, -2)

    def call(self, lo: int, n: int, single: bool):
        return np.asarray(self.service.top_k(self.pool[lo:lo + n], K).rows)

    def score(self, rows: np.ndarray, lo: int, single: bool) -> None:
        want = self.want[lo:lo + rows.shape[0]]
        for i in np.flatnonzero((rows != want).any(axis=1)):
            self.outcome.fail(describe_mismatch(
                f"ann-probe {'single' if single else 'batch'}", lo + int(i),
                rows[i].tolist(), want[i].tolist(),
            ))
        if not single:
            first = self.first_batch_rows[lo:lo + rows.shape[0]]
            unset = first[:, 0] == -2
            first[unset] = rows[unset]


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    p = params(smoke)
    config = TDAMConfig(n_stages=STAGES)
    # One fixed corpus and index, as a deployment serves one; the seed
    # draws the queries.
    corpus = clustered_levels(
        p["rows"], STAGES, config.levels, p["clusters"], CORPUS_NOISE,
        np.random.default_rng(CORPUS_SEED),
    ).astype(np.uint8)
    pool = perturbed_queries(corpus, p["pool"], config.levels,
                             QUERY_NOISE, np.random.default_rng(seed))
    build_times: List[float] = []

    with scratch_dir(f"ann-{seed}") as root:
        def build() -> IndexSearchService:
            # Autotune, clustering, packing and the store publish are all
            # set-up work: each repeat starts cold in a fresh directory.
            clear_autotune_cache()
            path = root / f"store-{len(build_times)}"
            start = time.perf_counter()
            index = ClusteredTDAMIndex.build(
                path, corpus, config, n_clusters=p["clusters"],
                nprobe=NPROBE, seed=CORPUS_SEED,
            )
            build_times.append(time.perf_counter() - start)
            service = IndexSearchService(
                index, default_deadline_s=DEADLINE_S, nprobe=NPROBE
            )
            service.top_k(pool[:1], K)
            service.top_k(pool[:p["batch"]], K)
            return service

        service, setup_s, setup_times = timed_setup(build, lambda s: None)
        index = service.index
        store = index.store
        row_cluster = np.empty(p["rows"], dtype=np.int64)
        for s, cluster in enumerate(store.shard_clusters):
            row_cluster[np.asarray(store.shard(s).row_ids)] = cluster
        oracle = HammingOracle(corpus)
        want, exact = routed_top_k(
            oracle, row_cluster, store.centroid_levels, pool, K, NPROBE
        )
        outcome = Outcome(record={
            "params": p, "setup_times_s": setup_times,
            "store_build_s": build_times,
        })
        loop = _Loop(service, pool, want, p["batch"], outcome)

        if not trace:
            singles, _, batched, batch_busy = loop.run(seconds)
            recall = recall_at_k(loop.first_batch_rows, exact)
            outcome.e2e = {
                "setup_s": setup_s,
                "p50_ms": loop.p50_ms(),
                "qps": loop.qps(),
                "quality": recall,
                "peak_rss_mb": peak_rss_mb(),
            }
            outcome.record.update({
                "autotune": autotune_record(),
                "all_p50_ms": percentile_ms(loop.single_s, 50),
                "all_qps": batched / batch_busy,
                "p95_ms": percentile_ms(loop.single_s, 95),
                "p99_ms": percentile_ms(loop.single_s, 99),
                "singles": singles,
                "batches": len(loop.batch_s),
                "recall_at_10": recall,
                "batch_p50_ms": percentile_ms(loop.batch_s, 50),
            })
            return outcome

        a = loop.run(seconds / 2)
        tracer = Tracer()
        probed = {"rows": 0, "queries": 0, "calls": 0, "attempts": 0}

        def note_probe(response) -> None:
            probed["rows"] += int(response.rows_probed)
            probed["queries"] += int(np.asarray(response.rows).shape[0])
            probed["calls"] += 1
            probed["attempts"] += int(response.attempts)

        tracer.wrap(service, "top_k", "service", items=n_queries,
                    observe=note_probe)
        tracer.wrap(index, "top_k", "index.probe", items=n_queries)
        tracer.wrap(index, "_route_masks", "index.route")
        b = loop.run(seconds / 2)
        st = tracer.stats
        n_q = max(1, st("service").items)
        busy_b = b[1] + b[3]
        self_sum = sum(
            st(name).self_ns for name in
            ("service", "index.probe", "index.route")
        ) / 1e9
        per_query = probed["rows"] / max(1, probed["queries"])
        outcome.layers = layer_values({
            "service.self_us_per_query": st("service").self_ns / 1e3 / n_q,
            "service.attempts_per_call":
                probed["attempts"] / max(1, probed["calls"]),
            "index.route_us": st("index.route").self_ns / 1e3 / n_q,
            "index.probe_us": st("index.probe").self_ns / 1e3 / n_q,
            "index.rows_probed_per_query": per_query,
            "index.useful_frac": K / per_query if per_query else 0.0,
            "store.build_s": float(np.median(build_times)),
            "trace.overhead_frac": overhead(
                (a[1] + a[3]) / (a[0] + a[2]), busy_b / (b[0] + b[2])
            ),
            "trace.unattributed_frac": 1.0 - self_sum / busy_b,
        })
        return outcome
