"""``hdc-classify``: encode-then-search classification on the fabric.

``EncodeSearchService`` with the in-fabric quantized encoder
(``build_pipeline(..., fabric=True)``) over the ISOLET-shaped synthetic
set of ``repro.datasets``: 617 features, 26 classes, D = 2048 stages, a 2-bit model on
two replicas.  The closed loop interleaves single-sample requests
(latency) with 64-sample batches (throughput).

Why: the encode stage (``repro.hdc`` and the bit-serial MVM of
``repro.core.mvm``) does about half the work and the array little (26
rows); without this workload that layer would go unmeasured.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from perfbench.common import (
    Outcome,
    autotune_record,
    Rounds,
    layer_values,
    overhead,
    peak_rss_mb,
    percentile_ms,
    timed_setup,
)
from perfbench.oracle import HammingOracle, describe_mismatch
from perfbench.tracer import (
    Tracer,
    instrument_service,
    n_queries,
    stack_layers,
)
from repro.core.config import TDAMConfig
from repro.core.kernels import clear_autotune_cache, force_kernel
from repro.datasets.synthetic import make_isolet_like
from repro.hdc.encoder import RandomProjectionEncoder
from repro.hdc.model import HDCClassifier
from repro.hdc.pipeline import build_pipeline
from repro.resilience.resilient import ResilientTDAMArray
from repro.service.encode import EncodeSearchService
from repro.service.server import TDAMSearchService

CLASSES = 26
BITS = 2
REPLICAS = 2
EPOCHS = 3
DATA_SEED = 1
DEADLINE_S = 10.0


def params(smoke: bool) -> Dict[str, int]:
    return {
        "classes": CLASSES,
        "dimension": 256 if smoke else 2048,
        "bits": BITS,
        "replicas": REPLICAS,
        "train": 260 if smoke else 1560,
        "epochs": EPOCHS,
        "batch": 16 if smoke else 64,
        "pool": 64 if smoke else 768,
    }


class _Loop(Rounds):
    """Encode-then-search calls, scored against the oracle."""

    name = "hdc-classify"

    def __init__(self, endpoint, pool, want_d, batch, outcome) -> None:
        super().__init__(pool.shape[0], batch, outcome)
        self.endpoint = endpoint
        self.pool = pool
        self.want_d = want_d
        self.want_best = np.argmin(want_d, axis=1)
        self.first_batch_best = np.full(pool.shape[0], -2)
        self.fabric: Dict[int, tuple] = {}

    def call(self, lo: int, n: int, single: bool):
        if single:
            return [self.endpoint.search(self.pool[lo])]
        return self.endpoint.search_batch(self.pool[lo:lo + n])

    def score(self, responses, lo: int, single: bool) -> None:
        for i, r in enumerate(responses):
            self.fabric.setdefault(
                lo + i, (r.result.latency_s, r.result.energy_j)
            )
            if not single and self.first_batch_best[lo + i] == -2:
                self.first_batch_best[lo + i] = r.best_row
            if r.degraded:
                continue
            if (
                r.best_row != self.want_best[lo + i]
                or not np.array_equal(
                    r.result.hamming_distances, self.want_d[lo + i]
                )
            ):
                self.outcome.fail(describe_mismatch(
                    f"hdc-classify {'single' if single else 'batch'}",
                    lo + i, r.best_row, int(self.want_best[lo + i]),
                ))


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    p = params(smoke)
    # One fixed dataset and model, as ISOLET is one dataset: the seed
    # draws the order the test samples are sent in.  Encoder seeds alone
    # move accuracy by several points, which no 5% bound would hold.
    data = make_isolet_like(
        n_train=p["train"], n_test=p["pool"], seed=DATA_SEED
    )
    order = np.random.default_rng(seed).permutation(p["pool"])
    x_pool = data.x_test[order].astype(np.float32)
    y_pool = data.y_test[order]
    # Training is the model's input, not serving set-up: done once.
    classifier = HDCClassifier(
        RandomProjectionEncoder(
            data.n_features, p["dimension"], seed=DATA_SEED
        ),
        CLASSES,
    ).fit(data.x_train, data.y_train, epochs=EPOCHS)
    config = TDAMConfig(bits=BITS, n_stages=p["dimension"], vdd=0.6)

    def build() -> EncodeSearchService:
        # Weight quantization, plane packing, autotune and the model
        # write are set-up work: each repeat starts cold.
        clear_autotune_cache()
        pipeline = build_pipeline(
            classifier, bits=BITS, fabric=True, config=config
        )
        service = TDAMSearchService(
            [ResilientTDAMArray(config, CLASSES) for _ in range(REPLICAS)],
            default_deadline_s=DEADLINE_S,
        )
        service.write_all(pipeline.model.levels)
        endpoint = EncodeSearchService(service, pipeline)
        endpoint.search(x_pool[0])
        endpoint.search_batch(x_pool[:p["batch"]])
        return endpoint

    endpoint, setup_s, setup_times = timed_setup(build, lambda s: None)
    pipeline = endpoint.pipeline
    # The oracle scores each answer against levels encoded once, before
    # the timed loop, through the MVM's int64 reference kernel: an error
    # of the fast kernels or of the search path shows as a mismatch.
    with force_kernel("loop"):
        pool_levels = pipeline.query_levels(x_pool)
    want_d = HammingOracle(pipeline.model.levels).distances(pool_levels)
    outcome = Outcome(record={"params": p, "setup_times_s": setup_times})
    loop = _Loop(endpoint, x_pool, want_d, p["batch"], outcome)
    encode = endpoint.encode_cost(1)

    def fabric() -> tuple:
        fab = np.asarray([loop.fabric[i] for i in sorted(loop.fabric)])
        return (fab[:, 0].mean() * 1e9, fab[:, 1].mean() * 1e12)

    if not trace:
        singles, _, batched, batch_busy = loop.run(seconds)
        search_ns, search_pj = fabric()
        accuracy = float(np.mean(loop.first_batch_best == y_pool))
        outcome.e2e = {
            "setup_s": setup_s,
            "p50_ms": loop.p50_ms(),
            "qps": loop.qps(),
            "quality": accuracy,
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
            "accuracy": accuracy,
            "batch_p50_ms": percentile_ms(loop.batch_s, 50),
            "fabric_ns_per_query": search_ns + encode.latency_s * 1e9,
            "fabric_pj_per_query": search_pj + encode.energy_j * 1e12,
            "fabric_search_ns_per_query": search_ns,
            "fabric_encode_ns_per_query": encode.latency_s * 1e9,
        })
        return outcome

    a = loop.run(seconds / 2)
    tracer = Tracer()
    for method in ("search", "search_batch"):
        tracer.wrap(endpoint, method, "service.encode", items=n_queries)
    tracer.wrap(pipeline, "query_levels", "hdc", items=n_queries)
    tracer.wrap(pipeline.encoder.plan, "matmul", "mvm")
    instrument_service(tracer, endpoint.service)
    b = loop.run(seconds / 2)
    st = tracer.stats
    n_q = max(1, st("service.encode").items)
    busy_b = b[1] + b[3]
    layers = ("service.encode", "hdc", "mvm", "service", "resilient",
              "array")
    self_sum = sum(st(name).self_ns for name in layers) / 1e9
    search_ns, _ = fabric()
    outcome.layers = layer_values({
        **stack_layers(st, n_q, CLASSES),
        "service.self_us_per_query":
            (st("service.encode").self_ns + st("service").self_ns) / 1e3 / n_q,
        "hdc.encode_us_per_sample": st("hdc").self_ns / 1e3 / n_q,
        "mvm.matmul_us": st("mvm").self_ns / 1e3 / max(1, st("mvm").calls),
        "fabric.search_ns_per_query": search_ns,
        "fabric.encode_ns_per_query": encode.latency_s * 1e9,
        "trace.overhead_frac": overhead(
            (a[1] + a[3]) / (a[0] + a[2]), busy_b / (b[0] + b[2])
        ),
        "trace.unattributed_frac": 1.0 - self_sum / busy_b,
    })
    return outcome
