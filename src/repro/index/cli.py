"""`repro index build|search` -- the ANN index from the command line.

``build`` packs a seeded synthetic clustered corpus into a published
:class:`BitPlaneStore`; ``search`` reopens it in a *fresh process* and
probes it, reporting queries/s, recall@k against the exhaustive
(``nprobe = n_clusters``) answer -- bit-identical to in-RAM exhaustive
search, see ``tests/index/`` -- and the process's peak RSS.  It also
probes every query alone and exits non-zero if any answer differs from
the batched one.  The CI smoke job drives both and turns
``--min-recall`` / ``--max-rss-mb`` violations into non-zero exits: the
store must serve a 10^5-row corpus correctly while staying far below
what the in-RAM pipeline would resident-set.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict

import numpy as np

from repro.core.config import TDAMConfig
from repro.datasets.synthetic import make_clustered_levels, perturb_levels
from repro.index.cluster_index import ClusteredTDAMIndex
from repro.index.store import BitPlaneStore

__all__ = ["run_index_build", "run_index_search"]


def _emit(line: str) -> None:
    # Deferred import: repro.cli owns the stdout channel.
    from repro.cli import emit

    emit(line)


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1024.0 if sys.platform == "darwin" else 1.0
    return peak * scale / 1024.0


def run_index_build(args: argparse.Namespace) -> int:
    """Generate a clustered corpus and publish its store + quantizer."""
    config = TDAMConfig(bits=args.bits, n_stages=args.stages)
    rows, _, _ = make_clustered_levels(
        n_rows=args.rows,
        n_stages=config.n_stages,
        levels=config.levels,
        n_clusters=args.clusters,
        noise=args.noise,
        seed=args.seed,
    )
    start = time.perf_counter()
    index = ClusteredTDAMIndex.build(
        args.out,
        rows,
        config,
        n_clusters=args.clusters,
        seed=args.seed,
        sample_size=args.sample,
    )
    elapsed = time.perf_counter() - start
    _emit(
        f"built {index.n_rows} rows x {config.n_stages} stages "
        f"({config.bits}-bit) into {index.store.n_shards} shards "
        f"({index.n_clusters} clusters) at {args.out} "
        f"in {elapsed:.1f} s (generation {index.store.generation})"
    )
    return 0


def _sample_queries(
    store: BitPlaneStore, n_queries: int, noise: float, seed: int
) -> np.ndarray:
    """Queries perturbed from stored rows, sampled across shards.

    Samples shard-by-shard (weighted by shard size) so only the touched
    level pages are faulted in -- the query path must not need the
    whole corpus resident.
    """
    rng = np.random.default_rng(seed)
    sizes = np.array(
        [store.shard(i).n_rows for i in range(store.n_shards)],
        dtype=np.float64,
    )
    picks = rng.choice(
        store.n_shards, size=n_queries, p=sizes / sizes.sum()
    )
    rows = np.empty((n_queries, store.n_stages), dtype=np.uint8)
    for s in np.unique(picks):
        where = np.flatnonzero(picks == s)
        shard = store.shard(int(s))
        pos = np.sort(rng.integers(0, shard.n_rows, size=where.shape[0]))
        rows[where] = shard.levels[pos]
    return perturb_levels(rows, store.levels, noise=noise, seed=seed + 1)


def run_index_search(args: argparse.Namespace) -> int:
    """Probe a published store; gate on recall and peak RSS."""
    store = BitPlaneStore(args.store)
    index = ClusteredTDAMIndex(store, nprobe=args.nprobe)
    queries = _sample_queries(
        store, args.queries, args.query_noise, args.seed
    )
    # Warm + time the routed probe.
    result = index.top_k(queries, args.k, nprobe=args.nprobe)
    best_s = float("inf")
    for _ in range(max(1, args.repeats)):
        start = time.perf_counter()
        repeat = index.top_k(queries, args.k, nprobe=args.nprobe)
        best_s = min(best_s, time.perf_counter() - start)
    if not np.array_equal(repeat.rows, result.rows):
        _emit("FAIL: repeated probes disagree (non-deterministic index)")
        return 1
    # A query's answer must not depend on the rest of its batch.
    for i in range(args.queries):
        alone = index.top_k(queries[i:i + 1], args.k, nprobe=args.nprobe)
        if not (
            np.array_equal(alone.rows[0], result.rows[i])
            and np.array_equal(alone.distances[0], result.distances[i])
            and np.array_equal(alone.delays_s[0], result.delays_s[i])
        ):
            _emit(
                f"FAIL: query {i} probed alone disagrees with its "
                f"batched answer"
            )
            return 1
    qps = args.queries / best_s
    # Ground truth: the full-probe answer, proven bit-identical to
    # exhaustive in-RAM top_k_batch (tests/index/, the ann bench gate).
    truth = index.top_k(queries, args.k, nprobe=index.n_clusters)
    hits = sum(
        len(set(result.rows[i]) & set(truth.rows[i]))
        for i in range(args.queries)
    )
    recall = hits / float(args.queries * args.k)
    rss_mb = peak_rss_mb()
    report: Dict[str, Any] = {
        "store": str(args.store),
        "rows": store.n_rows,
        "stages": store.n_stages,
        "shards": store.n_shards,
        "queries": args.queries,
        "k": args.k,
        "nprobe": result.nprobe,
        "probe_fraction": result.probe_fraction,
        "queries_per_s": qps,
        "recall_at_k": recall,
        "peak_rss_mb": rss_mb,
    }
    _emit(
        f"probed {store.n_rows} rows ({store.n_shards} shards) with "
        f"{args.queries} queries, k={args.k}, nprobe={result.nprobe}: "
        f"{qps:.0f} queries/s, recall@{args.k} {recall:.4f}, "
        f"probe fraction {result.probe_fraction:.4f}, "
        f"peak RSS {rss_mb:.0f} MiB"
    )
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        _emit(f"json report written to {args.json_out}")
    code = 0
    if args.min_recall is not None and recall < args.min_recall:
        _emit(
            f"FAIL: recall@{args.k} {recall:.4f} < required "
            f"{args.min_recall:.4f}"
        )
        code = 1
    if args.max_rss_mb is not None and rss_mb > args.max_rss_mb:
        _emit(
            f"FAIL: peak RSS {rss_mb:.0f} MiB > budget "
            f"{args.max_rss_mb:.0f} MiB"
        )
        code = 1
    return code
