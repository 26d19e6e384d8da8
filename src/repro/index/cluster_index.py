"""Cluster-routed approximate top-k over a memmapped bit-plane store.

The scale-out shape of Kazemi et al. (arXiv 2011.07095): a coarse
quantizer routes each query to its ``nprobe`` nearest clusters, and one
**count-ranked pass** runs *inside only those shards*, directly on the
store's memmapped plane slabs: popcount mismatch counts become
(distance, delay, row) keys, each shard keeps its ``k`` smallest in a
``(Q, nprobe, k)`` candidate grid, and one partition plus a k-wide sort
picks every query's winners.  Only the winners are decoded.

Exactness ladder:

- **Within probed shards the ranking is exact** -- the keys order
  exactly like (distance, delay, row), with the same delay-law floats
  and TDC decode as the in-RAM array, monotone ladder or not.
- **With ``nprobe = n_clusters`` the result is bit-identical to
  exhaustive ``top_k_batch``**: every global top-k row is among its own
  shard's ``k`` smallest keys, and distinct keys make the merged order
  the global order.
- **With ``nprobe < n_clusters`` recall is tunable**: only rows in
  unprobed clusters can be missed, so recall@k vs. queries/s is set by
  the corpus's cluster structure and ``nprobe`` (measured by the
  ``ann`` bench in ``tools/bench_report.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.core import bitplane as _bitplane
from repro.core.array import resolve_query_chunk
from repro.core.bitplane import (
    pack_level_planes,
    pack_query_masks,
    packed_mismatch_counts,
    popcount,
)
from repro.core.config import TDAMConfig
from repro.core.encoding import validate_levels
from repro.core.energy import TimingEnergyModel
from repro.core.sensing import CounterTDC
from repro.core.topk import count_top_k
from repro.hdc.cluster import HDCluster
from repro.index.store import (
    BitPlaneStore,
    BitPlaneStoreError,
    PathLike,
    build_store,
)
from repro.telemetry import metrics as _metrics
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.state import STATE as _TM

__all__ = [
    "ClusteredTDAMIndex",
    "IndexTopKResult",
    "DEFAULT_NPROBE",
]

#: Default clusters probed per query (a ~C/nprobe scan reduction).
DEFAULT_NPROBE = 8

_REG = _metrics.get_registry()
_SEARCHES = _REG.counter(
    "index_searches_total", "Clustered-index top-k calls served"
)
_QUERIES = _REG.counter(
    "index_queries_total", "Queries served by the clustered index"
)
_ROWS_PROBED = _REG.counter(
    "index_rows_probed_total",
    "Rows mismatch-counted across all probes",
)
_PROBE_FRACTION = _REG.histogram(
    "index_probe_fraction",
    "Fraction of the corpus scanned per top-k call (rows probed / "
    "rows total / queries)",
)


@dataclass(frozen=True)
class IndexTopKResult:
    """Outcome of one routed top-k batch.

    Attributes:
        rows: Global row ids, shape (Q, k), best first; ``-1`` pads
            queries whose probed shards held fewer than ``k`` rows.
        distances: Decoded Hamming distances of ``rows`` (``-1`` on
            pads).
        delays_s: Modeled chain delays of ``rows`` (``inf`` on pads).
        clusters: Probed cluster ids per query, shape (Q, nprobe).
        nprobe: Clusters probed per query.
        rows_probed: Rows mismatch-counted across the whole batch
            (query-weighted: a shard probed by two queries counts its
            rows twice).
        rows_total: Corpus size, for probe-fraction accounting.
    """

    rows: np.ndarray
    distances: np.ndarray
    delays_s: np.ndarray
    clusters: np.ndarray
    nprobe: int
    rows_probed: int
    rows_total: int

    @property
    def probe_fraction(self) -> float:
        """Scanned fraction of (rows x queries) -- the work saved."""
        denom = self.rows_total * max(1, self.rows.shape[0])
        return self.rows_probed / denom if denom else 0.0


class ClusteredTDAMIndex:
    """Coarse-quantized ANN search over a :class:`BitPlaneStore`.

    Args:
        store: A published store built *with* centroids (see
            :meth:`build`); opening is cheap -- shards map lazily as
            probes touch them.
        nprobe: Default clusters probed per query (overridable per
            call), clamped to ``[1, n_clusters]``.
    """

    def __init__(self, store: BitPlaneStore, nprobe: int = DEFAULT_NPROBE):
        cents = store.centroid_levels
        if cents is None:
            raise BitPlaneStoreError(
                "store has no centroid component; build it through "
                "ClusteredTDAMIndex.build (or pass centroid_levels to "
                "build_store) to enable routing"
            )
        self.store = store
        self.config: TDAMConfig = store.config
        timing = TimingEnergyModel(self.config)
        self.tdc = CounterTDC(self.config, timing)
        self._base_delay = 2 * self.config.n_stages * timing.d_inv
        self._d_c = timing.d_c
        self._count_dtype = np.min_scalar_type(self.config.n_stages)
        # The (N + 1)-entry count ladder, decoded once.  Dense ranks of
        # its (distance, delay) pairs make ``rank * (n_rows + 1) + row``
        # keys order exactly like (distance, delay, row), monotone
        # ladder or not; a rank's pair decodes its winners.  Row
        # ``n_rows`` of one rank past the last is the pad key.
        counts = np.arange(self.config.n_stages + 1, dtype=np.int64)
        delays = self._base_delay + counts * self._d_c
        pairs, rank = np.unique(
            np.column_stack((self.tdc.decode_array(delays), delays)),
            axis=0,
            return_inverse=True,
        )
        self._stride = store.n_rows + 1
        self._rank_key = rank.reshape(-1) * self._stride
        self._pad_key = pairs.shape[0] * self._stride + store.n_rows
        self._rank_distance = np.append(pairs[:, 0], -1).astype(np.int64)
        self._rank_delay = np.append(pairs[:, 1], np.inf)
        self._slabs: dict = {}
        ladder = np.arange(self.config.levels, dtype=np.int64)[:, None, None]
        self._centroid_planes = pack_level_planes(
            ladder != cents[None, :, :]
        )
        self.n_clusters = cents.shape[0]
        # Cluster id -> shard position (-1: empty cluster, no shard).
        self._shard_of = np.full(self.n_clusters, -1, dtype=np.int64)
        clusters = store.shard_clusters
        if clusters.size and clusters.max() >= self.n_clusters:
            raise BitPlaneStoreError(
                f"store names cluster {int(clusters.max())} but only "
                f"{self.n_clusters} centroids are published"
            )
        self._shard_of[clusters] = np.arange(
            clusters.shape[0], dtype=np.int64
        )
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        self.nprobe = min(nprobe, self.n_clusters)

    @property
    def n_rows(self) -> int:
        """Corpus rows served by this index."""
        return self.store.n_rows

    @classmethod
    def build(
        cls,
        path: PathLike,
        levels_mat: Sequence[Sequence[int]],
        config: TDAMConfig,
        n_clusters: int,
        nprobe: int = DEFAULT_NPROBE,
        seed: int = 0,
        sample_size: int = 16384,
        n_init: int = 2,
        max_iterations: int = 20,
    ) -> "ClusteredTDAMIndex":
        """Cluster a corpus, pack it, publish the store, open the index.

        The coarse quantizer is :class:`HDCluster` fit on a random
        sample; its float centroids are quantized to level vectors
        (member means, rounded and clipped), and the *full* corpus is
        then assigned to its Hamming-nearest quantized centroid with
        :func:`packed_mismatch_counts` -- the same metric the router
        uses at query time, so shard membership and routing share one
        Voronoi geometry.

        Args:
            path: Store directory.
            levels_mat: Stored levels, shape (M, N).
            config: Design point.
            n_clusters: Coarse clusters (>= 2, <= M).
            nprobe: Default clusters probed per query.
            seed: Sampling + clustering seed.
            sample_size: Rows sampled for the quantizer fit.
            n_init: Clustering restarts (small: the quantizer only
                needs to be roughly right, routing recall is tunable).
            max_iterations: Lloyd iteration cap per restart.
        """
        levels_arr = validate_levels(
            levels_mat, config.levels, ndim=2, name="levels matrix"
        )
        n_rows = levels_arr.shape[0]
        if not 2 <= n_clusters <= n_rows:
            raise ValueError(
                f"n_clusters must be in [2, {n_rows}], got {n_clusters}"
            )
        rng = np.random.default_rng(seed)
        take = min(sample_size, n_rows)
        sample_idx = np.sort(rng.choice(n_rows, size=take, replace=False))
        sample = levels_arr[sample_idx].astype(np.float64)
        result = HDCluster(
            k=n_clusters,
            max_iterations=max_iterations,
            seed=seed,
            n_init=n_init,
        ).fit(sample)
        cents = np.empty(
            (n_clusters, config.n_stages), dtype=np.float64
        )
        for c in range(n_clusters):
            members = sample[result.assignments == c]
            cents[c] = (
                members.mean(axis=0) if len(members) else result.centroids[c]
            )
        cent_levels = np.clip(
            np.rint(cents), 0, config.levels - 1
        ).astype(np.uint8)
        cent_planes = pack_level_planes(
            np.arange(config.levels, dtype=np.int64)[:, None, None]
            != cent_levels[None, :, :]
        )
        assignments = np.empty(n_rows, dtype=np.int64)
        chunk = 65536
        for start in range(0, n_rows, chunk):
            block = levels_arr[start:start + chunk]
            masks = pack_query_masks(block, config.levels)
            counts = packed_mismatch_counts(cent_planes, masks)
            assignments[start:start + chunk] = counts.argmin(axis=1)
        store = build_store(
            path,
            levels_arr,
            config,
            assignments=assignments,
            centroid_levels=cent_levels,
        )
        return cls(store, nprobe=nprobe)

    def _validate_queries(self, queries: np.ndarray) -> np.ndarray:
        q = validate_levels(
            queries, self.config.levels, ndim=2, name="query matrix"
        )
        if q.shape[1] != self.config.n_stages:
            raise ValueError(
                f"queries have {q.shape[1]} stages, the index serves "
                f"{self.config.n_stages}"
            )
        return q

    def route(
        self, queries: np.ndarray, nprobe: Optional[int] = None
    ) -> np.ndarray:
        """Per-query nearest cluster ids, shape (Q, nprobe).

        Hamming distance of each query against the quantized centroid
        planes, ranked by the shared (distance, id) rule -- ties go to
        the lower cluster id, deterministically.
        """
        q = self._validate_queries(np.asarray(queries))
        masks = pack_query_masks(q, self.config.levels)
        return self._route_masks(masks, self._resolve_nprobe(nprobe))

    def _resolve_nprobe(self, nprobe: Optional[int]) -> int:
        if nprobe is None:
            return self.nprobe
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        return min(int(nprobe), self.n_clusters)

    def _route_masks(self, masks: np.ndarray, nprobe: int) -> np.ndarray:
        counts = packed_mismatch_counts(self._centroid_planes, masks)
        clusters = count_top_k(counts, nprobe)
        if _TM.enabled:
            _emit_probe(
                "index.route",
                queries=int(masks.shape[0]),
                nprobe=int(nprobe),
                clusters=int(np.unique(clusters).shape[0]),
            )
        return clusters

    def _shard_slabs(self, s: int, word: type) -> tuple:
        """Shard ``s``'s ``(level, word)`` slabs, row ids and query chunk.

        The slabs are a plain-ndarray ``(L, W, M_s)`` view of the
        memmapped planes in the popcount kernel's ``word`` dtype -- no
        copy, so the store stays out-of-core -- cached on first touch.
        """
        cached = self._slabs.get((s, word))
        if cached is None:
            shard = self.store.shard(s)
            planes = np.asarray(shard.planes)
            cached = self._slabs[(s, word)] = (
                planes.view(word).transpose(0, 2, 1),
                np.asarray(shard.row_ids),
                resolve_query_chunk(
                    shard.n_rows,
                    self.config.n_stages,
                    working_set_bytes=int(planes.nbytes),
                ),
            )
        return cached

    def top_k(
        self,
        queries: Union[np.ndarray, Sequence[Sequence[int]]],
        k: int,
        nprobe: Optional[int] = None,
    ) -> IndexTopKResult:
        """Routed approximate top-k (exact inside the probed shards).

        Args:
            queries: Query levels, shape (Q, n_stages).
            k: Rows per query, ``1 <= k <= n_rows``.
            nprobe: Clusters probed per query (default: the index's).

        Returns:
            :class:`IndexTopKResult`; ``rows[i, j] = -1`` pads queries
            whose probed shards held fewer than ``k`` rows.
        """
        q = self._validate_queries(np.asarray(queries))
        if not 1 <= k <= self.n_rows:
            raise ValueError(f"k must be in [1, {self.n_rows}], got {k}")
        nprobe = self._resolve_nprobe(nprobe)
        n_q = q.shape[0]
        masks = pack_query_masks(q, self.config.levels)
        clusters = self._route_masks(masks, nprobe)
        word = np.uint64 if _bitplane._use_native else np.uint8
        words = masks.view(word)
        # Invert routing once: flat (query, probe slot) positions grouped
        # by shard, visiting only the probed shards (a query probes a
        # shard at most once: routed clusters are distinct).
        shard_of = self._shard_of[clusters].ravel()
        flat = np.flatnonzero(shard_of >= 0)
        flat = flat[np.argsort(shard_of[flat], kind="stable")]
        shards, starts = np.unique(shard_of[flat], return_index=True)
        bounds = np.append(starts, flat.shape[0])
        grid = np.full((n_q, nprobe, k), self._pad_key, dtype=np.int64)
        rows_probed = candidates = 0
        for s, lo, hi in zip(shards.tolist(), bounds[:-1], bounds[1:]):
            slabs, row_ids, chunk = self._shard_slabs(s, word)
            pairs = flat[lo:hi]
            ms = row_ids.shape[0]
            kk = min(k, ms)
            rows_probed += ms * pairs.shape[0]
            candidates += kk * pairs.shape[0]
            for start in range(0, pairs.shape[0], chunk):
                qb, slot = np.divmod(pairs[start:start + chunk], nprobe)
                # One AND per (level, word) slab; a query's level masks
                # are disjoint, so an OR-fold over levels and a popcount
                # per word count each mismatching stage once.
                hits = slabs[:, :, None, :] & words[qb].transpose(1, 2, 0)[
                    :, :, :, None
                ]
                counts = popcount(np.bitwise_or.reduce(hits, axis=0))
                counts = (
                    counts[0] if counts.shape[0] == 1
                    else counts.sum(axis=0, dtype=self._count_dtype)
                )
                keys = self._rank_key.take(counts)
                keys += row_ids
                if kk < ms:
                    keys.partition(kk - 1, axis=1)
                    keys = keys[:, :kk]
                grid[qb, slot, :kk] = keys
        # Keys are distinct, so one partition plus a k-wide sort orders
        # each query's k smallest (distance, delay, row) exactly.
        top = grid.reshape(n_q, nprobe * k)
        if nprobe > 1:
            top = np.partition(top, k - 1, axis=1)[:, :k]
        top.sort(axis=1)
        rank, rows = np.divmod(top, self._stride)
        rows[rows == self.n_rows] = -1
        result = IndexTopKResult(
            rows=rows,
            distances=self._rank_distance[rank],
            delays_s=self._rank_delay[rank],
            clusters=clusters,
            nprobe=nprobe,
            rows_probed=rows_probed,
            rows_total=self.n_rows,
        )
        _SEARCHES.inc()
        _QUERIES.inc(n_q)
        _ROWS_PROBED.inc(rows_probed)
        _PROBE_FRACTION.observe(result.probe_fraction)
        if _TM.enabled:
            _emit_probe(
                "index.probe",
                queries=int(n_q),
                k=int(k),
                nprobe=int(nprobe),
                rows_probed=int(rows_probed),
                rows_total=int(self.n_rows),
                candidates=int(candidates),
            )
        return result

    def __repr__(self) -> str:
        return (
            f"ClusteredTDAMIndex({self.n_rows} rows, "
            f"{self.n_clusters} clusters, nprobe={self.nprobe})"
        )
