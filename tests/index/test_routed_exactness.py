"""Routed exactness: a partial probe is exact over the routed rows.

At ``nprobe < n_clusters`` the clustered index may miss rows in
unprobed clusters, but over the rows of the clusters it *does* probe it
must be exact: its rows, distances and delays equal a brute-force
(distance, delay, row) ranking of only those rows, computed here from
an in-RAM array's exhaustive search and an independent routing oracle.
Stores are hand-built so shard sizes, empty clusters and padding are
controlled, and the tiny level alphabet makes count ties common.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core import bitplane
from repro.core.array import FastTDAMArray
from repro.core.config import TDAMConfig
from repro.index import ClusteredTDAMIndex, build_store


def oracle_route(centroids, queries, nprobe):
    """Nearest centroids by (Hamming distance, cluster id)."""
    out = np.empty((len(queries), nprobe), dtype=np.int64)
    for i, q in enumerate(queries):
        dist = (centroids != q[None, :]).sum(axis=1)
        out[i] = np.lexsort((np.arange(len(centroids)), dist))[:nprobe]
    return out


def oracle_top_k(array, assignments, clusters, queries, k):
    """Brute-force top-k over only the routed clusters' rows."""
    batch = array.search_batch(queries)
    rows = np.full((len(queries), k), -1, dtype=np.int64)
    dists = np.full((len(queries), k), -1, dtype=np.int64)
    delays = np.full((len(queries), k), np.inf)
    for i in range(len(queries)):
        cand = np.flatnonzero(np.isin(assignments, clusters[i]))
        order = np.lexsort((
            cand,
            batch.delays_s[i, cand],
            batch.hamming_distances[i, cand],
        ))[:k]
        take = cand[order]
        rows[i, :take.size] = take
        dists[i, :take.size] = batch.hamming_distances[i, take]
        delays[i, :take.size] = batch.delays_s[i, take]
    return rows, dists, delays


def make_case(tmp_path, n_stages, seed, n_rows=90, n_clusters=6, empty=()):
    """A store whose clusters hold uneven row counts (some none)."""
    config = TDAMConfig(n_stages=n_stages)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, config.levels, size=(n_rows, n_stages))
    live = [c for c in range(n_clusters) if c not in empty]
    # Skewed sizes: the last live cluster gets only a couple of rows.
    weights = np.linspace(3.0, 0.3, len(live))
    assignments = rng.choice(live, size=n_rows, p=weights / weights.sum())
    assignments[: len(live)] = live  # every live cluster is non-empty
    centroids = rng.integers(
        0, config.levels, size=(n_clusters, n_stages)
    ).astype(np.uint8)
    store = build_store(
        tmp_path / f"idx{n_stages}-{seed}", rows, config,
        assignments=assignments, centroid_levels=centroids,
    )
    array = FastTDAMArray(config, n_rows=n_rows)
    array.write_all(rows)
    return ClusteredTDAMIndex(store), array, assignments, centroids


def assert_routed_exact(index, array, assignments, centroids, queries, k, nprobe):
    got = index.top_k(queries, k, nprobe=nprobe)
    clusters = oracle_route(centroids, queries, nprobe)
    assert np.array_equal(got.clusters, clusters)
    rows, dists, delays = oracle_top_k(
        array, assignments, clusters, queries, k
    )
    assert np.array_equal(got.rows, rows)
    assert np.array_equal(got.distances, dists)
    assert np.array_equal(got.delays_s, delays)
    sizes = np.bincount(assignments, minlength=len(centroids))
    assert got.rows_probed == int(sizes[clusters].sum())
    return got


class TestRoutedExactness:
    @pytest.mark.parametrize("n_stages", [32, 64, 160])
    @pytest.mark.parametrize("nprobe", [1, 2, 4])
    def test_matches_brute_force_over_routed_rows(
        self, tmp_path, n_stages, nprobe
    ):
        index, array, assignments, cents = make_case(
            tmp_path, n_stages, seed=n_stages + nprobe
        )
        queries = np.random.default_rng(nprobe).integers(
            0, 4, size=(13, n_stages)
        )
        for k in (1, 5):
            assert_routed_exact(
                index, array, assignments, cents, queries, k, nprobe
            )

    @pytest.mark.parametrize("n_stages", [32, 160])
    def test_k_beyond_a_probed_shard_pads_with_minus_one(
        self, tmp_path, n_stages
    ):
        index, array, assignments, cents = make_case(
            tmp_path, n_stages, seed=7
        )
        queries = np.random.default_rng(3).integers(0, 4, (9, n_stages))
        k = int(np.bincount(assignments).max()) + 4
        got = assert_routed_exact(
            index, array, assignments, cents, queries, k, nprobe=1
        )
        assert (got.rows == -1).any(axis=1).all()

    def test_routed_cluster_without_a_shard_contributes_nothing(
        self, tmp_path
    ):
        index, array, assignments, cents = make_case(
            tmp_path, 64, seed=11, empty=(2, 4)
        )
        # Queries sitting on the empty clusters' centroids route there
        # first, so the probe must skip the missing shards.
        queries = np.concatenate([
            cents[[2, 4]].astype(np.int64),
            np.random.default_rng(5).integers(0, 4, (6, 64)),
        ])
        assert index.store.n_shards == 4
        for nprobe in (1, 2, 3):
            got = assert_routed_exact(
                index, array, assignments, cents, queries, 4, nprobe
            )
        assert got.clusters[0, 0] == 2 and got.clusters[1, 0] == 4
        # nprobe=1 onto an empty cluster reaches no rows at all.
        alone = index.top_k(queries[:2], 3, nprobe=1)
        assert np.all(alone.rows == -1)
        assert np.all(np.isinf(alone.delays_s))
        assert alone.rows_probed == 0

    @pytest.mark.parametrize("n_stages", [32, 160])
    def test_batch_equals_queries_probed_one_by_one(
        self, tmp_path, n_stages
    ):
        index, _, _, _ = make_case(tmp_path, n_stages, seed=19)
        queries = np.random.default_rng(8).integers(0, 4, (21, n_stages))
        batch = index.top_k(queries, 6, nprobe=3)
        for i in range(len(queries)):
            one = index.top_k(queries[i:i + 1], 6, nprobe=3)
            assert np.array_equal(one.rows[0], batch.rows[i])
            assert np.array_equal(one.distances[0], batch.distances[i])
            assert np.array_equal(one.delays_s[0], batch.delays_s[i])
            assert np.array_equal(one.clusters[0], batch.clusters[i])

    def test_lut_popcount_path_is_identical(self, tmp_path, monkeypatch):
        index, array, assignments, cents = make_case(tmp_path, 160, seed=23)
        queries = np.random.default_rng(4).integers(0, 4, (11, 160))
        native = index.top_k(queries, 5, nprobe=2)
        monkeypatch.setattr(bitplane, "_use_native", False)
        lut = assert_routed_exact(
            index, array, assignments, cents, queries, 5, nprobe=2
        )
        assert np.array_equal(lut.rows, native.rows)

    def test_probe_reports_the_candidate_grid_fill(self, tmp_path):
        index, _, assignments, _ = make_case(tmp_path, 32, seed=29)
        queries = np.random.default_rng(6).integers(0, 4, (8, 32))
        k = 7
        telemetry.reset()
        telemetry.enable()
        try:
            rec = telemetry.ProbeRecorder()
            telemetry.register_probe("index.probe", rec)
            got = index.top_k(queries, k, nprobe=3)
            payload = rec.payloads("index.probe")[0]
        finally:
            telemetry.reset()
        sizes = np.bincount(assignments)
        assert payload["candidates"] == int(
            np.minimum(sizes[got.clusters], k).sum()
        )
        assert payload["rows_probed"] == got.rows_probed
