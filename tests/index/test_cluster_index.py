"""Clustered index: exactness ladder, routing, recall, padding."""

import numpy as np
import pytest

from repro import telemetry
from repro.core.array import FastTDAMArray
from repro.core.config import TDAMConfig
from repro.datasets.synthetic import make_clustered_levels, perturb_levels
from repro.index import (
    BitPlaneStore,
    BitPlaneStoreError,
    ClusteredTDAMIndex,
    build_store,
)


def _build(tmp_path, rows, config, n_clusters, **kwargs):
    return ClusteredTDAMIndex.build(
        tmp_path / "idx", rows, config,
        n_clusters=n_clusters, seed=3, **kwargs,
    )


class TestExactness:
    @pytest.mark.parametrize("n_stages", [32, 160])
    def test_full_probe_is_bit_identical_to_exhaustive(
        self, tmp_path, rng, n_stages
    ):
        # n_stages=160 packs into three 64-bit words per plane, so the
        # probe sums per-word popcounts.
        config = TDAMConfig(n_stages=n_stages)
        rows = rng.integers(0, config.levels, size=(300, n_stages))
        queries = rng.integers(0, config.levels, size=(17, n_stages))
        index = _build(tmp_path, rows, config, n_clusters=8)
        result = index.top_k(queries, 5, nprobe=index.n_clusters)
        array = FastTDAMArray(config, n_rows=300)
        array.write_all(rows)
        assert np.array_equal(result.rows, array.top_k_batch(queries, 5))

    def test_reopened_store_serves_identical_answers(
        self, tmp_path, rng, config
    ):
        rows = rng.integers(0, config.levels, size=(200, config.n_stages))
        queries = rng.integers(0, config.levels, size=(9, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=6)
        want = index.top_k(queries, 4, nprobe=3)
        reopened = ClusteredTDAMIndex(BitPlaneStore(tmp_path / "idx"))
        got = reopened.top_k(queries, 4, nprobe=3)
        assert np.array_equal(got.rows, want.rows)
        assert np.array_equal(got.distances, want.distances)
        assert np.array_equal(got.delays_s, want.delays_s)

    def test_distances_and_delays_match_the_exhaustive_keys(
        self, tmp_path, rng, config
    ):
        rows = rng.integers(0, config.levels, size=(150, config.n_stages))
        queries = rng.integers(0, config.levels, size=(7, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=5)
        result = index.top_k(queries, 3, nprobe=index.n_clusters)
        # Hamming distance of each selected row, recomputed directly.
        for i in range(queries.shape[0]):
            for j in range(3):
                row = result.rows[i, j]
                hamming = int((rows[row] != queries[i]).sum())
                assert result.distances[i, j] == hamming


class TestRouting:
    def test_route_is_deterministic_and_shaped(self, tmp_path, rng, config):
        rows = rng.integers(0, config.levels, size=(200, config.n_stages))
        queries = rng.integers(0, config.levels, size=(11, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=6)
        first = index.route(queries, nprobe=4)
        assert first.shape == (11, 4)
        assert np.array_equal(first, index.route(queries, nprobe=4))
        # Routed clusters are distinct per query.
        for row in first:
            assert len(set(row.tolist())) == 4

    def test_recall_on_clustered_corpus(self, tmp_path):
        config = TDAMConfig(n_stages=64)
        rows, _, _ = make_clustered_levels(
            4000, config.n_stages, config.levels, 16, noise=0.05, seed=5
        )
        queries = perturb_levels(rows[:32], config.levels, 0.05, seed=6)
        index = _build(tmp_path, rows, config, n_clusters=16)
        truth = index.top_k(queries, 10, nprobe=index.n_clusters)
        approx = index.top_k(queries, 10, nprobe=4)
        hits = sum(
            len(set(approx.rows[i]) & set(truth.rows[i]))
            for i in range(32)
        )
        assert hits / 320.0 >= 0.95
        assert approx.rows_probed < truth.rows_probed
        assert 0.0 < approx.probe_fraction < 1.0

    def test_probes_fire_when_telemetry_enabled(
        self, tmp_path, rng, config
    ):
        rows = rng.integers(0, config.levels, size=(120, config.n_stages))
        queries = rng.integers(0, config.levels, size=(4, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=4)
        telemetry.reset()
        telemetry.enable()
        try:
            rec = telemetry.ProbeRecorder()
            telemetry.register_probe("index.route", rec)
            telemetry.register_probe("index.probe", rec)
            index.top_k(queries, 2, nprobe=2)
            events = rec.events()
        finally:
            telemetry.reset()
        assert "index.route" in events
        assert "index.probe" in events
        payload = rec.payloads("index.probe")[0]
        assert payload["queries"] == 4
        assert payload["rows_total"] == 120


class TestPaddingAndErrors:
    def test_short_probe_pads_with_minus_one(self, tmp_path, rng, config):
        rows = rng.integers(0, config.levels, size=(40, config.n_stages))
        queries = rng.integers(0, config.levels, size=(3, config.n_stages))
        # Hand-built store: exactly 10 rows per cluster, so nprobe=1
        # can never reach k=20 rows and padding is guaranteed.
        store = build_store(
            tmp_path / "idx", rows, config,
            assignments=np.arange(40, dtype=np.int64) % 4,
            centroid_levels=rows[:4].astype(np.uint8),
        )
        index = ClusteredTDAMIndex(store)
        k = 20
        result = index.top_k(queries, k, nprobe=1)
        assert result.rows.shape == (3, k)
        for i in range(3):
            padded = result.rows[i] == -1
            assert padded.any()
            # Pads are trailing and carry sentinel keys.
            first_pad = int(np.argmax(padded))
            assert np.all(result.rows[i, first_pad:] == -1)
            assert np.all(result.distances[i][padded] == -1)
            assert np.all(np.isinf(result.delays_s[i][padded]))

    def test_store_without_centroids_is_rejected(
        self, tmp_path, rng, config
    ):
        rows = rng.integers(0, config.levels, size=(50, config.n_stages))
        store = build_store(tmp_path / "flat", rows, config)
        with pytest.raises(BitPlaneStoreError, match="centroid"):
            ClusteredTDAMIndex(store)

    def test_bad_arguments_are_rejected(self, tmp_path, rng, config):
        rows = rng.integers(0, config.levels, size=(60, config.n_stages))
        queries = rng.integers(0, config.levels, size=(2, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=4)
        with pytest.raises(ValueError, match="k must be"):
            index.top_k(queries, 0)
        with pytest.raises(ValueError, match="nprobe"):
            index.top_k(queries, 1, nprobe=0)
        with pytest.raises(ValueError, match="stages"):
            index.top_k(queries[:, :-1], 1)
        with pytest.raises(ValueError, match="n_clusters"):
            _build(tmp_path / "bad", rows, config, n_clusters=1)

    def test_empty_query_batch_returns_empty_results(
        self, tmp_path, rng, config
    ):
        rows = rng.integers(0, config.levels, size=(60, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=4, nprobe=2)
        empty = np.zeros((0, config.n_stages), dtype=np.int64)
        result = index.top_k(empty, 3)
        assert result.rows.shape == (0, 3)
        assert result.distances.shape == (0, 3)
        assert result.delays_s.shape == (0, 3)
        assert result.clusters.shape == (0, 2)
        assert result.rows_probed == 0
        assert index.route(empty).shape == (0, 2)


class TestOwnership:
    def test_mutating_the_input_after_build_leaves_the_index(
        self, tmp_path, rng, config
    ):
        rows = rng.integers(0, config.levels, size=(60, config.n_stages))
        original = rows.copy()
        queries = rng.integers(0, config.levels, size=(4, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=4)
        want = index.top_k(queries, 5, nprobe=4)
        rows[:] = (rows + 1) % config.levels
        got = index.top_k(queries, 5, nprobe=4)
        assert np.array_equal(got.rows, want.rows)
        assert np.array_equal(got.distances, want.distances)
        stored = np.empty_like(original)
        for s in range(index.store.n_shards):
            shard = index.store.shard(s)
            stored[np.asarray(shard.row_ids)] = np.asarray(shard.levels)
        assert np.array_equal(stored, original)
