"""Exactness tests of the shared top-k helpers and ``top_k_batch``.

``top_k_indices`` is the single home of the (distance, delay, row)
ranking rule, so its fast path must be bit-identical to a plain lexsort;
``FastTDAMArray.top_k_batch`` promises the exact rows of
``search_batch(queries).top_k(k)`` whether the count-ranked path or the
exhaustive fallback serves it.  These tests pin both contracts,
including the tie-heavy inputs where a sloppy tie-break would differ.
``count_top_k`` is the (count, index) selection behind the count-ranked
paths; ``grouped_top_k`` serves the partitioned gather.
"""

import numpy as np
import pytest

from repro.core.array import FastTDAMArray
from repro.core.config import TDAMConfig
from repro.core.topk import count_top_k, grouped_top_k, top_k_indices
from repro.devices.variation import VariationModel


def naive_top_k(distances, k, delays_s=None):
    """The unoptimized full-lexsort reference of the ranking rule."""
    distances = np.atleast_2d(distances)
    out = np.empty((distances.shape[0], k), dtype=np.int64)
    for i in range(distances.shape[0]):
        keys = (
            (np.arange(distances.shape[1]), distances[i])
            if delays_s is None
            else (np.arange(distances.shape[1]), delays_s[i], distances[i])
        )
        out[i] = np.lexsort(keys)[:k]
    return out


class TestTopKIndices:
    @pytest.mark.parametrize("k", [1, 3, 8, 20])
    def test_matches_naive_lexsort(self, k):
        rng = np.random.default_rng(k)
        distances = rng.integers(0, 6, (9, 20)).astype(float)
        delays = rng.random((9, 20))
        got = top_k_indices(distances, k, delays_s=delays)
        assert np.array_equal(got, naive_top_k(distances, k, delays))

    def test_heavy_ties_break_on_index(self):
        distances = np.zeros(12)
        assert np.array_equal(
            top_k_indices(distances, 5), np.arange(5)
        )
        delays = np.zeros(12)
        assert np.array_equal(
            top_k_indices(distances, 5, delays_s=delays), np.arange(5)
        )

    def test_1d_input(self):
        distances = np.array([3.0, 1.0, 2.0, 1.0])
        assert np.array_equal(top_k_indices(distances, 2), [1, 3])
        assert top_k_indices(distances, 4).shape == (4,)

    def test_row_ids_returned_for_subsets(self):
        distances = np.array([[2.0, 0.0, 1.0]])
        rows = np.array([4, 7, 9])
        assert np.array_equal(
            top_k_indices(distances, 2, row_ids=rows), [[7, 9]]
        )

    def test_row_ids_validation(self):
        distances = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            top_k_indices(distances, 1, row_ids=np.array([5, 3]))
        with pytest.raises(ValueError, match="row_ids shape"):
            top_k_indices(distances, 1, row_ids=np.array([1, 2, 3]))

    def test_k_validation(self):
        distances = np.zeros((2, 4))
        with pytest.raises(ValueError, match=r"k must be in \[1, 4\], got 0"):
            top_k_indices(distances, 0)
        with pytest.raises(ValueError, match=r"k must be in \[1, 4\], got 5"):
            top_k_indices(distances, 5)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            top_k_indices(np.zeros((2, 2, 2)), 1)


class TestCountTopK:
    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_matches_the_lexsort_rule_on_tie_heavy_counts(self, k):
        rng = np.random.default_rng(11)
        for dtype in (np.uint8, np.int64):
            counts = rng.integers(0, 4, (6, 9)).astype(dtype)
            got = count_top_k(counts, k)
            assert got.dtype == np.int64
            assert np.array_equal(got, naive_top_k(counts, k))
            assert np.array_equal(got, top_k_indices(counts, k))

    def test_does_not_modify_its_input(self):
        counts = np.array([[5, 1, 3, 1, 9]])
        before = counts.copy()
        assert count_top_k(counts, 2).tolist() == [[1, 3]]
        assert np.array_equal(counts, before)

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be in"):
            count_top_k(np.zeros((1, 3), dtype=int), 4)


class TestGroupedTopK:
    def test_ranks_within_each_query_group(self):
        q_idx = np.array([0, 0, 0, 1, 1, 1])
        r_idx = np.array([2, 5, 7, 1, 3, 8])
        primary = np.array([3.0, 1.0, 1.0, 0.0, 2.0, 0.0])
        got = grouped_top_k(q_idx, r_idx, primary, 2, 2)
        assert np.array_equal(got, [[5, 7], [1, 8]])

    def test_secondary_key_breaks_ties(self):
        q_idx = np.zeros(3, dtype=int)
        r_idx = np.array([0, 1, 2])
        primary = np.zeros(3)
        secondary = np.array([0.3, 0.1, 0.2])
        got = grouped_top_k(
            q_idx, r_idx, primary, 2, 1, secondary=secondary
        )
        assert np.array_equal(got, [[1, 2]])

    def test_underfull_group_raises(self):
        with pytest.raises(ValueError, match="candidates"):
            grouped_top_k(
                np.array([0, 1]), np.array([0, 0]), np.zeros(2), 2, 2
            )

    def test_pad_fills_underfull_groups(self):
        # Query 0 has two candidates, query 1 only one: the partitioned
        # gather's "some rows were unreachable" shape.
        q_idx = np.array([0, 0, 1])
        r_idx = np.array([4, 2, 7])
        primary = np.array([1.0, 3.0, 5.0])
        got = grouped_top_k(q_idx, r_idx, primary, 3, 2, pad=-1)
        assert np.array_equal(got, [[4, 2, -1], [7, -1, -1]])

    def test_pad_allows_empty_group(self):
        q_idx = np.array([1, 1])
        r_idx = np.array([3, 9])
        primary = np.array([2.0, 1.0])
        got = grouped_top_k(q_idx, r_idx, primary, 2, 2, pad=-1)
        assert np.array_equal(got, [[-1, -1], [9, 3]])

    def test_pad_unused_when_groups_full(self):
        q_idx = np.array([0, 0, 1, 1])
        r_idx = np.array([0, 1, 2, 3])
        primary = np.array([1.0, 0.0, 0.0, 1.0])
        padded = grouped_top_k(q_idx, r_idx, primary, 2, 2, pad=-1)
        strict = grouped_top_k(q_idx, r_idx, primary, 2, 2)
        assert np.array_equal(padded, strict)


@pytest.fixture
def written_array():
    config = TDAMConfig(bits=2, n_stages=21)
    rng = np.random.default_rng(17)
    array = FastTDAMArray(config, n_rows=10)
    array.write_all(rng.integers(0, 4, (10, 21)))
    return array, rng


class TestArrayTopKBatch:
    def assert_matches_exhaustive(self, array, queries, k, rows=None):
        got = array.top_k_batch(queries, k, rows=rows)
        batch = array.search_batch(queries)
        if rows is None:
            expected = batch.top_k(k)
        else:
            rows = np.asarray(rows)
            expected = top_k_indices(
                batch.hamming_distances[:, rows],
                k,
                delays_s=batch.delays_s[:, rows],
                row_ids=rows,
            )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_pruned_matches_exhaustive(self, written_array, k):
        array, rng = written_array
        queries = rng.integers(0, 4, (13, 21))
        self.assert_matches_exhaustive(array, queries, k)

    def test_self_queries_rank_themselves_first(self, written_array):
        array, _ = written_array
        top = array.top_k_batch(array._stored, 1)
        assert np.array_equal(top[:, 0], np.arange(10))

    def test_tie_heavy_queries(self, written_array):
        # Identical rows force full (distance, delay) ties; the row
        # index rule must order them.
        config = TDAMConfig(bits=2, n_stages=21)
        array = FastTDAMArray(config, n_rows=6)
        array.write_all(np.ones((6, 21), dtype=np.int64))
        queries = np.zeros((3, 21), dtype=np.int64)
        self.assert_matches_exhaustive(array, queries, 4)

    def test_row_subsets(self, written_array):
        array, rng = written_array
        queries = rng.integers(0, 4, (7, 21))
        rows = np.array([0, 3, 4, 8])
        self.assert_matches_exhaustive(array, queries, 2, rows=rows)
        got = array.top_k_batch(queries, 2, rows=rows)
        assert set(got.ravel()) <= set(rows.tolist())

    def test_variation_falls_back_exactly(self):
        config = TDAMConfig(bits=2, n_stages=21)
        rng = np.random.default_rng(23)
        array = FastTDAMArray(
            config, n_rows=8,
            variation=VariationModel(sigma_mv=60.0, seed=5),
        )
        array.write_all(rng.integers(0, 4, (8, 21)))
        assert not array._timing_is_nominal()
        queries = rng.integers(0, 4, (9, 21))
        self.assert_matches_exhaustive(array, queries, 3)

    def test_validation(self, written_array):
        array, rng = written_array
        queries = rng.integers(0, 4, (2, 21))
        with pytest.raises(
            ValueError, match=r"k must be in \[1, 10\], got 11"
        ):
            array.top_k_batch(queries, 11)
        with pytest.raises(ValueError, match="strictly increasing"):
            array.top_k_batch(queries, 1, rows=np.array([3, 1]))
        with pytest.raises(ValueError, match=r"rows must lie in"):
            array.top_k_batch(queries, 1, rows=np.array([0, 10]))
        with pytest.raises(
            ValueError, match=r"k must be in \[1, 2\], got 3"
        ):
            array.top_k_batch(queries, 3, rows=np.array([0, 1]))

    def test_small_chunks_agree(self, written_array):
        array, rng = written_array
        queries = rng.integers(0, 4, (11, 21))
        expected = array.top_k_batch(queries, 3)
        assert np.array_equal(
            array.top_k_batch(queries, 3, chunk=4), expected
        )
