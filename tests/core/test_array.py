"""Tests of the TD-AM arrays (device-accurate and vectorized)."""

import numpy as np
import pytest

from repro.core.array import FastTDAMArray, TDAMArray
from repro.core.config import TDAMConfig
from repro.devices.variation import VariationModel

STORED = np.array(
    [
        [0, 1, 2, 3, 0, 1, 2, 3],
        [0, 1, 2, 3, 0, 1, 2, 0],
        [3, 2, 1, 0, 3, 2, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ]
)
QUERY = np.array([0, 1, 2, 3, 0, 1, 2, 3])


@pytest.fixture
def device_array(small_config, rng):
    array = TDAMArray(small_config, n_rows=4, rng=rng)
    array.write_all(STORED)
    return array


@pytest.fixture
def fast_array(small_config):
    array = FastTDAMArray(small_config, n_rows=4)
    array.write_all(STORED)
    return array


class TestTDAMArray:
    def test_distances_decoded_correctly(self, device_array):
        result = device_array.search(QUERY)
        expected = (STORED != QUERY[None, :]).sum(axis=1)
        assert np.array_equal(result.hamming_distances, expected)

    def test_best_row_is_most_similar(self, device_array):
        assert device_array.search(QUERY).best_row == 0

    def test_similarities_complement_distances(self, device_array):
        result = device_array.search(QUERY)
        assert np.array_equal(
            result.similarities, 8 - result.hamming_distances
        )

    def test_latency_is_max_delay(self, device_array):
        result = device_array.search(QUERY)
        assert result.latency_s == result.delays_s.max()

    def test_row_result_diagnostics(self, device_array):
        chain_result = device_array.row_result(1, QUERY)
        assert chain_result.n_mismatch == 1

    def test_row_bounds_checked(self, device_array):
        with pytest.raises(IndexError, match="row"):
            device_array.write(7, QUERY)

    def test_write_all_shape_check(self, small_config, rng):
        array = TDAMArray(small_config, n_rows=2, rng=rng)
        with pytest.raises(ValueError, match="rows"):
            array.write_all(STORED)

    def test_rejects_zero_rows(self, small_config):
        with pytest.raises(ValueError, match="n_rows"):
            TDAMArray(small_config, n_rows=0)


class TestFastTDAMArray:
    def test_distances_match_ideal(self, fast_array):
        result = fast_array.search(QUERY)
        assert np.array_equal(
            result.hamming_distances, fast_array.ideal_hamming(QUERY)
        )

    def test_turn_on_overdrive_below_margin(self, fast_array):
        """The calibrated switch point leaves real comparison margin."""
        assert 0 < fast_array.turn_on_overdrive < fast_array.config.conduction_margin

    def test_search_before_write_raises(self, small_config):
        array = FastTDAMArray(small_config, n_rows=2)
        with pytest.raises(RuntimeError, match="before"):
            array.search(QUERY)

    def test_query_validation(self, fast_array):
        with pytest.raises(ValueError, match="length"):
            fast_array.write(0, [0, 1])

    def test_mismatch_matrix_shape(self, fast_array):
        mism = fast_array.mismatch_matrix(QUERY)
        assert mism.shape == (4, 8)
        assert mism.dtype == bool


class TestAgreement:
    """The two implementations must agree exactly (the fast array exists
    only for scale, not different semantics)."""

    def test_distances_agree(self, device_array, fast_array):
        r_dev = device_array.search(QUERY)
        r_fast = fast_array.search(QUERY)
        assert np.array_equal(r_dev.hamming_distances, r_fast.hamming_distances)

    def test_delays_agree(self, device_array, fast_array):
        r_dev = device_array.search(QUERY)
        r_fast = fast_array.search(QUERY)
        assert np.allclose(r_dev.delays_s, r_fast.delays_s, rtol=1e-9)

    def test_energies_agree(self, device_array, fast_array):
        r_dev = device_array.search(QUERY)
        r_fast = fast_array.search(QUERY)
        assert r_dev.energy_j == pytest.approx(r_fast.energy_j)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agreement_under_variation(self, small_config, seed):
        """With the *same* drawn offsets, both arrays flip the same
        comparisons."""
        var = VariationModel(sigma_mv=80.0, seed=seed)
        fast = FastTDAMArray(small_config, n_rows=1, variation=var)
        fast.write(0, STORED[0])
        dev = TDAMArray(
            small_config,
            n_rows=1,
            rng=np.random.default_rng(seed),
            variation=None,
        )
        dev.write(0, STORED[0])
        # Copy the fast array's drawn offsets onto the device array.
        for i, stage in enumerate(dev.chains[0].stages):
            stage.set_vth_offsets(fast._off_a[0, i], fast._off_b[0, i])
        r_fast = fast.search(QUERY)
        r_dev = dev.search(QUERY)
        assert np.array_equal(r_fast.hamming_distances, r_dev.hamming_distances)


class TestVariationEffects:
    def test_variation_draws_differ_per_write(self, small_config):
        var = VariationModel(sigma_mv=40.0, seed=3)
        array = FastTDAMArray(small_config, n_rows=1, variation=var)
        array.write(0, STORED[0])
        first = array._off_a[0].copy()
        array.write(0, STORED[0])
        assert not np.array_equal(first, array._off_a[0])

    def test_huge_variation_corrupts_distances(self, small_config):
        var = VariationModel(sigma_mv=300.0, seed=3)
        array = FastTDAMArray(small_config, n_rows=4, variation=var)
        array.write_all(STORED)
        result = array.search(QUERY)
        ideal = array.ideal_hamming(QUERY)
        assert not np.array_equal(result.hamming_distances, ideal)


class TestTopK:
    def test_top_k_ordering(self, fast_array):
        result = fast_array.search(QUERY)
        top = result.top_k(3)
        distances = result.hamming_distances[top]
        assert list(distances) == sorted(distances)
        assert top[0] == result.best_row

    def test_top_k_full_length_is_permutation(self, fast_array):
        result = fast_array.search(QUERY)
        top = result.top_k(4)
        assert sorted(top.tolist()) == [0, 1, 2, 3]

    def test_top_k_bounds(self, fast_array):
        result = fast_array.search(QUERY)
        with pytest.raises(ValueError, match="k must be"):
            result.top_k(0)
        with pytest.raises(ValueError, match="k must be"):
            result.top_k(99)


class TestWriteOwnsItsLevels:
    """Admission hands an int64 input back uncopied, so each array copies
    what it keeps: reusing the caller's buffer after a write must not
    change the stored levels."""

    @pytest.mark.parametrize("kind", ["device", "fast"])
    def test_mutating_the_input_after_a_write(self, small_config, rng, kind):
        if kind == "device":
            array = TDAMArray(small_config, n_rows=4, rng=rng)
        else:
            array = FastTDAMArray(small_config, n_rows=4)
        matrix = STORED.astype(np.int64)
        row = STORED[2].astype(np.int64)
        array.write_all(matrix)
        array.write(2, row)
        matrix[:] = 3 - matrix
        row[:] = 0
        result = array.search(QUERY)
        want = (STORED != QUERY[None, :]).sum(axis=1)
        assert np.array_equal(result.hamming_distances, want)
        if kind == "device":
            stored = np.stack([chain.stored for chain in array.chains])
        else:
            stored = array._stored
        assert np.array_equal(stored, STORED)
