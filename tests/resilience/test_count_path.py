"""Exactness of the one batched count path (hypothesis).

Every batched mismatch count -- clean, fault-injected, masked, drifted,
retired -- comes from the dispatched count kernel plus an exact integer
correction.  These properties pin it, under every kernel, against the
reference APIs that still materialize the (Q, M, N) tensor, against a
per-query (M, N) mismatch-matrix reference of the logical view (which
``search`` no longer runs: it is the one-query batch), and against the
exhaustive top-k ranking; the
vectorized ``write_all`` is pinned against the per-row write loop it
replaced.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array import FastTDAMArray
from repro.core.config import TDAMConfig
from repro.core.faults import Fault, FaultType, FaultyTDAMArray
from repro.core.kernels import force_kernel
from repro.devices.variation import VariationModel
from repro.resilience.resilient import ResilientTDAMArray

KERNELS = ("packed", "gemm", "loop")


@st.composite
def fault_lists(draw, n_rows, n_stages):
    """Random fault maps, duplicates and dead-over-stuck overlaps included."""
    cell = st.builds(
        Fault,
        kind=st.sampled_from([FaultType.STUCK_MISMATCH, FaultType.STUCK_MATCH]),
        row=st.integers(0, n_rows - 1),
        stage=st.integers(0, n_stages - 1),
    )
    dead = st.builds(
        Fault, kind=st.just(FaultType.DEAD_ROW), row=st.integers(0, n_rows - 1)
    )
    faults = draw(st.lists(st.one_of(cell, cell, dead), max_size=8))
    if faults and draw(st.booleans()):
        # The same cell (or row) faulted twice, possibly with both kinds.
        twin = draw(st.sampled_from(faults))
        kind = draw(st.sampled_from(list(FaultType)))
        faults.append(Fault(kind, twin.row, twin.stage))
    if draw(st.booleans()):
        # A dead row that also carries stuck cells.
        row = draw(st.integers(0, n_rows - 1))
        faults.append(Fault(FaultType.STUCK_MATCH, row, 0))
        faults.append(Fault(FaultType.DEAD_ROW, row))
    return draw(st.permutations(faults))


def _config(draw):
    return TDAMConfig(n_stages=draw(st.sampled_from([5, 8, 13, 16, 24])))


def _variation(draw):
    if draw(st.booleans()):
        return None
    return VariationModel(
        sigma_mv=draw(st.sampled_from([20.0, 60.0])),
        seed=draw(st.integers(0, 2**16)),
    )


class TestFaultyCounts:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_counts_equal_masked_faulted_tensor(self, data):
        config = _config(data.draw)
        n, m = config.n_stages, data.draw(st.integers(1, 9))
        array = FastTDAMArray(config, m, variation=_variation(data.draw))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        array.write_all(rng.integers(0, config.levels, (m, n)))
        if data.draw(st.booleans()):
            # Drift-like in-place offsets after the write.
            array._off_a = array._off_a + rng.normal(0, 0.05, (m, n))
        faulty = FaultyTDAMArray(array, data.draw(fault_lists(m, n)))
        masked = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        queries = rng.integers(0, config.levels, (data.draw(st.integers(1, 7)), n))
        want = faulty.faulted_mismatch_tensor(queries)
        want[:, :, masked] = False
        for kernel in KERNELS:
            with force_kernel(kernel):
                got = faulty.mismatch_count_batch(
                    queries, chunk=data.draw(st.sampled_from([None, 1, 3])),
                    masked_stages=masked,
                )
            assert np.array_equal(got, want.sum(axis=2)), kernel

    def test_masked_stage_out_of_range_rejected(self):
        config = TDAMConfig(n_stages=8)
        array = FastTDAMArray(config, 2)
        array.write_all(np.zeros((2, 8), dtype=np.int64))
        with pytest.raises(ValueError, match="out of range"):
            FaultyTDAMArray(array, []).mismatch_count_batch(
                np.zeros((1, 8), dtype=np.int64), masked_stages=[8]
            )


def _resilient(data):
    """A resilient array in a random health state: faults, repairs,
    direct column masks, retired rows, drift and write-time variation."""
    config = _config(data.draw)
    n = config.n_stages
    n_rows = data.draw(st.integers(2, 8))
    n_spares = data.draw(st.integers(0, 2))
    pristine = data.draw(st.booleans())
    array = ResilientTDAMArray(
        config,
        n_rows,
        n_spares=n_spares,
        faults=[] if pristine else data.draw(fault_lists(n_rows + n_spares, n)),
        variation=None if pristine else _variation(data.draw),
        max_masked_stages=data.draw(st.integers(0, 2)),
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    # Few levels in play, so count ties (the row tie-break) are common.
    stored = rng.integers(0, 2, (n_rows, n))
    array.write_all(stored)
    if pristine:
        return array, stored, rng
    if data.draw(st.booleans()):
        array.self_test_and_repair()
    if data.draw(st.booleans()):
        array._masked = tuple(
            data.draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
        )
    if data.draw(st.booleans()):
        array.advance_time(data.draw(st.sampled_from([1e3, 1e7, 3e8])))
    return array, stored, rng


def _reference_search(array, query):
    """Per-query oracle of the logical view: the faulted (M, N) mismatch
    matrix, masked, decoded by the physical array; each live logical row
    reads its physical home, a retired row the maximum distance and the
    timeout delay, and the best row is the (distance, delay, row) minimum
    over live rows."""
    mism = array._backing.faulted_mismatch_matrix(query)
    mism[:, list(array._masked)] = False
    raw = array._physical.result_from_mismatch_matrix(mism)
    n = array.config.n_stages
    n_eff = n - len(array._masked)
    distances = np.full(array.n_rows, n_eff, dtype=np.int64)
    delays = np.full(array.n_rows, array._physical.timing.chain_delay(n))
    live = [r for r in range(array.n_rows) if r not in array._retired]
    for r in live:
        distances[r] = min(int(raw.hamming_distances[array._map[r]]), n_eff)
        delays[r] = raw.delays_s[array._map[r]]
    best = min(live, key=lambda r: (distances[r], delays[r], r), default=-1)
    confidence = len(live) / array.n_rows * (n_eff / n)
    return distances, delays, best, raw.latency_s, raw.energy_j, confidence


class TestResilientBatchPath:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_batch_and_top_k_match_scalar_search(self, data):
        array, stored, rng = _resilient(data)
        queries = np.concatenate([
            stored[:2],
            rng.integers(0, 2, (3, array.config.n_stages)),
        ])
        reference = [_reference_search(array, q) for q in queries]
        k = data.draw(st.integers(1, array.n_rows))
        for kernel in KERNELS:
            with force_kernel(kernel):
                batch = array.search_batch(queries)
                top = array.top_k_batch(queries, k)
                single = [array.search(q) for q in queries]
            for i, want in enumerate(reference):
                distances, delays, best, latency, energy, confidence = want
                for got in (batch.result(i), single[i]):
                    assert np.array_equal(got.hamming_distances, distances)
                    assert np.array_equal(got.delays_s, delays)
                    assert got.best_row == best
                    assert got.latency_s == latency
                    assert got.energy_j == energy
                    assert got.confidence == confidence
                    assert got.retired_rows == tuple(sorted(array._retired))
            assert np.array_equal(top.rows, batch.top_k(k)), kernel
            assert top.degraded == batch.degraded
            assert top.pruned == array._ranked_topk_eligible()

    def test_search_is_the_one_query_batch(self):
        """``search(q)`` equals ``search_batch(q[None]).result(0)`` field
        for field, with the same BIST accounting, through automatic BIST
        (retiring a dead row, masking stuck columns) and drift."""
        config = TDAMConfig(n_stages=16)

        def make():
            return ResilientTDAMArray(
                config, 6, n_spares=0,
                faults=[Fault(FaultType.DEAD_ROW, row=1),
                        Fault(FaultType.STUCK_MISMATCH, row=2, stage=3),
                        Fault(FaultType.STUCK_MATCH, row=4, stage=7)],
                variation=VariationModel(sigma_mv=40.0, seed=3),
                bist_interval=3,
            )

        rng = np.random.default_rng(11)
        stored = rng.integers(0, 4, (6, 16))
        single, batched = make(), make()
        single.write_all(stored)
        batched.write_all(stored)
        queries = np.concatenate([stored, rng.integers(0, 4, (6, 16))])
        seen_degraded = seen_drift = False
        for i, q in enumerate(queries):
            if i in (4, 7):
                single.advance_time(1e7)
                batched.advance_time(1e7)
            seen_drift |= single.age_s > 0
            got = single.search(q)
            want = batched.search_batch(q[None, :]).result(0)
            for field in dataclasses.fields(want):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype, field.name
                    assert np.array_equal(a, b), field.name
                else:
                    assert a == b, field.name
            assert single.health_report() == batched.health_report()
            seen_degraded |= got.degraded and bool(got.masked_stages)
        assert seen_degraded and seen_drift
        assert single._retired == {1}

    def test_search_rejects_a_matrix(self):
        array = ResilientTDAMArray(TDAMConfig(n_stages=8), 2)
        array.write_all(np.zeros((2, 8), dtype=np.int64))
        with pytest.raises(ValueError, match="1-D"):
            array.search(np.zeros((1, 8), dtype=np.int64))
        with pytest.raises(ValueError, match="n_stages"):
            array.search(np.zeros(7, dtype=np.int64))
        assert array.health_report().searches_since_bist == 0

    def test_retired_row_never_wins_a_full_timeout_tie(self):
        config = TDAMConfig(n_stages=8)
        array = ResilientTDAMArray(
            config, 4, n_spares=0, faults=[Fault(FaultType.DEAD_ROW, row=0)]
        )
        array.write_all(np.zeros((4, 8), dtype=np.int64))
        array.self_test_and_repair()
        assert array._retired == {0}
        # Every stage of every live row mismatches: all live rows time
        # out at the retired row's distance.
        queries = np.full((2, 8), config.levels - 1)
        batch = array.search_batch(queries)
        assert list(batch.best_rows) == [1, 1]
        assert batch.result(0).best_row == array.search(queries[0]).best_row

    def test_retired_row_ranks_last_at_a_full_timeout_tie(self):
        config = TDAMConfig(n_stages=8)
        array = ResilientTDAMArray(
            config, 4, n_spares=0, faults=[Fault(FaultType.DEAD_ROW, row=0)]
        )
        array.write_all(np.zeros((4, 8), dtype=np.int64))
        array.self_test_and_repair()
        queries = np.full((2, 8), config.levels - 1)
        batch = array.search_batch(queries)
        # The tie is real: live rows read the retired row's distance and
        # delay, so only the retirement can order them.
        assert np.all(batch.hamming_distances == 8)
        assert np.all(batch.delays_s == batch.delays_s[0, 0])
        assert batch.top_k(4).tolist() == [[1, 2, 3, 0]] * 2
        assert batch.top_k(3).tolist() == [[1, 2, 3]] * 2
        top = array.top_k_batch(queries, 4)
        assert top.degraded and not top.pruned
        assert top.rows.tolist() == [[1, 2, 3, 0]] * 2


class TestRankedTopK:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_exhaustive_ranking(self, data):
        config = _config(data.draw)
        m = data.draw(st.integers(1, 12))
        array = FastTDAMArray(config, m)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        array.write_all(rng.integers(0, 2, (m, config.n_stages)))
        queries = rng.integers(0, 2, (data.draw(st.integers(1, 6)), config.n_stages))
        rows = np.flatnonzero(rng.random(m) < 0.6)
        if rows.size == 0 or data.draw(st.booleans()):
            rows = None
        k = data.draw(st.integers(1, m if rows is None else rows.size))
        batch = array.search_batch(queries)
        if rows is None:
            want = batch.top_k(k)
        else:
            sub = np.lexsort((
                np.broadcast_to(rows, (len(queries), rows.size)),
                batch.delays_s[:, rows],
                batch.hamming_distances[:, rows],
            ), axis=1)
            want = rows[sub[:, :k]]
        for kernel in KERNELS:
            with force_kernel(kernel):
                got = array.top_k_batch(queries, k, rows=rows)
            assert np.array_equal(got, want), kernel


def _tensor_forbidden(*args, **kwargs):
    raise AssertionError("a batched path materialized the (Q, M, N) tensor")


class TestNoTensorOnBatchedPaths:
    @pytest.fixture(autouse=True)
    def _forbid_tensor(self, monkeypatch):
        monkeypatch.setattr(FastTDAMArray, "mismatch_tensor", _tensor_forbidden)
        monkeypatch.setattr(
            FaultyTDAMArray, "faulted_mismatch_tensor", _tensor_forbidden
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("variation", [None, 40.0])
    def test_search_and_top_k_never_build_the_tensor(self, kernel, variation):
        config = TDAMConfig(n_stages=16)
        rng = np.random.default_rng(5)
        stored = rng.integers(0, 4, (6, 16))
        queries = rng.integers(0, 4, (4, 16))
        arrays = [
            ResilientTDAMArray(config, 6, n_spares=2),
            ResilientTDAMArray(
                config, 6, n_spares=0,
                faults=[Fault(FaultType.DEAD_ROW, row=1),
                        Fault(FaultType.STUCK_MISMATCH, row=2, stage=3)],
                variation=(
                    None if variation is None
                    else VariationModel(sigma_mv=variation, seed=1)
                ),
            ),
        ]
        with force_kernel(kernel):
            for array in arrays:
                array.write_all(stored)
                array.self_test_and_repair()
                array.advance_time(1e6)
                array.search_batch(queries)
                array.top_k_batch(queries, 3)
                array._physical.search_batch(queries)
                array._physical.top_k_batch(queries, 3)
                array._backing.search_batch(queries)


def _old_write_all(array, matrix):
    """The per-row write loop ``ResilientTDAMArray.write_all`` replaced,
    down to its per-row F_A-then-F_B variation draws."""
    physical = array._physical
    levels = array.config.levels
    for row in range(array.n_rows):
        values = np.asarray(matrix[row], dtype=np.int64)
        array._shadow[row] = values
        if row in array._retired:
            continue
        phys = array._map[row]
        physical._stored[phys] = values
        if physical.variation is not None:
            physical._off_a[phys] = physical.variation.draw(values).vth_shifts
            physical._off_b[phys] = physical.variation.draw(
                levels - 1 - values
            ).vth_shifts
        else:
            physical._off_a[phys] = 0.0
            physical._off_b[phys] = 0.0
        physical.invalidate_threshold_cache()
        array._base_off_a[phys] = physical._off_a[phys]
        array._base_off_b[phys] = physical._off_b[phys]
        array._row_age_s[phys] = 0.0
        array._cycles[phys] += 1


class TestVectorizedWriteAll:
    @pytest.mark.parametrize("variation", [False, True])
    @pytest.mark.parametrize("retire", [False, True])
    def test_bit_identical_to_per_row_loop(self, variation, retire):
        config = TDAMConfig(n_stages=13)
        faults = [
            Fault(FaultType.DEAD_ROW, row=1),
            Fault(FaultType.DEAD_ROW, row=4),
            Fault(FaultType.STUCK_MISMATCH, row=0, stage=5),
        ]
        rng = np.random.default_rng(11)
        first, second = rng.integers(0, 4, (2, 6, 13))
        queries = rng.integers(0, 4, (5, 13))

        def build():
            array = ResilientTDAMArray(
                config, 6, n_spares=1 if retire else 2, faults=faults,
                variation=VariationModel(seed=3) if variation else None,
            )
            array.write_all(first)
            array.self_test_and_repair()
            array.advance_time(1e6)
            return array

        vectorized, looped, public = build(), build(), build()
        assert bool(vectorized._retired) == retire
        vectorized.write_all(second)
        _old_write_all(looped, second)
        for row in range(6):
            public.write(row, second[row])
        for other in (looped, public):
            assert np.array_equal(vectorized._shadow, other._shadow)
            for name in ("_stored", "_off_a", "_off_b"):
                assert np.array_equal(
                    getattr(vectorized._physical, name),
                    getattr(other._physical, name),
                ), name
            for name in ("_base_off_a", "_base_off_b", "_cycles", "_row_age_s"):
                assert np.array_equal(
                    getattr(vectorized, name), getattr(other, name)
                ), name
            want = other.search_batch(queries)
            got = vectorized.search_batch(queries)
            assert np.array_equal(got.hamming_distances, want.hamming_distances)
            assert np.array_equal(got.delays_s, want.delays_s)

    def test_row_refresh_matches_rebuilt_tables(self):
        config = TDAMConfig(n_stages=13)
        array = FastTDAMArray(config, 5, variation=VariationModel(seed=2))
        rng = np.random.default_rng(4)
        array.write_all(rng.integers(0, 4, (5, 13)))
        queries = rng.integers(0, 4, (3, 13))
        with force_kernel("gemm"):
            array.search_batch(queries)  # builds every lazy table
        array.write(3, rng.integers(0, 4, 13))
        refreshed = (
            array._mism_table.copy(), array._mism_packed.copy(),
            array._contrib_levels().copy(), array._gemm_levels().copy(),
        )
        array.invalidate_threshold_cache()
        rebuilt = (
            array._level_tables(), array._mism_packed,
            array._contrib_levels(), array._gemm_levels(),
        )
        for got, want in zip(refreshed, rebuilt):
            assert np.array_equal(got, want)
