"""Tests of the self-healing ResilientTDAMArray wrapper."""

import numpy as np
import pytest

from repro.core.config import TDAMConfig
from repro.core.faults import Fault, FaultType
from repro.resilience.resilient import ResilientTDAMArray


@pytest.fixture
def config():
    return TDAMConfig(n_stages=16)


@pytest.fixture
def stored(config):
    return np.random.default_rng(3).integers(0, 4, size=(6, config.n_stages))


class TestHealthyOperation:
    def test_self_queries_win(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=2)
        array.write_all(stored)
        for row in range(6):
            result = array.search(stored[row])
            assert result.best_row == row
            assert result.hamming_distances[row] == 0
            assert not result.degraded
            assert result.confidence == 1.0

    def test_similarity_uses_effective_stages(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=0)
        array.write_all(stored)
        result = array.search(stored[0])
        assert result.n_effective_stages == config.n_stages
        assert result.similarities[0] == config.n_stages
        assert result.similarity_fractions[0] == 1.0

    def test_mutating_the_input_after_a_write(self, config, stored):
        # Admission does not copy an int64 input; the shadow image and
        # the physical rows must hold their own copies.
        array = ResilientTDAMArray(
            config, n_rows=6, n_spares=1,
            faults=[Fault(FaultType.DEAD_ROW, row=2)],
        )
        matrix = stored.astype(np.int64)
        row = stored[4].astype(np.int64)
        array.write_all(matrix)
        array.write(4, row)
        matrix[:] = 3 - matrix
        row[:] = 0
        array.self_test_and_repair()  # rewrites every row from the shadow
        for r in range(6):
            result = array.search(stored[r])
            assert result.best_row == r
            assert result.hamming_distances[r] == 0

    def test_validation(self, config):
        with pytest.raises(ValueError, match="n_rows"):
            ResilientTDAMArray(config, n_rows=0)
        with pytest.raises(ValueError, match="n_spares"):
            ResilientTDAMArray(config, n_rows=2, n_spares=-1)
        with pytest.raises(ValueError, match="bist_interval"):
            ResilientTDAMArray(config, n_rows=2, bist_interval=0)
        array = ResilientTDAMArray(config, n_rows=2)
        with pytest.raises(IndexError, match="row"):
            array.write(5, np.zeros(config.n_stages, dtype=np.int64))


class TestRepairLoop:
    def test_dead_row_remapped_to_spare(self, config, stored):
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=2,
            faults=[Fault(FaultType.DEAD_ROW, row=2)],
        )
        array.write_all(stored)
        # Before repair the dead row cannot win its own query.
        assert array.search(stored[2]).best_row != 2
        plan = array.self_test_and_repair()
        assert plan.row_remap  # the dead row moved
        result = array.search(stored[2])
        assert result.best_row == 2
        assert result.hamming_distances[2] == 0
        assert not result.degraded

    def test_cell_fault_masked_and_similarity_rescaled(self, config, stored):
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=1,
            faults=[Fault(FaultType.STUCK_MISMATCH, row=0, stage=5)],
        )
        array.write_all(stored)
        array.self_test_and_repair()
        result = array.search(stored[0])
        assert result.masked_stages == (5,)
        assert result.n_effective_stages == config.n_stages - 1
        assert result.best_row == 0
        assert result.hamming_distances[0] == 0
        assert result.similarities[0] == config.n_stages - 1

    def test_retirement_is_never_silent(self, config, stored):
        """Spares exhausted: the lost row is retired, every result is
        flagged, and the retired row can never win."""
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=1,
            faults=[
                Fault(FaultType.DEAD_ROW, row=1),
                Fault(FaultType.DEAD_ROW, row=4),
            ],
        )
        array.write_all(stored)
        array.self_test_and_repair()
        assert array.degraded
        retired = set(array.health_report().retired_rows)
        assert len(retired) == 1
        for row in range(6):
            result = array.search(stored[row])
            assert result.degraded
            assert result.confidence < 1.0
            assert result.best_row not in retired
            if row not in retired:
                assert result.best_row == row

    def test_all_rows_dead(self, config, stored):
        array = ResilientTDAMArray(
            config,
            n_rows=3,
            n_spares=0,
            faults=[Fault(FaultType.DEAD_ROW, row=r) for r in range(3)],
        )
        array.write_all(stored[:3])
        array.self_test_and_repair()
        result = array.search(stored[0])
        assert result.best_row == -1
        assert result.degraded
        assert result.confidence == 0.0

    def test_auto_bist_triggers_and_repairs(self, config, stored):
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=2,
            faults=[Fault(FaultType.DEAD_ROW, row=3)],
            bist_interval=3,
        )
        array.write_all(stored)
        results = [array.search(stored[3]) for _ in range(5)]
        # The loop self-repaired within the interval.
        assert results[0].best_row != 3
        assert results[-1].best_row == 3
        assert array.health_report().last_bist is not None

    def test_write_to_retired_row_is_shadow_only_until_repair(
        self, config, stored
    ):
        array = ResilientTDAMArray(
            config,
            n_rows=3,
            n_spares=0,
            faults=[Fault(FaultType.DEAD_ROW, row=0)],
        )
        array.write_all(stored[:3])
        array.self_test_and_repair()
        assert array.degraded
        fresh = (stored[0] + 1) % 4
        array.write(0, fresh)  # must not raise
        assert (array._shadow[0] == fresh).all()


class TestDriftAndRefresh:
    def test_advance_time_ages_and_drifts(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=0)
        array.write_all(stored)
        assert array.age_s == 0.0
        array.advance_time(1e4)
        assert array.age_s == pytest.approx(1e4)
        # Drift moved the device offsets off their write-time baseline.
        assert np.abs(array._physical._off_a).max() > 0

    def test_refresh_clears_drift_and_spends_endurance(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=0)
        array.write_all(stored)
        cycles_before = array.health_report().cycles_used
        interval = array.scheduler.plan().interval_s
        array.advance_time(interval)
        assert array.refresh_due
        assert array.maybe_refresh()
        assert array.age_s == 0.0
        assert np.abs(array._physical._off_a).max() == 0.0
        assert array.health_report().cycles_used > cycles_before
        assert not array.refresh_due
        assert not array.maybe_refresh()

    def test_search_stays_exact_when_refreshed_on_schedule(
        self, config, stored
    ):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=0)
        array.write_all(stored)
        interval = array.scheduler.plan().interval_s
        for _ in range(3):
            array.advance_time(0.9 * interval)
            array.maybe_refresh()
            for row in range(6):
                assert array.search(stored[row]).best_row == row

    def test_negative_time_rejected(self, config):
        array = ResilientTDAMArray(config, n_rows=2)
        with pytest.raises(ValueError, match="dt_s"):
            array.advance_time(-1.0)


class TestHealthReport:
    def test_report_fields(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=2)
        array.write_all(stored)
        report = array.health_report()
        assert report.n_rows == 6
        assert report.n_spares == 2
        assert report.spares_free == 2
        assert not report.degraded
        assert report.cycle_budget > 0
        assert report.last_bist is None
        array.self_test_and_repair()
        assert array.health_report().last_bist is not None
        assert "rows" in repr(array)

    def test_bist_restores_stored_data(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=1)
        array.write_all(stored)
        array.run_bist()
        for row in range(6):
            assert array.search(stored[row]).best_row == row


class TestTopKBatch:
    def test_pristine_served_by_pruned_cascade(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=2)
        array.write_all(stored)
        queries = np.random.default_rng(7).integers(
            0, 4, size=(8, config.n_stages)
        )
        result = array.top_k_batch(queries, 3)
        assert result.pruned
        assert not result.degraded
        assert result.retired_rows == ()
        expected = array.search_batch(queries).top_k(3)
        assert np.array_equal(result.rows, expected)

    def test_self_queries_win_their_row(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=2)
        array.write_all(stored)
        result = array.top_k_batch(stored, 1)
        assert np.array_equal(result.rows[:, 0], np.arange(6))

    def test_repaired_array_falls_back_exactly(self, config, stored):
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=2,
            faults=[Fault(FaultType.DEAD_ROW, row=2)],
        )
        array.write_all(stored)
        array.self_test_and_repair()
        queries = np.random.default_rng(8).integers(
            0, 4, size=(5, config.n_stages)
        )
        result = array.top_k_batch(queries, 2)
        assert not result.pruned
        assert np.array_equal(
            result.rows, array.search_batch(queries).top_k(2)
        )

    def test_retired_rows_flag_degraded(self, config, stored):
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=0,
            faults=[Fault(FaultType.DEAD_ROW, row=1)],
        )
        array.write_all(stored)
        array.self_test_and_repair()
        queries = stored[:4]
        result = array.top_k_batch(queries, 3)
        assert result.degraded
        assert not result.pruned
        assert 1 in result.retired_rows
        assert 1 not in set(result.rows.ravel())
        assert np.array_equal(
            result.rows, array.search_batch(queries).top_k(3)
        )

    def test_batch_result_top_k_matches_shared_rule(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=2)
        array.write_all(stored)
        queries = np.random.default_rng(9).integers(
            0, 4, size=(4, config.n_stages)
        )
        batch = array.search_batch(queries)
        top = batch.top_k(2)
        for i in range(len(batch)):
            order = np.lexsort(
                (
                    np.arange(6),
                    batch.delays_s[i],
                    batch.hamming_distances[i],
                )
            )
            assert np.array_equal(top[i], order[:2])

    def test_k_validation(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=2)
        array.write_all(stored)
        with pytest.raises(ValueError, match=r"k must be in \[1, 6\]"):
            array.top_k_batch(stored[:1], 7)
