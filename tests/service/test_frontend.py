"""The coalescing front-end: admission, shedding, bit-exact batching."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.service import (
    AdmissionController,
    CoalescePolicy,
    CoalescingFrontend,
    FakeClock,
    OverloadError,
    QuotaExceededError,
    ShardTimeoutError,
    AllShardsUnavailableError,
    InvalidRequestError,
    TenantQuotas,
)
from repro.telemetry.profile import ProbeRecorder, register_probe

from tests.service.conftest import make_service


def make_frontend(service, clock, max_batch=4, window_s=0.01, **kwargs):
    """A manual-mode (pump-driven) front-end on the shared fake clock."""
    return CoalescingFrontend(
        service,
        policy=CoalescePolicy(window_s=window_s, max_batch=max_batch),
        clock=clock.now,
        auto_dispatch=False,
        **kwargs,
    )


@pytest.fixture
def queries(config):
    return np.random.default_rng(11).integers(
        0, config.levels, size=(16, config.n_stages)
    )


class TestManualMode:
    def test_coalesced_bit_exact_vs_direct(self, service, clock, queries):
        frontend = make_frontend(service, clock, max_batch=8)
        futures = [
            frontend.submit(queries[i], deadline_s=1.0) for i in range(5)
        ]
        clock.advance(0.02)
        assert frontend.pump() == 5
        for i, future in enumerate(futures):
            got = future.result(timeout=0)
            want = service.search(queries[i], deadline_s=1.0)
            assert got.best_row == want.best_row
            assert got.degraded == want.degraded
            assert np.array_equal(
                got.result.hamming_distances,
                want.result.hamming_distances,
            )

    def test_queued_query_owns_its_levels(self, service, clock, queries):
        # A caller reusing its buffer while the request waits in the
        # queue must not change the query that is served.
        frontend = make_frontend(service, clock, max_batch=8)
        buffer = queries[0].astype(np.int64)
        future = frontend.submit(buffer, deadline_s=1.0)
        buffer[:] = queries[1]
        clock.advance(0.02)
        assert frontend.pump() == 1
        want = service.search(queries[0], deadline_s=1.0)
        assert np.array_equal(
            future.result(timeout=0).result.hamming_distances,
            want.result.hamming_distances,
        )

    def test_full_batch_ready_without_window(self, service, clock, queries):
        frontend = make_frontend(service, clock, max_batch=3, window_s=9.0)
        futures = [
            frontend.submit(queries[i], deadline_s=1.0) for i in range(3)
        ]
        # Full batch: due immediately, no window wait needed.
        assert frontend.next_flush_due() == pytest.approx(clock.now())
        frontend.pump()
        assert all(f.done() for f in futures)

    def test_window_flush_for_partial_batch(self, service, clock, queries):
        frontend = make_frontend(service, clock, max_batch=8, window_s=0.01)
        future = frontend.submit(queries[0], deadline_s=1.0)
        assert frontend.pump() == 0  # window not expired
        assert not future.done()
        clock.advance(0.01)
        assert frontend.pump() == 1
        assert future.done()

    def test_topk_coalesced_bit_exact(self, service, clock, queries):
        frontend = make_frontend(service, clock, max_batch=8)
        futures = [
            frontend.submit_top_k(queries[i], 3, deadline_s=1.0)
            for i in range(4)
        ]
        clock.advance(0.02)
        frontend.pump()
        for i, future in enumerate(futures):
            got = future.result(timeout=0)
            want = service.top_k(queries[i][None, :], 3, deadline_s=1.0)
            assert np.array_equal(got.rows, want.rows[0])
            assert got.degraded == want.degraded

    def test_topk_and_search_never_share_a_batch(
        self, service, clock, queries
    ):
        frontend = make_frontend(service, clock, max_batch=8)
        s = frontend.submit(queries[0], deadline_s=1.0)
        t = frontend.submit_top_k(queries[1], 2, deadline_s=1.0)
        clock.advance(0.02)
        frontend.pump()
        assert s.result(timeout=0).best_row >= 0
        assert t.result(timeout=0).rows.shape == (2,)
        assert frontend.stats().batches == 2

    def test_dead_on_arrival_is_shed_at_submit(self, service, clock, queries):
        frontend = make_frontend(service, clock)
        clock.advance(1.0)
        with pytest.raises(OverloadError) as info:
            frontend.submit(queries[0], deadline_at=0.5)
        assert info.value.reason == "queue_deadline"
        assert frontend.stats().shed_queue_deadline == 1

    def test_queue_deadline_shed_before_any_shard_touched(
        self, service, clock, queries
    ):
        frontend = make_frontend(service, clock, window_s=0.01)
        future = frontend.submit(queries[0], deadline_s=0.005)
        served_before = service._requests_served
        clock.advance(0.02)  # deadline expires while queued
        frontend.pump()
        with pytest.raises(OverloadError) as info:
            future.result(timeout=0)
        assert info.value.reason == "queue_deadline"
        # A shed, not a miss: the service never saw the request.
        assert service._requests_served == served_before
        assert frontend.stats().shed_queue_deadline == 1
        assert frontend.stats().deadline_misses == 0

    def test_stale_members_shed_live_members_served(
        self, service, clock, queries
    ):
        frontend = make_frontend(service, clock, max_batch=8, window_s=0.01)
        stale = frontend.submit(queries[0], deadline_s=0.004)
        live = frontend.submit(queries[1], deadline_s=5.0)
        clock.advance(0.01)
        frontend.pump()
        assert isinstance(stale.exception(), OverloadError)
        assert live.result(timeout=0).best_row == service.search(
            queries[1], deadline_s=5.0
        ).best_row

    def test_queue_full_sheds_typed(self, service, clock, queries):
        frontend = make_frontend(
            service,
            clock,
            max_batch=64,
            window_s=9.0,
            admission=AdmissionController(max_queue_depth=2),
        )
        frontend.submit(queries[0], deadline_s=1.0)
        frontend.submit(queries[1], deadline_s=1.0)
        with pytest.raises(OverloadError) as info:
            frontend.submit(queries[2], deadline_s=1.0)
        assert info.value.reason == "queue_full"
        assert frontend.stats().shed_queue_full == 1

    def test_ready_backlog_counts_toward_queue_depth(
        self, service, clock, queries
    ):
        # A full batch awaiting pump() is still queued work: the bound
        # must see it, or overload could hide in the ready backlog.
        frontend = make_frontend(
            service,
            clock,
            max_batch=2,
            window_s=9.0,
            admission=AdmissionController(max_queue_depth=3),
        )
        frontend.submit(queries[0], deadline_s=1.0)
        frontend.submit(queries[1], deadline_s=1.0)  # full -> backlog
        frontend.submit(queries[2], deadline_s=1.0)
        assert frontend.queue_depth == 3
        with pytest.raises(OverloadError):
            frontend.submit(queries[3], deadline_s=1.0)

    def test_quota_shed(self, service, clock, queries):
        quotas = TenantQuotas(clock=clock.now)
        quotas.set_quota("greedy", 10.0, burst=1.0)
        frontend = make_frontend(
            service,
            clock,
            admission=AdmissionController(
                max_queue_depth=64, quotas=quotas
            ),
        )
        frontend.submit(queries[0], tenant="greedy", deadline_s=1.0)
        with pytest.raises(QuotaExceededError) as info:
            frontend.submit(queries[1], tenant="greedy", deadline_s=1.0)
        assert info.value.retry_after_s == pytest.approx(0.1)
        assert frontend.stats().shed_quota == 1
        # Other tenants are unaffected.
        frontend.submit(queries[2], tenant="modest", deadline_s=1.0)

    def test_drain_flushes_pending_and_rejects_new(
        self, service, clock, queries
    ):
        frontend = make_frontend(service, clock, max_batch=8, window_s=9.0)
        future = frontend.submit(queries[0], deadline_s=1.0)
        flushed = frontend.drain()
        assert flushed == 1
        assert future.result(timeout=0).best_row >= 0
        with pytest.raises(OverloadError) as info:
            frontend.submit(queries[1], deadline_s=1.0)
        assert info.value.reason == "draining"
        assert frontend.drain() == 0  # idempotent

    def test_invalid_query_rejected_at_submit(self, service, clock):
        frontend = make_frontend(service, clock)
        with pytest.raises(InvalidRequestError):
            frontend.submit(np.zeros((2, 2)), deadline_s=1.0)
        with pytest.raises(InvalidRequestError):
            frontend.submit_top_k(
                np.zeros(16, dtype=int), k=0, deadline_s=1.0
            )
        # A bad query never poisons batch-mates: nothing was enqueued.
        assert frontend.queue_depth == 0

    def test_service_error_propagates_to_every_member(
        self, config, stored, clock, queries
    ):
        service = make_service(config, stored, clock)

        def boom(shard_id, qs):
            raise ShardTimeoutError(f"{shard_id} down")

        service.add_interceptor(boom)
        frontend = make_frontend(service, clock, max_batch=8)
        futures = [
            frontend.submit(queries[i], deadline_s=1.0) for i in range(3)
        ]
        clock.advance(0.02)
        frontend.pump()
        for future in futures:
            assert isinstance(
                future.exception(), AllShardsUnavailableError
            )
        assert frontend.stats().unavailable == 3

    def test_blocking_calls_require_auto_dispatch(
        self, service, clock, queries
    ):
        frontend = make_frontend(service, clock)
        with pytest.raises(RuntimeError, match="auto_dispatch"):
            frontend.search(queries[0])
        with pytest.raises(RuntimeError, match="auto_dispatch"):
            frontend.top_k(queries[0], 2)

    def test_probes_and_stats(self, service, clock, queries):
        recorder = ProbeRecorder()
        with telemetry.enabled_scope():
            for event in ("service.admission", "coalesce.flush",
                          "frontend.request"):
                register_probe(event, recorder)
            frontend = make_frontend(service, clock, max_batch=8)
            frontend.submit(queries[0], deadline_s=1.0)
            clock.advance(0.02)
            frontend.pump()
        admissions = recorder.payloads("service.admission")
        assert [p["outcome"] for p in admissions] == ["admitted"]
        flushes = recorder.payloads("coalesce.flush")
        assert flushes and flushes[0]["size"] == 1
        assert flushes[0]["reason"] == "window"
        requests = recorder.payloads("frontend.request")
        assert requests and requests[0]["outcome"] == "ok"
        stats = frontend.stats()
        assert stats.goodput == 1 and stats.sheds == 0


class TestAutoDispatch:
    def test_concurrent_callers_coalesce_bit_exact(self, config, stored):
        service = make_service(config, stored, FakeClock())
        queries = np.random.default_rng(5).integers(
            0, config.levels, size=(8, config.n_stages)
        )
        with CoalescingFrontend(
            service,
            policy=CoalescePolicy(window_s=0.005, max_batch=8),
        ) as frontend:
            results = [None] * 8

            def call(i):
                results[i] = frontend.search(queries[i], deadline_s=5.0)

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for i, got in enumerate(results):
            want = service.search(queries[i], deadline_s=5.0)
            assert got.best_row == want.best_row
            assert np.array_equal(
                got.result.hamming_distances,
                want.result.hamming_distances,
            )
        stats = frontend.stats()
        assert stats.goodput == 8
        assert stats.batches < 8  # something actually coalesced

    def test_dispatcher_flushes_window_without_callers(
        self, config, stored
    ):
        service = make_service(config, stored, FakeClock())
        query = stored[0]
        frontend = CoalescingFrontend(
            service, policy=CoalescePolicy(window_s=0.002, max_batch=64)
        )
        try:
            future = frontend.submit(query, deadline_s=5.0)
            # Nobody else submits: the dispatcher thread must flush the
            # window on its own.
            result = future.result(timeout=5.0)
            assert result.best_row == 0
        finally:
            frontend.drain()


# ----------------------------------------------------------------------
# Property: any interleaving of submits, clock advances, and pumps
# yields answers bit-identical to direct (uncoalesced) service calls --
# or a typed queue-deadline shed that provably touched no shard.
# ----------------------------------------------------------------------
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(0, 7),                      # query index
            st.sampled_from([0.004, 0.02, 5.0]),    # deadline (mixed)
        ),
        st.tuples(st.just("advance"),
                  st.sampled_from([0.001, 0.005, 0.02])),
        st.tuples(st.just("pump")),
    ),
    min_size=1,
    max_size=24,
)


class TestCoalescingProperty:
    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS, topk=st.booleans())
    def test_any_interleaving_is_bit_exact(self, ops, topk):
        config_, rng = (
            __import__("repro.core.config", fromlist=["TDAMConfig"]),
            np.random.default_rng(9),
        )
        config = config_.TDAMConfig(n_stages=16)
        stored = rng.integers(0, config.levels, (6, config.n_stages))
        queries = rng.integers(0, config.levels, (8, config.n_stages))
        clock = FakeClock()
        service = make_service(config, stored, clock)
        frontend = make_frontend(
            service, clock, max_batch=3, window_s=0.01
        )
        submitted = []  # (query index, future)
        for op in ops:
            if op[0] == "submit":
                _, qi, deadline_s = op
                try:
                    if topk:
                        future = frontend.submit_top_k(
                            queries[qi], 2, deadline_s=deadline_s
                        )
                    else:
                        future = frontend.submit(
                            queries[qi], deadline_s=deadline_s
                        )
                except OverloadError as exc:
                    assert exc.reason == "queue_deadline"
                    continue
                submitted.append((qi, future))
            elif op[0] == "advance":
                clock.advance(op[1])
            else:
                frontend.pump()
        frontend.drain()
        for qi, future in submitted:
            exc = future.exception()
            if exc is not None:
                # The only legal failure here is a queue-deadline shed.
                assert isinstance(exc, OverloadError)
                assert exc.reason == "queue_deadline"
                continue
            got = future.result(timeout=0)
            if topk:
                want = service.top_k(
                    queries[qi][None, :], 2, deadline_s=100.0
                )
                assert np.array_equal(got.rows, want.rows[0])
            else:
                want = service.search(queries[qi], deadline_s=100.0)
                assert got.best_row == want.best_row
                assert np.array_equal(
                    got.result.hamming_distances,
                    want.result.hamming_distances,
                )
            assert got.degraded == want.degraded
