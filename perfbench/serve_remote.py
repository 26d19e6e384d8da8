"""``serve-remote``: open-loop remote search/top-k over loopback TCP.

The server runs in its own process, launched from this file with the
stack ``repro serve`` builds (``build_server_stack``): 256 rows x 128
stages on two replicas, coalescing window 0, no simulated shard cost.
The client offers Poisson arrivals at a few fixed rates through two
``RemoteFrontend`` connections (two worker threads), 80% ``search`` and
20% ``top_k(k=5)``, and times each request from when it was due.

Why: kernel work per request is tiny, so the wire, the socket server,
the front end with its admission control, and the service's routing
and response shaping dominate.

Run as a script (``--serve``) this file is the server launcher.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from perfbench.common import (
    ROOT,
    Outcome,
    autotune_record,
    layer_values,
    overhead,
    peak_rss_mb,
    perturbed_queries,
    timed_setup,
)
from perfbench.oracle import HammingOracle, describe_mismatch
from perfbench.tracer import (
    LayerStats,
    Tracer,
    instrument_service,
    stack_layers,
)

STAGES = 128
REPLICAS = 2
K = 5
TOPK_SHARE = 0.2
CLIENTS = 2
QUERY_NOISE = 0.25
#: Offered rates (requests/s) of the open-loop sweep, lowest first; the
#: traced run is offered the lowest.
RATES = (150.0, 300.0, 450.0)
#: Shares of ``--seconds``: each rate of the open-loop sweep, then the
#: closed loop that gives the gated latency and throughput.
CLOSED_SHARE = 0.6
SWEEP_SHARES = (0.2, 0.1, 0.1)
#: The closed loop runs in segments this long, and the CPU time both
#: processes spend in each is read (see ``closed_ms``).
SEGMENT_S = 0.5
#: A closed-loop step pre-draws this many requests per second.
CLOSED_LOOP_CEILING = 5000
#: p99 limit of the SLO behind ``max_qps_at_slo``.  Host scheduling
#: jitter alone puts open-loop p99 at 5-35 ms on a shared 2-vCPU VM.
SLO_P99_MS = 20.0
#: Largest failed share a rate may have and still meet the SLO.
SLO_FAILED_FRAC = 0.01
#: Generous: a request only fails if something is broken.
DEADLINE_S = 2.0
POOL = 1024
#: Requests per connection sent during set-up.
WARM_UP_REQUESTS = 50


def params(smoke: bool) -> Dict[str, object]:
    return {
        "rows": 32 if smoke else 256,
        "stages": STAGES,
        "replicas": REPLICAS,
        "window_s": 0.0,
        "k": K,
        "topk_share": TOPK_SHARE,
        "clients": CLIENTS,
        "rates": [r / 5 for r in RATES] if smoke else list(RATES),
        "slo_p99_ms": SLO_P99_MS,
        "pool": 64 if smoke else POOL,
    }


def corpus(seed: int, rows: int, pool: int):
    """The stored matrix and query pool both processes derive."""
    from repro.core.config import TDAMConfig

    levels = TDAMConfig(n_stages=STAGES).levels
    rng = np.random.default_rng(seed)
    stored = rng.integers(0, levels, (rows, STAGES))
    return stored, perturbed_queries(stored, pool, levels, QUERY_NOISE, rng)


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class _TimedFuture:
    """Times a front-end future from submit to the server's ``result``."""

    def __init__(self, future, start_ns: int, tracer: Tracer) -> None:
        self._future = future
        self._start_ns = start_ns
        self._tracer = tracer

    def result(self, timeout=None):
        try:
            return self._future.result(timeout)
        finally:
            self._tracer.record(
                "frontend", time.perf_counter_ns() - self._start_ns
            )

    def __getattr__(self, name):
        return getattr(self._future, name)


def _instrument_frontend(tracer: Tracer, frontend) -> None:
    for method in ("submit", "submit_top_k"):
        inner = getattr(frontend, method)

        def shim(*args, _inner=inner, **kwargs):
            if not tracer.enabled:
                return _inner(*args, **kwargs)
            start = time.perf_counter_ns()
            return _TimedFuture(_inner(*args, **kwargs), start, tracer)

        setattr(frontend, method, shim)


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Build the ``repro serve`` stack, serve until SIGTERM, print stats.

    With ``--trace 1`` every layer is wrapped but records nothing until
    SIGUSR1 arrives, so the client can time an untraced phase first.
    """
    from repro.net.loadgen import build_server_stack
    from repro.net.server import serve_until_signal
    from repro.service.loadgen import LoadConfig

    parser = argparse.ArgumentParser()
    parser.add_argument("--serve", action="store_true")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    config = LoadConfig(
        deadline_s=DEADLINE_S,
        window_s=0.0,
        attempt_base_s=0.0,
        attempt_per_query_s=0.0,
        n_rows=args.rows,
        n_shards=REPLICAS,
        n_stages=STAGES,
        seed=args.seed,
    )
    service, frontend = build_server_stack(config)
    # The stack stores a corpus of its own; the benchmark's replaces it,
    # so the program serves only generated inputs.  The stored matrix
    # does not depend on the pool size.
    stored, _ = corpus(args.seed, args.rows, 1)
    service.write_all(stored)
    # Warm the kernels for both single-query request shapes.
    frontend.search(stored[0])
    frontend.top_k(stored[0], K)

    tracer = Tracer(enabled=False)
    if args.trace:
        _instrument_frontend(tracer, frontend)
        instrument_service(tracer, service)
        signal.signal(
            signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True)
        )

    def on_listening(host: str, port: int) -> None:
        print(f"listening on {host}:{port}", flush=True)

    serve_until_signal(frontend, port=0, on_listening=on_listening)
    stats = frontend.stats()
    print("stats " + json.dumps({
        "layers": {k: vars(v) for k, v in tracer.layers.items()},
        "mean_batch_size": stats.mean_batch_size,
        "submitted": stats.submitted,
        "sheds": stats.sheds,
        "peak_rss_mb": peak_rss_mb(),
        "autotune": autotune_record(),
    }), flush=True)
    return 0


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class _Server:
    """One launched server process and its client connections."""

    def __init__(self, seed: int, rows: int, queries: np.ndarray,
                 trace: bool) -> None:
        from repro.net.client import RemoteFrontend

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve_remote.py"),
             "--serve", "--seed", str(seed), "--rows", str(rows),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, env=env, text=True, cwd=str(ROOT),
        )
        self.clients = []
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
            for _ in range(CLIENTS):
                client = RemoteFrontend(
                    "127.0.0.1", self.port, pool_size=1,
                    default_deadline_s=DEADLINE_S,
                )
                client.connect()
                self.clients.append(client)
            self._warm_up(queries)
        except BaseException:
            self.stop()
            raise

    def _warm_up(self, queries: np.ndarray) -> None:
        """Both connections at once, both request kinds, so the first
        requests of every shape run in set-up, not in the timed window."""

        def drive(client) -> None:
            for i in range(WARM_UP_REQUESTS):
                query = queries[i % queries.shape[0]]
                if i % 5 == 4:
                    client.top_k(query, K)
                else:
                    client.search(query)

        threads = [
            threading.Thread(target=drive, args=(c,)) for c in self.clients
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

    def stop(self) -> Dict[str, object]:
        """Close the clients, drain the server, return its stats line."""
        for client in self.clients:
            client.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        for line in out.splitlines():
            if line.startswith("stats "):
                return json.loads(line[len("stats "):])
        return {}


class _Offer:
    """One load step and its scoring.

    With a ``rate`` the step is open-loop: Poisson arrivals on a fixed
    schedule, each timed from when it was due.  Without one it is
    closed-loop: each connection sends its next request as soon as the
    last one returns, until the step's time is up.
    """

    def __init__(self, server: Optional[_Server], rate: Optional[float],
                 duration_s: float, pool: np.ndarray, want: dict,
                 rng: np.random.Generator, outcome: Outcome) -> None:
        self.server = server
        self.rate = rate
        self.duration_s = duration_s
        self.pool = pool
        self.want = want
        self.outcome = outcome
        if rate is not None:
            gaps = rng.exponential(1.0 / rate,
                                   size=int(rate * duration_s * 2) + 8)
            due = np.cumsum(gaps)
            self.due = due[due < duration_s]
        else:
            self.due = np.zeros(int(CLOSED_LOOP_CEILING * duration_s) + 8)
        n = self.due.shape[0]
        self.is_topk = rng.random(n) < TOPK_SHARE
        self.query = rng.integers(0, pool.shape[0], n)
        self.latency = np.full(n, np.nan)
        self.call = np.full(n, np.nan)
        self.late = np.zeros(n)
        self.done = np.zeros(n, dtype=bool)
        self.failed = 0
        self.elapsed_s = 0.0
        #: CPU seconds both processes spent in a closed-loop segment
        #: (set by ``run``).
        self.cpu_s = 0.0
        self.lock = threading.Lock()

    def _serve_one(self, client, i: int, t0: float) -> None:
        from repro.net.wire import WireProtocolError
        from repro.service.errors import ServiceError

        qi = int(self.query[i])
        self.done[i] = True
        start = time.perf_counter()
        if self.rate is None:
            # Closed loop: a request is due when its connection is free.
            self.due[i] = start - t0
        try:
            if self.is_topk[i]:
                response = client.top_k(self.pool[qi], K)
            else:
                response = client.search(self.pool[qi])
        except (ServiceError, WireProtocolError, OSError) as exc:
            with self.lock:
                self.failed += 1
                self.outcome.fail(f"serve-remote error: {exc!r}")
            return
        end = time.perf_counter()
        self.call[i] = end - start
        self.latency[i] = end - (t0 + self.due[i])
        if response.degraded:
            return
        if self.is_topk[i]:
            got = [int(r) for r in np.asarray(response.rows).ravel()]
            want = self.want["top"][qi]
        else:
            got = (int(response.best_row), float(response.best_distance))
            want = self.want["best"][qi]
        if got != want:
            with self.lock:
                self.outcome.fail(describe_mismatch(
                    "serve-remote " + ("top-k" if self.is_topk[i]
                                       else "search"), qi, got, want,
                ))

    def run(self) -> None:
        work: "queue.Queue[Optional[int]]" = queue.Queue()
        t0 = time.perf_counter()
        t_end = t0 + self.duration_s
        cursor = iter(range(self.due.shape[0]))

        def open_worker(client) -> None:
            while True:
                i = work.get()
                if i is None:
                    return
                self._serve_one(client, i, t0)

        def closed_worker(client) -> None:
            while time.perf_counter() < t_end:
                with self.lock:
                    i = next(cursor, None)
                if i is None:
                    return
                self._serve_one(client, i, t0)

        target = open_worker if self.rate is not None else closed_worker
        threads = [
            threading.Thread(target=target, args=(c,), daemon=True)
            for c in self.server.clients
        ]
        for th in threads:
            th.start()
        if self.rate is not None:
            for i, due in enumerate(self.due):
                delay = t0 + due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.late[i] = time.perf_counter() - (t0 + due)
                work.put(i)
            for _ in threads:
                work.put(None)
        for th in threads:
            th.join()
        self.elapsed_s = time.perf_counter() - t0
        self.outcome.attempted += int(self.done.sum())

    def answered(self) -> np.ndarray:
        return self.done & ~np.isnan(self.latency)

    def percentile_ms(self, q: float, topk: Optional[bool] = None) -> float:
        mask = self.answered()
        if topk is not None:
            mask &= self.is_topk == topk
        lat = self.latency[mask]
        return float(np.percentile(lat, q) * 1e3) if lat.size else math.nan

    def meets_slo(self) -> bool:
        """p99 within the limit, few failures, and no growing backlog
        (the last quarter's median also within the limit)."""
        lat = self.latency[self.answered()]
        if lat.shape[0] == 0:
            return False
        failed_frac = self.failed / max(1, int(self.done.sum()))
        tail = lat[-max(1, lat.shape[0] // 4):]
        return (
            np.percentile(lat, 99) * 1e3 <= SLO_P99_MS
            and failed_frac <= SLO_FAILED_FRAC
            and np.median(tail) * 1e3 <= SLO_P99_MS
        )


def closed_ms(closed: List[_Offer], q: float, topk: bool = False,
              scaled: bool = False) -> float:
    """The ``q``-th latency percentile over the closed loop's segments,
    in ms.

    ``scaled`` multiplies each segment's latencies by the CPUs the two
    processes kept busy in it (CPU seconds / elapsed seconds), which
    states them at one busy CPU.  A neighbour that takes the host's
    CPUs lengthens the requests and lowers that share alike, so the
    product holds still while the plain latency moves by 2x.
    """
    lat = np.concatenate([
        offer.latency[offer.answered() & (offer.is_topk == topk)]
        * (offer.cpu_s / offer.elapsed_s if scaled else 1.0)
        for offer in closed
    ])
    return float(np.percentile(lat, q) * 1e3) if lat.size else math.nan


def cpu_s(pid: int) -> float:
    """CPU seconds (user + system) this process and process ``pid`` have
    used so far."""
    with open(f"/proc/{pid}/stat") as f:
        # Fields after the parenthesized command name; utime and stime
        # are fields 14 and 15 of the line.
        fields = f.read().rsplit(")", 1)[1].split()
    other = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    own = os.times()
    return other + own.user + own.system


def max_qps_at_slo(rates: List[float], passed: List[bool]) -> float:
    """The highest offered rate that met the SLO, 0 when none did."""
    best = 0.0
    for rate, ok in zip(rates, passed):
        if not ok:
            break
        best = rate
    return best


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    p = params(smoke)
    stored, pool = corpus(seed, p["rows"], p["pool"])
    oracle = HammingOracle(stored)
    dist = oracle.distances(pool)
    best = np.argmin(dist, axis=1)
    want = {
        "best": [(int(b), float(dist[i, b])) for i, b in enumerate(best)],
        "top": oracle.rank(dist, K).tolist(),
    }
    server, setup_s, setup_times = timed_setup(
        lambda: _Server(seed, p["rows"], pool, trace),
        lambda s: s.stop(),
    )
    outcome = Outcome(record={"params": p, "setup_times_s": setup_times})
    rng = np.random.default_rng([seed, 1])

    def step(rate: Optional[float], share: float) -> _Offer:
        offer = _Offer(server, rate, seconds * share, pool, want, rng,
                       outcome)
        offer.run()
        return offer

    try:
        if not trace:
            # The sweep goes first: the server's first seconds of load
            # run a few tenths of a millisecond slower at the tail.
            sweep = [
                step(rate, share)
                for rate, share in zip(p["rates"], SWEEP_SHARES)
            ]
            segments = max(1, round(seconds * CLOSED_SHARE / SEGMENT_S))
            closed = []
            for _ in range(segments):
                cpu = cpu_s(server.proc.pid)
                offer = step(None, CLOSED_SHARE / segments)
                offer.cpu_s = cpu_s(server.proc.pid) - cpu
                closed.append(offer)
        else:
            untraced = step(p["rates"][0], 0.5)
            server.proc.send_signal(signal.SIGUSR1)
            time.sleep(0.05)
            traced = step(p["rates"][0], 0.5)
    finally:
        server_stats = server.stop()

    if not trace:
        per_rate = {
            str(offer.rate): {
                "offered": int(offer.due.shape[0]),
                "failed": offer.failed,
                "p50_ms": offer.percentile_ms(50, topk=False),
                "p99_ms": offer.percentile_ms(99, topk=False),
                "topk_p50_ms": offer.percentile_ms(50, topk=True),
                "topk_p99_ms": offer.percentile_ms(99, topk=True),
                "all_p99_ms": offer.percentile_ms(99),
                "late_ms_p99": float(np.percentile(offer.late, 99) * 1e3),
                "meets_slo": bool(offer.meets_slo()),
            }
            for offer in sweep
        }
        outcome.e2e = {
            "setup_s": setup_s,
            "p50_ms": closed_ms(closed, 50, scaled=True),
            "qps": sum(int(o.answered().sum()) for o in closed)
            / sum(o.cpu_s for o in closed),
            "quality": 1.0 - outcome.failed / max(1, outcome.attempted),
            "peak_rss_mb": peak_rss_mb()
            + float(server_stats.get("peak_rss_mb", 0.0)),
        }
        outcome.record.update({
            "all_p50_ms": closed_ms(closed, 50),
            "all_qps": sum(int(o.answered().sum()) for o in closed)
            / sum(o.elapsed_s for o in closed),
            "p95_ms": closed_ms(closed, 95),
            "p99_ms": closed_ms(closed, 99),
            "server_autotune": server_stats.get("autotune"),
            "per_rate": per_rate,
            "max_qps_at_slo": max_qps_at_slo(
                [o.rate for o in sweep],
                [v["meets_slo"] for v in per_rate.values()],
            ),
            "topk_p50_ms": closed_ms(closed, 50, topk=True),
            "topk_p99_ms": closed_ms(closed, 99, topk=True),
            "loadgen_late_ms_p99": max(
                v["late_ms_p99"] for v in per_rate.values()
            ),
        })
        return outcome

    layers = {
        name: LayerStats(**fields)
        for name, fields in server_stats.get("layers", {}).items()
    }

    def st(name: str) -> LayerStats:
        return layers.get(name, LayerStats())

    ok_b = traced.answered()
    ok_a = untraced.answered()
    client_us = float(np.mean(traced.call[ok_b]) * 1e6)
    frontend = st("frontend")
    frontend_us = frontend.total_ns / 1e3 / max(1, frontend.calls)
    service = st("service")
    frontend_self_ns = frontend.total_ns - service.item_ns
    e2e_b = float(np.sum(traced.latency[ok_b]))
    # transport + front-end self = client call - service time per query.
    self_sum_s = (
        float(np.sum(traced.call[ok_b])) - service.item_ns / 1e9
        + sum(st(n).self_ns for n in ("service", "resilient", "array")) / 1e9
    )
    submitted = max(1, int(server_stats.get("submitted", 0)))
    outcome.layers = layer_values({
        **stack_layers(st, st("resilient").items, p["rows"]),
        "net.client_call_us": client_us,
        "net.transport_us": client_us - frontend_us,
        "frontend.self_us": frontend_self_ns / 1e3 / max(1, frontend.calls),
        "frontend.batch_size_mean": server_stats.get("mean_batch_size", 0.0),
        "admission.shed_frac": server_stats.get("sheds", 0) / submitted,
        "service.self_us_per_query":
            service.self_ns / 1e3 / max(1, service.items),
        "loadgen.late_ms_p99": float(np.percentile(traced.late, 99) * 1e3),
        "trace.overhead_frac": overhead(
            float(np.mean(untraced.latency[ok_a])),
            float(np.mean(traced.latency[ok_b])),
        ),
        "trace.unattributed_frac": 1.0 - self_sum_s / e2e_b,
    })
    return outcome


if __name__ == "__main__":
    sys.exit(serve_main())
