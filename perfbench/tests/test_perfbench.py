"""The benchmark's own tests: every workload end to end at tiny sizes,
and proof that a corrupted answer is scored as failed.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import common  # noqa: E402
from perfbench.oracle import HammingOracle, recall_at_k  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.6", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_spec_lists_the_metrics_the_runner_prints():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(common.E2E_METRICS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(common.LAYER_METRICS)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == common.E2E_METRICS[m["name"]]
    for m in SPEC["per_layer"]:
        assert m["unit"] == common.LAYER_METRICS[m["name"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload: str, trace: int):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    assert any(line.startswith("oracle: PASS") for line in lines)
    record = next(line for line in lines if line.startswith("record "))
    record = json.loads(record[len("record "):])
    assert record["seed"] == 3 and record["cpu_count"] >= 1


def test_refuses_to_run_without_the_program(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("batch-scan", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["batch_scan", "hdc_classify"])
def test_modeled_fabric_figures_repeat_exactly(workload: str):
    module = __import__(f"perfbench.{workload}", fromlist=["run"])
    first, second = (
        module.run(seed=4, seconds=0.3, trace=False, smoke=True).record
        for _ in range(2)
    )
    for key in ("fabric_ns_per_query", "fabric_pj_per_query"):
        assert first[key] == second[key] > 0


def test_oracle_ranks_by_distance_then_row():
    stored = np.array([[0, 1, 2, 3], [0, 1, 2, 0], [3, 1, 2, 3], [0, 1, 2, 3]])
    oracle = HammingOracle(stored)
    query = np.array([[0, 1, 2, 3]])
    assert oracle.distances(query).tolist() == [[0, 1, 1, 0]]
    assert oracle.top_k(query, 4).tolist() == [[0, 3, 1, 2]]
    assert recall_at_k(np.array([[0, 1]]), np.array([[0, 3]])) == 0.5


def _swap_first_two(rows: np.ndarray) -> np.ndarray:
    rows = np.array(rows, copy=True)
    rows[0, [0, 1]] = rows[0, [1, 0]]
    return rows


def test_swapped_top_rows_count_as_failed(monkeypatch):
    from dataclasses import replace

    from perfbench import batch_scan
    from repro.service.server import TDAMSearchService

    honest = TDAMSearchService.top_k

    def corrupt(self, queries, k, deadline_s=None):
        response = honest(self, queries, k, deadline_s=deadline_s)
        return replace(response, rows=_swap_first_two(response.rows))

    monkeypatch.setattr(TDAMSearchService, "top_k", corrupt)
    outcome = batch_scan.run(seed=5, seconds=0.3, trace=False, smoke=True)
    assert outcome.failed >= 1
    assert all("top-k" in line for line in outcome.mismatches)


def test_wrong_index_answer_counts_as_failed(monkeypatch):
    from dataclasses import replace

    from perfbench import ann_probe
    from repro.index.service import IndexSearchService

    honest = IndexSearchService.top_k

    def corrupt(self, queries, k, deadline_s=None, nprobe=None):
        response = honest(self, queries, k, deadline_s=deadline_s,
                          nprobe=nprobe)
        return replace(response, rows=_swap_first_two(response.rows))

    monkeypatch.setattr(IndexSearchService, "top_k", corrupt)
    outcome = ann_probe.run(seed=5, seconds=0.3, trace=False, smoke=True)
    assert outcome.failed >= 1
    assert all("ann-probe" in line for line in outcome.mismatches)


def test_wrong_class_counts_as_failed(monkeypatch):
    from dataclasses import replace

    from perfbench import hdc_classify
    from repro.service.encode import EncodeSearchService

    honest = EncodeSearchService.search

    def corrupt(self, features, deadline_s=None):
        response = honest(self, features, deadline_s=deadline_s)
        return replace(response, best_row=(response.best_row + 1) % 26)

    monkeypatch.setattr(EncodeSearchService, "search", corrupt)
    outcome = hdc_classify.run(seed=5, seconds=0.3, trace=False, smoke=True)
    assert outcome.failed >= 1
    assert all("single" in line for line in outcome.mismatches)


def test_wrong_remote_answer_counts_as_failed():
    from types import SimpleNamespace

    from perfbench import serve_remote

    stored, pool = serve_remote.corpus(seed=5, rows=16, pool=8)
    dist = HammingOracle(stored).distances(pool)
    best = np.argmin(dist, axis=1)
    want = {
        "best": [(int(b), float(dist[i, b])) for i, b in enumerate(best)],
        "top": HammingOracle(stored).rank(dist, serve_remote.K).tolist(),
    }
    outcome = common.Outcome()
    offer = serve_remote._Offer(
        None, 100.0, 0.5, pool, want, np.random.default_rng(0), outcome
    )

    class Client:
        def search(self, query):
            i = int(np.flatnonzero((pool == query).all(axis=1))[0])
            return SimpleNamespace(
                best_row=int(best[i]) ^ 1, best_distance=float(dist[i].min()),
                degraded=False,
            )

        def top_k(self, query, k):
            i = int(np.flatnonzero((pool == query).all(axis=1))[0])
            rows = np.array(want["top"][i])[None, :]
            return SimpleNamespace(rows=_swap_first_two(rows), degraded=False)

    for i in range(offer.due.shape[0]):
        offer._serve_one(Client(), i, 0.0)
    assert outcome.failed == offer.due.shape[0] >= 1


def test_degraded_answers_are_not_scored_as_wrong():
    from dataclasses import replace

    from perfbench.batch_scan import _Loop
    from repro.service.server import TopKServiceResponse

    outcome = common.Outcome()
    want = np.array([[0, 1], [2, 3]])
    loop = _Loop(None, [None], [None], [np.zeros((2, 4))], [want], 2,
                 outcome)
    flagged = TopKServiceResponse(
        rows=np.array([[1, 0], [3, 2]]), degraded=True, pruned=False,
        shard_id="shard0", attempts=1, retries=0, elapsed_s=0.0,
        outcome="degraded",
    )
    loop._score_top_k(flagged, 0, 0)
    assert outcome.failed == 0 and outcome.attempted == 2
    loop._score_top_k(replace(flagged, degraded=False, outcome="ok"), 0, 0)
    assert outcome.failed == 2
