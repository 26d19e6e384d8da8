"""``repro index build|search`` end to end on a small store."""

import json

import numpy as np

from repro.cli import main
from repro.index import ClusteredTDAMIndex


def _build(tmp_path):
    store = tmp_path / "store"
    assert main([
        "index", "build", "--out", str(store), "--rows", "1500",
        "--stages", "32", "--clusters", "8", "--sample", "1500",
    ]) == 0
    return store


def _search(store, *extra):
    return main([
        "index", "search", "--store", str(store), "--queries", "12",
        "--k", "5", "--nprobe", "2", "--repeats", "1", *extra,
    ])


def test_search_passes_its_gates(tmp_path, capsys):
    store = _build(tmp_path)
    report = tmp_path / "report.json"
    assert _search(store, "--min-recall", "0.5", "--json-out", str(report)) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert json.loads(report.read_text())["queries"] == 12


def test_single_query_disagreement_fails(tmp_path, capsys, monkeypatch):
    store = _build(tmp_path)
    real = ClusteredTDAMIndex.top_k

    def batch_dependent(self, queries, k, nprobe=None):
        result = real(self, queries, k, nprobe=nprobe)
        if np.asarray(queries).shape[0] == 1:
            result.rows[0] = result.rows[0, ::-1].copy()
        return result

    monkeypatch.setattr(ClusteredTDAMIndex, "top_k", batch_dependent)
    assert _search(store) == 1
    assert "probed alone disagrees" in capsys.readouterr().out
