"""Independent brute-force multi-bit Hamming oracle.

Plain numpy, sharing no code with ``repro``: the distance between a
query and a stored row is the number of stages whose levels differ, and
rows rank by (distance, row).  At the nominal design point that equals
the array's (distance, delay, row) order, because every stage's delay
step is identical, so the delay is a strictly increasing function of
the distance.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: Bytes of the (queries, rows, stages) comparison one chunk may build.
_CHUNK_BYTES = 64 << 20
#: Queries whose full distance rows :func:`routed_top_k` holds at once,
#: so the oracle's memory stays small beside the program's.
_QUERY_CHUNK = 16


class HammingOracle:
    """Exact distances and top-k over one stored matrix."""

    def __init__(self, stored: np.ndarray) -> None:
        self.stored = np.ascontiguousarray(stored, dtype=np.uint8)

    def distances(self, queries: np.ndarray) -> np.ndarray:
        """Symbol-mismatch counts, shape (Q, rows)."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.uint8))
        m, n = self.stored.shape
        chunk = max(1, _CHUNK_BYTES // max(1, m * n))
        out = np.empty((q.shape[0], m), dtype=np.int64)
        for start in range(0, q.shape[0], chunk):
            block = q[start:start + chunk]
            out[start:start + chunk] = (
                self.stored[None, :, :] != block[:, None, :]
            ).sum(axis=2)
        return out

    def rank(self, distances: np.ndarray, k: int) -> np.ndarray:
        """Top-k rows of each distance row by (distance, row)."""
        d = np.atleast_2d(distances)
        order = np.argsort(d, axis=1, kind="stable")
        return order[:, :k]

    def top_k(self, queries: np.ndarray, k: int) -> np.ndarray:
        return self.rank(self.distances(queries), k)


def routed_top_k(
    oracle: HammingOracle,
    row_cluster: np.ndarray,
    centroids: np.ndarray,
    queries: np.ndarray,
    k: int,
    nprobe: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-k inside the ``nprobe`` Hamming-nearest clusters.

    Routing ranks clusters by (distance to the quantized centroid,
    cluster id); the answer is the exact (distance, row) top-k of the
    rows those clusters hold, padded with ``-1``.  Returns the rows and
    the exact global top-k (for recall).
    """
    routes = HammingOracle(centroids).top_k(queries, nprobe)
    n = queries.shape[0]
    exact = np.empty((n, k), dtype=np.int64)
    routed = np.full((n, k), -1, dtype=np.int64)
    for lo in range(0, n, _QUERY_CHUNK):
        dists = oracle.distances(queries[lo:lo + _QUERY_CHUNK])
        exact[lo:lo + dists.shape[0]] = oracle.rank(dists, k)
        for i, row in enumerate(dists, start=lo):
            cand = np.flatnonzero(np.isin(row_cluster, routes[i]))
            top = cand[np.argsort(row[cand], kind="stable")[:k]]
            routed[i, :top.shape[0]] = top
    return routed, exact


def recall_at_k(answers: np.ndarray, exact: np.ndarray) -> float:
    """Mean fraction of each exact top-k found in the answer's top-k."""
    hits = [
        np.intersect1d(a[a >= 0], e).shape[0] / e.shape[0]
        for a, e in zip(answers, exact)
    ]
    return float(np.mean(hits)) if hits else 0.0


def describe_mismatch(
    where: str, index: int, got, want
) -> str:
    """One printable line naming a disagreeing answer."""
    return f"oracle mismatch [{where} #{index}]: got {got!r}, want {want!r}"


def first_lines(lines: List[str], limit: int = 20) -> List[str]:
    """At most ``limit`` lines, plus a count of the rest."""
    if len(lines) <= limit:
        return list(lines)
    return lines[:limit] + [f"... and {len(lines) - limit} more"]
