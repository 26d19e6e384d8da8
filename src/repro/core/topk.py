"""Shared top-k selection under the TD-AM ordering rule.

Every consumer of a search result ranks rows the same way the array's
winner resolution does: smallest decoded distance first, delay breaking
ties, then the lowest row index.  This module is the single home of
that ordering (:func:`top_k_indices`), previously copied across
``SearchResult.top_k``, ``BatchSearchResult.top_k``, and the serving
layer, plus two specialised selections:

- :func:`count_top_k` -- rank integer counts with the index breaking
  ties through distinct ``count * M + index`` keys: one partition plus
  a k-wide sort (the count-ranked top-k of the array, the HDC mapping
  and the index router);
- :func:`grouped_top_k` -- rank flattened ``(query, row)`` candidate
  pairs per query and take the first ``k`` of each group, fully
  vectorized.

The :func:`top_k_indices` fast path uses ``argpartition`` to shrink the
sort to the candidate set when ``k << M``; the final ordering is always
the exact lexicographic rule, so the fast path is bit-identical to a
full lexsort.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["count_top_k", "grouped_top_k", "top_k_indices"]


def _top_k_1d(
    distances: np.ndarray,
    k: int,
    delays_s: Optional[np.ndarray],
    row_ids: Optional[np.ndarray],
) -> np.ndarray:
    m = distances.shape[0]
    if k < m:
        # argpartition narrows the exact sort to rows whose distance
        # ties or beats the k-th smallest (every potential winner).
        part = np.argpartition(distances, k - 1)[:k]
        cand = np.flatnonzero(distances <= distances[part].max())
    else:
        cand = np.arange(m)
    if delays_s is None:
        order = np.lexsort((cand, distances[cand]))
    else:
        order = np.lexsort((cand, delays_s[cand], distances[cand]))
    top = cand[order[:k]]
    return top if row_ids is None else row_ids[top]


def top_k_indices(
    distances: np.ndarray,
    k: int,
    delays_s: Optional[np.ndarray] = None,
    row_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Indices of the ``k`` best rows under (distance, delay, row) order.

    The one implementation of the search-result ranking rule: smallest
    distance first, ``delays_s`` breaking ties when given, then the row
    index (so results are deterministic under full ties).

    Args:
        distances: Decoded distances, shape ``(M,)`` or ``(Q, M)``.
        k: How many rows to return, ``1 <= k <= M``.
        delays_s: Optional matching-shape delays for the tie-break.
        row_ids: Optional global ids of the ``M`` columns (must be
            strictly increasing so the index tie-break is preserved);
            returned in place of positional indices.  Used when ranking
            a row *subset*.

    Returns:
        int64 indices, shape ``(k,)`` for 1-D input or ``(Q, k)``.
    """
    distances = np.asarray(distances)
    m = distances.shape[-1]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    if row_ids is not None:
        row_ids = np.asarray(row_ids)
        if row_ids.shape != (m,):
            raise ValueError(
                f"row_ids shape {row_ids.shape} != ({m},)"
            )
        if m > 1 and not np.all(np.diff(row_ids) > 0):
            raise ValueError("row_ids must be strictly increasing")
    if distances.ndim == 1:
        return _top_k_1d(distances, k, delays_s, row_ids)
    if distances.ndim != 2:
        raise ValueError(
            f"distances must be 1-D or 2-D, got shape {distances.shape}"
        )
    out = np.empty((distances.shape[0], k), dtype=np.int64)
    for i in range(distances.shape[0]):
        out[i] = _top_k_1d(
            distances[i],
            k,
            delays_s[i] if delays_s is not None else None,
            row_ids,
        )
    return out


def count_top_k(counts: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the ``k`` smallest counts, shape (Q, k).

    Ranks by count with the lower index breaking ties -- the
    :func:`top_k_indices` order of an integer matrix without delays.
    The ``count * M + index`` keys are distinct, so one partition plus
    a k-wide sort orders the winners exactly.

    Args:
        counts: Non-negative integer counts, shape (Q, M).
        k: Indices to return per row, ``1 <= k <= M``.
    """
    m = counts.shape[1]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    keys = np.multiply(counts, m, dtype=np.int64)
    keys += np.arange(m)
    if k < m:
        keys.partition(k - 1, axis=1)
        keys = keys[:, :k]
    keys.sort(axis=1)
    return keys % m


def grouped_top_k(
    query_idx: np.ndarray,
    row_idx: np.ndarray,
    primary: np.ndarray,
    k: int,
    n_queries: int,
    secondary: Optional[np.ndarray] = None,
    pad: Optional[int] = None,
) -> np.ndarray:
    """Per-query top-k rows from flattened candidate pairs.

    The scatter/gather merge of the partitioned service: candidates
    arrive as parallel ``(query_idx, row_idx)`` arrays with their exact
    ranking keys.  Ranking per query follows the shared rule --
    ``primary``, then ``secondary`` when given, then ``row_idx``.

    By default each query must hold at least ``k`` candidates.  A
    partitioned corpus serving with partitions skipped cannot guarantee
    that: passing ``pad`` allows short (even empty) groups and fills the
    tail of their output rows with the pad value instead of raising --
    the honest "fewer than k rows were reachable" answer.

    Args:
        query_idx: Query of each candidate pair (ascending), shape (P,).
        row_idx: Row of each candidate pair, shape (P,).
        primary: Primary sort key per pair (decoded distance / count).
        k: Rows to keep per query.
        n_queries: Number of queries (rows of the output).
        secondary: Optional secondary key per pair (delay tie-break).
        pad: Fill value for queries with fewer than ``k`` candidates;
            ``None`` (default) keeps the strict >= k contract.

    Returns:
        int64 row indices, shape ``(n_queries, k)``.
    """
    query_idx = np.asarray(query_idx)
    row_idx = np.asarray(row_idx)
    if secondary is None:
        order = np.lexsort((row_idx, primary, query_idx))
    else:
        order = np.lexsort((row_idx, secondary, primary, query_idx))
    counts = np.bincount(query_idx, minlength=n_queries)
    if n_queries > 0 and counts.min() < k:
        if pad is None:
            raise ValueError(
                f"every query needs >= {k} candidates, "
                f"got min {counts.min()}"
            )
        out = np.full((n_queries, k), int(pad), dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ranked = row_idx[order]
        for q in range(n_queries):
            take = min(k, int(counts[q]))
            out[q, :take] = ranked[starts[q]:starts[q] + take]
        return out
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    take = starts[:, None] + np.arange(k)[None, :]
    return row_idx[order[take]].astype(np.int64)
