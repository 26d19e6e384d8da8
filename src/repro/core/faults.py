"""Fault injection: hard defects in the TD-AM and their search impact.

Complements the parametric variation of Fig. 6 with the *hard* fault
classes an array test engineer cares about:

- ``stuck_mismatch`` -- a cell whose MN always discharges (e.g. an F_A
  stuck in its lowest-V_TH state or a shorted match node): its stage
  always adds ``d_C``, inflating every distance through that row by one;
- ``stuck_match`` -- a cell that can never discharge MN (open FeFET
  drain, stuck precharge): mismatches at that position go uncounted;
- ``dead_row`` -- a whole chain out of commission (broken delay line).

:class:`FaultInjector` applies a seeded fault map to a
:class:`~repro.core.array.FastTDAMArray` and
:func:`search_error_statistics` measures the induced Hamming-distance
error -- the basis for yield/repair analyses (row sparing).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.array import (
    BatchSearchResult,
    FastTDAMArray,
    SearchResult,
    _resolve_chunk_arg,
)
from repro.core.config import TDAMConfig


class FaultType(enum.Enum):
    """Supported hard-fault classes."""

    STUCK_MISMATCH = "stuck_mismatch"
    STUCK_MATCH = "stuck_match"
    DEAD_ROW = "dead_row"


@dataclass(frozen=True)
class Fault:
    """One injected fault.

    Attributes:
        kind: The fault class.
        row: Affected row.
        stage: Affected stage (ignored for DEAD_ROW).
    """

    kind: FaultType
    row: int
    stage: int = 0


class FaultyTDAMArray:
    """A :class:`FastTDAMArray` wrapper applying a hard-fault map.

    Args:
        array: The fault-free array (already constructed; writes go
            through this wrapper so the fault map survives re-writes).
        faults: The injected faults.
    """

    def __init__(self, array: FastTDAMArray, faults: Sequence[Fault]) -> None:
        self.array = array
        self.faults = list(faults)
        for fault in self.faults:
            if not 0 <= fault.row < array.n_rows:
                raise ValueError(f"fault row {fault.row} out of range")
            if fault.kind != FaultType.DEAD_ROW and not (
                0 <= fault.stage < array.config.n_stages
            ):
                raise ValueError(f"fault stage {fault.stage} out of range")

    def write(self, row: int, vector) -> None:
        self.array.write(row, vector)

    def write_all(self, matrix) -> None:
        self.array.write_all(matrix)

    @property
    def n_rows(self) -> int:
        """Rows of the wrapped array (interface symmetry)."""
        return self.array.n_rows

    @property
    def config(self) -> TDAMConfig:
        """Design point of the wrapped array (interface symmetry)."""
        return self.array.config

    def _replay(self, mism: np.ndarray) -> np.ndarray:
        """Apply the fault map to (..., M, N) decisions in place.

        Stuck cells override the device-level decision in fault-list
        order; a dead row is all-True (its chain never produces an edge,
        so the controller times out at the maximum distance).  Dead rows
        are applied last and dominate any cell fault on the same row.
        """
        dead_rows: List[int] = []
        for fault in self.faults:
            if fault.kind == FaultType.DEAD_ROW:
                dead_rows.append(fault.row)
            else:
                mism[..., fault.row, fault.stage] = (
                    fault.kind == FaultType.STUCK_MISMATCH
                )
        mism[..., dead_rows, :] = True
        return mism

    def faulted_mismatch_matrix(self, query) -> np.ndarray:
        """Mismatch decisions with the fault map applied (see
        :meth:`_replay`), shape (M, N)."""
        return self._replay(self.array.mismatch_matrix(query))

    def faulted_mismatch_tensor(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> np.ndarray:
        """Batched :meth:`faulted_mismatch_matrix`, shape (Q, M, N).

        The reference oracle of :meth:`mismatch_count_batch`: the fault
        map is query-independent, so it is replayed on the clean tensor
        with the same sequential override semantics.
        """
        return self._replay(self.array.mismatch_tensor(queries, chunk=chunk))

    def mismatch_count_batch(
        self,
        queries: np.ndarray,
        chunk: Optional[int] = None,
        masked_stages: Sequence[int] = (),
    ) -> np.ndarray:
        """Faulted per-row mismatch counts of a query batch, shape (Q, M).

        The dispatched kernel's clean counts plus an exact correction:
        only the stage columns carrying a cell fault or a mask are
        gathered, the fault map is replayed on them (fault-list order,
        masking last) and their faulted-minus-clean sums are added;
        dead rows then time out over every unmasked stage.  Equal to
        summing the masked :meth:`faulted_mismatch_tensor`.

        Args:
            queries: Query levels, shape (Q, n_stages).
            chunk: Queries per kernel chunk; ``None`` auto-sizes.
            masked_stages: Stage columns forced to *match* after the
                fault overrides (the resilient array's column masking;
                applied last, so it silences stuck-mismatch cells and
                trims dead-row timeouts exactly like the scalar path).
        """
        q = self.array._validate_queries(queries)
        counts = self.array.mismatch_count_batch(q, chunk=chunk)
        masked = sorted(set(masked_stages))
        if masked and not 0 <= masked[0] <= masked[-1] < self.config.n_stages:
            raise ValueError(f"masked stages {masked} out of range")
        cells = [f for f in self.faults if f.kind != FaultType.DEAD_ROW]
        cols = sorted(set(masked).union(f.stage for f in cells))
        if cols:
            n = self.config.n_stages
            pos = {stage: i for i, stage in enumerate(cols)}
            masked_pos = [pos[stage] for stage in masked]
            cols_arr = np.asarray(cols)
            table = self.array._level_tables()
            step = _resolve_chunk_arg(chunk, self.n_rows, len(cols))
            for start in range(0, q.shape[0], step):
                block = q[start:start + step]
                clean = table[:, block[:, cols_arr] * n + cols_arr]
                faulted = clean.copy()
                for fault in cells:
                    faulted[fault.row, :, pos[fault.stage]] = (
                        fault.kind == FaultType.STUCK_MISMATCH
                    )
                faulted[:, :, masked_pos] = False
                counts[start:start + step] += (
                    faulted.sum(axis=2) - clean.sum(axis=2)
                ).T
        dead = [f.row for f in self.faults if f.kind == FaultType.DEAD_ROW]
        counts[:, dead] = self.config.n_stages - len(masked)
        return counts

    def search(self, query) -> SearchResult:
        """Search with the fault map applied to the mismatch decisions.

        Delegates delay/decode/ordering/energy to
        :meth:`FastTDAMArray.result_from_mismatch_matrix` (nominal
        ``d_C``), so the faulty path shares the clean path's semantics.
        """
        return self.array.result_from_mismatch_matrix(
            self.faulted_mismatch_matrix(query)
        )

    def search_batch(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> BatchSearchResult:
        """Batched faulty search, bit-exact vs looping :meth:`search`.

        Shares :meth:`FastTDAMArray.batch_result_from_mismatch_counts`
        with the clean batched path (nominal ``d_C`` delays, as in the
        scalar faulty search).
        """
        return self.array.batch_result_from_mismatch_counts(
            self.mismatch_count_batch(queries, chunk=chunk)
        )

    def fault_free_search_batch(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> BatchSearchResult:
        """Batched :meth:`fault_free_search` (nominal-``d_C`` reference)."""
        return self.array.batch_result_from_mismatch_counts(
            self.array.mismatch_count_batch(queries, chunk=chunk)
        )

    def fault_free_search(self, query) -> SearchResult:
        """The same decode path with the fault map removed.

        The reference for :func:`search_error_statistics`: identical
        delay model, TDC decode, and distance -> delay -> row tie-break
        resolution as :meth:`search`, differing only in the faults.
        """
        return self.array.result_from_mismatch_matrix(
            self.array.mismatch_matrix(query)
        )

    def ideal_hamming(self, query) -> np.ndarray:
        return self.array.ideal_hamming(query)


class FaultInjector:
    """Draws seeded random fault maps.

    Args:
        config: Design point (stage count).
        n_rows: Array rows.
        seed: Fault-placement seed.
    """

    def __init__(self, config: TDAMConfig, n_rows: int,
                 seed: Optional[int] = 0) -> None:
        self.config = config
        self.n_rows = n_rows
        self._rng = np.random.default_rng(seed)

    def draw(
        self,
        n_stuck_mismatch: int = 0,
        n_stuck_match: int = 0,
        n_dead_rows: int = 0,
    ) -> List[Fault]:
        """A random non-overlapping fault map of the requested counts."""
        total_cells = self.n_rows * self.config.n_stages
        n_cell_faults = n_stuck_mismatch + n_stuck_match
        if n_cell_faults > total_cells:
            raise ValueError("more cell faults than cells")
        if n_dead_rows > self.n_rows:
            raise ValueError("more dead rows than rows")
        cells = self._rng.choice(total_cells, size=n_cell_faults, replace=False)
        faults: List[Fault] = []
        for i, cell in enumerate(cells):
            kind = (
                FaultType.STUCK_MISMATCH
                if i < n_stuck_mismatch
                else FaultType.STUCK_MATCH
            )
            faults.append(
                Fault(
                    kind=kind,
                    row=int(cell) // self.config.n_stages,
                    stage=int(cell) % self.config.n_stages,
                )
            )
        rows = self._rng.choice(self.n_rows, size=n_dead_rows, replace=False)
        faults.extend(Fault(kind=FaultType.DEAD_ROW, row=int(r)) for r in rows)
        return faults


def search_error_statistics(
    faulty: FaultyTDAMArray,
    queries: np.ndarray,
) -> Dict[str, float]:
    """Distance-error statistics of a faulty array over a query batch.

    Returns:
        ``max_abs_error``, ``mean_abs_error``, ``wrong_best_fraction`` --
        the last one measured against the fault-free array's best row,
        computed through :meth:`FaultyTDAMArray.fault_free_search` so the
        reference uses the *same* distance -> delay -> row tie-break
        resolution as ``search()`` (a row-order-only reference would
        count tie resolutions as wrong bests and inflate the fraction).
    """
    queries = faulty.array._validate_queries(queries)
    faulted = faulty.search_batch(queries)
    clean = faulty.fault_free_search_batch(queries)
    ideal = (
        faulty.array._stored[None, :, :] != queries[:, None, :]
    ).sum(axis=2)
    errors = np.abs(faulted.hamming_distances - ideal).astype(float)
    wrong_best = int((faulted.best_rows != clean.best_rows).sum())
    return {
        "max_abs_error": float(errors.max()),
        "mean_abs_error": float(errors.mean()),
        "wrong_best_fraction": wrong_best / len(queries),
    }
