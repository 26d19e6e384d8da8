"""The TD-AM array: parallel similarity computation (Fig. 3(a)).

``M`` delay chains (rows) share vertical search lines, so one query is
compared against every stored vector concurrently.  Two implementations
are provided with the same search semantics:

- :class:`TDAMArray` -- device-accurate: every cell holds two programmed
  :class:`~repro.devices.fefet.FeFET` models, and write-time variation is
  drawn per device.  Use for circuit-fidelity experiments.
- :class:`FastTDAMArray` -- vectorized: stored levels and V_TH offsets are
  numpy arrays and the conduction decision uses the calibrated switch-on
  overdrive of the same FeFET channel model.  Use for Monte Carlo and the
  HDC-scale workloads (Fig. 6-8).

An integration test asserts the two agree on match decisions and delays.

The fast array additionally serves **query batches**:
:meth:`FastTDAMArray.search_batch` counts mismatches through a dispatched
kernel over write-time per-level tables (packed popcount, one-hot GEMM or
a reference loop) and assembles a
:class:`BatchSearchResult` through array-valued TDC decode
(:meth:`~repro.core.sensing.CounterTDC.count_array`) and a precomputed
energy table (:meth:`~repro.core.energy.TimingEnergyModel.search_energy_table`).
Each per-query slice is bit-exact against :meth:`FastTDAMArray.search`
-- the batch engine exists for throughput, not different semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels as _kernels
from repro.core.bitplane import (
    pack_bit_planes,
    pack_level_planes,
    pack_query_masks,
    packed_mismatch_counts,
    packed_xor_counts,
)
from repro.core.chain import ChainResult, DelayChain
from repro.core.config import TDAMConfig
from repro.core.encoding import LevelEncoding, validate_levels
from repro.core.energy import TimingEnergyModel
from repro.core.sensing import CounterTDC
from repro.core.topk import count_top_k, top_k_indices
from repro.devices.fefet import FeFET, FeFETParams
from repro.devices.variation import VariationModel
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.state import STATE as _TM

# Telemetry instruments (dormant unless repro.telemetry is enabled; the
# disabled fast path in the search kernels is a single boolean check).
_REG = _metrics.get_registry()
_SEARCHES = _REG.counter(
    "tdam_searches_total",
    "Completed array search operations",
    labels=("mode",),
)
_QUERIES = _REG.counter(
    "tdam_queries_total",
    "Queries served across all searches",
    labels=("mode",),
)
_WRITES = _REG.counter(
    "tdam_write_all_total", "Full-array write_all programming operations"
)
_SEARCH_LATENCY = _REG.histogram(
    "tdam_search_latency_seconds",
    "Modeled array search latency (slowest chain) per search",
)
_CACHE_EVENTS = _REG.counter(
    "tdam_threshold_cache_events_total",
    "Threshold/level-table cache lifecycle events",
    labels=("op",),
)

#: Transient-tensor memory budget of the batched kernels (bytes): the
#: auto-sized query chunk bounds the materialized (chunk, rows, stages)
#: float tensor to roughly this footprint.
QUERY_CHUNK_BUDGET_BYTES = 32 * 1024 * 1024
#: Floor of the auto-sized chunk -- tiny chunks drown in loop overhead.
MIN_QUERY_CHUNK = 8
#: Ceiling of the auto-sized chunk -- beyond this the numpy calls are
#: already large and bigger transients only pressure the caches.
MAX_QUERY_CHUNK = 1024


def resolve_query_chunk(
    n_rows: int,
    n_stages: int,
    budget_bytes: int = QUERY_CHUNK_BUDGET_BYTES,
    working_set_bytes: int = 0,
) -> int:
    """Auto-size the query chunk of the batched kernels.

    Chooses the number of queries per materialized ``(chunk, M, N)``
    float tensor so the transient stays near ``budget_bytes``: huge
    arrays get small chunks instead of blowing up memory, tiny arrays
    get large chunks instead of under-filling the vector units.  The
    result is clamped to [:data:`MIN_QUERY_CHUNK`,
    :data:`MAX_QUERY_CHUNK`].  Chunking never changes results -- every
    kernel is bit-exact for any chunk -- so this is purely a
    memory/throughput trade.

    Args:
        n_rows: Rows the kernel will scan.
        n_stages: Stages per row.
        budget_bytes: Transient-tensor memory budget.
        working_set_bytes: Resident bytes the caller touches *besides*
            the per-chunk transient -- e.g. the memmapped bit-plane
            shard a store-backed probe pages in.  Subtracted from the
            budget before sizing so a million-row probe on a small-RAM
            machine does not thrash the page cache; when the working
            set alone exceeds the budget the chunk floors at
            :data:`MIN_QUERY_CHUNK`.
    """
    if n_rows < 1 or n_stages < 1:
        raise ValueError(
            f"n_rows and n_stages must be >= 1, got {n_rows}, {n_stages}"
        )
    if working_set_bytes < 0:
        raise ValueError(
            f"working_set_bytes must be >= 0, got {working_set_bytes}"
        )
    effective = budget_bytes - working_set_bytes
    if effective <= 0:
        return MIN_QUERY_CHUNK
    per_query = n_rows * n_stages * 8
    chunk = effective // per_query
    return int(min(MAX_QUERY_CHUNK, max(MIN_QUERY_CHUNK, chunk)))


def _level_major(tables: np.ndarray) -> np.ndarray:
    """(L, M, N) per-level tables as contiguous (M, L * N) gather rows."""
    return np.ascontiguousarray(tables.transpose(1, 0, 2)).reshape(
        tables.shape[1], -1
    )


def _resolve_chunk_arg(chunk: Optional[int], n_rows: int, n_stages: int) -> int:
    """Validate an explicit chunk or auto-size a ``None`` one."""
    if chunk is None:
        return resolve_query_chunk(n_rows, n_stages)
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    return chunk

#: Memoized turn-on overdrives, keyed by the config fields the bisection
#: actually depends on.  Monte Carlo builds thousands of arrays from the
#: same design point; without the memo each construction re-runs a
#: 60-iteration bisection of the channel model.
_TURN_ON_MEMO: Dict[Tuple[FeFETParams, float], float] = {}

# Sentinel marking the XOR fast-path cache as not-yet-computed (None is
# a valid cached value: "tables are not pure level inequality").
_XOR_UNSET = object()


def calibrate_turn_on_overdrive(config: TDAMConfig) -> float:
    """Gate overdrive (V) at which the FeFET reaches the ON current.

    Bisects the channel model at V_DS = V_DD; this ties the fast array's
    switching decision to the same device physics as the device-accurate
    array.  The result depends only on the FeFET parameters and the
    supply, so it is memoized on ``(config.fefet, config.vdd)`` --
    repeated array constructions (Monte Carlo trials, HDC tiles) reuse
    the first calibration bit-for-bit.
    """
    key = (config.fefet, config.vdd)
    cached = _TURN_ON_MEMO.get(key)
    if cached is not None:
        return cached
    from repro.core.cell import ON_CURRENT_A

    probe = FeFET(config.fefet, rng=np.random.default_rng(0))
    probe.program_vth(config.fefet.vth_center)
    vth = probe.vth
    lo, hi = -0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(probe.ids(vth + mid, config.vdd)) >= ON_CURRENT_A:
            hi = mid
        else:
            lo = mid
    result = 0.5 * (lo + hi)
    _TURN_ON_MEMO[key] = result
    return result


def batched_mismatch_counts(
    queries: np.ndarray,
    vth_a: np.ndarray,
    vth_b: np.ndarray,
    vsl: np.ndarray,
    levels: int,
    von: float,
    chunk: Optional[int] = None,
) -> np.ndarray:
    """Per-row mismatch counts of a query batch, shape (Q, M).

    The shared broadcast kernel behind :meth:`FastTDAMArray.search_batch`
    and :meth:`repro.hdc.mapping.TDAMInference.mismatch_counts`: for each
    query chunk the (chunk, M, N) conduction tensor ``F_A on | F_B on``
    is materialized and reduced over stages.

    Args:
        queries: Validated query levels, shape (Q, N).
        vth_a: Per-cell F_A thresholds including offsets, shape (M, N).
        vth_b: Per-cell F_B thresholds including offsets, shape (M, N).
        vsl: Search-line ladder indexed by level, shape (levels,).
        levels: Number of storable levels.
        von: Calibrated switch-on overdrive (V).
        chunk: Queries per materialized tensor chunk (memory bound);
            ``None`` auto-sizes via :func:`resolve_query_chunk`.
    """
    queries = np.asarray(queries)
    chunk = _resolve_chunk_arg(chunk, vth_a.shape[0], vth_a.shape[1])
    n_q = queries.shape[0]
    out = np.empty((n_q, vth_a.shape[0]), dtype=np.int64)
    for start in range(0, n_q, chunk):
        block = queries[start:start + chunk]
        vsl_a = vsl[block][:, None, :]
        vsl_b = vsl[levels - 1 - block][:, None, :]
        fa_on = (vsl_a - vth_a[None, :, :]) >= von
        fb_on = (vsl_b - vth_b[None, :, :]) >= von
        out[start:start + chunk] = (fa_on | fb_on).sum(axis=2)
    return out


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one parallel search over the whole array.

    Attributes:
        delays_s: Per-row total 2-step delay (the raw TD output).
        counts: Per-row TDC counter codes.
        hamming_distances: Per-row decoded mismatch counts.
        best_row: Row index of the most similar stored vector (smallest
            decoded distance; delay breaks ties, then row order).
        latency_s: Array search latency -- the slowest chain, since rows
            run in parallel.
        energy_j: Total search energy over all rows.
        n_stages: Chain length, for similarity normalization.
    """

    delays_s: np.ndarray
    counts: np.ndarray
    hamming_distances: np.ndarray
    best_row: int
    latency_s: float
    energy_j: float
    n_stages: int

    @property
    def similarities(self) -> np.ndarray:
        """Match counts (N - Hamming distance) per row."""
        return self.n_stages - self.hamming_distances

    def top_k(self, k: int) -> np.ndarray:
        """Row indices of the k most similar stored vectors.

        Ordered by decoded distance, with delay and then row index as
        tie-breakers (the same resolution rule as ``best_row``) -- the
        k-NN primitive for HDC and retrieval workloads.
        """
        return top_k_indices(
            self.hamming_distances, k, delays_s=self.delays_s
        )


@dataclass(frozen=True)
class BatchSearchResult:
    """Outcome of one batched search: Q queries against all M rows.

    Every per-query slice is bit-exact against the corresponding
    single-query :class:`SearchResult` (:meth:`result` reconstructs it);
    the batch object simply keeps the (Q, M) tensors together so
    downstream consumers stay vectorized.

    Attributes:
        delays_s: Per-query per-row 2-step delays, shape (Q, M).
        counts: TDC counter codes, shape (Q, M).
        hamming_distances: Decoded mismatch counts, shape (Q, M).
        best_rows: Winning row per query (distance -> delay -> row
            resolution), shape (Q,).
        latencies_s: Slowest chain per query, shape (Q,).
        energies_j: Total search energy per query, shape (Q,).
        n_stages: Chain length, for similarity normalization.
    """

    delays_s: np.ndarray
    counts: np.ndarray
    hamming_distances: np.ndarray
    best_rows: np.ndarray
    latencies_s: np.ndarray
    energies_j: np.ndarray
    n_stages: int

    def __len__(self) -> int:
        return self.delays_s.shape[0]

    @property
    def n_queries(self) -> int:
        """Number of queries in the batch."""
        return self.delays_s.shape[0]

    @property
    def similarities(self) -> np.ndarray:
        """Match counts (N - Hamming distance), shape (Q, M)."""
        return self.n_stages - self.hamming_distances

    def top_k(self, k: int) -> np.ndarray:
        """Per-query top-k row indices, shape (Q, k).

        Same ordering rule as :meth:`SearchResult.top_k` (distance, then
        delay, then row index).
        """
        return top_k_indices(
            self.hamming_distances, k, delays_s=self.delays_s
        )

    def result(self, i: int) -> SearchResult:
        """The single-query :class:`SearchResult` view of query ``i``."""
        if not -len(self) <= i < len(self):
            raise IndexError(f"query {i} out of range for batch of {len(self)}")
        return SearchResult(
            delays_s=self.delays_s[i],
            counts=self.counts[i],
            hamming_distances=self.hamming_distances[i],
            best_row=int(self.best_rows[i]),
            latency_s=float(self.latencies_s[i]),
            energy_j=float(self.energies_j[i]),
            n_stages=self.n_stages,
        )


def _record_search_telemetry(
    array: "FastTDAMArray", result, mode: str, n_queries: int
) -> None:
    """Metrics + probe emission for one (batched) search; enabled-only.

    ``result`` is a :class:`SearchResult` or :class:`BatchSearchResult`;
    the payload carries the aggregate mismatch spread so a probe hook
    sees the per-stage similarity statistics without re-deriving them.
    """
    _SEARCHES.inc(mode=mode)
    _QUERIES.inc(n_queries, mode=mode)
    distances = result.hamming_distances
    if mode == "single":
        latency = float(result.latency_s)
        energy = float(result.energy_j)
        _SEARCH_LATENCY.observe(latency)
        _emit_probe(
            "array.search",
            rows=array.n_rows,
            stages=array.config.n_stages,
            best_row=int(result.best_row),
            min_mismatches=int(distances.min()),
            max_mismatches=int(distances.max()),
            latency_s=latency,
            energy_j=energy,
        )
    else:
        latency = float(result.latencies_s.max())
        energy = float(result.energies_j.sum())
        _SEARCH_LATENCY.observe(latency)
        _emit_probe(
            "array.search_batch",
            rows=array.n_rows,
            stages=array.config.n_stages,
            queries=n_queries,
            min_mismatches=int(distances.min()),
            max_mismatches=int(distances.max()),
            latency_s=latency,
            energy_j=energy,
        )


def _resolve_best(distances: np.ndarray, delays: np.ndarray) -> int:
    """Smallest distance wins; delay, then row index break ties."""
    order = np.lexsort((np.arange(len(distances)), delays, distances))
    return int(order[0])


def resolve_best_batch(distances: np.ndarray, delays: np.ndarray) -> np.ndarray:
    """Per-query winning row of (Q, M) distance/delay matrices.

    Vectorized lexicographic argmin with the same resolution rule as
    :func:`_resolve_best`: smallest distance wins, delay breaks ties,
    then the lowest row index.
    """
    d_min = distances.min(axis=1, keepdims=True)
    candidates = distances == d_min
    masked = np.where(candidates, delays, np.inf)
    t_min = masked.min(axis=1, keepdims=True)
    return (candidates & (masked == t_min)).argmax(axis=1).astype(np.int64)


class TDAMArray:
    """Device-accurate M-row TD-AM array.

    Args:
        config: Design point (per-chain geometry and electricals).
        n_rows: Number of stored vectors (delay chains).
        rng: Seeded generator for device ensembles and variation draws.
        variation: Optional write-time V_TH variation model; when present,
            each FeFET's offset is re-drawn at write time according to the
            state it is programmed to.
    """

    def __init__(
        self,
        config: TDAMConfig,
        n_rows: int,
        rng: Optional[np.random.Generator] = None,
        variation: Optional[VariationModel] = None,
    ) -> None:
        if n_rows < 1:
            raise ValueError(f"n_rows must be >= 1, got {n_rows}")
        self.config = config
        self.n_rows = n_rows
        self.encoding = LevelEncoding(config)
        self.timing = TimingEnergyModel(config)
        self.tdc = CounterTDC(config, self.timing)
        self.variation = variation
        rng = rng if rng is not None else np.random.default_rng()
        self._rng = rng
        self.chains: List[DelayChain] = [
            DelayChain(config, timing=self.timing, rng=rng, name=f"row{r}")
            for r in range(n_rows)
        ]

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write(self, row: int, vector: Sequence[int]) -> None:
        """Program one row; draws write-time variation when configured."""
        self._check_row(row)
        chain = self.chains[row]
        if self.variation is not None:
            values = self.encoding.validate_vector(vector)
            levels = self.config.levels
            for stage, value in zip(chain.stages, values):
                fa_state = int(value)
                fb_state = levels - 1 - int(value)
                sample = self.variation.draw([fa_state, fb_state])
                stage.set_vth_offsets(*sample.vth_shifts)
        chain.write(vector)

    def write_all(self, matrix: Sequence[Sequence[int]]) -> None:
        """Program every row from an (n_rows, n_stages) matrix."""
        matrix = np.asarray(matrix)
        if matrix.shape[0] != self.n_rows:
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows, array has {self.n_rows}"
            )
        for row in range(self.n_rows):
            self.write(row, matrix[row])

    # ------------------------------------------------------------------
    # Search path
    # ------------------------------------------------------------------
    def search(self, query: Sequence[int]) -> SearchResult:
        """Parallel 2-step search of the query against every row."""
        results: List[ChainResult] = [
            chain.search(query) for chain in self.chains
        ]
        delays = np.array([r.delay_total_s for r in results])
        counts = np.array([self.tdc.count(d) for d in delays])
        distances = np.array([self.tdc.decode_mismatches(d) for d in delays])
        energy = float(sum(r.energy_j for r in results))
        return SearchResult(
            delays_s=delays,
            counts=counts,
            hamming_distances=distances,
            best_row=_resolve_best(distances, delays),
            latency_s=float(delays.max()),
            energy_j=energy,
            n_stages=self.config.n_stages,
        )

    def row_result(self, row: int, query: Sequence[int]) -> ChainResult:
        """Full per-chain result for one row (diagnostics)."""
        self._check_row(row)
        return self.chains[row].search(query)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range [0, {self.n_rows - 1}]")

    def __repr__(self) -> str:
        return (
            f"TDAMArray({self.n_rows} rows x {self.config.n_stages} stages, "
            f"{self.config.bits}-bit)"
        )


class FastTDAMArray:
    """Vectorized TD-AM array with calibrated conduction thresholds.

    Functionally equivalent to :class:`TDAMArray` but stores levels and
    V_TH offsets as numpy arrays.  The FeFET switch decision uses the
    turn-on overdrive calibrated from the same channel model (gate
    overdrive at which the drain current reaches the 1 uA ON threshold),
    so variation-induced comparison flips agree with the device-accurate
    array.

    Per-cell threshold tensors (``V_TH + offset`` for F_A/F_B, plus the
    nominal overdrive references of the delay-modulation path) are
    materialized at write time and cached between searches.  Code that
    mutates ``_off_a``/``_off_b`` **in place** (retention drift, BIST
    restore) must call :meth:`invalidate_threshold_cache` afterwards;
    wholesale re-assignment of those attributes (and of ``_vsl``, the
    re-biasable search-line ladder) invalidates automatically.

    Args:
        config: Design point.
        n_rows: Number of stored vectors.
        variation: Optional write-time variation model.
        rng: Unused directly (variation model owns its stream); kept for
            interface symmetry.
    """

    def __init__(
        self,
        config: TDAMConfig,
        n_rows: int,
        variation: Optional[VariationModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_rows < 1:
            raise ValueError(f"n_rows must be >= 1, got {n_rows}")
        self.config = config
        self.n_rows = n_rows
        self.encoding = LevelEncoding(config)
        self.timing = TimingEnergyModel(config)
        self.tdc = CounterTDC(config, self.timing)
        self.variation = variation
        self._vth = np.array(config.vth_levels)
        # The live (re-biasable) ladder and its nominal design value;
        # hoisted here so search() never rebuilds them per call.
        self._vsl = np.array(config.vsl_levels)
        self._vsl_nom = np.array(config.vsl_levels)
        self._stored = np.full((n_rows, config.n_stages), -1, dtype=np.int64)
        self._off_a = np.zeros((n_rows, config.n_stages))
        self._off_b = np.zeros((n_rows, config.n_stages))
        self._von = calibrate_turn_on_overdrive(config)
        # Per-call constants of the delay law and energy accounting.
        self._base_delay = 2 * config.n_stages * self.timing.d_inv
        self._d_c = self.timing.d_c
        self._delay_sens = config.delay_variation_sensitivity / config.vdd
        self._written = np.zeros(n_rows, dtype=bool)
        self._all_written = False
        self._xor_planes_cache = _XOR_UNSET

    @property
    def turn_on_overdrive(self) -> float:
        """Calibrated switch-on overdrive (V)."""
        return self._von

    # ------------------------------------------------------------------
    # Threshold cache
    # ------------------------------------------------------------------
    @property
    def _off_a(self) -> np.ndarray:
        return self._off_a_data

    @_off_a.setter
    def _off_a(self, value) -> None:
        self._off_a_data = np.asarray(value, dtype=float)
        self._thresholds_valid = False
        self._tables_valid = False
        self._nominal_cache = None

    @property
    def _off_b(self) -> np.ndarray:
        return self._off_b_data

    @_off_b.setter
    def _off_b(self, value) -> None:
        self._off_b_data = np.asarray(value, dtype=float)
        self._thresholds_valid = False
        self._tables_valid = False
        self._nominal_cache = None

    @property
    def _vsl(self) -> np.ndarray:
        return self._vsl_data

    @_vsl.setter
    def _vsl(self, value) -> None:
        # The search-line ladder is applied per query, so the threshold
        # tensors stay valid -- but the per-level mismatch tables bake
        # it in and must rebuild after a re-bias.
        self._vsl_data = np.asarray(value, dtype=float)
        self._tables_valid = False
        self._nominal_cache = None

    def invalidate_threshold_cache(self) -> None:
        """Mark the per-cell threshold tensors (and level tables) stale.

        Call after mutating ``_off_a``/``_off_b``/``_vsl`` (or
        ``_stored``) in place; the tensors are rebuilt lazily on the
        next search.  Re-assigning those attributes wholesale
        invalidates on its own.
        """
        self._thresholds_valid = False
        self._tables_valid = False
        self._nominal_cache = None
        if _TM.enabled:
            _CACHE_EVENTS.inc(op="invalidate")
            _emit_probe("cache.threshold", op="invalidate")

    def _timing_is_nominal(self) -> bool:
        """Whether every delay modulation input sits at its design value.

        True iff all V_TH offsets are exactly zero and the live
        search-line ladder equals the nominal one.  In that regime the
        per-cell effective mismatch delay is *exactly* the nominal
        ``d_C`` (the overdrive deviation computes to 0.0), so every
        search path -- scalar, GEMM, packed -- can take the
        counts-times-``d_C`` delay form and stay mutually bit-exact.
        The flag is cached and invalidated with the threshold cache.
        """
        if self._nominal_cache is None:
            self._nominal_cache = bool(
                not self._off_a_data.any()
                and not self._off_b_data.any()
                and np.array_equal(self._vsl_data, self._vsl_nom)
            )
        return self._nominal_cache

    def _thresholds(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(vth_a, vth_b, vth_a_nom, vth_b_nom) per-cell tensors, cached."""
        if not self._thresholds_valid:
            levels = self.config.levels
            self._vth_a_nom = self._vth[self._stored]
            self._vth_b_nom = self._vth[levels - 1 - self._stored]
            self._vth_a = self._vth_a_nom + self._off_a_data
            self._vth_b = self._vth_b_nom + self._off_b_data
            self._thresholds_valid = True
        return self._vth_a, self._vth_b, self._vth_a_nom, self._vth_b_nom

    def _update_row_thresholds(
        self, rows: np.ndarray, values: np.ndarray
    ) -> None:
        """Refresh the written rows of every live cache after a write.

        Each table row is the full rebuild's elementwise arithmetic on a
        row subset, so an updated cache is bit-identical to a rebuilt
        one; tables that were never built stay unbuilt.
        """
        if not self._thresholds_valid:
            self._tables_valid = False
            return
        levels = self.config.levels
        self._vth_a_nom[rows] = self._vth[values]
        self._vth_b_nom[rows] = self._vth[levels - 1 - values]
        self._vth_a[rows] = self._vth_a_nom[rows] + self._off_a_data[rows]
        self._vth_b[rows] = self._vth_b_nom[rows] + self._off_b_data[rows]
        if not self._tables_valid:
            return
        mism = self._level_mismatch(rows)
        self._mism_table[rows] = _level_major(mism)
        self._mism_packed[:, rows, :] = pack_level_planes(mism)
        if self._contrib_table is not None:
            self._contrib_table[rows] = _level_major(self._level_contrib(rows))
        if self._mism_gemm is not None:
            self._mism_gemm[:, :, rows] = mism.transpose(0, 2, 1)
        self._xor_planes_cache = _XOR_UNSET

    def _level_conduction(
        self, rows=slice(None)
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-query-level (F_A on, F_B on) decisions of ``rows``.

        Shape ``(L, len(rows), N)``: entry ``[l]`` replays the scalar
        :meth:`search` arithmetic for a stage whose query level is
        ``l`` -- the same IEEE operations on the same operands -- which
        is what lets the batched kernels gather from write-time tables
        instead of recomputing per query.  One level at a time through
        a reused buffer, so no ``(L, M, N)`` float temporary is ever
        allocated.
        """
        vth_a, vth_b, _, _ = (t[rows] for t in self._thresholds())
        levels = self.config.levels
        fa_on = np.empty((levels,) + vth_a.shape, dtype=bool)
        fb_on = np.empty_like(fa_on)
        scratch = np.empty(vth_a.shape)
        for level in range(levels):
            np.subtract(self._vsl[level], vth_a, out=scratch)
            np.greater_equal(scratch, self._von, out=fa_on[level])
            np.subtract(self._vsl[levels - 1 - level], vth_b, out=scratch)
            np.greater_equal(scratch, self._von, out=fb_on[level])
        return fa_on, fb_on

    def _level_mismatch(self, rows=slice(None)) -> np.ndarray:
        """Per-query-level boolean mismatch decisions, (L, len(rows), N)."""
        fa_on, fb_on = self._level_conduction(rows)
        return np.logical_or(fa_on, fb_on, out=fa_on)

    def _level_contrib(self, rows=slice(None)) -> np.ndarray:
        """Per-query-level delay contributions ``mism * d_c_eff`` (s).

        The elementwise delay modulation of the scalar :meth:`search`,
        shape (L, len(rows), N); only non-nominal timing needs it.
        """
        vth_a, vth_b, vth_a_nom, vth_b_nom = (
            t[rows] for t in self._thresholds()
        )
        fa_on, fb_on = self._level_conduction(rows)
        levels = self.config.levels
        vsl_a = self._vsl[:levels, None, None]
        vsl_b = self._vsl[levels - 1::-1, None, None]
        vsl_a_nom = self._vsl_nom[:levels, None, None]
        vsl_b_nom = self._vsl_nom[levels - 1::-1, None, None]
        dev_a = (vsl_a_nom - vth_a_nom) - (vsl_a - vth_a)
        dev_b = (vsl_b_nom - vth_b_nom) - (vsl_b - vth_b)
        deviation = np.where(fa_on, dev_a, dev_b)
        d_c_eff = self._d_c * np.maximum(
            1.0 + self._delay_sens * deviation, 0.0
        )
        return (fa_on | fb_on) * d_c_eff

    def _level_tables(self) -> np.ndarray:
        """The mismatch gather table, shape (n_rows, L * n_stages).

        A lazily rebuilt write-time cache indexed by ``level * n_stages
        + stage``: ``mism[m, l * N + n]`` is the mismatch decision of
        cell ``(m, n)`` against query level ``l``.  A rebuild also packs
        the same decisions into the (L, M, B) bit-planes of the popcount
        kernel (``_mism_packed``, see :mod:`repro.core.bitplane`); the
        delay-contribution and GEMM tables are built on first use only.
        """
        if not self._tables_valid:
            if _TM.enabled:
                _CACHE_EVENTS.inc(op="rebuild")
                _emit_probe("cache.threshold", op="rebuild")
                with _trace.span(
                    "array.rebuild_tables",
                    rows=self.n_rows,
                    stages=self.config.n_stages,
                ):
                    self._rebuild_level_tables()
            else:
                self._rebuild_level_tables()
        elif _TM.enabled:
            _CACHE_EVENTS.inc(op="hit")
        return self._mism_table

    def _rebuild_level_tables(self) -> None:
        """Materialize the gather table and bit-planes from the thresholds."""
        mism = self._level_mismatch()
        self._mism_table = _level_major(mism)
        self._mism_packed = pack_level_planes(mism)
        self._contrib_table = None
        self._mism_gemm = None
        self._xor_planes_cache = _XOR_UNSET
        self._tables_valid = True

    def _contrib_levels(self) -> np.ndarray:
        """Delay-contribution gather table (s), (n_rows, L * n_stages).

        Laid out like :meth:`_level_tables`; built on first use by
        :meth:`_delay_adders` (non-nominal timing only).
        """
        self._level_tables()
        if self._contrib_table is None:
            self._contrib_table = _level_major(self._level_contrib())
        return self._contrib_table

    def _gemm_levels(self) -> np.ndarray:
        """(L, n_stages, n_rows) float mismatch table of the GEMM kernel.

        Every product and partial sum of the one-hot matmul is a small
        integer, exactly representable in float64, so any BLAS
        accumulation order reproduces the boolean-gather counts
        bit-for-bit.  Built on first use by :meth:`_counts_gemm`.
        """
        mism_table = self._level_tables()
        if self._mism_gemm is None:
            self._mism_gemm = np.ascontiguousarray(
                mism_table.reshape(self.n_rows, self.config.levels, -1)
                .transpose(1, 2, 0)
                .astype(float)
            )
        return self._mism_gemm

    def _xor_bit_planes(self) -> Optional[np.ndarray]:
        """(bits, M, B) stored-level bit-planes, or ``None``.

        The packed kernel's XOR fast path is sound only when the
        mismatch tables are *pure level inequality* -- which the cache
        proves, not assumes: the inequality planes are packed and
        compared byte-for-byte against ``_mism_packed``.  Any variation
        offset or bias deviation that flips even one table entry fails
        the comparison and the kernel falls back to the general one-hot
        plane reduction.  Invalidated whenever the tables rebuild.
        """
        self._level_tables()
        if self._xor_planes_cache is _XOR_UNSET:
            stored = self._stored
            levels = self.config.levels
            eligible = (
                levels >= 2
                and levels & (levels - 1) == 0
                and stored.min() >= 0
            )
            if eligible:
                ineq = np.arange(levels)[:, None, None] != stored[None, :, :]
                eligible = np.array_equal(
                    self._mism_packed, pack_level_planes(ineq)
                )
            self._xor_planes_cache = (
                pack_bit_planes(stored, levels.bit_length() - 1)
                if eligible else None
            )
        return self._xor_planes_cache

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write(self, row: int, vector: Sequence[int]) -> None:
        """Program one row (vectorized)."""
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range [0, {self.n_rows - 1}]")
        values = self.encoding.validate_vector(vector)
        if len(values) != self.config.n_stages:
            raise ValueError(
                f"vector length {len(values)} != n_stages {self.config.n_stages}"
            )
        self._write_rows(np.array([row]), values[None, :])

    def _write_rows(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Program distinct ``rows`` with validated ``values``, in order.

        Equivalent to per-row :meth:`write` calls: variation is drawn in
        one flat draw in the same stream order (row by row, F_A then
        F_B), and live caches are refreshed for just the written rows.
        """
        self._stored[rows] = values
        if self.variation is not None:
            n = self.config.n_stages
            states = np.empty((rows.size, 2, n), dtype=np.int64)
            states[:, 0, :] = values
            states[:, 1, :] = self.config.levels - 1 - values
            shifts = self.variation.draw(states.reshape(-1)).vth_shifts
            shifts = shifts.reshape(rows.size, 2, n)
            self._off_a_data[rows] = shifts[:, 0, :]
            self._off_b_data[rows] = shifts[:, 1, :]
            self._nominal_cache = None
        self._update_row_thresholds(rows, values)
        if not self._all_written:
            self._written[rows] = True
            self._all_written = bool(self._written.all())

    def write_all(self, matrix: Sequence[Sequence[int]]) -> None:
        """Program every row from an (n_rows, n_stages) matrix.

        One vectorized write: validation, variation draws, and the
        cache refresh happen on whole matrices, and seeded runs are
        bit-identical to a per-row :meth:`write` loop.
        """
        if not _TM.enabled:
            return self._write_all_impl(matrix)
        with _trace.span(
            "array.write_all",
            rows=self.n_rows,
            stages=self.config.n_stages,
        ):
            self._write_all_impl(matrix)
        _WRITES.inc()
        _emit_probe(
            "array.write_all", rows=self.n_rows, stages=self.config.n_stages
        )

    def _write_all_impl(self, matrix: Sequence[Sequence[int]]) -> None:
        values = self._validate_stored(matrix, self.n_rows)
        self._write_rows(np.arange(self.n_rows), values)

    def _validate_stored(self, matrix, n_rows: int) -> np.ndarray:
        """Validate an (n_rows, n_stages) matrix of stored levels."""
        matrix = np.asarray(matrix)
        if matrix.shape[0] != n_rows:
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows, array has {n_rows}"
            )
        values = self._validate_matrix(matrix)
        if values.shape[1] != self.config.n_stages:
            raise ValueError(
                f"vector length {values.shape[1]} != "
                f"n_stages {self.config.n_stages}"
            )
        return values

    def _validate_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Matrix analog of ``LevelEncoding.validate_vector``."""
        return validate_levels(
            matrix, self.config.levels, ndim=2, name="vector"
        )

    # ------------------------------------------------------------------
    # Search path
    # ------------------------------------------------------------------
    def _check_written(self) -> None:
        if not self._all_written:
            if bool(self._written.all()):
                self._all_written = True
            else:
                raise RuntimeError("search before all rows were written")

    def mismatch_matrix(self, query: Sequence[int]) -> np.ndarray:
        """Device-level mismatch decisions, shape (n_rows, n_stages)."""
        self._check_written()
        q = self.encoding.validate_vector(query)
        if len(q) != self.config.n_stages:
            raise ValueError(
                f"query length {len(q)} != n_stages {self.config.n_stages}"
            )
        levels = self.config.levels
        vth_a, vth_b, _, _ = self._thresholds()
        vsl_a = self._vsl[q][None, :]
        vsl_b = self._vsl[levels - 1 - q][None, :]
        fa_on = (vsl_a - vth_a) >= self._von
        fb_on = (vsl_b - vth_b) >= self._von
        return fa_on | fb_on

    def mismatch_tensor(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> np.ndarray:
        """Mismatch decisions for a query batch, shape (Q, n_rows, n_stages).

        Materializes the full boolean tensor -- use the count/search
        batch entry points when only reductions are needed.  Each
        ``[i]`` slice equals ``mismatch_matrix(queries[i])``.
        """
        q = self._validate_queries(queries)
        chunk = _resolve_chunk_arg(chunk, self.n_rows, self.config.n_stages)
        mism_table = self._level_tables()
        n = self.config.n_stages
        stage_idx = np.arange(n)
        out = np.empty((q.shape[0], self.n_rows, n), dtype=bool)
        for start in range(0, q.shape[0], chunk):
            block = q[start:start + chunk]
            idx = block * n + stage_idx
            out[start:start + chunk] = mism_table.take(idx, axis=1).transpose(1, 0, 2)
        return out

    def _validate_queries(self, queries: np.ndarray) -> np.ndarray:
        """Validate a (Q, n_stages) query batch."""
        self._check_written()
        q = np.atleast_2d(np.asarray(queries))
        q = self._validate_matrix(q)
        if q.shape[1] != self.config.n_stages:
            raise ValueError(
                f"query length {q.shape[1]} != "
                f"n_stages {self.config.n_stages}"
            )
        return q

    def mismatch_count_batch(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> np.ndarray:
        """Per-row mismatch counts of a query batch, shape (Q, n_rows).

        The reduction-only entry point (no delay modulation) and the one
        way batched counts are computed: the dispatched count kernel of
        :meth:`search_batch` (packed popcount / one-hot GEMM / reference
        loop), bit-identical to the :func:`batched_mismatch_counts`
        recompute kernel.
        """
        q = self._validate_queries(queries)
        return self._batch_kernel(q, self._resolve_batch_chunk(chunk, q))

    def result_from_mismatch_matrix(
        self,
        mism: np.ndarray,
        d_c_eff: Optional[np.ndarray] = None,
    ) -> SearchResult:
        """Assemble a :class:`SearchResult` from per-cell mismatch decisions.

        The single place where the delay law ``d_tot = 2 N d_INV +
        N_mis d_C`` is turned into delays, TDC counts, decoded distances,
        the distance -> delay -> row winner resolution, and the energy
        total.  Both the clean search path and the fault-injected one
        (:class:`~repro.core.faults.FaultyTDAMArray`) go through here, so
        their decode and ordering semantics cannot drift apart.

        Args:
            mism: Boolean mismatch decisions, shape (n_rows, n_stages).
                A row whose chain never produces an edge (dead row) is
                represented as all-True: its delay evaluates to the
                controller timeout ``chain_delay(n_stages)`` and it
                decodes to the maximum distance.
            d_c_eff: Optional per-cell effective mismatch delay adder (s),
                shape (n_rows, n_stages); defaults to the nominal ``d_C``
                for every cell.
        """
        mism = np.asarray(mism, dtype=bool)
        if mism.shape != (self.n_rows, self.config.n_stages):
            raise ValueError(
                f"mismatch matrix shape {mism.shape} != "
                f"({self.n_rows}, {self.config.n_stages})"
            )
        mismatch_counts = mism.sum(axis=1)
        if d_c_eff is None:
            delays = self._base_delay + mismatch_counts * self._d_c
        else:
            delays = self._base_delay + (mism * d_c_eff).sum(axis=1)
        with _trace.span("array.sense", rows=self.n_rows):
            counts = self.tdc.count_array(delays)
            distances = self.tdc.decode_array(delays)
        energy = float(
            self.timing.search_energy_table()[mismatch_counts].sum()
        )
        return SearchResult(
            delays_s=delays,
            counts=counts,
            hamming_distances=distances,
            best_row=_resolve_best(distances, delays),
            latency_s=float(delays.max()),
            energy_j=energy,
            n_stages=self.config.n_stages,
        )

    def batch_result_from_mismatch_counts(
        self,
        mismatch_counts: np.ndarray,
        delay_adders_s: Optional[np.ndarray] = None,
    ) -> BatchSearchResult:
        """Assemble a :class:`BatchSearchResult` from (Q, M) mismatch counts.

        The batch analog of :meth:`result_from_mismatch_matrix`: the same
        delay law, array-valued TDC decode, energy table, and winner
        resolution -- evaluated on whole matrices.  Used by the clean
        batched search, the fault-injected wrapper, and the resilient
        array, so the batched semantics cannot drift from the scalar
        ones.

        Args:
            mismatch_counts: True per-row mismatch counts, shape (Q, M)
                (drives the energy accounting and, absent
                ``delay_adders_s``, the delays).
            delay_adders_s: Optional per-query per-row mismatch delay
                totals (s), shape (Q, M), replacing the nominal
                ``counts * d_C`` term (the variation-modulated path).
        """
        # C-layout normalization matters for bit-exactness: advanced
        # indexing preserves the index array's memory order, so a
        # transposed counts view would make the energy gather F-ordered
        # and its axis-1 sum reduce in a different pairwise blocking.
        mismatch_counts = np.ascontiguousarray(mismatch_counts)
        if mismatch_counts.ndim != 2 or mismatch_counts.shape[1] != self.n_rows:
            raise ValueError(
                f"mismatch_counts shape {mismatch_counts.shape} is not "
                f"(Q, {self.n_rows})"
            )
        if delay_adders_s is None:
            delays = self._base_delay + mismatch_counts * self._d_c
        else:
            delays = self._base_delay + delay_adders_s
        with _trace.span(
            "array.sense",
            rows=self.n_rows,
            queries=int(mismatch_counts.shape[0]),
        ):
            counts = self.tdc.count_array(delays)
            distances = self.tdc.decode_array(delays)
        energies = self.timing.search_energy_table()[mismatch_counts].sum(
            axis=1
        )
        return BatchSearchResult(
            delays_s=delays,
            counts=counts,
            hamming_distances=distances,
            best_rows=resolve_best_batch(distances, delays),
            latencies_s=delays.max(axis=1),
            energies_j=energies,
            n_stages=self.config.n_stages,
        )

    def _counts_gemm(self, queries: np.ndarray, chunk: int) -> np.ndarray:
        """Mismatch counts via the one-hot matmul kernel, shape (Q, M).

        Every product and partial sum is a small integer, exactly
        representable in float64, so any BLAS accumulation order
        reproduces the boolean-gather counts bit-for-bit.
        """
        mism_gemm = self._gemm_levels()
        levels = self.config.levels
        n_q = queries.shape[0]
        counts = np.empty((n_q, self.n_rows), dtype=np.int64)
        for start in range(0, n_q, chunk):
            block = queries[start:start + chunk]
            acc = np.zeros((block.shape[0], self.n_rows))
            for level in range(levels):
                acc += (block == level).astype(float) @ mism_gemm[level]
            counts[start:start + chunk] = acc.astype(np.int64)
        return counts

    def _counts_packed(self, queries: np.ndarray, chunk: int) -> np.ndarray:
        """Mismatch counts via the bit-plane popcount kernel, (Q, M).

        Queries become per-level one-hot bit masks; ANDing a mask with
        the write-time bit-planes selects exactly the mismatching
        stages, and a popcount reduces them -- about one bit of memory
        traffic per cell instead of eight float bytes.  When the tables
        are provably pure level inequality (:meth:`_xor_bit_planes`),
        the one-hot reduction collapses further to ``log2(L)`` XORs
        over the stored-level bit-planes.  Counts are exact integers,
        identical to every other kernel.
        """
        stored_bits = self._xor_bit_planes()
        if stored_bits is not None:
            bits = stored_bits.shape[0]

            def kernel(block: np.ndarray) -> np.ndarray:
                return packed_xor_counts(
                    stored_bits, pack_bit_planes(block, bits)
                )
        else:
            planes, levels = self._mism_packed, self.config.levels

            def kernel(block: np.ndarray) -> np.ndarray:
                return packed_mismatch_counts(
                    planes, pack_query_masks(block, levels)
                )
        n_q = queries.shape[0]
        if n_q <= chunk:
            return kernel(queries)
        counts = np.empty((n_q, self.n_rows), dtype=np.int64)
        for start in range(0, n_q, chunk):
            counts[start:start + chunk] = kernel(queries[start:start + chunk])
        return counts

    def _counts_loop(self, queries: np.ndarray) -> np.ndarray:
        """Per-query reference kernel: the bit-exactness yardstick.

        One gather-and-reduce per query, no batching tricks.  Only
        reachable through an explicit kernel override; the benchmark
        harness and the property tests pin it to prove the fast kernels
        bit-exact.
        """
        mism_table = self._level_tables()
        n = self.config.n_stages
        stage_idx = np.arange(n)
        counts = np.empty((queries.shape[0], self.n_rows), dtype=np.int64)
        for i, query in enumerate(queries):
            idx = query * n + stage_idx
            counts[i] = mism_table[:, idx].sum(axis=1)
        return counts

    def _delay_adders(self, queries: np.ndarray, chunk: int) -> np.ndarray:
        """Variation-modulated per-query delay totals (s), shape (Q, M).

        A fancy gather from the write-time contribution table plus a
        contiguous last-axis reduction: the gathered elementwise values
        replay the scalar :meth:`search` arithmetic (the tables are
        built with it) and the sums run over the same contiguous
        operand order as the scalar per-row sums, so per-query delays
        are bit-identical to the one-query path.
        """
        contrib_table = self._contrib_levels()
        n = self.config.n_stages
        stage_idx = np.arange(n)
        n_q = queries.shape[0]
        adders = np.empty((n_q, self.n_rows))
        for start in range(0, n_q, chunk):
            block = queries[start:start + chunk]
            idx = block * n + stage_idx
            adders[start:start + chunk] = (
                contrib_table.take(idx, axis=1).sum(axis=2).T
            )
        return adders

    def _resolve_batch_chunk(
        self, chunk: Optional[int], queries: np.ndarray
    ) -> int:
        """Resolve the query chunk of one batched call.

        An explicit ``chunk`` is validated and wins outright.  ``None``
        auto-sizes via :func:`resolve_query_chunk`; when the batch is
        large enough that chunking actually engages (more than two
        heuristic chunks of queries), candidate sizes around the
        heuristic are measured once per geometry through
        :func:`repro.core.kernels.select_query_chunk` and the winner is
        cached and persisted alongside the kernel autotune decisions.
        Chunking never changes results, so the decision is purely a
        memory/throughput trade.
        """
        if chunk is not None:
            return _resolve_chunk_arg(chunk, self.n_rows, self.config.n_stages)
        default = resolve_query_chunk(self.n_rows, self.config.n_stages)
        n_q = queries.shape[0]
        if n_q <= 2 * default:
            return default
        sizes = sorted({
            max(MIN_QUERY_CHUNK, default // 2),
            default,
            min(MAX_QUERY_CHUNK, default * 2),
        })
        sizes = [size for size in sizes if size <= n_q]
        if len(sizes) < 2:
            return default
        key = (
            "chunk",
            self.n_rows,
            self.config.n_stages,
            self.config.levels,
            self._timing_is_nominal(),
        )
        sample = queries[: min(n_q, 2 * sizes[-1])]
        return _kernels.select_query_chunk(
            key,
            {
                size: (lambda size=size: self._batch_kernel(sample, size))
                for size in sizes
            },
        )

    def _batch_kernel(self, queries: np.ndarray, chunk: int) -> np.ndarray:
        """Mismatch counts of a query batch, kernel-dispatched, (Q, M).

        The count kernel (packed popcount vs. one-hot GEMM vs. reference
        loop) is chosen by :mod:`repro.core.kernels`: explicit override
        first, else a per-geometry autotune over a small query sample.
        Counts are exact integers in every kernel, so the choice never
        changes results.
        """
        nominal = self._timing_is_nominal()
        key = (
            self.n_rows,
            self.config.n_stages,
            self.config.levels,
            nominal,
        )
        sample = queries[: min(queries.shape[0], 32)]
        name = _kernels.select_kernel(
            key,
            {
                "packed": lambda: self._counts_packed(sample, chunk),
                "gemm": lambda: self._counts_gemm(sample, chunk),
            },
        )
        def _run() -> np.ndarray:
            if name == "packed":
                return self._counts_packed(queries, chunk)
            if name == "gemm":
                return self._counts_gemm(queries, chunk)
            return self._counts_loop(queries)

        if not _TM.enabled:
            return _run()
        # The dispatch span inherits the active request/batch context --
        # the last hop of a request's trace.
        with _trace.span(
            "kernel.dispatch",
            kernel=name,
            rows=self.n_rows,
            queries=int(queries.shape[0]),
        ):
            return _run()

    def search(self, query: Sequence[int]) -> SearchResult:
        """Parallel 2-step search (vectorized)."""
        if not _TM.enabled:
            return self._search_impl(query)
        with _trace.span(
            "array.search", rows=self.n_rows, stages=self.config.n_stages
        ):
            result = self._search_impl(query)
        _record_search_telemetry(self, result, mode="single", n_queries=1)
        return result

    def _search_impl(self, query: Sequence[int]) -> SearchResult:
        self._check_written()
        q = self.encoding.validate_vector(query)
        if len(q) != self.config.n_stages:
            raise ValueError(
                f"query length {len(q)} != n_stages {self.config.n_stages}"
            )
        levels = self.config.levels
        vth_a, vth_b, vth_a_nom, vth_b_nom = self._thresholds()
        vsl_a = self._vsl[q][None, :]
        vsl_b = self._vsl[levels - 1 - q][None, :]
        fa_on = (vsl_a - vth_a) >= self._von
        fb_on = (vsl_b - vth_b) >= self._von
        mism = fa_on | fb_on
        if self._timing_is_nominal():
            # Every overdrive deviation below computes to exactly 0.0
            # here, so d_c_eff == d_C per cell; take the counts * d_C
            # delay form that the count-only batch kernels also use, so
            # scalar and batched paths stay mutually bit-exact.
            return self.result_from_mismatch_matrix(mism)
        # Delay modulation by the conducting device's gate-overdrive
        # *deviation from its own nominal overdrive*: weaker conduction
        # discharges MN slower, lengthening the switch turn-on (the
        # second-order variation path of the VC design).  Expressed
        # through the overdrive deviation (not the raw V_TH shift) so
        # search-line re-biasing (aging compensation) restores the
        # timing too; with nominal search lines it reduces exactly to
        # the per-device V_TH shift, matching the device-accurate array.
        vsl_a_nom = self._vsl_nom[q][None, :]
        vsl_b_nom = self._vsl_nom[levels - 1 - q][None, :]
        dev_a = (vsl_a_nom - vth_a_nom) - (vsl_a - vth_a)
        dev_b = (vsl_b_nom - vth_b_nom) - (vsl_b - vth_b)
        deviation = np.where(fa_on, dev_a, dev_b)
        d_c_eff = self._d_c * np.maximum(
            1.0 + self._delay_sens * deviation, 0.0
        )
        return self.result_from_mismatch_matrix(mism, d_c_eff=d_c_eff)

    def search_batch(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> BatchSearchResult:
        """Batched parallel search: Q queries in one vectorized kernel.

        Equivalent to ``[search(q) for q in queries]`` bit-for-bit (an
        equivalence suite asserts it), but mismatch counting runs
        through a dispatched kernel (packed popcount / one-hot GEMM /
        reference loop -- see :mod:`repro.core.kernels`), the TDC
        decode is array-valued, and the energy total is an affine table
        lookup -- the per-query Python overhead of the scalar path
        disappears.

        Args:
            queries: Query levels, shape (Q, n_stages).
            chunk: Queries per materialized tensor chunk (memory
                bound); ``None`` auto-sizes via
                :func:`resolve_query_chunk`.
        """
        if not _TM.enabled:
            return self._search_batch_impl(queries, chunk)
        with _trace.span(
            "array.search_batch",
            rows=self.n_rows,
            stages=self.config.n_stages,
            queries=int(np.atleast_2d(np.asarray(queries)).shape[0]),
        ):
            result = self._search_batch_impl(queries, chunk)
        _record_search_telemetry(
            self, result, mode="batch", n_queries=len(result)
        )
        return result

    def _search_batch_impl(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> BatchSearchResult:
        q = self._validate_queries(queries)
        chunk = self._resolve_batch_chunk(chunk, q)
        counts = self._batch_kernel(q, chunk)
        adders = (
            None if self._timing_is_nominal() else self._delay_adders(q, chunk)
        )
        return self.batch_result_from_mismatch_counts(
            counts, delay_adders_s=adders
        )

    # ------------------------------------------------------------------
    # Count-ranked top-k path
    # ------------------------------------------------------------------
    def _delay_strictly_monotone(self) -> bool:
        """Whether delay strictly increases with the mismatch count.

        Count-ranked top-k orders rows by (count, row); that equals the
        (distance, delay, row) order only if a strictly larger count
        also implies a strictly larger delay (the tie-breaker).  True
        for any physical design point (``d_C > 0`` well above the ulp of
        the base delay); checked explicitly so a degenerate config
        falls back to the exhaustive path instead of silently misranking.
        """
        ladder = self._base_delay + (
            np.arange(self.config.n_stages + 1) * self._d_c
        )
        return bool(np.all(np.diff(ladder) > 0))

    def top_k_batch(
        self,
        queries: np.ndarray,
        k: int,
        rows: Optional[np.ndarray] = None,
        chunk: Optional[int] = None,
    ) -> np.ndarray:
        """Per-query top-k row indices without a full search, (Q, k).

        Bit-identical to ``search_batch(queries).top_k(k)`` (restricted
        to ``rows`` when given) -- an exactness suite asserts it -- but
        **count-ranked** when timing is nominal and the delay ladder is
        strictly monotone: then delay is strictly increasing in the
        mismatch count and the TDC decode is monotone in delay, so the
        (distance, delay, row) order is the (count, row) order.  Per
        query chunk, the dispatched count kernel runs and the k smallest
        ``count * M + row`` keys are selected per query, skipping the
        TDC decode, energy accounting and winner resolution of the
        exhaustive path.  Otherwise it falls back to the exhaustive
        search transparently.

        Args:
            queries: Query levels, shape (Q, n_stages).
            k: Rows to return per query, ``1 <= k <= len(rows)``.
            rows: Optional strictly increasing row subset to rank
                (default: all rows); returned indices are array row
                ids, not subset positions.
            chunk: Queries per materialized block; ``None`` auto-sizes.
        """
        q = self._validate_queries(queries)
        if not _TM.enabled:
            return self._top_k_batch_impl(q, k, rows, chunk)
        with _trace.span(
            "array.top_k_batch",
            rows=self.n_rows,
            stages=self.config.n_stages,
            queries=int(q.shape[0]),
        ):
            return self._top_k_batch_impl(q, k, rows, chunk)

    def _top_k_batch_impl(
        self,
        q: np.ndarray,
        k: int,
        rows: Optional[np.ndarray],
        chunk: Optional[int],
    ) -> np.ndarray:
        chunk = self._resolve_batch_chunk(chunk, q)
        rows_arr: Optional[np.ndarray] = None
        m = self.n_rows
        if rows is not None:
            rows_arr = np.asarray(rows, dtype=np.int64)
            if rows_arr.ndim != 1 or rows_arr.shape[0] < 1:
                raise ValueError(
                    f"rows must be a non-empty 1-D index array, got "
                    f"shape {rows_arr.shape}"
                )
            if rows_arr[0] < 0 or rows_arr[-1] >= self.n_rows:
                raise ValueError(
                    f"rows must lie in [0, {self.n_rows - 1}]"
                )
            if rows_arr.shape[0] > 1 and not np.all(np.diff(rows_arr) > 0):
                raise ValueError("rows must be strictly increasing")
            m = rows_arr.shape[0]
        if not 1 <= k <= m:
            raise ValueError(f"k must be in [1, {m}], got {k}")
        if self._timing_is_nominal() and self._delay_strictly_monotone():
            out = np.empty((q.shape[0], k), dtype=np.int64)
            for start in range(0, q.shape[0], chunk):
                counts = self._batch_kernel(q[start:start + chunk], chunk)
                if rows_arr is not None:
                    counts = counts[:, rows_arr]
                out[start:start + chunk] = count_top_k(counts, k)
            if _TM.enabled:
                _emit_probe(
                    "topk.ranked", rows=int(m), queries=int(q.shape[0]), k=k
                )
            return out if rows_arr is None else rows_arr[out]
        batch = self._search_batch_impl(q, chunk)
        if rows_arr is None:
            return batch.top_k(k)
        return top_k_indices(
            batch.hamming_distances[:, rows_arr],
            k,
            delays_s=batch.delays_s[:, rows_arr],
            row_ids=rows_arr,
        )

    def ideal_hamming(self, query: Sequence[int]) -> np.ndarray:
        """Variation-free per-row Hamming distances."""
        q = self.encoding.validate_vector(query)
        return (self._stored != q[None, :]).sum(axis=1)

    def __repr__(self) -> str:
        return (
            f"FastTDAMArray({self.n_rows} rows x {self.config.n_stages} "
            f"stages, {self.config.bits}-bit)"
        )
