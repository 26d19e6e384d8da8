"""The paper's contribution: the multi-bit time-domain associative memory.

Layered exactly as the paper presents the design:

- :mod:`~repro.core.config` -- :class:`TDAMConfig`, the single source of
  truth for bit precision, voltage ladders, load capacitor, supply and
  array geometry.
- :mod:`~repro.core.encoding` -- the value <-> V_TH / V_SL level encodings
  of Fig. 2(b)(c), including the reversed encoding of ``F_B``.
- :mod:`~repro.core.cell` -- the 2-FeFET multi-bit IMC cell (Fig. 2(a)).
- :mod:`~repro.core.stage` -- the variable-capacitance delay stage
  (Fig. 3(b)).
- :mod:`~repro.core.chain` -- the cascaded delay chain with the 2-step
  even/odd operation scheme (Fig. 3).
- :mod:`~repro.core.array` -- :class:`TDAMArray`, M chains sharing search
  lines for parallel similarity computation.
- :mod:`~repro.core.sensing` -- the counter time-to-digital converter and
  sensing-margin analysis.
- :mod:`~repro.core.energy` -- the analytic timing/energy model
  (``d_tot = 2 N d_INV + N_mis d_C``), calibratable against the transient
  backend.
- :mod:`~repro.core.netlist_builder` -- emits :mod:`repro.spice` netlists
  of cells, stages, and chains for waveform-level validation.
"""

from repro.core.area import AreaReport, cell_area_comparison, tdam_area
from repro.core.array import (
    BatchSearchResult,
    FastTDAMArray,
    SearchResult,
    TDAMArray,
    batched_mismatch_counts,
    calibrate_turn_on_overdrive,
    resolve_best_batch,
    resolve_query_chunk,
)
from repro.core.bitplane import (
    HAVE_BITWISE_COUNT,
    pack_level_planes,
    pack_query_masks,
    packed_mismatch_counts,
    popcount,
)
from repro.core.cell import CellState, MultiBitIMCCell
from repro.core.chain import ChainResult, DelayChain
from repro.core.controller import ArrayController, Command, Event, Phase
from repro.core.config import TDAMConfig
from repro.core.encoding import LevelEncoding, validate_levels
from repro.core.faults import Fault, FaultInjector, FaultType, FaultyTDAMArray
from repro.core.energy import TimingEnergyModel
from repro.core.kernels import (
    KERNEL_ENV_VAR,
    available_kernels,
    chunk_decisions,
    clear_autotune_cache,
    force_kernel,
    kernel_override,
)
from repro.core.mvm import MVMCost, MVMPlan, infer_operand_bits, mvm
from repro.core.noise import (
    JitteryTDC,
    droop_delay_factor,
    jitter_tolerance_s,
    max_tolerable_droop,
)
from repro.core.programming import ProgrammingModel, ProgrammingReport
from repro.core.replica import (
    ReplicaCalibratedTDC,
    ReplicaMeasurement,
    measure_replica,
)
from repro.core.scheduler import OperationScheduler, PhaseSchedule, TileSchedule
from repro.core.sensing import CounterTDC, SensingAnalysis
from repro.core.stage import DelayStage
from repro.core.topk import count_top_k, grouped_top_k, top_k_indices

__all__ = [
    "TDAMConfig",
    "LevelEncoding",
    "validate_levels",
    "MultiBitIMCCell",
    "CellState",
    "DelayStage",
    "DelayChain",
    "ChainResult",
    "TDAMArray",
    "FastTDAMArray",
    "SearchResult",
    "BatchSearchResult",
    "batched_mismatch_counts",
    "calibrate_turn_on_overdrive",
    "resolve_best_batch",
    "resolve_query_chunk",
    "HAVE_BITWISE_COUNT",
    "pack_level_planes",
    "pack_query_masks",
    "packed_mismatch_counts",
    "popcount",
    "KERNEL_ENV_VAR",
    "available_kernels",
    "chunk_decisions",
    "clear_autotune_cache",
    "force_kernel",
    "kernel_override",
    "MVMCost",
    "MVMPlan",
    "infer_operand_bits",
    "mvm",
    "top_k_indices",
    "grouped_top_k",
    "count_top_k",
    "CounterTDC",
    "SensingAnalysis",
    "TimingEnergyModel",
    "AreaReport",
    "tdam_area",
    "cell_area_comparison",
    "OperationScheduler",
    "PhaseSchedule",
    "TileSchedule",
    "ArrayController",
    "Command",
    "Event",
    "Phase",
    "Fault",
    "FaultType",
    "FaultInjector",
    "FaultyTDAMArray",
    "ProgrammingModel",
    "ProgrammingReport",
    "ReplicaCalibratedTDC",
    "ReplicaMeasurement",
    "measure_replica",
    "JitteryTDC",
    "jitter_tolerance_s",
    "droop_delay_factor",
    "max_tolerable_droop",
]
