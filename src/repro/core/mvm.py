"""Bit-serial integer MVM on the packed bit-plane fabric.

Yin et al.'s homogeneous TD-CIM array (arXiv 2209.11971) performs both
associative search *and* multiply-accumulate on the same ferroelectric
time-domain fabric: operands are decomposed into bit-planes, each
weight-plane x activation-plane pair is one AND + popcount array shot,
and partial products are recombined with power-of-two shifts.  This
module is the software model of that mode for our TD-AM: it reuses the
packed bit-plane machinery of :mod:`repro.core.bitplane`
(:func:`~repro.core.bitplane.pack_bit_planes`,
:func:`~repro.core.bitplane.popcount`) so an integer matrix product

    ``Y = X @ W.T``    (activations ``X``, stationary weights ``W``)

is computed **exactly** -- bit-identical to
``X.astype(int64) @ W.T.astype(int64)`` for every signed/unsigned
operand up to 8 bits per element.

Three interchangeable kernels serve the product, dispatched through
:mod:`repro.core.kernels` (so ``force_kernel`` / ``REPRO_KERNEL`` /
autotune apply to MVM geometries exactly as they do to batched search):

- ``packed`` -- the fabric-faithful bit-serial form: AND + popcount
  over uint64 words per plane pair, accumulated with shifts.  Exact by
  construction (popcounts are integers; shifts are powers of two).
- ``gemm`` -- float BLAS with an exactness guarantee: every partial
  sum is an integer bounded by ``max|X| * max|W| * K``, so fp32 is
  exact below ``2**24`` and fp64 below ``2**53``; operands outside
  that range fall back to an int64 matmul.  This is the wall-clock
  winner on commodity CPUs.
- ``loop`` -- the int64 numpy reference (``X @ W.T`` in int64),
  reachable only by explicit override, mirroring the batched-search
  ``loop`` kernel's role as the exactness oracle.

Per-call fabric delay/energy is modeled with
:class:`~repro.core.energy.TimingEnergyModel`: each plane pair costs
one 2-step chain evaluation per stage tile plus a TDC conversion, and
every output row pays a readout slot -- see :meth:`MVMPlan.cost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core import kernels as _kernels
from repro.core.bitplane import _as_words, pack_bit_planes, popcount
from repro.core.config import TDAMConfig
from repro.core.energy import TimingEnergyModel
from repro.telemetry import metrics as _metrics
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.state import STATE as _TM

__all__ = [
    "E_READOUT",
    "MAX_OPERAND_BITS",
    "MVMCost",
    "MVMPlan",
    "T_READOUT_PER_CLASS",
    "T_TDC_CONVERSION",
    "infer_operand_bits",
    "mvm",
]

#: Widest operand the packed bit-serial kernel stores (one uint8 level
#: per element, the fabric's multi-bit cell width).
MAX_OPERAND_BITS = 8

#: Time to convert one chain's delay into a digital count (s) -- one
#: TDC conversion slot per array shot.  Canonical value shared with the
#: HDC mapping (:mod:`repro.hdc.mapping` imports it from here).
T_TDC_CONVERSION = 3.5e-9

#: Readout/aggregation slot per output row (s).
T_READOUT_PER_CLASS = 1.5e-9

#: Energy of reading out and accumulating one output row's count (J).
E_READOUT = 2e-15

#: Expected fraction of set bits surviving the AND of two bit-planes --
#: the activity factor of a plane-pair shot (two independent ~0.5-dense
#: planes).  Only feeds the energy model, never the arithmetic.
_PLANE_AND_ACTIVITY = 0.25

# Telemetry instruments (dormant unless repro.telemetry is enabled).
_REG = _metrics.get_registry()
_MVM_OPS = _REG.counter(
    "mvm_ops_total",
    "Bit-serial MVM products served, by kernel",
    labels=("kernel",),
)
_MVM_MACS = _REG.counter(
    "mvm_macs_total", "Integer multiply-accumulates computed by MVM calls"
)
_MVM_LATENCY = _REG.histogram(
    "mvm_modeled_latency_seconds",
    "Modeled fabric latency per MVM call (all plane passes)",
)


def infer_operand_bits(values: np.ndarray) -> Tuple[int, bool]:
    """Minimal ``(bits, signed)`` representation covering an operand.

    Unsigned operands get the smallest width holding their maximum;
    anything with a negative entry is sized for two's complement.  An
    empty operand is 1-bit unsigned.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return 1, False
    lo = int(arr.min())
    hi = int(arr.max())
    if lo >= 0:
        return max(1, int(hi).bit_length()), False
    bits = 1 + max(
        (-lo - 1).bit_length(),
        hi.bit_length(),
    )
    return max(2, bits), True


def _validate_operand(
    arr: np.ndarray, bits: int, signed: bool, name: str
) -> None:
    """Raise unless every value fits the stated width/signedness."""
    if not 1 <= bits:
        raise ValueError(f"{name} bits must be >= 1, got {bits}")
    if arr.size == 0:
        return
    lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed else (
        0, (1 << bits) - 1
    )
    amin, amax = int(arr.min()), int(arr.max())
    if amin < lo or amax > hi:
        kind = "signed" if signed else "unsigned"
        raise ValueError(
            f"{name} values [{amin}, {amax}] exceed {bits}-bit {kind} "
            f"range [{lo}, {hi}]"
        )


def _plane_weights(bits: int, signed: bool) -> np.ndarray:
    """Power-of-two weight of each bit-plane (two's complement sign
    plane carries ``-2**(bits-1)``)."""
    weights = np.array([1 << b for b in range(bits)], dtype=np.int64)
    if signed:
        weights[bits - 1] = -weights[bits - 1]
    return weights


def _operand_magnitude(bits: int, signed: bool) -> int:
    """Largest absolute value a ``(bits, signed)`` operand can hold."""
    return (1 << (bits - 1)) if signed else (1 << bits) - 1


@dataclass(frozen=True)
class MVMCost:
    """Modeled fabric latency/energy of one bit-serial MVM call.

    Attributes:
        plane_passes: Weight-plane x activation-plane array shots per
            activation vector.
        tiles: Chain tiles covering the shared inner dimension.
        latency_s: Total modeled latency of the call (bit-serial passes
            are sequential; the batch pipelines through the array).
        energy_j: Total energy of the call.
        energy_breakdown_j: Energy per mechanism (array shots, TDC
            conversions, readout accumulation).
    """

    plane_passes: int
    tiles: int
    latency_s: float
    energy_j: float
    energy_breakdown_j: Dict[str, float]


class MVMPlan:
    """Weight-stationary bit-serial MVM: ``y = x @ weights.T``, exact.

    Packs the weight matrix into bit-planes once (the fabric's one-time
    program step) and serves activation batches through the dispatched
    kernels; the float casts the ``gemm`` kernel needs are likewise
    built once and reused.

    Args:
        weights: Integer weight matrix, shape ``(n_out, n_in)``.
        bits: Stored weight width (1..8); inferred from the data when
            omitted.
        signed: Whether weights are two's-complement; inferred when
            omitted.
        config: Fabric design point for :meth:`cost`; defaults to the
            1-bit-cell variant of the fig. 8 system point.
    """

    def __init__(
        self,
        weights: np.ndarray,
        bits: Optional[int] = None,
        signed: Optional[bool] = None,
        config: Optional[TDAMConfig] = None,
    ) -> None:
        w = np.asarray(weights)
        if w.ndim != 2:
            raise ValueError(
                f"weights must be 2-D (n_out, n_in), got shape {w.shape}"
            )
        if w.shape[1] < 1:
            raise ValueError("weights need n_in >= 1")
        if not np.issubdtype(w.dtype, np.integer):
            raise TypeError(
                f"weights must be an integer array, got dtype {w.dtype}"
            )
        inf_bits, inf_signed = infer_operand_bits(w)
        self.weight_bits = inf_bits if bits is None else int(bits)
        self.signed = inf_signed if signed is None else bool(signed)
        if self.weight_bits > MAX_OPERAND_BITS:
            raise ValueError(
                f"weight bits must be <= {MAX_OPERAND_BITS}, got "
                f"{self.weight_bits}"
            )
        _validate_operand(w, self.weight_bits, self.signed, "weight")
        self.weights = np.ascontiguousarray(w, dtype=np.int64)
        self.n_out, self.n_in = self.weights.shape
        self.config = config if config is not None else TDAMConfig(
            bits=1, n_stages=128, vdd=0.6
        )
        # Program step: two's-complement mask, then per-bit planes of
        # shape (weight_bits, n_out, B) padded to uint64 words.
        masked = (self.weights & ((1 << self.weight_bits) - 1)).astype(
            np.uint8
        )
        self._planes = pack_bit_planes(masked, self.weight_bits)
        self._plane_w = _plane_weights(self.weight_bits, self.signed)
        self._float_cast: Dict[str, np.ndarray] = {}
        self._timing: Optional[TimingEnergyModel] = None

    # ------------------------------------------------------------------
    # Kernels (all bit-exact against each other)
    # ------------------------------------------------------------------
    def _matmul_packed(
        self, acts: np.ndarray, a_bits: int, a_signed: bool
    ) -> np.ndarray:
        """AND + popcount over uint64 words, shift-accumulated."""
        masked = (acts & ((1 << a_bits) - 1)).astype(np.uint8)
        a_planes = pack_bit_planes(masked, a_bits)  # (a_bits, S, B)
        a_weights = _plane_weights(a_bits, a_signed)
        aw = _as_words(a_planes)
        ww = _as_words(self._planes)
        out = np.zeros((acts.shape[0], self.n_out), dtype=np.int64)
        for j in range(a_bits):
            # One activation plane against every weight plane: the AND
            # transient is (S, n_out, words) -- callers with huge
            # batches go through the gemm kernel anyway.
            a_j = aw[j][:, None, :]
            for i in range(self.weight_bits):
                anded = a_j & ww[i][None, :, :]
                # Byte view keeps the LUT popcount fallback usable; the
                # per-word and per-byte set-bit totals are identical.
                counts = popcount(anded.view(np.uint8)).sum(
                    axis=2, dtype=np.int64
                )
                out += (a_weights[j] * self._plane_w[i]) * counts
        return out

    def _matmul_gemm(
        self, acts: np.ndarray, a_bits: int, a_signed: bool
    ) -> np.ndarray:
        """Float BLAS within its exact-integer range, else int64."""
        bound = (
            _operand_magnitude(a_bits, a_signed)
            * _operand_magnitude(self.weight_bits, self.signed)
            * self.n_in
        )
        if bound <= 2**24:
            dtype = "f4"
        elif bound <= 2**53:
            dtype = "f8"
        else:
            return acts.astype(np.int64) @ self.weights.T
        cast = self._float_cast.get(dtype)
        if cast is None:
            cast = self.weights.astype(np.float32 if dtype == "f4" else
                                       np.float64)
            self._float_cast[dtype] = cast
        product = np.matmul(acts.astype(cast.dtype), cast.T)
        return product.astype(np.int64)

    def _matmul_loop(self, acts: np.ndarray) -> np.ndarray:
        """The int64 numpy reference (exact by definition)."""
        return acts.astype(np.int64) @ self.weights.T

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def matmul(
        self,
        activations: np.ndarray,
        bits: Optional[int] = None,
        signed: Optional[bool] = None,
    ) -> np.ndarray:
        """Exact integer product ``activations @ weights.T`` (int64).

        Args:
            activations: Integer activations, shape ``(S, n_in)`` (a
                single ``(n_in,)`` vector yields a ``(n_out,)`` result,
                matching numpy matmul semantics).
            bits: Activation width (1..8 for the packed kernel);
                inferred when omitted.
            signed: Activation signedness; inferred when omitted.

        Returns:
            int64 products, shape ``(S, n_out)``; bit-identical to
            ``activations.astype(int64) @ weights.T`` on every kernel.
        """
        acts = np.asarray(activations)
        squeeze = acts.ndim == 1
        if squeeze:
            acts = acts[None, :]
        if acts.ndim != 2 or acts.shape[1] != self.n_in:
            raise ValueError(
                f"activations must be (S, {self.n_in}), got shape "
                f"{np.asarray(activations).shape}"
            )
        if not np.issubdtype(acts.dtype, np.integer):
            raise TypeError(
                f"activations must be integers, got dtype {acts.dtype}"
            )
        if bits is None or signed is None:
            inf_bits, inf_signed = infer_operand_bits(acts)
            bits = inf_bits if bits is None else bits
            signed = inf_signed if signed is None else signed
        a_bits, a_signed = int(bits), bool(signed)
        _validate_operand(acts, a_bits, a_signed, "activation")
        if acts.shape[0] == 0:
            return np.zeros((0, self.n_out), dtype=np.int64)

        key = (
            "mvm",
            self.n_out,
            self.n_in,
            self.weight_bits,
            a_bits,
            self.signed or a_signed,
        )
        sample = acts[: min(acts.shape[0], 16)]
        candidates = {
            "gemm": lambda: self._matmul_gemm(sample, a_bits, a_signed),
        }
        if a_bits <= MAX_OPERAND_BITS:
            candidates["packed"] = lambda: self._matmul_packed(
                sample, a_bits, a_signed
            )
        name = _kernels.select_kernel(key, candidates)
        if name == "packed" and a_bits > MAX_OPERAND_BITS:
            raise ValueError(
                f"packed MVM kernel stores <= {MAX_OPERAND_BITS}-bit "
                f"activations, got {a_bits}"
            )
        if name == "packed":
            out = self._matmul_packed(acts, a_bits, a_signed)
        elif name == "gemm":
            out = self._matmul_gemm(acts, a_bits, a_signed)
        else:
            out = self._matmul_loop(acts)
        if _TM.enabled:
            self._record(name, acts.shape[0], a_bits)
        return out[0] if squeeze else out

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        return self.matmul(activations)

    # ------------------------------------------------------------------
    # Fabric timing/energy model
    # ------------------------------------------------------------------
    def _timing_model(self) -> TimingEnergyModel:
        if self._timing is None:
            self._timing = TimingEnergyModel(self.config)
        return self._timing

    def cost(
        self, activation_bits: int = 8, n_batch: int = 1
    ) -> MVMCost:
        """Modeled fabric latency/energy of one MVM call.

        Each weight-plane x activation-plane pair is one 2-step array
        shot per stage tile (the AND is the conduction decision, the
        popcount the TDC count); shots are bit-serial while the batch
        pipelines through, and every output row pays a readout slot.

        Args:
            activation_bits: Bit-planes per activation element.
            n_batch: Activation vectors served by the call.
        """
        if activation_bits < 1:
            raise ValueError(
                f"activation_bits must be >= 1, got {activation_bits}"
            )
        if n_batch < 0:
            raise ValueError(f"n_batch must be >= 0, got {n_batch}")
        timing = self._timing_model()
        n = self.config.n_stages
        tiles = math.ceil(self.n_in / n)
        passes = self.weight_bits * activation_bits
        active = int(round(_PLANE_AND_ACTIVITY * n))
        shot = timing.search_cost(active, include_tdc=True)
        shots = passes * tiles
        latency = n_batch * (
            shots * (shot.delay_s + T_TDC_CONVERSION)
            + self.n_out * T_READOUT_PER_CLASS
        )
        e_array = n_batch * shots * self.n_out * shot.energy_j
        e_tdc = 0.0  # folded into the per-shot search_cost above
        e_readout = n_batch * passes * self.n_out * E_READOUT
        breakdown = {
            "array": e_array,
            "tdc": e_tdc,
            "readout": e_readout,
        }
        return MVMCost(
            plane_passes=passes,
            tiles=tiles,
            latency_s=latency,
            energy_j=sum(breakdown.values()),
            energy_breakdown_j=breakdown,
        )

    def _record(self, kernel: str, n_batch: int, a_bits: int) -> None:
        cost = self.cost(activation_bits=a_bits, n_batch=n_batch)
        _MVM_OPS.inc(kernel=kernel)
        _MVM_MACS.inc(float(n_batch) * self.n_out * self.n_in)
        _MVM_LATENCY.observe(cost.latency_s)
        _emit_probe(
            "mvm.matmul",
            kernel=kernel,
            n_out=self.n_out,
            n_in=self.n_in,
            n_batch=n_batch,
            weight_bits=self.weight_bits,
            activation_bits=a_bits,
            latency_s=cost.latency_s,
            energy_j=cost.energy_j,
        )


def mvm(
    a: np.ndarray,
    b: np.ndarray,
    a_bits: Optional[int] = None,
    b_bits: Optional[int] = None,
) -> np.ndarray:
    """Exact integer matrix product ``a @ b`` on the bit-plane fabric.

    Convenience wrapper building a one-shot :class:`MVMPlan` around
    ``b`` (weight-stationary callers should hold a plan instead and
    amortize the packing).  A 1-D ``a`` is treated as a single row
    vector and the result squeezed back to 1-D.

    Args:
        a: Integer left operand, shape ``(M, K)`` or ``(K,)``.
        b: Integer right operand, shape ``(K, N)``.
        a_bits: Width of ``a`` (inferred when omitted).
        b_bits: Width of ``b`` (inferred when omitted).

    Returns:
        int64 products, bit-identical to
        ``a.astype(int64) @ b.astype(int64)``.
    """
    b_arr = np.asarray(b)
    if b_arr.ndim != 2:
        raise ValueError(f"b must be 2-D (K, N), got shape {b_arr.shape}")
    if not np.issubdtype(b_arr.dtype, np.integer):
        raise TypeError(f"b must be an integer array, got dtype {b_arr.dtype}")
    plan = MVMPlan(b_arr.T, bits=b_bits)
    return plan.matmul(np.asarray(a), bits=a_bits)
