"""The delay chain and the 2-step operation scheme (Fig. 3).

A chain cascades ``N`` delay stages and stores one ``N``-element multi-bit
vector.  A search proceeds in two steps:

- **step I** propagates the *rising* edge of the input pulse; odd stages
  are deactivated (both search lines at V_SL0), even stages compare their
  element and add ``d_C`` on mismatch;
- **step II** propagates the *falling* edge with the roles swapped.

The deactivated stages still propagate (and sharpen) the edge through
their inverters, which is why both steps carry the full ``N * d_INV``
intrinsic delay and the total obeys::

    d_tot = 2 * N_tot * d_INV + N_mis * d_C
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import TDAMConfig
from repro.core.encoding import LevelEncoding
from repro.core.energy import TimingEnergyModel
from repro.core.stage import STEP_I, STEP_II, DelayStage


@dataclass(frozen=True)
class ChainResult:
    """Outcome of one 2-step search on one chain.

    Attributes:
        delay_rising_s: Step I delay (even-stage mismatches).
        delay_falling_s: Step II delay (odd-stage mismatches).
        delay_total_s: The similarity output, rising + falling.
        n_mismatch_even: Mismatched stages among even indices.
        n_mismatch_odd: Mismatched stages among odd indices.
        mismatch_mask: Per-stage boolean mismatch vector (device-level
            outcome, i.e. including any variation-induced flips).
        energy_j: Energy of the search (analytic accounting).
    """

    delay_rising_s: float
    delay_falling_s: float
    delay_total_s: float
    n_mismatch_even: int
    n_mismatch_odd: int
    mismatch_mask: np.ndarray
    energy_j: float

    @property
    def n_mismatch(self) -> int:
        """Total mismatched stages -- the Hamming distance the TDC senses."""
        return self.n_mismatch_even + self.n_mismatch_odd


class DelayChain:
    """A row of the TD-AM: N cascaded delay stages storing one vector.

    Args:
        config: Design point (supplies N, ladders, timing parameters).
        timing: Shared analytic timing model; constructed from ``config``
            when omitted.
        rng: Seeded generator for the per-stage FeFET ensembles.
        vth_offsets: Optional array of shape ``(n_stages, 2)`` with the
            V_TH shifts of each stage's (F_A, F_B) -- the Monte Carlo hook.
        name: Instance name.
    """

    def __init__(
        self,
        config: TDAMConfig,
        timing: Optional[TimingEnergyModel] = None,
        rng: Optional[np.random.Generator] = None,
        vth_offsets: Optional[np.ndarray] = None,
        name: str = "chain",
    ) -> None:
        self.config = config
        self.encoding = LevelEncoding(config)
        self.timing = timing or TimingEnergyModel(config)
        self.name = name
        rng = rng if rng is not None else np.random.default_rng()
        if vth_offsets is None:
            vth_offsets = np.zeros((config.n_stages, 2))
        vth_offsets = np.asarray(vth_offsets, dtype=float)
        if vth_offsets.shape != (config.n_stages, 2):
            raise ValueError(
                f"vth_offsets must have shape ({config.n_stages}, 2), "
                f"got {vth_offsets.shape}"
            )
        self.stages: List[DelayStage] = [
            DelayStage(
                config,
                index=i,
                timing=self.timing,
                rng=rng,
                vth_offsets=(float(vth_offsets[i, 0]), float(vth_offsets[i, 1])),
            )
            for i in range(config.n_stages)
        ]
        self._stored: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write(self, vector: Sequence[int]) -> None:
        """Program the chain with an N-element multi-bit vector."""
        values = self.encoding.validate_vector(vector)
        if len(values) != self.config.n_stages:
            raise ValueError(
                f"{self.name}: vector length {len(values)} != "
                f"n_stages {self.config.n_stages}"
            )
        for stage, value in zip(self.stages, values):
            stage.write(int(value))
        self._stored = values.copy()

    @property
    def stored(self) -> Optional[np.ndarray]:
        """Copy of the stored vector, or None when unwritten."""
        return None if self._stored is None else self._stored.copy()

    # ------------------------------------------------------------------
    # Search path
    # ------------------------------------------------------------------
    def search(self, query: Sequence[int]) -> ChainResult:
        """Run the full 2-step similarity computation against a query."""
        if self._stored is None:
            raise RuntimeError(f"{self.name}: search before write")
        values = self.encoding.validate_vector(query)
        if len(values) != self.config.n_stages:
            raise ValueError(
                f"{self.name}: query length {len(values)} != "
                f"n_stages {self.config.n_stages}"
            )
        mismatch_mask = np.zeros(self.config.n_stages, dtype=bool)
        delay_rising = 0.0
        delay_falling = 0.0
        for step, accumulate_rising in ((STEP_I, True), (STEP_II, False)):
            for stage, q in zip(self.stages, values):
                outcome = stage.evaluate(int(q), step)
                if accumulate_rising:
                    delay_rising += outcome.delay_s
                else:
                    delay_falling += outcome.delay_s
                if outcome.active and outcome.mismatch:
                    mismatch_mask[stage.index] = True
        n_even = int(mismatch_mask[0::2].sum())
        n_odd = int(mismatch_mask[1::2].sum())
        cost = self.timing.search_cost(n_even + n_odd, n_mismatch_even=n_even)
        return ChainResult(
            delay_rising_s=delay_rising,
            delay_falling_s=delay_falling,
            delay_total_s=delay_rising + delay_falling,
            n_mismatch_even=n_even,
            n_mismatch_odd=n_odd,
            mismatch_mask=mismatch_mask,
            energy_j=cost.energy_j,
        )

    def ideal_hamming(self, query: Sequence[int]) -> int:
        """Ideal (variation-free) Hamming distance to the stored vector."""
        if self._stored is None:
            raise RuntimeError(f"{self.name}: search before write")
        return self.encoding.hamming_distance(self._stored, query)

    def __repr__(self) -> str:
        return f"DelayChain({self.name!r}, {self.config.n_stages} stages)"
