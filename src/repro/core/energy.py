"""Analytic timing and energy model of the TD-AM.

This is the fast backend used for the paper's sweep figures (Fig. 5-8).
It derives the two characteristic delays of the variable-capacitance stage
from the behavioral device models:

- ``d_INV``: intrinsic stage delay -- the inverter's effective switching
  resistance driving the stage parasitics,
- ``d_C``: the additional delay of a mismatched stage.  The load
  capacitor couples through the switch PMOS as a *current-limited charge
  transfer*: the falling stage output must drain the capacitor through
  the inverter NMOS over the switch's coupled swing
  ``V_DD - |V_th,p|``, giving ``d_C ~ C * (V_DD - |V_th,p|) / I_Nsat``
  with a transfer coefficient fitted once against the transient backend
  (see ``tests/core/test_calibration.py`` for the cross-check).

and evaluates the paper's delay law (Sec. III-B)::

    d_rising,even = N_tot * d_INV + N_even,mis * d_C      (step I)
    d_tot         = 2 * N_tot * d_INV + N_mis * d_C       (both steps)

Energy uses CV^2 accounting over the switched capacitances per 2-step
search: every inverter output toggles through a full cycle, each
mismatched stage additionally cycles its load capacitor and discharges /
re-precharges its match node, and the search-line drivers charge the FeFET
gate loads.  The constants are calibratable against the transient backend
(:mod:`repro.core.calibration`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

import numpy as np

from repro.core.config import TDAMConfig
from repro.devices.mosfet import nmos, pmos

#: Delay of one RC charge to the 50% level, in units of R*C.
_RC_TO_50PCT = math.log(2.0)

#: Coefficient of the current-limited load-capacitor transfer, fitted to
#: the transient backend over V_DD in 0.5..1.1 V and C_load in
#: 6..96 fF (agreement within ~10% except >=96 fF, ~25%).
_VC_TRANSFER_COEFF = 0.65

#: FeFET gate capacitance seen by a search-line driver, per FeFET (F).
_C_FEFET_GATE = 0.08e-15

#: Energy of one TDC count (counter toggle + registration), per count (J).
#: Representative of a compact ripple counter at the paper's node.
_E_TDC_COUNT = 0.02e-15

#: Mismatch activity at which per-bit energy efficiency is quoted.  The
#: paper's best-efficiency point (0.159 fJ/bit) corresponds to a
#: near-match associative workload; 10% mismatching stages reproduces it.
DEFAULT_REPORT_ACTIVITY = 0.1


@dataclass(frozen=True)
class SearchCost:
    """Latency and energy of one search on one chain.

    Attributes:
        delay_s: Total 2-step delay (the similarity output).
        delay_rising_s: Step I (even stages) delay.
        delay_falling_s: Step II (odd stages) delay.
        energy_j: Total energy drawn from the supplies.
        energy_breakdown_j: Energy per mechanism (inverters, load caps,
            match nodes, search lines, TDC).
    """

    delay_s: float
    delay_rising_s: float
    delay_falling_s: float
    energy_j: float
    energy_breakdown_j: Dict[str, float]


class TimingEnergyModel:
    """Closed-form timing/energy evaluation of one design point.

    Args:
        config: The design point.
        d_inv_override: Calibrated intrinsic stage delay (s); overrides
            the analytic estimate (used after transient calibration).
        d_c_override: Calibrated mismatch delay adder (s).
    """

    def __init__(
        self,
        config: TDAMConfig,
        d_inv_override: Optional[float] = None,
        d_c_override: Optional[float] = None,
    ) -> None:
        self.config = config
        self._nmos = nmos(config.tech, width=config.inverter_nmos_width)
        self._pmos = pmos(config.tech, width=config.inverter_pmos_width)
        self._switch = pmos(config.tech, width=config.switch_pmos_width)
        self._d_inv = d_inv_override
        self._d_c = d_c_override
        self._energy_tables: Dict[bool, "np.ndarray"] = {}

    # ------------------------------------------------------------------
    # Characteristic delays
    # ------------------------------------------------------------------
    @property
    def r_inv(self) -> float:
        """Effective inverter drive resistance (ohm), rise/fall average."""
        r_n = self._nmos.on_resistance(self.config.vdd)
        r_p = self._pmos.on_resistance(self.config.vdd)
        return 0.5 * (r_n + r_p)

    @property
    def r_switch(self) -> float:
        """Load-switch PMOS on-resistance (ohm) at full MN discharge."""
        return self._switch.on_resistance(self.config.vdd)

    @property
    def c_stage(self) -> float:
        """Unswitched capacitance at a stage output (F): parasitics plus
        the next stage's inverter gate load."""
        c_gate_next = (
            self.config.inverter_nmos_width + self.config.inverter_pmos_width
        ) * self.config.tech.c_gate_min_ff * 1e-15
        return self.config.c_stage_par_f + c_gate_next

    @cached_property
    def d_inv(self) -> float:
        """Intrinsic stage delay (s), evaluated once (the config is frozen)."""
        if self._d_inv is not None:
            return self._d_inv
        return _RC_TO_50PCT * self.r_inv * self.c_stage

    @property
    def i_drive_n(self) -> float:
        """Inverter NMOS saturation current at V_DD (A) -- the discharge
        limit of the coupled load capacitor on a falling output."""
        return self._nmos.ids(self.config.vdd, self.config.vdd)

    @property
    def coupled_swing(self) -> float:
        """Voltage swing over which the switch couples the load cap (V).

        The switch PMOS (gate at the discharged match node) conducts while
        the output side stays above ``|V_th,p|``; floored at 5% of V_DD so
        deep-low-voltage sweeps stay finite.
        """
        vdd = self.config.vdd
        return max(vdd - abs(self.config.tech.vth_p), 0.05 * vdd)

    @cached_property
    def d_c(self) -> float:
        """Additional delay of a mismatched stage (s), evaluated once."""
        if self._d_c is not None:
            return self._d_c
        return (
            _VC_TRANSFER_COEFF
            * self.config.c_load_f
            * self.coupled_swing
            / self.i_drive_n
        )

    # ------------------------------------------------------------------
    # Delay law (Sec. III-B)
    # ------------------------------------------------------------------
    def step_delay(self, n_mismatch_active: int) -> float:
        """Delay of one step (one edge): ``N d_INV + N_mis,active d_C``."""
        self._check_mismatches(n_mismatch_active)
        return self.config.n_stages * self.d_inv + n_mismatch_active * self.d_c

    def chain_delay(self, n_mismatch: int) -> float:
        """Total 2-step delay for ``n_mismatch`` mismatched stages.

        The even/odd split does not matter for the total (both steps
        carry the full intrinsic term); per-step delays come from
        :meth:`step_delay` or :meth:`search_cost`.
        """
        self._check_mismatches(n_mismatch)
        return 2 * self.config.n_stages * self.d_inv + n_mismatch * self.d_c

    def delay_to_mismatches(self, delay_s: float) -> float:
        """Invert the delay law: continuous mismatch count for a delay."""
        offset = 2 * self.config.n_stages * self.d_inv
        return (delay_s - offset) / self.d_c

    # ------------------------------------------------------------------
    # Energy accounting
    # ------------------------------------------------------------------
    def search_cost(
        self,
        n_mismatch: int,
        n_mismatch_even: Optional[int] = None,
        include_tdc: bool = True,
    ) -> SearchCost:
        """Latency and energy of one full 2-step search on one chain.

        Args:
            n_mismatch: Total mismatched stages (0..N).
            n_mismatch_even: Mismatches among even stages (for the per-step
                delays); defaults to an even split.
            include_tdc: Whether to include counter TDC energy.
        """
        self._check_mismatches(n_mismatch)
        n = self.config.n_stages
        if n_mismatch_even is None:
            n_mismatch_even = n_mismatch // 2
        if not 0 <= n_mismatch_even <= n_mismatch:
            raise ValueError(
                f"n_mismatch_even={n_mismatch_even} outside [0, {n_mismatch}]"
            )
        vdd = self.config.vdd
        v_sq = vdd * vdd

        # Every inverter output completes one full up/down cycle per
        # 2-step search: one CV^2 drawn from the supply per stage.
        e_inv = n * self.c_stage * v_sq
        # Each mismatched stage cycles its load capacitor over the coupled
        # swing; charge C*dV is replenished from the V_DD rail.
        e_load = n_mismatch * self.config.c_load_f * self.coupled_swing * vdd
        # Each mismatched cell discharges MN and is re-precharged.
        e_mn = n_mismatch * self.config.c_mn_f * v_sq
        # Search-line drivers charge 2 FeFET gates per cell once per
        # search (lines hold their levels across both steps; only the
        # parity swap re-drives them, folded into the mean amplitude).
        v_sl_mean = sum(self.config.vsl_levels) / len(self.config.vsl_levels)
        e_sl = n * 2 * _C_FEFET_GATE * v_sl_mean * v_sl_mean
        e_tdc = (
            (2 * n + n_mismatch) * _E_TDC_COUNT if include_tdc else 0.0
        )
        breakdown = {
            "inverters": e_inv,
            "load_caps": e_load,
            "match_nodes": e_mn,
            "search_lines": e_sl,
            "tdc": e_tdc,
        }
        d_rise = n * self.d_inv + n_mismatch_even * self.d_c
        d_fall = n * self.d_inv + (n_mismatch - n_mismatch_even) * self.d_c
        return SearchCost(
            delay_s=d_rise + d_fall,
            delay_rising_s=d_rise,
            delay_falling_s=d_fall,
            energy_j=sum(breakdown.values()),
            energy_breakdown_j=breakdown,
        )

    def search_energy_table(self, include_tdc: bool = True) -> np.ndarray:
        """Per-chain search energy for every mismatch count 0..N (J).

        ``search_cost`` is affine in the mismatch count, so the whole
        table is evaluated once and cached; batched searches then turn
        energy accounting into an array lookup instead of one
        :meth:`search_cost` object per row.  Entry ``m`` equals
        ``search_cost(m, include_tdc=...).energy_j`` exactly (the table
        is built from those very calls, so scalar and batched paths
        cannot drift apart).  The returned array is cached -- treat it
        as read-only.
        """
        table = self._energy_tables.get(include_tdc)
        if table is None:
            table = np.array(
                [
                    self.search_cost(m, include_tdc=include_tdc).energy_j
                    for m in range(self.config.n_stages + 1)
                ]
            )
            self._energy_tables[include_tdc] = table
        return table

    def energy_per_bit(self, n_mismatch: Optional[int] = None) -> float:
        """Search energy normalized per compared bit (J/bit).

        Args:
            n_mismatch: Mismatch count of the evaluated search; defaults
                to :data:`DEFAULT_REPORT_ACTIVITY` -- the near-match
                workload at which the paper's best-efficiency operating
                point (0.159 fJ/bit at scaled V_DD) is quoted.
        """
        if n_mismatch is None:
            n_mismatch = max(1, round(DEFAULT_REPORT_ACTIVITY * self.config.n_stages))
        cost = self.search_cost(n_mismatch)
        return cost.energy_j / (self.config.n_stages * self.config.bits)

    def array_search_cost(self, mismatch_counts, include_tdc: bool = True) -> SearchCost:
        """Aggregate cost of one parallel search over many chains.

        Latency is the slowest chain (they run concurrently); energy sums.
        """
        costs = [self.search_cost(int(m), include_tdc=include_tdc) for m in mismatch_counts]
        if not costs:
            raise ValueError("mismatch_counts must not be empty")
        breakdown: Dict[str, float] = {}
        for cost in costs:
            for key, value in cost.energy_breakdown_j.items():
                breakdown[key] = breakdown.get(key, 0.0) + value
        slowest = max(costs, key=lambda c: c.delay_s)
        return SearchCost(
            delay_s=slowest.delay_s,
            delay_rising_s=slowest.delay_rising_s,
            delay_falling_s=slowest.delay_falling_s,
            energy_j=sum(c.energy_j for c in costs),
            energy_breakdown_j=breakdown,
        )

    def _check_mismatches(self, n_mismatch: int) -> None:
        if not 0 <= n_mismatch <= self.config.n_stages:
            raise ValueError(
                f"n_mismatch={n_mismatch} outside [0, {self.config.n_stages}]"
            )

    def __repr__(self) -> str:
        return (
            f"TimingEnergyModel(d_inv={self.d_inv * 1e12:.2f} ps, "
            f"d_c={self.d_c * 1e12:.2f} ps, vdd={self.config.vdd} V)"
        )
