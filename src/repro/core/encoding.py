"""Value <-> voltage level encodings of the 2-FeFET cell (Fig. 2(b)(c)).

The cell compares a stored level against a query level with two FeFETs:

- ``F_A`` stores value ``v`` as ``V_TH[v]`` and sees the query as
  ``V_SL[q]``; it conducts exactly when ``q > v``.
- ``F_B`` uses *reversed* encodings (``V_TH[L-1-v]``, ``V_SL[L-1-q]``); it
  conducts exactly when ``q < v``.

On a match neither FeFET conducts and the precharged match node stays
high.  Deactivating a cell (the 2-step scheme parks inactive stages) drives
both search lines to ``V_SL[0]``, the lowest level, which keeps both
FeFETs off for every stored value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import TDAMConfig


def validate_levels(
    values: Sequence[int],
    levels: int,
    *,
    ndim: int = 1,
    name: str = "vector",
) -> np.ndarray:
    """Validate stored/query levels; never clips, never copies int64 input.

    The one shared admission check of every level-carrying input
    (queries, stored vectors, whole matrices): wrong dimensionality,
    non-integral elements, and out-of-range levels each raise a
    ``ValueError`` naming the offending property instead of producing
    clipped or garbage comparisons downstream.

    Args:
        values: The candidate levels (any array-like).
        levels: Number of storable levels (``config.levels``).
        ndim: Required dimensionality (1 for vectors, 2 for matrices).
        name: What to call the input in error messages.

    Returns:
        The validated values as an ``int64`` array -- the input itself
        (no copy) when it already is one, so a caller that keeps the
        result beyond the call must copy it.
    """
    arr = np.asarray(values)
    if arr.ndim != ndim:
        raise ValueError(
            f"expected a {ndim}-D {name}, got shape {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        if arr.dtype == bool:
            arr = arr.astype(np.int64)
        elif np.issubdtype(arr.dtype, np.floating) and np.allclose(
            arr, np.round(arr)
        ):
            arr = np.round(arr).astype(np.int64)
        else:
            raise ValueError(f"{name} elements must be integers")
    if arr.size and (arr.min() < 0 or arr.max() >= levels):
        raise ValueError(
            f"{name} elements must be in [0, {levels - 1}], "
            f"got range [{arr.min()}, {arr.max()}]"
        )
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class CellDrive:
    """The search-line drive of one cell for one query.

    Attributes:
        vsl_a: Voltage applied to ``F_A``'s search line (V).
        vsl_b: Voltage applied to ``F_B``'s search line (V).
        active: False when the cell is parked by the 2-step scheme.
    """

    vsl_a: float
    vsl_b: float
    active: bool = True


class LevelEncoding:
    """Bidirectional value <-> voltage encoding for one configuration.

    Args:
        config: The design point supplying ladders and precision.
    """

    def __init__(self, config: TDAMConfig) -> None:
        self.config = config
        self.levels = config.levels
        self._vth = config.vth_levels
        self._vsl = config.vsl_levels

    # ------------------------------------------------------------------
    # Stored-side (write) encodings
    # ------------------------------------------------------------------
    def vth_for_fa(self, value: int) -> float:
        """Programmed V_TH of ``F_A`` for a stored value (Fig. 2(b))."""
        self._check(value)
        return self._vth[value]

    def vth_for_fb(self, value: int) -> float:
        """Programmed V_TH of ``F_B``: reversed ladder (Fig. 2(c))."""
        self._check(value)
        return self._vth[self.levels - 1 - value]

    # ------------------------------------------------------------------
    # Query-side (search) encodings
    # ------------------------------------------------------------------
    def drive_for_query(self, query: int) -> CellDrive:
        """Search-line voltages encoding a query value."""
        self._check(query)
        return CellDrive(
            vsl_a=self._vsl[query],
            vsl_b=self._vsl[self.levels - 1 - query],
            active=True,
        )

    def drive_deactivated(self) -> CellDrive:
        """Search-line voltages parking the cell (both lines at V_SL0)."""
        return CellDrive(vsl_a=self._vsl[0], vsl_b=self._vsl[0], active=False)

    # ------------------------------------------------------------------
    # Ideal comparison semantics
    # ------------------------------------------------------------------
    def fa_conducts(self, stored: int, query: int) -> bool:
        """Whether ``F_A`` conducts: query greater than stored."""
        self._check(stored)
        self._check(query)
        return query > stored

    def fb_conducts(self, stored: int, query: int) -> bool:
        """Whether ``F_B`` conducts: query smaller than stored."""
        self._check(stored)
        self._check(query)
        return query < stored

    def matches(self, stored: int, query: int) -> bool:
        """Whether the cell reports a match (equal values)."""
        self._check(stored)
        self._check(query)
        return stored == query

    # ------------------------------------------------------------------
    # Vectorized helpers (used by the fast array and HDC mapping)
    # ------------------------------------------------------------------
    def validate_vector(self, values: Sequence[int]) -> np.ndarray:
        """Validate and return a vector of levels as an int array."""
        return validate_levels(values, self.levels, ndim=1)

    def mismatch_vector(self, stored: Sequence[int], query: Sequence[int]) -> np.ndarray:
        """Boolean per-element mismatch between two level vectors."""
        s = self.validate_vector(stored)
        q = self.validate_vector(query)
        if s.shape != q.shape:
            raise ValueError(f"shape mismatch: {s.shape} vs {q.shape}")
        return s != q

    def hamming_distance(self, stored: Sequence[int], query: Sequence[int]) -> int:
        """Number of mismatching elements (the paper's SC metric)."""
        return int(self.mismatch_vector(stored, query).sum())

    def _check(self, value: int) -> None:
        if not 0 <= int(value) < self.levels:
            raise ValueError(
                f"value {value} out of range [0, {self.levels - 1}] "
                f"for {self.config.bits}-bit encoding"
            )
