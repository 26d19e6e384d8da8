"""Class-hypervector quantization (the paper's Sec. IV-B scheme).

"By thoroughly mapping the class hypervector values based on probability
distributions into ``2**n`` blocks of equal areas, we achieved a nuanced
representation, allocating smaller widths to more significant values."

That is quantile (equal-probability-mass) quantization: the bin edges are
the ``k / 2**n`` quantiles of the class-hypervector value distribution,
so densely populated value regions get narrow bins.  Queries are
quantized with the *same* edges so that exact-level matches are
meaningful on the TD-AM.

Scale alignment: class prototypes are bundles of many encodings while a
query is a single encoding, so both are L2-normalized per row before the
shared bins apply (the classifier already centers and normalizes its
encodings; see :class:`repro.hdc.model.HDCClassifier`).

A plain uniform quantizer is included for the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizedModel:
    """A quantized HDC model ready for TD-AM mapping.

    Attributes:
        levels: Integer class-hypervector levels, shape (n_classes, D),
            values in [0, 2**bits).
        edges: Bin edges used for quantization (len ``2**bits - 1``).
        centers: Representative value per level (bin medians), used to
            reconstruct approximate float prototypes.
        bits: Element precision.
        method: "equal-area" or "uniform".
    """

    levels: np.ndarray
    edges: np.ndarray
    centers: np.ndarray
    bits: int
    method: str

    @property
    def n_levels(self) -> int:
        return 2**self.bits

    @property
    def dimension(self) -> int:
        return self.levels.shape[1]

    @property
    def n_classes(self) -> int:
        return self.levels.shape[0]

    def quantize_queries(self, queries: np.ndarray) -> np.ndarray:
        """Quantize query hypervectors with the model's bin edges.

        Queries are L2-normalized per row first, matching the prototype
        normalization applied when the edges were fitted.  A normalized
        value's level is the number of edges it is ``>=`` to: one
        vectorized comparison per edge, equal to ``np.digitize(q,
        edges)`` (``right=False``) for every finite value, including one
        lying exactly on an edge.

        Raises:
            ValueError: The query dimension differs from the model's, or
                a value is NaN or infinite (it has no level).
        """
        q = np.array(queries, dtype=np.float64, ndmin=2)
        if q.shape[1] != self.dimension:
            raise ValueError(
                f"query dimension {q.shape[1]} != model dimension {self.dimension}"
            )
        if not np.isfinite(q).all():
            raise ValueError("queries contain NaN or Inf")
        q /= np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
        levels = np.zeros(q.shape, dtype=np.int64)
        for edge in self.edges:
            levels += q >= edge
        return levels

    def reconstruct(self) -> np.ndarray:
        """Approximate float prototypes from the level centers."""
        return self.centers[self.levels]

    def predict_cosine(self, queries: np.ndarray) -> np.ndarray:
        """Model-precision inference: cosine against the *quantized*
        prototypes (reconstructed through the level centers).

        This is the semantics of the paper's Fig. 7 quantization study:
        how much classification accuracy an ``n``-bit class-hypervector
        representation retains versus the 32-bit reference.  (The TD-AM's
        native exact-match Hamming inference lives in
        :class:`repro.hdc.mapping.TDAMInference`; EXPERIMENTS.md reports
        both.)
        """
        from repro.hdc.metrics import cosine_similarity

        return cosine_similarity(queries, self.reconstruct()).argmax(axis=1)

    def accuracy_cosine(self, queries: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy of :meth:`predict_cosine` on a labelled set."""
        labels = np.asarray(labels)
        return float((self.predict_cosine(queries) == labels).mean())


def quantize_equal_area(
    prototypes: np.ndarray, bits: int, per_class: bool = False
) -> QuantizedModel:
    """Equal-probability-area quantization of class hypervectors.

    Args:
        prototypes: Float class hypervectors, shape (n_classes, D).
        bits: Element precision; ``2**bits`` levels.
        per_class: Fit edges per class instead of globally.  The paper
            fits one mapping for the model (queries must share the edges),
            so the default is global; per-class is exposed for analysis.

    Returns:
        The quantized model (with globally fitted edges even when
        ``per_class`` statistics are requested -- see note above).
    """
    p = _check_prototypes(prototypes, bits)
    p = p / np.maximum(np.linalg.norm(p, axis=1, keepdims=True), 1e-12)
    n_levels = 2**bits
    values = p.reshape(-1)
    quantiles = np.linspace(0, 1, n_levels + 1)[1:-1]
    edges = np.quantile(values, quantiles)
    # Degenerate distributions can produce duplicate edges; nudge them so
    # np.digitize stays monotone.
    edges = _make_strictly_increasing(edges)
    levels = np.digitize(p, edges).astype(np.int64)
    centers = _level_centers(values, edges, n_levels)
    if per_class:
        # Informational only: per-class digitization with shared centers.
        levels = np.stack(
            [
                np.digitize(
                    p[c], _make_strictly_increasing(np.quantile(p[c], quantiles))
                )
                for c in range(p.shape[0])
            ]
        ).astype(np.int64)
    return QuantizedModel(
        levels=levels, edges=edges, centers=centers, bits=bits,
        method="equal-area",
    )


def quantize_uniform(prototypes: np.ndarray, bits: int) -> QuantizedModel:
    """Uniform-width quantization over the value range (ablation baseline)."""
    p = _check_prototypes(prototypes, bits)
    p = p / np.maximum(np.linalg.norm(p, axis=1, keepdims=True), 1e-12)
    n_levels = 2**bits
    lo, hi = float(p.min()), float(p.max())
    if hi <= lo:
        raise ValueError("prototypes are constant; nothing to quantize")
    edges = np.linspace(lo, hi, n_levels + 1)[1:-1]
    levels = np.digitize(p, edges).astype(np.int64)
    centers = _level_centers(p.reshape(-1), edges, n_levels)
    return QuantizedModel(
        levels=levels, edges=edges, centers=centers, bits=bits,
        method="uniform",
    )


def _check_prototypes(prototypes: np.ndarray, bits: int) -> np.ndarray:
    p = np.asarray(prototypes, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"prototypes must be 2-D, got shape {p.shape}")
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in 1..8, got {bits}")
    return p


def _make_strictly_increasing(edges: np.ndarray) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.float64).copy()
    for k in range(1, len(edges)):
        if edges[k] <= edges[k - 1]:
            edges[k] = np.nextafter(edges[k - 1], np.inf)
    return edges


def _level_centers(values: np.ndarray, edges: np.ndarray, n_levels: int) -> np.ndarray:
    """Median value of each bin (empty bins fall back to edge midpoints)."""
    assignments = np.digitize(values, edges)
    centers = np.empty(n_levels)
    padded = np.concatenate([[values.min()], edges, [values.max()]])
    for level in range(n_levels):
        members = values[assignments == level]
        if members.size:
            centers[level] = np.median(members)
        else:
            centers[level] = 0.5 * (padded[level] + padded[level + 1])
    return centers
