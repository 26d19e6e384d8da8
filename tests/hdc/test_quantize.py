"""Tests of the equal-area class-hypervector quantization."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc.quantize import (
    QuantizedModel,
    quantize_equal_area,
    quantize_uniform,
)


@pytest.fixture
def prototypes(rng):
    return rng.normal(size=(6, 2000))


class TestEqualArea:
    def test_levels_in_range(self, prototypes):
        qm = quantize_equal_area(prototypes, bits=2)
        assert qm.levels.min() >= 0
        assert qm.levels.max() <= 3

    def test_equal_occupancy(self, prototypes):
        """The defining property: each level holds ~equal probability mass."""
        qm = quantize_equal_area(prototypes, bits=2)
        counts = np.bincount(qm.levels.reshape(-1), minlength=4)
        expected = prototypes.size / 4
        assert np.allclose(counts, expected, rtol=0.02)

    def test_edges_sorted(self, prototypes):
        qm = quantize_equal_area(prototypes, bits=3)
        assert (np.diff(qm.edges) > 0).all()

    def test_centers_within_bins(self, prototypes):
        qm = quantize_equal_area(prototypes, bits=2)
        assert qm.centers[0] < qm.edges[0]
        assert qm.centers[-1] > qm.edges[-1]
        assert (np.diff(qm.centers) > 0).all()

    def test_reconstruction_error_shrinks_with_bits(self, prototypes):
        normed = prototypes / np.linalg.norm(prototypes, axis=1, keepdims=True)
        errors = []
        for bits in (1, 2, 3, 4):
            qm = quantize_equal_area(prototypes, bits)
            errors.append(np.abs(qm.reconstruct() - normed).mean())
        assert errors == sorted(errors, reverse=True)

    def test_monotone_value_to_level(self, prototypes):
        """Larger prototype values never get smaller levels."""
        qm = quantize_equal_area(prototypes, bits=2)
        normed = prototypes / np.linalg.norm(prototypes, axis=1, keepdims=True)
        flat_v = normed.reshape(-1)
        flat_l = qm.levels.reshape(-1)
        order = np.argsort(flat_v)
        assert (np.diff(flat_l[order]) >= 0).all()

    def test_scale_invariance(self, prototypes):
        """Row normalization makes the levels scale-free."""
        a = quantize_equal_area(prototypes, bits=2)
        b = quantize_equal_area(prototypes * 37.0, bits=2)
        assert np.array_equal(a.levels, b.levels)

    def test_query_quantization_uses_model_edges(self, prototypes, rng):
        qm = quantize_equal_area(prototypes, bits=2)
        queries = rng.normal(size=(10, 2000))
        levels = qm.quantize_queries(queries)
        assert levels.shape == (10, 2000)
        assert levels.min() >= 0 and levels.max() <= 3

    def test_query_dimension_checked(self, prototypes):
        qm = quantize_equal_area(prototypes, bits=2)
        with pytest.raises(ValueError, match="dimension"):
            qm.quantize_queries(np.zeros((1, 7)))

    def test_degenerate_distribution_handled(self):
        """Constant prototypes must not crash the edge fitting."""
        constant = np.ones((2, 100))
        qm = quantize_equal_area(constant, bits=2)
        assert qm.levels.shape == (2, 100)

    def test_bits_validated(self, prototypes):
        with pytest.raises(ValueError, match="bits"):
            quantize_equal_area(prototypes, bits=0)

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="2-D"):
            quantize_equal_area(np.zeros(10), bits=2)


class TestUniform:
    def test_uniform_spans_range(self, prototypes):
        qm = quantize_uniform(prototypes, bits=2)
        assert qm.method == "uniform"
        assert qm.levels.min() == 0
        assert qm.levels.max() == 3

    def test_uniform_edges_equally_spaced(self, prototypes):
        qm = quantize_uniform(prototypes, bits=3)
        spacings = np.diff(qm.edges)
        assert np.allclose(spacings, spacings[0])

    def test_uniform_occupancy_not_equal_for_gaussian(self, prototypes):
        """Gaussian data concentrates mass in the central uniform bins --
        the motivation for the equal-area scheme."""
        qm = quantize_uniform(prototypes, bits=2)
        counts = np.bincount(qm.levels.reshape(-1), minlength=4)
        assert counts[1] > 2 * counts[0]

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            quantize_uniform(np.ones((2, 10)), bits=2)


class TestProperties:
    @given(bits=st.integers(1, 4), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_occupancy_balanced_for_any_gaussian(self, bits, seed):
        protos = np.random.default_rng(seed).normal(size=(3, 1024))
        qm = quantize_equal_area(protos, bits)
        counts = np.bincount(qm.levels.reshape(-1), minlength=2**bits)
        expected = protos.size / 2**bits
        assert counts.max() < 1.25 * expected
        assert counts.min() > 0.75 * expected


def _normalized(q):
    """The quantizer's row normalization, as the digitize reference sees it."""
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    return q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)


class TestComparisonQuantizer:
    """``quantize_queries`` counts edges with comparisons; ``np.digitize``
    (``right=False``) on the normalized rows is its reference."""

    @given(
        bits=st.integers(1, 4),
        method=st.sampled_from(["uniform", "equal-area"]),
        seed=st.integers(0, 2**16),
        on_edge=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_digitize(self, bits, method, seed, on_edge):
        rng = np.random.default_rng(seed)
        d = 64
        fit = quantize_uniform if method == "uniform" else quantize_equal_area
        qm = fit(rng.normal(size=(4, d)), bits)
        queries = rng.normal(size=(6, d))
        queries[1] = 0.0  # the norm floor: every value normalizes to 0
        queries[2, ::3] = -0.0
        queries[3] = 0.0
        queries[3, rng.integers(d)] = -rng.random() - 0.5  # normalizes to -1.0
        queries[4, : d // 2] = queries[4, 0]  # repeated values
        if on_edge:
            # Move the edges onto values the normalized queries hold
            # exactly, so comparisons tie.
            values = np.unique(_normalized(queries))
            picks = np.sort(
                rng.choice(values, size=min(len(values), len(qm.edges)),
                           replace=False)
            )
            qm = replace(qm, edges=picks)
        got = qm.quantize_queries(queries)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.digitize(_normalized(queries), qm.edges))
        one = qm.quantize_queries(queries[0])
        assert one.shape == (1, d)
        assert np.array_equal(one, got[:1])

    def test_signed_zero_and_exact_edge(self):
        qm = QuantizedModel(
            levels=np.zeros((1, 5), dtype=np.int64),
            edges=np.array([-0.5, 0.0, 0.5]),
            centers=np.array([-0.75, -0.25, 0.25, 0.75]),
            bits=2,
            method="uniform",
        )
        # The norm is exactly 1.0, so the values reach the edges unchanged.
        q = np.array([-0.5, -0.0, 0.5, 0.5, 0.5])
        got = qm.quantize_queries(q)
        assert got.tolist() == [[1, 2, 3, 3, 3]]  # -0.0 >= 0.0
        assert np.array_equal(got, np.digitize(_normalized(q), qm.edges))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, prototypes, bad):
        qm = quantize_equal_area(prototypes, bits=2)
        queries = np.zeros((2, 2000))
        queries[1, 7] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            qm.quantize_queries(queries)

    def test_input_not_modified(self, prototypes, rng):
        qm = quantize_equal_area(prototypes, bits=2)
        queries = rng.normal(size=(3, 2000))
        before = queries.copy()
        qm.quantize_queries(queries)
        assert np.array_equal(queries, before)
