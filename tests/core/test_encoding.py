"""Tests of the F_A/F_B level encodings (Fig. 2(b)(c))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TDAMConfig
from repro.core.encoding import LevelEncoding, validate_levels


@pytest.fixture
def enc():
    return LevelEncoding(TDAMConfig(bits=2))


class TestStoredSide:
    def test_fa_uses_direct_ladder(self, enc):
        assert enc.vth_for_fa(0) == pytest.approx(0.2)
        assert enc.vth_for_fa(3) == pytest.approx(1.4)

    def test_fb_uses_reversed_ladder(self, enc):
        assert enc.vth_for_fb(0) == pytest.approx(1.4)
        assert enc.vth_for_fb(3) == pytest.approx(0.2)

    def test_out_of_range_value(self, enc):
        with pytest.raises(ValueError, match="out of range"):
            enc.vth_for_fa(4)


class TestQuerySide:
    def test_drive_for_query_levels(self, enc):
        drive = enc.drive_for_query(1)
        assert drive.vsl_a == pytest.approx(0.4)
        assert drive.vsl_b == pytest.approx(0.8)  # reversed: level 2
        assert drive.active

    def test_deactivated_drive_is_vsl0(self, enc):
        drive = enc.drive_deactivated()
        assert drive.vsl_a == pytest.approx(0.0)
        assert drive.vsl_b == pytest.approx(0.0)
        assert not drive.active


class TestComparisonSemantics:
    def test_paper_example_stored_1(self, enc):
        """Fig. 2(d-f): stored '1' vs inputs 0/1/2."""
        assert enc.fb_conducts(1, 0) and not enc.fa_conducts(1, 0)
        assert enc.matches(1, 1)
        assert enc.fa_conducts(1, 2) and not enc.fb_conducts(1, 2)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_full_truth_table(self, bits):
        enc = LevelEncoding(TDAMConfig(bits=bits))
        for stored in range(enc.levels):
            for query in range(enc.levels):
                assert enc.fa_conducts(stored, query) == (query > stored)
                assert enc.fb_conducts(stored, query) == (query < stored)
                assert enc.matches(stored, query) == (query == stored)

    def test_exactly_one_fefet_conducts_on_mismatch(self, enc):
        for stored in range(4):
            for query in range(4):
                if stored == query:
                    continue
                assert enc.fa_conducts(stored, query) != enc.fb_conducts(
                    stored, query
                )


class TestVectorHelpers:
    def test_validate_accepts_integer_floats(self, enc):
        out = enc.validate_vector([0.0, 1.0, 3.0])
        assert out.dtype == np.int64

    def test_validate_levels_copies_only_to_convert(self):
        levels = np.array([[0, 1], [2, 3]], dtype=np.int64)
        assert validate_levels(levels, 4, ndim=2) is levels
        narrow = levels.astype(np.int32)
        out = validate_levels(narrow, 4, ndim=2)
        assert out.dtype == np.int64
        assert not np.shares_memory(out, narrow)

    def test_validate_rejects_fractional(self, enc):
        with pytest.raises(ValueError, match="integers"):
            enc.validate_vector([0.5, 1.0])

    def test_validate_rejects_out_of_range(self, enc):
        with pytest.raises(ValueError, match="must be in"):
            enc.validate_vector([0, 4])

    def test_validate_rejects_2d(self, enc):
        with pytest.raises(ValueError, match="1-D"):
            enc.validate_vector(np.zeros((2, 2)))

    def test_hamming_distance(self, enc):
        assert enc.hamming_distance([0, 1, 2, 3], [0, 1, 2, 3]) == 0
        assert enc.hamming_distance([0, 1, 2, 3], [3, 1, 2, 0]) == 2

    def test_mismatch_vector_shape_check(self, enc):
        with pytest.raises(ValueError, match="shape mismatch"):
            enc.mismatch_vector([0, 1], [0, 1, 2])


class TestEncodingProperties:
    @given(
        bits=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_voltage_margins_guarantee_semantics(self, bits, data):
        """The physical voltage comparison implied by the ladders agrees
        with the ideal semantics for every (stored, query) pair, with at
        least half a level step of margin."""
        enc = LevelEncoding(TDAMConfig(bits=bits))
        stored = data.draw(st.integers(0, enc.levels - 1))
        query = data.draw(st.integers(0, enc.levels - 1))
        half = enc.config.level_step / 2
        drive = enc.drive_for_query(query)
        overdrive_a = drive.vsl_a - enc.vth_for_fa(stored)
        overdrive_b = drive.vsl_b - enc.vth_for_fb(stored)
        if query > stored:
            assert overdrive_a >= half - 1e-9
        else:
            assert overdrive_a <= -half + 1e-9
        if query < stored:
            assert overdrive_b >= half - 1e-9
        else:
            assert overdrive_b <= -half + 1e-9

    @given(bits=st.integers(min_value=1, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_deactivation_blocks_all_stored_values(self, bits):
        """Both FeFETs stay under-driven for every stored value when the
        cell is parked (the 2-step scheme's requirement)."""
        enc = LevelEncoding(TDAMConfig(bits=bits))
        drive = enc.drive_deactivated()
        for stored in range(enc.levels):
            assert drive.vsl_a < enc.vth_for_fa(stored)
            assert drive.vsl_b < enc.vth_for_fb(stored)
