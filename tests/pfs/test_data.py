"""Unit tests for DataSpec / DataView content algebra."""

import numpy as np
import pytest

from repro.errors import InvalidArgument
from repro.pfs.data import (
    DataView,
    LiteralData,
    PatternData,
    ZeroData,
    pattern_bytes,
)


class TestPatternBytes:
    def test_deterministic(self):
        a = pattern_bytes(7, 100, 64)
        b = pattern_bytes(7, 100, 64)
        assert np.array_equal(a, b)

    def test_shift_consistency(self):
        """pattern(seed, off, n)[k:] == pattern(seed, off+k, n-k)."""
        whole = pattern_bytes(3, 50, 100)
        tail = pattern_bytes(3, 70, 80)
        assert np.array_equal(whole[20:], tail)

    def test_different_seeds_differ(self):
        a = pattern_bytes(1, 0, 256)
        b = pattern_bytes(2, 0, 256)
        assert not np.array_equal(a, b)

    def test_not_degenerate(self):
        """The pattern uses the full byte range, not a constant."""
        a = pattern_bytes(42, 0, 4096)
        assert len(np.unique(a)) > 200

    def test_negative_length_rejected(self):
        with pytest.raises(InvalidArgument):
            pattern_bytes(0, 0, -1)


class TestSpecs:
    def test_slice_bounds_checked(self):
        spec = PatternData(1, 0, 10)
        with pytest.raises(InvalidArgument):
            spec.slice(5, 6)
        with pytest.raises(InvalidArgument):
            spec.slice(-1, 2)

    def test_pattern_slice_matches_materialized(self):
        spec = PatternData(9, 1000, 50)
        sub = spec.slice(10, 20)
        assert sub.to_bytes() == spec.to_bytes()[10:30]

    def test_structural_pattern_equality(self):
        assert PatternData(5, 30, 10).content_equal(PatternData(5, 30, 10))
        assert not PatternData(5, 30, 10).content_equal(PatternData(6, 30, 10))
        assert not PatternData(5, 30, 10).content_equal(PatternData(5, 31, 10))

    def test_shifted_pattern_slices_compare_equal(self):
        """Equal content through different (offset) routes is still equal."""
        a = PatternData(5, 0, 100).slice(40, 10)
        b = PatternData(5, 40, 10)
        assert a.content_equal(b)

    def test_zero_equality(self):
        assert ZeroData(8).content_equal(ZeroData(8))
        assert not ZeroData(8).content_equal(ZeroData(9))

    def test_literal_roundtrip_and_equality(self):
        lit = LiteralData(b"hello world")
        assert lit.length == 11
        assert lit.to_bytes() == b"hello world"
        assert lit.content_equal(LiteralData(b"hello world"))
        assert not lit.content_equal(LiteralData(b"hello worlD"))

    def test_literal_slices(self):
        lit = LiteralData(b"hello world")
        assert lit.slice(6, 5).to_bytes() == b"world"
        assert lit.slice(6, 5).length == 5
        assert lit.slice(0, 0).to_bytes() == b""
        assert lit.slice(0, 11).to_bytes() == b"hello world"
        assert lit.slice(2, 7).slice(1, 3).to_bytes() == b"lo "
        assert lit.slice(4, 3).to_bytes() == b"o w"
        with pytest.raises(InvalidArgument):
            lit.slice(6, 6)

    def test_literal_slice_equality(self):
        lit = LiteralData(b"abcabc")
        assert lit.slice(0, 3).content_equal(lit.slice(3, 3))
        assert lit.slice(0, 3).content_equal(LiteralData(b"abc"))
        assert not lit.slice(0, 3).content_equal(lit.slice(1, 3))
        assert lit.slice(0, 6).content_equal(lit)
        assert not lit.slice(0, 5).content_equal(lit)

    def test_literal_accepts_any_bytes_like(self):
        want = LiteralData(b"\x01\x02\x03")
        for data in (bytearray(b"\x01\x02\x03"), memoryview(b"\x01\x02\x03"),
                     np.array([1, 2, 3], dtype=np.uint8)):
            lit = LiteralData(data)
            assert lit.length == 3
            assert lit.to_bytes() == b"\x01\x02\x03"
            assert lit.content_equal(want) and want.content_equal(lit)

    def test_literal_holds_a_copy(self):
        buf = bytearray(b"abc")
        lit = LiteralData(buf)
        buf[0] = ord("z")
        assert lit.to_bytes() == b"abc"

    def test_literal_equals_pattern_of_the_same_bytes(self):
        pat = PatternData(4, 100, 64)
        lit = LiteralData(pat.to_bytes())
        assert lit.content_equal(pat) and pat.content_equal(lit)
        assert lit.slice(10, 20).content_equal(pat.slice(10, 20))
        assert not lit.slice(10, 20).content_equal(pat.slice(11, 20))

    def test_cross_kind_equality_materializes_small(self):
        zero = ZeroData(4)
        lit = LiteralData(b"\x00\x00\x00\x00")
        assert zero.content_equal(lit)
        assert lit.content_equal(zero)

    def test_length_mismatch_never_equal(self):
        assert not ZeroData(4).content_equal(ZeroData(5))
        assert not PatternData(1, 0, 4).content_equal(LiteralData(b"abc"))


class TestDataView:
    def test_view_concatenation(self):
        v = DataView([LiteralData(b"ab"), LiteralData(b"cd")])
        assert v.length == 4
        assert v.to_bytes() == b"abcd"

    def test_view_drops_empty_pieces(self):
        v = DataView([LiteralData(b""), LiteralData(b"x"), ZeroData(0)])
        assert v.length == 1
        assert len(v.pieces) == 1

    def test_piecewise_equality_across_different_splits(self):
        spec = PatternData(11, 0, 100)
        a = DataView([spec.slice(0, 30), spec.slice(30, 70)])
        b = DataView([spec.slice(0, 50), spec.slice(50, 25), spec.slice(75, 25)])
        assert a.content_equal(b)
        assert a.content_equal(spec)

    def test_piecewise_inequality(self):
        a = DataView([PatternData(1, 0, 10), PatternData(1, 10, 10)])
        b = DataView([PatternData(1, 0, 10), PatternData(2, 10, 10)])
        assert not a.content_equal(b)

    def test_to_bytes_joins_literal_and_generated_pieces(self):
        v = DataView([LiteralData(b"ab"), ZeroData(2), PatternData(3, 5, 4),
                      LiteralData(b"cd").slice(1, 1)])
        assert v.to_bytes() == (b"ab" + bytes(2) + pattern_bytes(3, 5, 4).tobytes()
                                + b"d")

    def test_empty_views_equal(self):
        assert DataView([]).content_equal(DataView([]))
        assert DataView([]).to_bytes() == b""
