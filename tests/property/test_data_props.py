"""Property-based tests for the virtual-data algebra (DataSpec/DataView)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs.data import (
    CompositeData,
    DataView,
    LiteralData,
    PatternData,
    ZeroData,
    pattern_bytes,
)

specs = st.one_of(
    st.builds(ZeroData, st.integers(min_value=0, max_value=500)),
    st.builds(PatternData,
              st.integers(min_value=0, max_value=50),
              st.integers(min_value=0, max_value=10_000),
              st.integers(min_value=0, max_value=500)),
    st.builds(LiteralData, st.binary(max_size=200)),
)


@given(specs, st.data())
@settings(max_examples=200, deadline=None)
def test_slice_matches_materialized_slice(spec, data):
    if spec.length == 0:
        return
    start = data.draw(st.integers(min_value=0, max_value=spec.length))
    length = data.draw(st.integers(min_value=0, max_value=spec.length - start))
    sub = spec.slice(start, length)
    assert sub.length == length
    assert sub.to_bytes() == spec.to_bytes()[start:start + length]


@given(specs)
@settings(max_examples=100, deadline=None)
def test_content_equal_reflexive_and_matches_bytes(spec):
    assert spec.content_equal(spec)
    clone = LiteralData(spec.to_bytes())
    assert spec.content_equal(clone)
    assert clone.content_equal(spec)


@given(specs, specs)
@settings(max_examples=200, deadline=None)
def test_content_equal_agrees_with_materialization(a, b):
    """Structural equality may be conservative only in the False direction
    for huge specs; at these sizes it must be exact."""
    truth = a.to_bytes() == b.to_bytes()
    assert a.content_equal(b) == truth
    assert b.content_equal(a) == truth


@given(st.lists(specs, max_size=6), st.data())
@settings(max_examples=150, deadline=None)
def test_view_slice_matches_bytes(pieces, data):
    view = DataView(pieces)
    if view.length == 0:
        return
    start = data.draw(st.integers(min_value=0, max_value=view.length))
    length = data.draw(st.integers(min_value=0, max_value=view.length - start))
    sub = view.slice(start, length)
    assert sub.length == length
    assert sub.to_bytes() == view.to_bytes()[start:start + length]


@given(st.lists(specs, max_size=6), st.data())
@settings(max_examples=100, deadline=None)
def test_view_equality_invariant_under_resplit(pieces, data):
    """Splitting a view at arbitrary points never changes its content."""
    view = DataView(pieces)
    if view.length == 0:
        return
    cut = data.draw(st.integers(min_value=0, max_value=view.length))
    resplit = DataView(
        view.slice(0, cut).pieces + view.slice(cut, view.length - cut).pieces)
    assert view.content_equal(resplit)
    assert resplit.content_equal(view)


@given(st.lists(specs, min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_composite_behaves_like_its_concatenation(pieces):
    view = DataView(pieces)
    comp = CompositeData(view)
    lit = LiteralData(view.to_bytes())
    assert comp.length == view.length
    assert comp.content_equal(lit)
    assert lit.content_equal(comp)
    if comp.length >= 2:
        sub = comp.slice(1, comp.length - 2)
        assert sub.to_bytes() == view.to_bytes()[1:-1]


@given(st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=0, max_value=300))
@settings(max_examples=100, deadline=None)
def test_pattern_shift_identity(seed, offset, k, n):
    """pattern(seed, off)[k : k+n] == pattern(seed, off+k)[:n]."""
    a = pattern_bytes(seed, offset, k + n)[k:]
    b = pattern_bytes(seed, offset + k, n)
    assert np.array_equal(a, b)
