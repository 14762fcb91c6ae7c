"""Tests for repro.util.arrays: exact array primitives."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.util.arrays import sorted_unique


@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=200))
def test_sorted_unique_equals_np_unique(values):
    arr = np.array(values, dtype=np.int64)
    got = sorted_unique(arr)
    want = np.unique(arr)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_sorted_unique_flattens_and_leaves_its_input_alone():
    arr = np.array([[3, 1], [3, 2]], dtype=np.int64)
    assert sorted_unique(arr).tolist() == [1, 2, 3]
    assert arr.tolist() == [[3, 1], [3, 2]]
    assert sorted_unique(np.empty(0, dtype=np.int64)).size == 0
