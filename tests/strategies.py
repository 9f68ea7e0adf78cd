"""Hypothesis strategies for fuzzed JSON input documents."""

from hypothesis import strategies as st

# Any JSON value: what a malformed document may hold where a field belongs.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10)


def mostly(valid, other=JSON_VALUES):
    """``valid`` three draws in four, ``other`` otherwise."""
    return st.integers(0, 3).flatmap(lambda i: other if i == 3 else valid)
