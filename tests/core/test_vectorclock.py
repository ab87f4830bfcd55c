"""Unit + property tests for vector clocks (Section 4.3 relations)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vectorclock import (
    VectorClock,
    vc_concurrent,
    vc_join,
    vc_join_inplace,
    vc_le,
    vc_lt,
)

vectors = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8)


def pair_of_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    elems = st.integers(min_value=0, max_value=50)
    a = draw(st.lists(elems, min_size=n, max_size=n))
    b = draw(st.lists(elems, min_size=n, max_size=n))
    return a, b


vector_pairs = st.composite(pair_of_vectors)()


class TestPlainHelpers:
    def test_le_basic(self):
        assert vc_le([0, 0], [0, 0])
        assert vc_le([1, 2], [1, 3])
        assert not vc_le([2, 0], [1, 3])

    def test_lt_requires_strict(self):
        assert not vc_lt([1, 1], [1, 1])
        assert vc_lt([1, 1], [1, 2])
        assert not vc_lt([0, 2], [1, 1])

    def test_concurrent(self):
        assert vc_concurrent([1, 0], [0, 1])
        assert not vc_concurrent([0, 0], [0, 1])
        # equal vectors are NOT concurrent (neither < the other, but the
        # paper defines || via <, and equal vectors satisfy neither <):
        # equality only happens for the same write, handled upstream.
        assert vc_concurrent([1, 1], [1, 1])

    def test_join(self):
        assert vc_join([1, 5, 0], [3, 2, 0]) == [3, 5, 0]

    def test_join_inplace(self):
        a = [1, 5, 0]
        vc_join_inplace(a, [3, 2, 0])
        assert a == [3, 5, 0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vc_le([1], [1, 2])
        with pytest.raises(ValueError):
            vc_lt([1], [1, 2])
        with pytest.raises(ValueError):
            vc_join([1], [1, 2])
        with pytest.raises(ValueError):
            vc_join_inplace([1], [1, 2])


class TestVectorClockClass:
    def test_zero(self):
        z = VectorClock.zero(3)
        assert z.components == (0, 0, 0)
        assert z.n == 3 and len(z) == 3

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            VectorClock.zero(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VectorClock.of(1, -1)

    def test_operators(self):
        a = VectorClock.of(1, 0, 0)
        b = VectorClock.of(1, 1, 0)
        assert a < b and a <= b
        assert b > a and b >= a
        assert not (b < a)

    def test_concurrent(self):
        a = VectorClock.of(1, 0)
        b = VectorClock.of(0, 1)
        assert a.concurrent(b) and b.concurrent(a)
        assert not a.concurrent(a.increment(0))

    def test_increment(self):
        a = VectorClock.zero(3).increment(1)
        assert a.components == (0, 1, 0)
        with pytest.raises(IndexError):
            a.increment(5)

    def test_join(self):
        a = VectorClock.of(1, 5)
        b = VectorClock.of(3, 2)
        assert a.join(b) == VectorClock.of(3, 5)

    def test_str_and_iter(self):
        a = VectorClock.of(1, 2, 3)
        assert str(a) == "[1,2,3]"
        assert list(a) == [1, 2, 3]
        assert a[1] == 2


class TestPropertyBased:
    @given(vector_pairs)
    def test_lt_is_le_and_not_equal(self, pair):
        a, b = pair
        assert vc_lt(a, b) == (vc_le(a, b) and a != b)

    @given(vector_pairs)
    def test_antisymmetry(self, pair):
        a, b = pair
        assert not (vc_lt(a, b) and vc_lt(b, a))

    @given(vector_pairs)
    def test_trichotomy_with_concurrency(self, pair):
        """Exactly one of: a<b, b<a, a||b (for a != b); a==b is its own case."""
        a, b = pair
        cases = [vc_lt(a, b), vc_lt(b, a), vc_concurrent(a, b) and a != b, a == b]
        assert sum(cases) == 1

    @given(vector_pairs)
    def test_join_is_upper_bound(self, pair):
        a, b = pair
        j = vc_join(a, b)
        assert vc_le(a, j) and vc_le(b, j)

    @given(vector_pairs)
    def test_join_commutative(self, pair):
        a, b = pair
        assert vc_join(a, b) == vc_join(b, a)
