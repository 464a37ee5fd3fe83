"""Generic group arithmetic over the value kinds edges can carry."""

import pytest
from deltaflow import IndexedZSet, StreamVector, ZSet
from deltaflow.groupval import ZERO, as_zset, gv_add, gv_eq, gv_is_zero, gv_neg, gv_sub


class TestZero:
    def test_absorbing(self):
        z = ZSet({"a": 1})
        assert gv_add(ZERO, z) is z
        assert gv_add(z, ZERO) is z
        assert gv_neg(ZERO) is ZERO

    def test_equality_with_typed_zeros(self):
        assert ZERO == 0
        assert 0 == ZERO
        assert ZERO == ZSet()
        assert ZERO == IndexedZSet()
        assert ZERO == StreamVector(())
        assert not (ZERO == ZSet({"a": 1}))

    def test_normalization(self):
        assert as_zset(ZERO).is_zero()
        with pytest.raises(TypeError):
            as_zset(3)


class TestPairs:
    def test_pair_group(self):
        a = (ZSet({"x": 1}), 2)
        b = (ZSet({"x": -1}), 3)
        s = gv_add(a, b)
        assert s[0].is_zero() and s[1] == 5
        assert gv_neg(a) == (ZSet({"x": -1}), -2)
        assert gv_is_zero(gv_sub(a, a))
        assert gv_eq(a, (ZSet({"x": 1}), 2))

    def test_arity_mismatch(self):
        with pytest.raises(TypeError):
            gv_add((1, 2), (1, 2, 3))

    def test_nested_pairs(self):
        a = ((1, 2), ZSet({"k": 1}))
        assert gv_is_zero(gv_add(a, gv_neg(a)))


class TestScalars:
    def test_int_overflow_checked(self):
        from deltaflow import WeightOverflowError

        with pytest.raises(WeightOverflowError):
            gv_add(2**63 - 1, 1)

    def test_floats_unchecked(self):
        assert gv_add(1.5, 2.5) == 4.0
        assert gv_is_zero(0.0)
