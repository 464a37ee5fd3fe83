"""Z-set algebra: group laws, distinct, grouping, aggregation."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elements, weights, zsets
from deltaflow import (
    IndexedZSet,
    ValidationError,
    WeightOverflowError,
    ZSet,
    aggregate_avg,
    aggregate_count,
    aggregate_general,
    aggregate_max,
    aggregate_min,
    aggregate_sum,
    count_aggregate,
    distinct,
    flatmap,
    group_by,
    indexed_aggregate,
    is_positive,
    is_set,
    makeset,
    to_set,
    to_zset,
    zset_size,
)

R = ZSet({"joe": 1, "anne": -1})


class TestPrintedExamples:
    def test_membership_weights(self):
        assert R["joe"] == 1
        assert R["anne"] == -1
        assert "joe" in R and "anne" in R

    def test_distinct(self):
        assert distinct(R) == ZSet({"joe": 1})

    def test_isset_ispositive(self):
        assert is_set(R) is False
        assert is_positive(R) is False

    def test_group_by_first_letter(self):
        g = group_by(lambda s: s[0], R)
        assert g == IndexedZSet({"j": ZSet({"joe": 1}), "a": ZSet({"anne": -1})})

    def test_group_count(self):
        g = group_by(lambda s: s[0], R)
        assert indexed_aggregate(count_aggregate, g) == ZSet({("j", 1): 1, ("a", -1): 1})

    def test_flatmap(self):
        g = group_by(lambda s: s[0], R)
        assert flatmap(g) == ZSet({("j", "joe"): 1, ("a", "anne"): -1})


class TestAddition:
    def test_disjoint_singletons(self):
        assert ZSet({"joe": 1}) + ZSet({"anne": -1}) == R

    def test_pointwise(self):
        assert ZSet({"x": 2}) + ZSet({"x": -2, "y": 3}) == ZSet({"y": 3})

    def test_union_all_is_addition(self):
        assert ZSet({"x": 1}) + ZSet({"x": 1}) == ZSet({"x": 2})

    @given(zsets, zsets)
    def test_commutative(self, a, b):
        assert a + b == b + a

    @given(zsets, zsets, zsets)
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(zsets)
    def test_identity_and_inverse(self, a):
        zero = ZSet()
        assert a + zero == a
        assert (a + (-a)).is_zero()

    @given(zsets, zsets)
    def test_subtraction(self, a, b):
        assert a - b == a + (-b)

    def test_overflow_detected(self):
        big = ZSet({"x": 2**63 - 1})
        with pytest.raises(WeightOverflowError):
            big + ZSet({"x": 1})
        with pytest.raises(WeightOverflowError):
            ZSet({"x": -(2**63)}) + ZSet({"x": -1})

    @settings(max_examples=300)
    @given(st.data())
    def test_add_and_sub_match_a_dict_model(self, data):
        a, ma = data.draw(churned_zsets())
        b, mb = data.draw(churned_zsets(model_of=ma))
        before = list(a.raw_items()), list(b.raw_items())
        for (x, mx), (y, my), sign in (((a, ma), (b, mb), 1), ((b, mb), (a, ma), 1), ((a, ma), (b, mb), -1)):
            op = operator.add if sign > 0 else operator.sub
            want = dict(mx)
            for e, w in my.items():
                want[e] = want.get(e, 0) + sign * w
            bad = first_overflow(x, y, sign, want)
            if bad is None:
                assert op(x, y) == ZSet._wrap({e: w for e, w in want.items() if w})
            else:
                with pytest.raises(WeightOverflowError, match=f"^weight {bad} outside signed 64-bit range$"):
                    op(x, y)
            assert (list(a.raw_items()), list(b.raw_items())) == before
            assert dict(a.raw_items()) == ma and dict(b.raw_items()) == mb

    def test_zero_weight_entries_dropped_on_construction(self):
        z = ZSet([("x", 1), ("x", -1), ("y", 2)])
        assert len(z) == 1 and z["x"] == 0


churn_elements = st.one_of(st.integers(min_value=0, max_value=40), st.tuples(st.integers(0, 5), st.sampled_from("ab")))
NEAR_MAX = 2**63 - 100  # any churned weight plus this stays in range
# two of these with one sign always overflow, each sum to its own weight
near_max_weights = st.one_of(st.integers(2**62, NEAR_MAX), st.integers(-NEAR_MAX, -(2**62)))


@st.composite
def churned_zsets(draw, model_of=None):
    """A Z-set built the way an integral is, by +, so its table has grown
    past resizes and held deleted entries, with its plain-dict model.  With
    model_of it also carries the negation of some of that model's entries."""
    z, model = ZSet(), {}

    def add(step):
        nonlocal z
        z = z + ZSet(step)
        for x, w in step.items():
            model[x] = model.get(x, 0) + w
            if not model[x]:
                del model[x]

    first = draw(st.dictionaries(churn_elements, weights, max_size=30))
    add(first)
    add({x: -first[x] for x in draw(st.lists(st.sampled_from(sorted(first, key=repr)), unique=True))} if first else {})
    add(draw(st.dictionaries(churn_elements, weights, max_size=30)))
    if model_of:
        add({x: -w for x, w in model_of.items() if draw(st.booleans())})
    near = draw(st.dictionaries(st.sampled_from("wxyz"), near_max_weights, max_size=4))
    add({x: w for x, w in near.items() if x not in model})
    return z, model


def first_overflow(a, b, sign, want):
    """The weight a + b or a - b reports: the first out-of-range sum in the
    order of the operand folded into a copy of the other, which is b for -
    and the smaller operand for + (b on a tie)."""
    if sign > 0 and len(b) > len(a):
        a, b = b, a
    for x, _ in b.raw_items():
        if not -(2**63) <= want[x] <= 2**63 - 1:
            return want[x]
    return None


class TestDistinctProperties:
    def test_empty(self):
        assert distinct(ZSet()).is_zero()

    def test_per_element(self):
        assert distinct(ZSet({"a": 5, "b": -2, "c": 1})) == ZSet({"a": 1, "c": 1})

    @given(zsets)
    def test_idempotent(self, m):
        assert distinct(distinct(m)) == distinct(m)

    @given(zsets)
    def test_distinct_is_set(self, m):
        d = distinct(m)
        assert is_set(d)
        assert is_positive(d)

    def test_empty_is_set_and_positive(self):
        assert is_set(ZSet())
        assert is_positive(ZSet())

    def test_bag_is_positive_not_set(self):
        assert not is_set(ZSet({"a": 2}))
        assert is_positive(ZSet({"a": 2}))

    @given(zsets)
    def test_set_implies_positive(self, m):
        if is_set(m):
            assert is_positive(m)


class TestSetConversions:
    def test_to_set_strips(self):
        assert to_set(ZSet({"a": 3, "b": -1})) == {"a"}

    def test_to_zset_empty(self):
        assert to_zset(set()).is_zero()

    def test_to_zset_weights(self):
        assert to_zset({"x", "y"}) == ZSet({"x": 1, "y": 1})

    @given(st.sets(elements, max_size=6))
    def test_roundtrip(self, s):
        assert to_set(to_zset(s)) == s


class TestGrouping:
    def test_empty(self):
        assert group_by(lambda x: x, ZSet()).is_zero()

    def test_constant_key(self):
        m = ZSet({"x": 2, "y": 3})
        assert group_by(lambda x: "k", m) == IndexedZSet({"k": m})

    @given(zsets, zsets)
    def test_linear(self, a, b):
        p = lambda x: x[0] if type(x) is tuple else x
        assert group_by(p, a + b) == group_by(p, a) + group_by(p, b)
        assert group_by(p, -a) == -group_by(p, a)

    @given(zsets, zsets)
    def test_flatmap_linear(self, a, b):
        p = lambda x: x[0] if type(x) is tuple else x
        ga, gb = group_by(p, a), group_by(p, b)
        assert flatmap(ga + gb) == flatmap(ga) + flatmap(gb)
        assert flatmap(-ga) == -flatmap(ga)

    def test_flatmap_single_group(self):
        assert flatmap(IndexedZSet({"k": ZSet({"x": 2})})) == ZSet({("k", "x"): 2})

    @given(zsets)
    def test_flatmap_rekeying_preserves_weights(self, m):
        p = lambda x: x[0] if type(x) is tuple else x
        flat = flatmap(group_by(p, m))
        # the pairing (p(x), x) is injective, so stripping the key recovers m
        recovered = {}
        for kx, w in flat.raw_items():
            x = kx[1:] if len(kx) > 2 else kx[1]
            recovered[x] = recovered.get(x, 0) + w
        assert ZSet(recovered) == m

    def test_indexed_group_laws(self):
        a = IndexedZSet({"k": ZSet({"x": 1})})
        b = IndexedZSet({"k": ZSet({"x": -1}), "j": ZSet({"y": 2})})
        assert a + b == IndexedZSet({"j": ZSet({"y": 2})})
        assert (a + (-a)).is_zero()

    def test_no_empty_groups_stored(self):
        g = IndexedZSet({"k": ZSet()})
        assert g.is_zero() and len(g) == 0


class TestAggregates:
    def test_makeset(self):
        assert makeset(5) == ZSet({5: 1})
        assert makeset(("j", 1)) == ZSet({("j", 1): 1})
        assert makeset("") == ZSet({"": 1})

    def test_count(self):
        assert aggregate_count(ZSet({"a": 2, "b": -1})) == 1
        assert aggregate_count(ZSet()) == 0

    def test_sum(self):
        assert aggregate_sum(ZSet()) == 0
        assert aggregate_sum(ZSet({(10,): 2, (5,): 1}), 0) == 25

    def test_sum_non_numeric(self):
        with pytest.raises(ValidationError):
            aggregate_sum(ZSet({("a",): 1}), 0)

    @given(zsets, zsets)
    def test_count_homomorphism(self, a, b):
        assert aggregate_count(a + b) == aggregate_count(a) + aggregate_count(b)

    @given(zsets, zsets)
    def test_sum_homomorphism(self, a, b):
        key = lambda m: sum((x[0] if type(x) is tuple else 0) * w for x, w in m.raw_items() if type(x) is tuple and not isinstance(x[0], str))
        num = lambda m: ZSet({x: w for x, w in m.raw_items() if type(x) is tuple and not isinstance(x[0], str)})
        a, b = num(a), num(b)
        assert aggregate_sum(a + b) == aggregate_sum(a) + aggregate_sum(b)

    def test_min_max(self):
        m = ZSet({(3,): 1, (7,): 1})
        assert aggregate_min(m) == 3
        assert aggregate_max(m) == 7

    def test_min_requires_positive(self):
        with pytest.raises(ValidationError):
            aggregate_min(ZSet({(3,): -1}))

    def test_general_set_function(self):
        m = ZSet({(3,): 2, (7,): 1})
        assert aggregate_general(len, m) == 2
        assert aggregate_general(lambda s: sorted(s)[0], m) == (3,)
        with pytest.raises(ValidationError):
            aggregate_general(len, ZSet({(3,): -1}))

    def test_avg(self):
        assert aggregate_avg(ZSet({(4,): 1, (6,): 1})) == 5
        assert aggregate_avg(ZSet({(1,): 1, (2,): 1})) == Fraction(3, 2)

    def test_avg_empty_errors(self):
        with pytest.raises(ValidationError):
            aggregate_avg(ZSet())

    def test_indexed_aggregate_count_of_two(self):
        g = IndexedZSet({"k": ZSet({"x": 1, "y": 1})})
        assert indexed_aggregate(count_aggregate, g) == ZSet({("k", 2): 1})

    def test_indexed_aggregate_empty(self):
        assert indexed_aggregate(count_aggregate, IndexedZSet()).is_zero()


class TestMisc:
    def test_size(self):
        assert zset_size(ZSet({"a": 1, "b": -2})) == 2
        assert zset_size(ZSet()) == 0
        assert zset_size(distinct(ZSet({"a": 5}))) == 1

    def test_canonical_enumeration_order(self):
        z = ZSet({("b", 1): 1, ("a", 2): 1, "z": 1, 3: 1})
        assert list(z) == [3, "z", ("a", 2), ("b", 1)]

    def test_ingestion_rejections(self):
        from deltaflow.zset import validate_element

        for bad in (None, float("nan"), True, [1]):
            with pytest.raises(ValidationError):
                validate_element(bad)
        validate_element((1, "a", 2.5))
