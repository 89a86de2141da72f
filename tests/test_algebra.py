"""Linear-combination substrate: exact arithmetic, canonical keys, round trips."""

import pickle
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopftrees import (
    LinearCombination,
    TensorPair,
    heap_ordered_trees,
    ordered_trees,
    parse_permutation,
    parse_tree,
    rooted_trees,
    symmetric_group,
    tensor,
)
from hopftrees.algebra import splits


@dataclass(frozen=True)
class Sym:
    name: str

    def encode(self) -> str:
        return self.name


A, B, C = Sym("a"), Sym("b"), Sym("c")


def test_splits_come_in_mask_order_and_refuse_an_over_budget_count():
    assert list(splits(("a", "b", "c"), "split")) == [
        ((), ("a", "b", "c")), (("a",), ("b", "c")), (("b",), ("a", "c")), (("a", "b"), ("c",)),
        (("c",), ("a", "b")), (("a", "c"), ("b",)), (("b", "c"), ("a",)), (("a", "b", "c"), ()),
    ]
    assert list(splits((), "split")) == [((), ())]
    with pytest.raises(ValueError, match="wide split would enumerate 262144 terms"):  # 2^18
        next(splits(tuple(range(18)), "wide split"))


def test_addition_cancels_to_empty():
    assert LinearCombination([(A, 1)]) + LinearCombination([(A, -1)]) == LinearCombination.zero()


def test_addition_disjoint_supports():
    total = LinearCombination([(A, 1)]) + LinearCombination([(B, 2)])
    assert total == LinearCombination([(A, 1), (B, 2)])


def test_addition_merges_fractions():
    half = Fraction(1, 2)
    assert LinearCombination([(A, half)]) + LinearCombination([(A, half)]) == LinearCombination([(A, 1)])


def test_scaling():
    five = LinearCombination([(A, 5)])
    assert 0 * five == LinearCombination.zero()
    assert 1 * five == five
    assert Fraction(2, 3) * LinearCombination([(A, 3)]) == LinearCombination([(A, 2)])


def test_int_coefficients_stay_int_until_a_fraction_enters():
    combo = LinearCombination([(A, 2), (B, 3), (A, 4), (C, Fraction(1, 2))])
    assert [type(c) for _, c in combo.terms()] == [int, int, Fraction]
    scaled = 3 * combo - combo
    assert (scaled.coefficient(A), scaled.coefficient(B)) == (12, 6)
    assert type(scaled.coefficient(A)) is int and type(scaled.coefficient(B)) is int
    third = Fraction(1, 3) * combo
    assert [type(c) for _, c in third.terms()] == [Fraction, Fraction, Fraction]
    assert (third.coefficient(A), type(third.coefficient(A))) == (2, int)
    assert third.coefficient(C) == Fraction(1, 6)
    assert combo.coefficient(Sym("absent")) == 0 and type(combo.coefficient(Sym("absent"))) is int
    assert LinearCombination({A: 1.5}).coefficient(A) == Fraction(3, 2)
    assert LinearCombination({A: 1.5, B: -2}).render() == "3/2*a - 2*b"


def test_tensor_pair_is_an_immutable_value_with_a_cached_hash():
    pair = TensorPair(A, TensorPair(B, C))
    twin = TensorPair(A, TensorPair(B, C))
    assert pair == twin and hash(pair) == hash(twin) == hash((A, TensorPair(B, C)))
    assert pair != TensorPair(A, TensorPair(C, B)) and pair != (A, TensorPair(B, C))
    assert pair.swap() == TensorPair(TensorPair(B, C), A)
    assert pair.encode() == "a (x) b (x) c"
    assert pickle.loads(pickle.dumps(pair)) == pair
    with pytest.raises(AttributeError):
        pair.left = B
    assert not hasattr(pair, "__dict__")


def test_tensor_single_terms():
    a = LinearCombination.single(A)
    b = LinearCombination.single(B)
    assert tensor(a, b) == LinearCombination.single(TensorPair(A, B))


def test_tensor_zero_annihilates():
    assert tensor(LinearCombination.zero(), LinearCombination.single(B)) == LinearCombination.zero()


def test_tensor_bilinearity_of_coefficients():
    a = LinearCombination([(A, 2)])
    b = LinearCombination([(B, 3)])
    assert tensor(a, b) == LinearCombination([(TensorPair(A, B), 6)])


def test_render_is_sorted_and_signed():
    combo = LinearCombination([(C, -1), (A, 2), (B, Fraction(1, 2))])
    assert combo.render() == "2*a + 1/2*b - c"
    assert LinearCombination.zero().render() == "0"


coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=9)
symbols = st.sampled_from([A, B, C])
combos = st.lists(st.tuples(symbols, coeffs), max_size=6).map(LinearCombination)


@given(combos, combos)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(combos, combos, combos)
def test_addition_associates(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(coeffs, combos, combos)
def test_scaling_distributes(c, x, y):
    assert c * (x + y) == c * x + c * y


@given(coeffs, coeffs, combos)
def test_scaling_composes(c, d, x):
    assert c * (d * x) == (c * d) * x


def test_encode_round_trip_trees_to_degree_five():
    for degree in range(6):
        for tree in rooted_trees(degree):
            assert parse_tree(tree.encode()) == tree
        for tree in ordered_trees(degree):
            assert parse_tree(tree.encode(), ordered=True) == tree
        for tree in heap_ordered_trees(min(degree, 5)):
            assert parse_tree(tree.encode()) == tree


def test_encode_round_trip_permutations_to_degree_five():
    for n in range(6):
        for p in symmetric_group(n):
            assert parse_permutation(p.encode()) == p
