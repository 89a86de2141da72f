"""Shuffle algebra of words: interleavings, deconcatenation, antipode, counts."""

import itertools
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from hopftrees import (
    EMPTY_WORD,
    LinearCombination,
    ShuffleHopfAlgebra,
    TensorPair,
    Word,
    deconcatenation,
    extend_linear,
    parse_word,
    shuffle_antipode,
    shuffle_product,
    word_count,
    ordered_trees,
)
from helpers import lc, shuffles_by_recursion


X1, X2, X3 = Word(("x1",)), Word(("x2",)), Word(("x3",))


def test_product_of_two_letters():
    assert shuffle_product(X1, X2) == lc((Word(("x1", "x2")), 1), (Word(("x2", "x1")), 1))


def test_product_length_two_by_one():
    expected = lc(
        (Word(("x1", "x2", "x3")), 1),
        (Word(("x1", "x3", "x2")), 1),
        (Word(("x3", "x1", "x2")), 1),
    )
    assert shuffle_product(Word(("x1", "x2")), X3) == expected


def test_product_coinciding_interleavings():
    assert shuffle_product(X1, X1) == lc((Word(("x1", "x1")), 2))


def test_product_term_count_is_binomial():
    u = Word(("a", "b", "c"))
    v = Word(("d", "e"))
    assert shuffle_product(u, v).total_multiplicity() == math.comb(5, 2)


def test_coproduct_on_unit_and_letters():
    assert deconcatenation(EMPTY_WORD) == lc((TensorPair(EMPTY_WORD, EMPTY_WORD), 1))
    assert deconcatenation(X1) == lc(
        (TensorPair(EMPTY_WORD, X1), 1), (TensorPair(X1, EMPTY_WORD), 1)
    )


def test_coproduct_splits_prefixes():
    w = Word(("x1", "x2"))
    assert deconcatenation(w) == lc(
        (TensorPair(EMPTY_WORD, w), 1),
        (TensorPair(X1, X2), 1),
        (TensorPair(w, EMPTY_WORD), 1),
    )


def test_antipode_examples():
    assert shuffle_antipode(EMPTY_WORD) == lc((EMPTY_WORD, 1))
    assert shuffle_antipode(X1) == lc((X1, -1))
    assert shuffle_antipode(Word(("x1", "x2"))) == lc((Word(("x2", "x1")), 1))


def test_antipode_axiom_up_to_length_four():
    letters = ("x1", "x2")
    alg = ShuffleHopfAlgebra(letters)
    for length in range(5):
        for combo in itertools.product(letters, repeat=length):
            w = Word(combo)
            total = LinearCombination.zero()
            for pair, coeff in deconcatenation(w):
                total = total + coeff * extend_linear(
                    lambda s: shuffle_product(s, pair.right), shuffle_antipode(pair.left)
                )
            assert total == alg.counit(w) * LinearCombination.single(EMPTY_WORD)


words = st.lists(st.sampled_from(["x1", "x2"]), max_size=3).map(lambda ls: Word(tuple(ls)))


@settings(derandomize=True, max_examples=100, deadline=2000)
@given(words, words)
def test_product_commutes(u, v):
    assert shuffle_product(u, v) == shuffle_product(v, u)


@settings(derandomize=True, max_examples=100, deadline=2000)
@given(words, words, words)
def test_product_associates(u, v, w):
    left = extend_linear(lambda s: shuffle_product(s, w), shuffle_product(u, v))
    right = extend_linear(lambda s: shuffle_product(u, s), shuffle_product(v, w))
    assert left == right


def test_hopf_sweep():
    report = ShuffleHopfAlgebra(("x1", "x2")).verify(3)
    assert report.passed, report.render()


def test_word_count_examples():
    assert word_count([("x", 1)], 3) == 1
    assert word_count([("a", 1), ("b", 2)], 2) == 2


def test_word_count_refuses_a_non_integral_letter_degree_instead_of_truncating_it():
    with pytest.raises(ValueError, match=r"^letter degrees must be integers$"):
        word_count([("a", 1.5)], 2)
    assert word_count([("a", 1.0)], 2) == 1


@pytest.mark.parametrize("degree", [float("inf"), float("-inf"), float("nan")])
def test_word_count_refuses_an_infinite_or_nan_letter_degree(degree):
    with pytest.raises(ValueError, match=r"^letter degrees must be integers$"):
        word_count([("a", 1), ("b", degree)], 3)


@pytest.mark.parametrize("total", [2.5, float("inf"), float("-inf"), float("nan"), "3"])
def test_word_count_refuses_a_total_degree_that_is_not_an_integer(total):
    with pytest.raises(ValueError, match=r"^total degree must be an integer$"):
        word_count([("a", 1)], total)
    assert word_count([("a", 1), ("b", 2)], 4.0) == word_count([("a", 1), ("b", 2)], 4) == 5


def test_word_count_against_one_child_tree_alphabet():
    alphabet = [
        (tree.encode(), degree)
        for degree in range(1, 6)
        for tree in ordered_trees(degree)
        if len(tree.children) == 1
    ]
    for degree in range(6):
        assert word_count(alphabet, degree) == len(ordered_trees(degree))


def test_word_parsing_round_trip():
    assert parse_word("1") == EMPTY_WORD
    assert parse_word("x1.x2.x1") == Word(("x1", "x2", "x1"))
    assert parse_word(Word(("a", "b")).encode()) == Word(("a", "b"))


def test_shuffle_product_matches_the_recursive_definition():
    words = [Word(w) for n in range(4) for w in itertools.product(("a", "b"), repeat=n)]
    words += [Word(("x", "y", "z")), Word(("a", "x", "a", "y"))]
    for u, v in itertools.product(words, repeat=2):
        expected = shuffles_by_recursion(u.letters, v.letters)
        assert shuffle_product(u, v) == LinearCombination(
            (Word(letters), count) for letters, count in expected.items()
        )


def test_word_is_an_immutable_value_with_a_cached_hash():
    w = Word(("a", "b"))
    twin = Word(("a", "b"))
    assert w == twin and hash(w) == hash(twin) and w is not twin
    assert w != Word(("b", "a")) and w != ("a", "b")
    assert Word() == EMPTY_WORD and Word(letters=("a",)) == Word(("a",))
    assert len({w, twin, Word(("b", "a"))}) == 2
    assert pickle.loads(pickle.dumps(w)) == w
    assert repr(w) == "Word(('a', 'b'))"
    with pytest.raises(AttributeError):
        w.letters = ("c",)
    with pytest.raises(AttributeError):
        del w.letters
    assert not hasattr(w, "__dict__")


def test_a_list_of_letters_gives_a_hashable_algebra_with_the_letters_as_given():
    alg = ShuffleHopfAlgebra(["a", "b"])
    assert alg.letters == ("a", "b") and alg == ShuffleHopfAlgebra(("a", "b"))
    assert hash(alg) == hash(ShuffleHopfAlgebra(("a", "b")))
    assert ShuffleHopfAlgebra(["a", "a"]).describe() == "shuffle algebra on {a, a}"
