"""Cycle permutations: standard order, heap product, coproduct, tree bijection."""

import itertools
import math
import pickle

import pytest

from hopftrees import (
    HEAP_ORDERED,
    HEAP_PRODUCT_ALGEBRA,
    CyclePermutation,
    TensorPair,
    cycle_coproduct,
    heap_ordered_trees,
    heap_product,
    parse_permutation,
    perm_counit,
    permutation_to_tree,
    relabel,
    shift,
    symmetric_group,
    tree_to_permutation,
)
from helpers import (heap_product_by_maps, lc, permutation_as_map, permutation_to_tree_by_stack,
                     symmetric_group_by_cycle_walk, t)


ID0 = CyclePermutation()


def test_standard_order_rotates_to_smallest_entry():
    assert CyclePermutation.from_cycles([(2, 1)]).encode() == "(1 2)"


def test_standard_order_sorts_cycles_by_decreasing_heads():
    assert CyclePermutation.from_cycles([(1, 2), (3,)]).encode() == "(3)(1 2)"


def test_standard_order_materializes_fixed_points():
    assert CyclePermutation.from_cycles([], n=3).encode() == "(3)(2)(1)"


def test_standard_order_rejects_duplicates_and_bad_ranges():
    with pytest.raises(ValueError):
        CyclePermutation.from_cycles([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        CyclePermutation.from_cycles([(4,)], n=2)
    with pytest.raises(ValueError, match=r"^entry 0 out of range for S_-1$"):
        CyclePermutation.identity(-1)


def test_shift_examples():
    assert shift(parse_permutation("(1 2)"), 1).encode() == "(2 3)"
    assert shift(parse_permutation("(1)"), 1).encode() == "(2)"
    assert shift(ID0, 5) == ID0


def test_heap_product_two_singletons():
    one = parse_permutation("(1)")
    assert heap_product(one, one) == lc(
        (parse_permutation("(1 2)"), 1), (parse_permutation("(2)(1)"), 1)
    )


def test_heap_product_unit():
    one = parse_permutation("(1)")
    assert heap_product(one, ID0) == lc((one, 1))
    assert heap_product(ID0, one) == lc((one, 1))


def test_heap_product_two_fixed_points_times_singleton():
    two = parse_permutation("(2)(1)")
    one = parse_permutation("(1)")
    assert heap_product(two, one) == lc(
        (parse_permutation("(1 3 2)"), 1),
        (parse_permutation("(2)(1 3)"), 1),
        (parse_permutation("(3)(1 2)"), 1),
        (parse_permutation("(3)(2)(1)"), 1),
    )


def test_heap_product_term_count():
    for m in range(4):
        for n in range(4):
            for s in symmetric_group(m):
                for u in symmetric_group(n):
                    total = heap_product(s, u).total_multiplicity()
                    assert total == (n + 1) ** len(s.cycles)


def test_relabel_collapses_gaps():
    assert relabel([(1, 3), (4,), (5, 7)]) == parse_permutation("(1 2)(3)(4 5)")
    assert relabel([(2, 5)]) == parse_permutation("(1 2)")
    assert relabel([]) == ID0


def test_coproduct_examples():
    assert cycle_coproduct(ID0) == lc((TensorPair(ID0, ID0), 1))
    swap = parse_permutation("(1 2)")
    assert cycle_coproduct(swap) == lc(
        (TensorPair(ID0, swap), 1), (TensorPair(swap, ID0), 1)
    )
    two = parse_permutation("(2)(1)")
    one = parse_permutation("(1)")
    assert cycle_coproduct(two) == lc(
        (TensorPair(ID0, two), 1),
        (TensorPair(one, one), 2),
        (TensorPair(two, ID0), 1),
    )


def test_counit_lives_on_the_empty_group():
    assert perm_counit(ID0) == 1
    assert perm_counit(parse_permutation("(1)")) == 0
    assert perm_counit(CyclePermutation.from_cycles([], n=2)) == 0


def test_cocommutativity_up_to_degree_four():
    for n in range(5):
        for p in symmetric_group(n):
            delta = cycle_coproduct(p)
            assert delta.map_basis(TensorPair.swap) == delta


def test_tree_bijection_small_cases():
    one = parse_permutation("(1)")
    assert permutation_to_tree(one) == t("(;(1))")
    assert permutation_to_tree(parse_permutation("(1 2)")) == t("(;(1;(2)))")
    assert permutation_to_tree(parse_permutation("(2)(1)")) == t("(;(1)(2))")


def test_symmetric_group_grown_by_the_heap_product_is_the_cycle_walk_list():
    for n in range(7):
        assert symmetric_group(n) == symmetric_group_by_cycle_walk(n), n


def test_the_minima_recursion_builds_the_stack_walk_tree():
    for n in range(7):
        for p in symmetric_group_by_cycle_walk(n):
            assert permutation_to_tree(p) == permutation_to_tree_by_stack(p), p


def test_tree_bijection_is_a_bijection_per_degree():
    for n in range(5):
        perms = symmetric_group(n)
        images = {permutation_to_tree(p).encode() for p in perms}
        assert len(images) == math.factorial(n)
        assert images == {tree.encode() for tree in heap_ordered_trees(n)}


def test_round_trips_to_degree_four():
    for n in range(5):
        for p in symmetric_group(n):
            assert tree_to_permutation(permutation_to_tree(p)) == p
        for tree in heap_ordered_trees(n):
            assert permutation_to_tree(tree_to_permutation(tree)) == tree


def test_bijection_intertwines_products():
    for m in range(5):
        for n in range(5 - m):
            for s in symmetric_group(m):
                for u in symmetric_group(n):
                    lhs = heap_product(s, u).map_basis(permutation_to_tree)
                    rhs = HEAP_ORDERED.product(
                        permutation_to_tree(s), permutation_to_tree(u)
                    )
                    assert lhs == rhs


def test_bijection_intertwines_coproducts():
    for n in range(5):
        for p in symmetric_group(n):
            lhs = cycle_coproduct(p).map_basis(
                lambda pair: TensorPair(
                    permutation_to_tree(pair.left), permutation_to_tree(pair.right)
                )
            )
            rhs = HEAP_ORDERED.coproduct(permutation_to_tree(p))
            assert lhs == rhs


def test_noncommutativity_witness_exists():
    witnesses = []
    for m in range(4):
        for n in range(4 - m):
            for s in symmetric_group(m):
                for u in symmetric_group(n):
                    if heap_product(s, u) != heap_product(u, s):
                        witnesses.append((s.encode(), u.encode()))
    assert witnesses, "heap product unexpectedly commutative on all small pairs"
    assert ("(1)", "(1 2)") in witnesses


def test_hopf_sweep():
    report = HEAP_PRODUCT_ALGEBRA.verify(3)
    assert report.passed, report.render()


def test_heap_product_matches_the_splicing_oracle():
    perms = [p for n in range(4) for p in symmetric_group(n)]
    perms += [parse_permutation("(1 3)(2 4)"), parse_permutation("(1 4 2)(3)")]
    for s, p in itertools.product(perms, repeat=2):
        product = {permutation_as_map(q.cycles): c for q, c in heap_product(s, p)}
        assert product == heap_product_by_maps(s.cycles, p.cycles), (s, p)


def test_cycle_permutation_is_an_immutable_value_with_a_cached_hash():
    p = parse_permutation("(1 3)(2)")
    twin = CyclePermutation(((2,), (1, 3)))
    assert p == twin and hash(p) == hash(twin) and p is not twin
    assert p != parse_permutation("(1 2)(3)") and p != ((2,), (1, 3))
    assert CyclePermutation() == ID0 and CyclePermutation(cycles=()) == ID0
    assert len({p, twin, ID0}) == 2
    assert pickle.loads(pickle.dumps(p)) == p
    assert repr(p) == "CyclePermutation(((2,), (1, 3)))"
    with pytest.raises(AttributeError):
        p.cycles = ()
    with pytest.raises(AttributeError):
        del p.cycles
    assert not hasattr(p, "__dict__")


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("  (1 x)", "invalid entry 'x'", 5),
        ("(1 ²)", "invalid entry '²'", 3),
        ("((1 2)", "invalid entry '(1'", 1),
        ("x(1)(", "expected '('", 0),
        ("(1 2)x", "expected '('", 5),
        ("(1))", "expected '('", 3),
        ("(1 2)(3", "unclosed cycle", 5),
        ("(1)()", "empty cycle", 3),
    ],
)
def test_permutation_errors_point_at_the_bad_piece(text, message, position):
    from hopftrees import ParseError

    with pytest.raises(ParseError) as info:
        parse_permutation(text)
    assert (info.value.message, info.value.text, info.value.position) == (message, text, position)


def test_cycle_entries_are_separated_by_spaces_or_commas():
    expected = parse_permutation("(1 3)(2)")
    assert [parse_permutation(text) for text in (" ( 1 , 3 ) (2) ", "(1\t3)(2)", "(1,,3)(2)")] == [expected] * 3
