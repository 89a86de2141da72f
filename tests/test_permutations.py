"""Cycle permutations: standard order, heap product, coproduct, tree bijection."""

import itertools
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from hopftrees import (
    HEAP_ORDERED,
    HEAP_PRODUCT_ALGEBRA,
    CyclePermutation,
    ParseError,
    TensorPair,
    cycle_coproduct,
    heap_ordered_trees,
    heap_product,
    is_standard_heap_tree,
    parse_permutation,
    permutation_to_tree,
    relabel,
    shift,
    symmetric_group,
    tree_to_permutation,
)
from helpers import (count_calls, cycle_coproduct_by_subsets, cycles_by_walk, heap_product_by_maps, lc,
                     permutation_as_map, permutation_to_tree_by_stack, swap, symmetric_group_by_cycle_walk, t,
                     verify_morphism)


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


def test_a_non_integral_entry_is_refused_at_its_index_not_truncated():
    with pytest.raises(ParseError, match=r"^entries must be integers, got 1.7$") as caught:
        CyclePermutation.from_cycles([[1.7, 2]])
    assert caught.value.position == 0
    with pytest.raises(ParseError, match=r"^entries must be integers, got 2.5$") as caught:
        CyclePermutation.from_cycles([(1, 3), (4, 2.5)])
    assert caught.value.position == 3
    assert CyclePermutation.from_cycles([(2.0, 1)], n=3.0) == parse_permutation("(1 2)(3)")


def test_a_non_integral_size_is_refused_not_truncated():
    for build in (lambda: CyclePermutation.from_cycles([(1, 2)], n=2.5), lambda: CyclePermutation.identity(2.7),
                  lambda: parse_permutation("(1 2)", n=2.5), lambda: parse_permutation("()", n=2.7)):
        with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.[57]$") as caught:
            build()
        assert not isinstance(caught.value, ParseError)
    assert CyclePermutation.identity(2.0) == parse_permutation("(2)(1)")


def test_an_infinite_entry_or_size_is_refused_as_a_non_integral_one():
    for entry in (float("inf"), float("nan")):
        with pytest.raises(ParseError, match=rf"^entries must be integers, got {entry}$") as caught:
            CyclePermutation.from_cycles([(1, 2), (entry,)])
        assert caught.value.position == 2
    for build in (lambda: CyclePermutation.from_cycles([(1, 2)], n=float("inf")),
                  lambda: CyclePermutation.identity(float("inf"))):
        with pytest.raises(ValueError, match=r"^n must be an integer, got inf$") as caught:
            build()
        assert not isinstance(caught.value, ParseError)


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


def test_relabel_refuses_a_non_integral_entry_instead_of_truncating_it():
    with pytest.raises(ValueError, match=r"^cycle entries must be integers$"):
        relabel([(2.9, 5)])
    assert relabel([(2.0, 5)]) == parse_permutation("(1 2)")


@pytest.mark.parametrize("entry", [float("inf"), float("nan")])
def test_relabel_refuses_an_infinite_or_nan_entry(entry):
    with pytest.raises(ValueError, match=r"^cycle entries must be integers$"):
        relabel([(1, entry)])


def test_coproduct_examples():
    assert cycle_coproduct(ID0) == lc((TensorPair(ID0, ID0), 1))
    transposition = parse_permutation("(1 2)")
    assert cycle_coproduct(transposition) == lc(
        (TensorPair(ID0, transposition), 1), (TensorPair(transposition, ID0), 1)
    )
    two = parse_permutation("(2)(1)")
    one = parse_permutation("(1)")
    assert cycle_coproduct(two) == lc(
        (TensorPair(ID0, two), 1),
        (TensorPair(one, one), 2),
        (TensorPair(two, ID0), 1),
    )


def test_the_coproduct_is_the_sum_over_every_subset_of_cycles():
    # and two with gaps: 7 lies between (8) and (6), and 6 between (7) and (5), so neither pair is a run
    gaps = [CyclePermutation([(9,), (8,), (6,), (5, 7), (4,), (3,), (1,)]),
            CyclePermutation([(7,), (5,), (4, 6), (2,)])]
    for p in [p for n in range(7) for p in symmetric_group(n)] + gaps:
        assert cycle_coproduct(p) == cycle_coproduct_by_subsets(p), p.encode()


def test_a_run_of_fixed_points_is_split_once_per_count(monkeypatch):
    from hopftrees import permutations

    calls = count_calls(monkeypatch, permutations, "relabel")
    delta = cycle_coproduct(parse_permutation("(16)"))
    assert len(calls) <= 34  # two per distinct split, where each of the 2^16 subsets took two
    identity = CyclePermutation.identity
    assert delta == lc(*[(TensorPair(identity(j), identity(16 - j)), math.comb(16, j)) for j in range(17)])


def test_counit_lives_on_the_empty_group():
    counit = HEAP_PRODUCT_ALGEBRA.counit
    assert counit(ID0) == 1
    assert counit(parse_permutation("(1)")) == 0
    assert counit(CyclePermutation.from_cycles([], n=2)) == 0


def test_cocommutativity_up_to_degree_four():
    for n in range(5):
        for p in symmetric_group(n):
            delta = cycle_coproduct(p)
            assert delta.map_basis(swap) == delta


def test_tree_bijection_small_cases():
    one = parse_permutation("(1)")
    assert permutation_to_tree(one) == t("(;(1))")
    assert permutation_to_tree(parse_permutation("(1 2)")) == t("(;(1;(2)))")
    assert permutation_to_tree(parse_permutation("(2)(1)")) == t("(;(1)(2))")


def test_symmetric_group_grown_by_the_heap_product_is_the_cycle_walk_list():
    for n in range(7):
        assert symmetric_group(n) == symmetric_group_by_cycle_walk(n), n


def test_the_basis_shares_the_heap_ordered_cap_once_within_budget():
    assert HEAP_PRODUCT_ALGEBRA.basis(6) == symmetric_group(6) and len(symmetric_group(7)) == 5040
    for degree, message in [(7, "degree 7 exceeds enumeration cap 6"), (8, "degree 8 exceeds enumeration cap 6"),
                            (9, "degree 9 exceeds enumeration cap 6"), (-1, "degree must be >= 0, got -1")]:
        with pytest.raises(ValueError) as refused:
            HEAP_PRODUCT_ALGEBRA.basis(degree)
        assert str(refused.value).startswith(message), degree
    with pytest.raises(ValueError, match="symmetric group S_9 would enumerate 362880 terms"):
        symmetric_group(9)  # the budget stays with the listing itself


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


def test_the_constructor_decides_standard_order():
    scrambled = CyclePermutation(((2, 1),))
    standard = CyclePermutation.from_cycles([(1, 2)])
    assert scrambled == standard and hash(scrambled) == hash(standard) and scrambled.cycles == ((1, 2),)
    assert CyclePermutation(([3, 1, 2], (4,))).cycles == ((4,), (1, 2, 3))
    assert hash(standard) == hash((((1, 2),),))


def test_scrambled_input_gives_the_standard_heap_products_and_tree():
    one = CyclePermutation(((1,),))
    assert heap_product(CyclePermutation(((2, 1),)), one) == lc(
        (parse_permutation("(1 2 3)"), 1), (parse_permutation("(2 3)(1)"), 1))
    assert heap_product(CyclePermutation(((1,), (2,))), one) == heap_product(parse_permutation("(2)(1)"), one)
    assert str(heap_product(CyclePermutation(((1,), (2,))), one)).startswith("(1 3 2) + ")
    tree = permutation_to_tree(CyclePermutation(((2, 1),)))
    assert tree == t("(;(1;(2)))") and HEAP_ORDERED.counit(tree) == 0


def test_an_empty_cycle_is_dropped_as_in_from_cycles():
    assert CyclePermutation(((),)) == ID0 == CyclePermutation.from_cycles([()])
    assert CyclePermutation(((2, 1), ())) == parse_permutation("(1 2)")


@st.composite
def scrambled(draw, max_size: int = 5):
    """A permutation of ``1..n`` as its image tuple and its cycles, each cycle
    rotated and the cycles listed in a drawn order."""
    images = draw(st.permutations(range(1, draw(st.integers(0, max_size)) + 1)))
    turns = draw(st.lists(st.integers(0, 4), min_size=len(images), max_size=len(images)))
    rotated = [c[k % len(c):] + c[:k % len(c)] for c, k in zip(cycles_by_walk(images), turns)]
    return tuple(images), tuple(draw(st.permutations(rotated)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(scrambled(), scrambled())
def test_scrambled_cycles_meet_the_oracles(first, second):
    (images, cycles), (images2, cycles2) = first, second
    p, standard = CyclePermutation(cycles), cycles_by_walk(images)
    assert p.cycles == standard and permutation_as_map(p.cycles) == tuple(images)
    reference = CyclePermutation.from_cycles(cycles)
    assert p == reference and hash(p) == hash(reference) and p.encode() == reference.encode()
    assert cycle_coproduct(p) == cycle_coproduct(CyclePermutation.from_cycles(standard))
    tree = permutation_to_tree(p)
    assert is_standard_heap_tree(tree) and tree == permutation_to_tree_by_stack(reference)
    assert tree_to_permutation(tree) == p
    if len(images) + len(images2) <= 6:
        product = {permutation_as_map(q.cycles): c for q, c in heap_product(p, CyclePermutation(cycles2))}
        assert product == heap_product_by_maps(standard, cycles_by_walk(images2))


@pytest.mark.parametrize("forward", [True, False])
def test_permutations_and_heap_ordered_trees_are_isomorphic_hopf_algebras(forward):
    phi, source, target = permutation_to_tree, HEAP_PRODUCT_ALGEBRA, HEAP_ORDERED
    if not forward:
        phi, source, target = tree_to_permutation, HEAP_ORDERED, HEAP_PRODUCT_ALGEBRA
    report = verify_morphism(phi, source, target, 4)
    assert report.passed, report.render()
    assert [(c.name, c.checked) for c in report.checks] == [
        ("unit", 1), ("product", 93), ("coproduct", 34), ("counit", 34), ("antipode", 34)]
