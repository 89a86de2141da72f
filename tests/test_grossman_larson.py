"""The grafting Hopf algebra: products, coproducts, antipodes, axiom sweeps."""

import itertools
import math

import pytest

from hopftrees import (
    HEAP_ORDERED,
    ORDERED,
    ROOTED,
    CyclePermutation,
    LinearCombination,
    ShuffleHopfAlgebra,
    TensorPair,
    Tree,
    TreeHopfAlgebra,
    Word,
    cycle_coproduct,
    deconcatenation,
    extend_bilinear,
    extend_linear,
    graded_antipode,
    heap_ordered_trees,
    heap_product,
    labeled_algebra,
    labeled_trees,
    ordered_labeled_trees,
    ordered_trees,
    rooted_trees,
    shuffle_product,
    symmetric_group,
    tensor,
    word_count,
)
from hopftrees.algebra import MAX_TERMS, check_budget, splits
from hopftrees.axioms import ANTIPODE_CACHE_SIZE
from helpers import coproduct_by_masks, forget_order_and_labels, lc, ot, relabel_standard, swap, t, verify_morphism


LEAF = t("()")
CHAIN2 = t("(;())")
CHAIN3 = t("(;(;()))")
CHAIN4 = t("(;(;(;())))")
V = t("(;()())")


def test_worked_product_chain_times_chain():
    assert ROOTED.product(CHAIN2, CHAIN2) == lc((CHAIN3, 1), (V, 1))


def test_worked_product_chain_times_chain3():
    expected = lc((CHAIN4, 1), (t("(;(;()()))"), 1), (t("(;()(;()))"), 1))
    assert ROOTED.product(CHAIN2, CHAIN3) == expected


def test_single_node_is_two_sided_unit():
    for degree in range(5):
        for tree in rooted_trees(degree):
            single = LinearCombination.single(tree)
            assert ROOTED.product(LEAF, tree) == single
            assert ROOTED.product(tree, LEAF) == single


def test_flavor_mismatch_rejected():
    with pytest.raises(ValueError):
        ROOTED.product(CHAIN2, ot("(;())"))


FOREIGN_MEMBERS = [
    (HEAP_ORDERED, t("(;(2))"), "tree (;(2)) is not a standard heap-ordered tree"),
    (HEAP_ORDERED, t("(;(2;(1)))"), "tree (;(2;(1))) is not a standard heap-ordered tree"),
    (labeled_algebra(["E1"]), t("(;(E2))"), "labels ['E2'] in (;(E2)) do not belong to the labeled(E1) tree algebra"),
    (ROOTED, t("(x;(E1))"), "labels ['x', 'E1'] in (x;(E1)) do not belong to the rooted tree algebra"),
    (labeled_algebra(["E1", "E2"], ordered=True), ot("(E1;(E3)(E2))"),
     "labels ['E1', 'E3'] in (E1;(E3)(E2)) do not belong to the ordered labeled(E1,E2) tree algebra"),
]


@pytest.mark.parametrize("alg, tree, message", FOREIGN_MEMBERS)
def test_a_foreign_member_is_refused_by_every_structure_map_with_its_message(alg, tree, message):
    for structure_map in (alg.coproduct, alg.counit, alg.antipode,
                          lambda x: alg.product(alg.unit(), x), lambda x: alg.product(x, alg.unit())):
        with pytest.raises(ValueError) as refused:
            structure_map(tree)
        assert str(refused.value) == message


@pytest.mark.parametrize("alg, tree, message", FOREIGN_MEMBERS)
def test_the_exported_graded_antipode_refuses_a_foreign_member_as_the_algebra_does(alg, tree, message):
    # among them (x;(E1)) for ROOTED and (;(2)) for HEAP_ORDERED, which it once returned negated
    with pytest.raises(ValueError) as refused:
        graded_antipode(alg, tree)
    assert str(refused.value) == message


def test_coproduct_single_node_is_group_like():
    assert ROOTED.coproduct(LEAF) == lc((TensorPair(LEAF, LEAF), 1))


def test_coproduct_one_child_root_is_primitive():
    expected = lc((TensorPair(LEAF, CHAIN3), 1), (TensorPair(CHAIN3, LEAF), 1))
    assert ROOTED.coproduct(CHAIN3) == expected


def _root_over(children):
    from hopftrees import Forest, add_root

    return add_root(Forest(tuple(children)))


def test_coproduct_v_by_position_subsets():
    # independent subset enumeration over the two child positions
    children = V.children
    expected = LinearCombination.zero()
    for keep in itertools.product((False, True), repeat=2):
        left = _root_over([c for c, k in zip(children, keep) if k])
        right = _root_over([c for c, k in zip(children, keep) if not k])
        expected = expected + lc((TensorPair(left, right), 1))
    assert ROOTED.coproduct(V) == expected
    assert ROOTED.coproduct(V) == lc(
        (TensorPair(LEAF, V), 1), (TensorPair(V, LEAF), 1), (TensorPair(CHAIN2, CHAIN2), 2)
    )


def test_counit():
    assert ROOTED.counit(LEAF) == 1
    assert ROOTED.counit(CHAIN2) == 0


def test_counit_axiom_sweep():
    for degree in range(5):
        for tree in rooted_trees(degree):
            collapsed = LinearCombination.zero()
            for pair, coeff in ROOTED.coproduct(tree):
                collapsed = collapsed + (coeff * ROOTED.counit(pair.left)) * LinearCombination.single(pair.right)
            assert collapsed == LinearCombination.single(tree)


def test_antipode_small_values():
    assert ROOTED.antipode(LEAF) == lc((LEAF, 1))
    assert ROOTED.antipode(CHAIN2) == lc((CHAIN2, -1))
    assert ROOTED.antipode(V) == lc((V, 1), (CHAIN3, 2))


def test_antipode_axiom_oracle_on_v():
    # m(S (x) id)Delta(V) must equal counit(V) * unit = 0
    total = LinearCombination.zero()
    for pair, coeff in ROOTED.coproduct(V):
        total = total + coeff * extend_linear(
            lambda s: ROOTED.product(s, pair.right), ROOTED.antipode(pair.left)
        )
    assert total == LinearCombination.zero()


def test_grading_of_products_and_coproducts():
    basis = [tree for d in range(5) for tree in rooted_trees(d)]
    for t1 in basis:
        for t2 in basis:
            if t1.degree() + t2.degree() > 4:
                continue
            for term, _ in ROOTED.product(t1, t2):
                assert term.degree() == t1.degree() + t2.degree()
    for tree in basis:
        for pair, _ in ROOTED.coproduct(tree):
            assert pair.left.degree() + pair.right.degree() == tree.degree()


def test_cocommutativity():
    for algebra, degrees in ((ROOTED, 5), (ORDERED, 4), (HEAP_ORDERED, 4)):
        for degree in range(degrees):
            for tree in algebra.basis(degree):
                delta = algebra.coproduct(tree)
                assert delta.map_basis(swap) == delta


def test_term_count_law():
    basis = [tree for d in range(4) for tree in rooted_trees(d)]
    for t1 in basis:
        for t2 in basis:
            product = ROOTED.product(t1, t2)
            expected = (t2.degree() + 1) ** len(t1.children)
            assert product.total_multiplicity() == expected


def test_ordered_flavor_leftmost_grafting_values():
    lo = ot("(;())")
    vo = ot("(;()())")
    assert ORDERED.product(lo, lo) == lc((vo, 1), (ot("(;(;()))"), 1))
    # two-leaf root grafted onto the chain: one claw, two mixed shapes, one deep V
    expected = lc(
        (ot("(;()()())"), 1),
        (ot("(;()(;()))"), 2),
        (ot("(;(;()()))"), 1),
    )
    assert ORDERED.product(vo, lo) == expected


def test_ordered_associativity_regression():
    # degree triples up to sum 5, exercising same-node collisions
    basis = {d: ordered_trees(d) for d in range(1, 4)}
    for da, db, dc in itertools.product((1, 2, 3), repeat=3):
        if da + db + dc > 5:
            continue
        for x in basis[da]:
            for y in basis[db]:
                for z in basis[dc]:
                    left = extend_linear(lambda s: ORDERED.product(s, z), ORDERED.product(x, y))
                    right = extend_linear(lambda s: ORDERED.product(x, s), ORDERED.product(y, z))
                    assert left == right


def test_heap_flavor_shifts_labels():
    one = t("(;(1))")
    expected = lc((t("(;(1)(2))"), 1), (t("(;(1;(2)))"), 1))
    assert HEAP_ORDERED.product(one, one) == expected


def test_heap_coproduct_ranks_each_half_as_relabel_standard_does():
    for tree in (x for d in range(6) for x in heap_ordered_trees(d)):
        expected = [
            (TensorPair(relabel_standard(Tree(None, kept)), relabel_standard(Tree(None, rest))), 1)
            for kept, rest, _ in splits(tree.children, "root split")
        ]
        assert list(HEAP_ORDERED.coproduct(tree)) == list(LinearCombination(expected)), tree


TREE_BASES = [
    (ROOTED, [x for d in range(6) for x in rooted_trees(d)]),
    (ORDERED, [x for d in range(6) for x in ordered_trees(d)]),
    (labeled_algebra(("E1", "E2")), [x for d in range(5) for x in labeled_trees(d, ("E1", "E2"))]),
    (labeled_algebra(("E1", "E2"), ordered=True),
     [x for d in range(4) for x in ordered_labeled_trees(d, ("E1", "E2"))]),
    (HEAP_ORDERED, [x for d in range(6) for x in heap_ordered_trees(d)]),
]


@pytest.mark.parametrize("alg, basis", TREE_BASES, ids=[alg.describe() for alg, _ in TREE_BASES])
def test_the_coproduct_matches_the_one_split_per_subset_oracle(alg, basis):
    for tree in basis:
        assert alg.coproduct(tree) == coproduct_by_masks(alg, tree), tree


def test_an_equal_leaf_corolla_splits_once_per_kept_count():
    leaves = 18  # 2^18 subsets, over the budget, but 19 distinct splits

    def corolla(k: int) -> Tree:
        return Tree(None, [LEAF] * k)

    result = ROOTED.coproduct(corolla(leaves))
    assert len(result) == leaves + 1 and result.total_multiplicity() == 2 ** leaves
    assert all(result.coefficient(TensorPair(corolla(k), corolla(leaves - k))) == math.comb(leaves, k)
               for k in range(leaves + 1))
    assert list(splits(("a", "a", "b"), "split")) == [
        ((), ("a", "a", "b"), 1), (("a",), ("a", "b"), 2), (("a", "a"), ("b",), 1),
        (("b",), ("a", "a"), 1), (("a", "b"), ("a",), 2), (("a", "a", "b"), (), 1),
    ]


def _counted(result: LinearCombination) -> bool:
    """Whether ``result`` holds only nonzero ``int`` coefficients and is what the
    checking constructor makes of its terms."""
    return all(type(c) is int and c for _, c in result) and result == LinearCombination(dict(result))


def test_maps_that_count_their_own_terms_give_what_the_checking_constructor_would():
    for alg, basis in TREE_BASES:
        small = [x for x in basis if x.degree() <= 3]
        for x in basis:
            assert _counted(alg.coproduct(x)), x
        for x, y in itertools.product(small, repeat=2):
            assert _counted(alg.product(x, y)), (x, y)
    group = [p for n in range(5) for p in symmetric_group(n)]
    for p in group:
        assert _counted(cycle_coproduct(p)), p
    for p, q in itertools.product(group[:10], repeat=2):  # S_0 .. S_3
        assert _counted(heap_product(p, q)), (p, q)
    words = [Word(w) for n in range(4) for w in itertools.product("ab", repeat=n)]
    for u in words:
        assert _counted(deconcatenation(u)), u
        for v in words:
            assert _counted(shuffle_product(u, v)), (u, v)


def test_bialgebra_compatibility_spot_check():
    delta = ROOTED.coproduct
    lhs = extend_linear(delta, ROOTED.product(CHAIN2, CHAIN2))
    rhs = extend_bilinear(
        lambda x, y: tensor(
            ROOTED.product(x.left, y.left), ROOTED.product(x.right, y.right)
        ),
        delta(CHAIN2),
        delta(CHAIN2),
    )
    assert lhs == rhs


def test_axiom_sweeps_all_flavors():
    for algebra in (ROOTED, ORDERED, labeled_algebra(("E1", "E2")), HEAP_ORDERED):
        report = algebra.verify(3)
        assert report.passed, report.render()


# forgetting the order or the labels sends grafting to grafting and root
# splits to root splits, a second oracle for each flavor besides the
# placement models of ``attach_all_by_assignments`` and ``attach_all_by_placements``
@pytest.mark.parametrize("source, degree, checked", [
    (ORDERED, 4, [("unit", 1), ("product", 67), ("coproduct", 23), ("counit", 23), ("antipode", 23)]),
    (HEAP_ORDERED, 4, [("unit", 1), ("product", 93), ("coproduct", 34), ("counit", 34), ("antipode", 34)]),
    (labeled_algebra(("E1", "E2")), 3,
     [("unit", 1), ("product", 185), ("coproduct", 36), ("counit", 36), ("antipode", 36)]),
], ids=["ordered", "heap-ordered", "labeled"])
def test_forgetting_order_and_labels_is_a_morphism_to_the_rooted_algebra(source, degree, checked):
    report = verify_morphism(forget_order_and_labels, source, ROOTED, degree)
    assert report.passed, report.render()
    assert [(c.name, c.checked) for c in report.checks] == checked


def test_graded_dimension_duality_with_words():
    # letters: ordered trees whose root has exactly one child, graded by degree
    alphabet = []
    for degree in range(1, 6):
        for tree in ordered_trees(degree):
            if len(tree.children) == 1:
                alphabet.append((tree.encode(), degree))
    for degree in range(6):
        assert word_count(alphabet, degree) == len(ordered_trees(degree))


def test_antipode_cache_stays_within_its_bound():
    alg = ShuffleHopfAlgebra(tuple(f"a{i}" for i in range(ANTIPODE_CACHE_SIZE + 50)))
    assert graded_antipode.cache_info().maxsize == ANTIPODE_CACHE_SIZE
    for letter in alg.letters:
        word = Word((letter,))
        assert graded_antipode(alg, word) == lc((word, -1))
        assert graded_antipode.cache_info().currsize <= ANTIPODE_CACHE_SIZE
    assert graded_antipode.cache_info().currsize == ANTIPODE_CACHE_SIZE
    graded_antipode.cache_clear()  # drop the filler words


def test_budget_boundary():
    check_budget(MAX_TERMS, "test")
    with pytest.raises(ValueError, match=f"more than the limit of {MAX_TERMS}"):
        check_budget(MAX_TERMS + 1, "test")


@pytest.mark.parametrize(
    "job",
    [
        # C(24, 12) multiset placements of twelve equal leaves on 13 nodes
        lambda: ROOTED.product(t("(;" + "()" * 12 + ")"), t("(;" + "()" * 12 + ")")),
        lambda: HEAP_ORDERED.coproduct(t("(;" + "".join(f"({i})" for i in range(1, 19)) + ")")),  # 2^18 root splits
        lambda: shuffle_product(Word(tuple("abcdefghijkl")), Word(tuple("mnopqrstuvwx"))),
        lambda: heap_product(CyclePermutation.identity(7), CyclePermutation.identity(5)),  # 6^7
    ],
)
def test_over_budget_enumerations_are_refused(job):
    with pytest.raises(ValueError, match="more than the limit"):
        job()


def test_a_list_of_symbols_gives_a_hashable_algebra_with_the_symbols_as_given():
    alg = TreeHopfAlgebra(symbols=["E1"])
    assert alg.symbols == ("E1",) and alg == labeled_algebra(["E1"]) and hash(alg) == hash(labeled_algebra(("E1",)))
    assert alg.antipode(t("(;(E1))")) == lc((t("(;(E1))"), -1))
    assert TreeHopfAlgebra(symbols=["E1", "E1"]).describe() == "labeled(E1,E1) tree algebra"
