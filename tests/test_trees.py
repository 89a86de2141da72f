"""Tree surgery, canonical forms, and exhaustive enumeration."""

import gc
import itertools
import math
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from hopftrees import (
    ROOTED,
    Forest,
    ParseError,
    Tree,
    TreeHopfAlgebra,
    add_root,
    attach_all,
    canonicalize,
    heap_ordered_trees,
    is_standard_heap_tree,
    labeled_algebra,
    labeled_trees,
    ordered_labeled_trees,
    ordered_trees,
    parse_forest,
    parse_tree,
    rooted_trees,
    shift_labels,
    strip_root,
)
from hopftrees import trees as trees_module
from hopftrees.trees import MAX_TREE_DEPTH, _rooted_count
from helpers import (
    _encode_shape,
    attach_all_by_assignments,
    attach_all_by_placements,
    count_calls,
    is_standard_heap_tree_by_sort,
    label_in_preorder,
    planar_trees_by_compositions,
    tree_encodings_by_parent_arrays,
    lc,
    ot,
    subtrees,
    t,
)


LEAF = t("()")
CHAIN2 = t("(;())")
CHAIN3 = t("(;(;()))")
V = t("(;()())")


def test_canonicalize_sorts_children_by_encoding():
    raw = Tree(None, (t("(;()())"), LEAF))
    fixed = canonicalize(raw)
    assert fixed.children == (LEAF, t("(;()())"))  # "()" sorts before "(;()())"


def test_canonicalize_fixed_point_on_single_node():
    assert canonicalize(LEAF) == LEAF


def test_canonicalize_idempotent_on_all_small_trees():
    for degree in range(5):
        for tree in rooted_trees(degree):
            assert canonicalize(tree) == tree


def test_strip_root():
    assert strip_root(LEAF) == Forest()
    assert strip_root(CHAIN3) == Forest((CHAIN2,))
    assert strip_root(V) == Forest((LEAF, LEAF))


def test_a_forest_is_a_multiset_of_unordered_trees_and_a_sequence_of_planar_ones():
    apart, together = Forest((CHAIN2, LEAF)), Forest([LEAF, CHAIN2])
    assert apart == together and hash(apart) == hash(together) and apart.trees == (LEAF, CHAIN2)
    assert (lc((apart, 1)) + lc((together, 1))).render() == "2*()*(;())"
    assert Forest([CHAIN2, LEAF]) == apart
    planar = Forest((ot("(;())"), ot("()")))
    assert planar.trees == (ot("(;())"), ot("()")) and planar != Forest((ot("()"), ot("(;())")))


def test_add_root():
    assert add_root(Forest()) == LEAF
    assert add_root(Forest((LEAF, LEAF))) == V


def test_add_root_inverts_strip_root_on_small_trees():
    for degree in range(5):
        for tree in rooted_trees(degree):
            assert add_root(strip_root(tree)) == tree


def test_attach_single_leaf_to_single_node():
    assert attach_all(Forest((LEAF,)), LEAF) == lc((CHAIN2, 1))


def test_attach_leaf_to_chain():
    assert attach_all(Forest((LEAF,)), CHAIN2) == lc((CHAIN3, 1), (V, 1))


def test_attach_two_leaves_to_single_node_merges():
    assert attach_all(Forest((LEAF, LEAF)), LEAF) == lc((V, 1))


def test_attach_flavor_mismatch_rejected():
    with pytest.raises(ValueError):
        attach_all(Forest((ot("()"),)), CHAIN2)


def test_attachment_multiplicity_law():
    # total multiplicity is (node count of target)^(forest size)
    targets = [tree for d in range(4) for tree in rooted_trees(d)]
    forests = [strip_root(tree) for tree in targets]
    for forest in forests:
        for target in targets:
            total = attach_all(forest, target).total_multiplicity()
            assert total == target.node_count() ** len(forest)


def test_rooted_counts_match_parent_array_oracle():
    expected = [1, 1, 2, 4, 9, 20]
    assert [len(rooted_trees(n)) for n in range(6)] == expected
    for nodes in range(1, 7):
        assert len(tree_encodings_by_parent_arrays(nodes - 1)) == expected[nodes - 1]


def assert_same_classes(members, oracle):
    """``members`` are distinct, sorted by encoding, and exactly ``oracle``."""
    codes = [m.encode() for m in members]
    assert codes == sorted(set(codes))
    assert set(codes) == oracle


@pytest.mark.parametrize("degree", range(7))
def test_rooted_trees_are_the_parent_array_shapes(degree):
    assert_same_classes(rooted_trees(degree), tree_encodings_by_parent_arrays(degree))


@pytest.mark.parametrize("symbols", [("E1",), ("E1", "E2"), ("E1", "E2", "E3")])
def test_labeled_trees_are_the_labeled_parent_array_shapes(symbols):
    for degree in range(5):
        members = labeled_trees(degree, symbols)
        assert_same_classes(members, tree_encodings_by_parent_arrays(degree, symbols))
        assert all(m.label is None and not m.ordered for m in members)


def test_labeled_trees_ignore_a_repeated_symbol():
    assert labeled_trees(3, ("E2", "E1", "E2")) == labeled_trees(3, ("E1", "E2"))


def test_ordered_counts_are_catalan_and_distinct():
    for degree in range(5):
        members = ordered_trees(degree)
        catalan = math.comb(2 * degree, degree) // (degree + 1)
        assert len(members) == catalan
        assert len({m.encode() for m in members}) == catalan
        assert all(m.node_count() == degree + 1 and m.ordered for m in members)


def test_heap_ordered_counts_are_factorials():
    for n in range(6):
        members = heap_ordered_trees(n)
        assert len(members) == math.factorial(n)
        assert len({m.encode() for m in members}) == math.factorial(n)
        assert all(is_standard_heap_tree(m) for m in members)


def test_ordered_shapes_come_in_composition_order():
    # root subtree sizes (1,1,1), (1,2), (2,1), then (3,) for both 3-node shapes
    assert [x.encode() for x in ordered_trees(3)] == [
        "(;()()())", "(;()(;()))", "(;(;())())", "(;(;()()))", "(;(;(;())))",
    ]


@pytest.mark.parametrize("symbols", [("E1",), ("E1", "E2"), ("E2", "E1", "E3")])
def test_ordered_labeled_trees_label_each_shape_in_preorder(symbols):
    for degree in range(5):
        expected = [
            label_in_preorder(shape.encode(), labels)
            for shape in ordered_trees(degree)
            for labels in itertools.product(symbols, repeat=degree)
        ]
        members = ordered_labeled_trees(degree, symbols)
        assert [m.encode() for m in members] == expected
        assert all(m.ordered and m.label is None for m in members)


@pytest.mark.parametrize("degree", range(9))
def test_ordered_trees_come_in_the_order_of_the_composition_oracle(degree):
    assert ordered_trees(degree) == planar_trees_by_compositions(degree)


@pytest.mark.parametrize("degree", range(5))
def test_ordered_labeled_trees_come_in_the_order_of_the_composition_oracle(degree):
    symbols = ("E2", "E1", "E3")
    assert ordered_labeled_trees(degree, symbols) == planar_trees_by_compositions(degree, symbols)


def test_ordered_labeled_trees_ignore_a_repeated_symbol():
    assert [x.encode() for x in ordered_labeled_trees(1, ("E1", "E1"))] == ["(;(E1))"]
    assert ordered_labeled_trees(3, ("E2", "E1", "E2")) == ordered_labeled_trees(3, ("E2", "E1"))


def test_heap_ordered_trees_place_each_new_label_in_preorder():
    assert [x.encode() for x in heap_ordered_trees(3)] == [
        "(;(1)(2)(3))", "(;(1;(3))(2))", "(;(1)(2;(3)))",
        "(;(1;(2))(3))", "(;(1;(2)(3)))", "(;(1;(2;(3))))",
    ]


@pytest.mark.parametrize("degree", range(9))
def test_rooted_count_is_the_number_of_rooted_trees(degree):
    assert _rooted_count(degree + 1) == len(rooted_trees(degree))


def test_no_module_level_container_keeps_enumerated_trees():
    rooted_trees(5)
    ordered_trees(4)
    heap_ordered_trees(4)
    labeled_trees(3, ("E1", "E2"))
    ordered_labeled_trees(3, ("E1", "E2"))

    def holds_trees(value) -> bool:
        if isinstance(value, dict):
            value = [*value.keys(), *value.values()]
        if not isinstance(value, (list, tuple, set, frozenset)):
            return False
        return any(isinstance(x, Tree) or holds_trees(x) for x in value)

    assert [name for name, value in vars(trees_module).items() if holds_trees(value)] == []


@pytest.mark.parametrize(
    "enumerate_, message",
    [
        (lambda: rooted_trees(16, cap=16), "rooted trees of degree 16 would enumerate 634847 terms"),
        (lambda: ordered_trees(13, cap=13), "ordered trees of degree 13 would enumerate 742900 terms"),
        (lambda: heap_ordered_trees(9, cap=9), "heap-ordered trees of degree 9 would enumerate 362880 terms"),
    ],
)
def test_every_family_is_budgeted_before_it_is_listed(enumerate_, message):
    with pytest.raises(ValueError, match=message):
        enumerate_()


def test_heap_predicate_rejects_misordered_labels():
    bad = parse_tree("(;(2;(1)))")
    assert not is_standard_heap_tree(bad)
    assert not is_standard_heap_tree(parse_tree("(;(1)(1))"))


def _relabeled(tree: Tree, label, ordered: bool | None = None) -> Tree:
    """``tree`` with each node's label ``x`` replaced by ``label(x)``."""
    flavor = tree.ordered if ordered is None else ordered
    return Tree(label(tree.label), [_relabeled(c, label, flavor) for c in tree.children], flavor)


def _heap_mutants(tree: Tree):
    """``tree`` with, in turn: each pair of labels swapped, a label repeated in
    place of another, a label made 0 or a string, the root labeled, and the
    ordered flavor."""
    labels = [x for x in tree.labels() if x is not None]
    for a, b in itertools.permutations(labels, 2):
        yield _relabeled(tree, lambda x: {a: b, b: a}.get(x, x))
        yield _relabeled(tree, lambda x: a if x == b else x)
    for a in labels:
        yield _relabeled(tree, lambda x: 0 if x == a else x)
        yield _relabeled(tree, lambda x: "E1" if x == a else x)
    yield Tree(1, tree.children)
    yield _relabeled(tree, lambda x: x, ordered=True)


def test_the_one_walk_heap_predicate_matches_the_two_pass_oracle():
    heap = [tree for d in range(6) for tree in heap_ordered_trees(d)]
    others = [tree for d in range(6) for tree in
              rooted_trees(d) + ordered_trees(d) + labeled_trees(d, ("E1", "E2")) + ordered_labeled_trees(d, ("E1",))]
    mutants = [m for tree in heap for m in _heap_mutants(tree)]
    verdicts = {tree: is_standard_heap_tree(tree) for tree in heap + others + mutants}
    assert verdicts == {tree: is_standard_heap_tree_by_sort(tree) for tree in verdicts}
    assert all(verdicts[tree] for tree in heap) and sum(verdicts.values()) == len(heap)
    assert not any(verdicts[tree] for tree in others if tree.degree() > 0)


def test_labeled_enumeration_two_symbols():
    assert len(labeled_trees(0, ("E1", "E2"))) == 1
    assert len(labeled_trees(1, ("E1", "E2"))) == 2
    # degree 2: four labeled chains plus three labeled two-leaf multisets
    assert len(labeled_trees(2, ("E1", "E2"))) == 7
    assert len(ordered_labeled_trees(2, ("E1", "E2"))) == 8


def test_degree_counts_nodes_minus_one():
    assert t("()").degree() == 0
    assert CHAIN2.degree() == 1
    assert V.degree() == 2


def _nodes_by_recursion(tree: Tree) -> int:
    return 1 + sum(_nodes_by_recursion(c) for c in tree.children)


def test_the_node_count_read_from_the_encoding_matches_a_recursive_count():
    families = (rooted_trees, ordered_trees, heap_ordered_trees,
                lambda d: labeled_trees(d, ("E1", "E2")), lambda d: ordered_labeled_trees(d, ("E1", "E2")))
    for family in families:
        for degree in range(6):
            for tree in family(degree):
                assert tree.node_count() == _nodes_by_recursion(tree) == tree.degree() + 1 == degree + 1


NODE_LABELS = st.one_of(st.none(), st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True), st.integers())


@settings(derandomize=True, max_examples=200, deadline=2000)
@given(st.booleans(), st.recursive(
    st.tuples(NODE_LABELS, st.just(())),
    lambda kids: st.tuples(NODE_LABELS, st.lists(kids, max_size=4).map(tuple)),
    max_leaves=20,
))
def test_the_node_count_of_any_labeled_tree_matches_a_recursive_count(ordered, shape):
    tree = _tree_from_shape(shape, ordered)
    assert tree.node_count() == _nodes_by_recursion(tree) == tree.degree() + 1


@pytest.mark.parametrize("symbol", ["E(1", "E;", "E)", "E 1", "", "1", 1, None])
def test_a_symbol_that_is_not_an_identifier_labels_no_tree(symbol):
    symbols = ["E1", symbol]
    for make in (lambda: labeled_trees(0, symbols), lambda: ordered_labeled_trees(2, symbols),
                 lambda: TreeHopfAlgebra(symbols=symbols), lambda: labeled_algebra(symbols, ordered=True)):
        with pytest.raises(ValueError, match=re.escape(f"symbol {symbol!r} is not an identifier")):
            make()


def test_each_checked_entry_point_refuses_a_label_holding_a_parenthesis():
    # the constructor trusts its labels; these are the places that check them
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_tree("(;(a(b)))")
    with pytest.raises(ValueError, match=re.escape("symbol 'a(b' is not an identifier")):
        labeled_trees(1, ["a(b"])
    with pytest.raises(ValueError, match=re.escape("labels ['a(b'] in (;(a(b)) do not belong")):
        ROOTED.product(Tree(None, [Tree("a(b")]), Tree())


def test_enumeration_caps():
    with pytest.raises(ValueError):
        rooted_trees(9)
    with pytest.raises(ValueError):
        heap_ordered_trees(7)
    with pytest.raises(ValueError):
        rooted_trees(-1)
    assert len(rooted_trees(9, cap=9)) == 719  # cap override


def test_a_non_positive_integer_label_is_refused_at_its_column():
    with pytest.raises(ParseError, match="integer labels must be positive") as caught:
        parse_tree("(;(0))")
    assert caught.value.position == 3


DEEPER = MAX_TREE_DEPTH + 1


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("", "expected '('", 0),
        ("(a(b))", "expected ')'", 2),
        ("(; ())", "expected ')'", 2),
        ("(;()", "expected ')'", 4),
        ("(0)", "integer labels must be positive", 1),
        ("(a b)", "invalid label 'a b'", 1),
        ("()x", "unexpected trailing input", 2),
        ("(;" * DEEPER + "()" + ")" * DEEPER, f"tree nested deeper than {MAX_TREE_DEPTH} levels", 2 * DEEPER),
    ],
)
def test_every_tree_parse_error_is_raised_at_its_position(text, message, position):
    with pytest.raises(ParseError) as caught:
        parse_tree(text)
    assert (caught.value.message, caught.value.text, caught.value.position) == (message, text, position)


def test_forest_parsing():
    assert parse_forest("1") == Forest()
    assert parse_forest("()*(;())") == Forest((LEAF, CHAIN2))
    assert parse_forest("(;())*()") == Forest((LEAF, CHAIN2))  # canonical sort


# ---------------------------------------------------------------------------
# grafting against the (n+1)^r assignment oracle


@pytest.mark.parametrize(
    "flavor, basis",
    [
        ("rooted", [x for d in range(5) for x in rooted_trees(d)]),
        ("ordered", [x for d in range(4) for x in ordered_trees(d)]),
        ("labeled", [x for d in range(4) for x in labeled_trees(d, ("E1", "E2"))]),
        ("heap", [x for d in range(4) for x in heap_ordered_trees(d)]),
    ],
)
def test_attach_all_matches_assignment_oracle(flavor, basis):
    for a, b in itertools.product(basis, repeat=2):
        members = strip_root(a).trees
        if flavor == "heap":
            members = tuple(shift_labels(s, b.degree()) for s in members)
        forest = Forest(members)
        assert attach_all(forest, b) == attach_all_by_assignments(forest, b), (a, b)


def test_attach_all_ordered_forest_with_non_adjacent_equal_members():
    x, y = ot("(;())"), ot("()")
    for target in (ot("()"), ot("(;())"), ot("(;()(;()))"), ot("(;(;())())")):
        for members in ((x, y, x), (y, x, y, x), (x, x, y)):
            forest = Forest(members)
            result = attach_all(forest, target)
            assert result == attach_all_by_assignments(forest, target)
            assert list(result) == list(attach_all_by_placements(forest, target))
            assert result.total_multiplicity() == target.node_count() ** len(members)


def test_attach_all_non_canonical_inputs():
    unsorted_v = Tree(None, (V, LEAF))  # given out of order
    assert unsorted_v.children == (LEAF, V)
    targets = (unsorted_v, Tree(None, (unsorted_v, CHAIN2, LEAF)))
    forests = (
        Forest((CHAIN2, LEAF, CHAIN2)),  # unsorted, equal members apart
        Forest((unsorted_v, LEAF, unsorted_v)),
        Forest((LEAF, LEAF, unsorted_v)),
    )
    for target in targets:
        for forest in forests:
            assert attach_all(forest, target) == attach_all_by_assignments(forest, target)


GRAFT_BASES = {
    "rooted": [x for d in range(4) for x in rooted_trees(d)],
    "ordered": [x for d in range(4) for x in ordered_trees(d)],
    "labeled": [x for d in range(3) for x in labeled_trees(d, ("E1", "E2"))],
    "ordered-labeled": [x for d in range(3) for x in ordered_labeled_trees(d, ("E1", "E2"))],
    "heap": [x for d in range(4) for x in heap_ordered_trees(d)],
}


# targets whose root children come in isomorphic pairs, so that members of
# several runs meet in equal root children (heap-ordered labels never repeat)
TWIN_TARGETS = {
    flavor: [Tree(x.label, x.children * 2, x.ordered) for x in basis if 0 < x.degree() <= 2]
    for flavor, basis in GRAFT_BASES.items() if flavor != "heap"
}


def _graft_case(flavor: str, target_index: int, picks: list[int]) -> tuple[Forest, Tree]:
    """A target of ``flavor`` and a forest of its root-subtrees, both drawn by index:
    heap-ordered members come from one tree, shifted above the target's labels;
    the other flavors take any sequence of members, equal ones apart or together,
    and targets include the twins above."""
    basis = GRAFT_BASES[flavor]
    targets = basis + TWIN_TARGETS.get(flavor, [])
    target = targets[target_index % len(targets)]
    if flavor == "heap":
        donor = basis[sum(picks) % len(basis)]
        return Forest(shift_labels(s, target.degree()) for s in donor.children), target
    pool = sorted(subtrees(*basis), key=Tree.encode)
    return Forest(pool[i % len(pool)] for i in picks), target


# The slowest examples (five members on a five-node target) take about 0.1-0.2 s
# alone and have taken 0.83 s in a full run on a loaded two-core host: the
# default 200 ms deadline made the verdict depend on the load.
@settings(derandomize=True, max_examples=150, deadline=2000)
@given(st.sampled_from(sorted(GRAFT_BASES)), st.integers(0, 99), st.lists(st.integers(0, 99), max_size=5))
def test_attach_all_matches_both_oracles_term_for_term(flavor, target_index, picks):
    forest, target = _graft_case(flavor, target_index, picks)
    result = attach_all(forest, target)
    by_placements = attach_all_by_placements(forest, target)
    assert result == attach_all_by_assignments(forest, target) == by_placements
    assert list(result) == list(by_placements)


def test_four_distinct_runs_graft_as_the_placement_oracle_does():
    # 6^4 placements and as many terms; members of up to four runs share a root child
    donor, target = t("(;(1)(2)(3)(4))"), t("(;(1)(2)(3)(4)(5))")
    forest = Forest(shift_labels(s, target.degree()) for s in donor.children)
    result = attach_all(forest, target)
    by_placements = attach_all_by_placements(forest, target)
    assert len(result) == 1296 and result == by_placements
    assert list(result) == list(by_placements)


def _one_object_per_value(combo) -> bool:
    """Whether equal non-root subtrees across all terms of ``combo`` are one object."""
    seen: dict[Tree, Tree] = {}
    stack = [c for tree, _ in combo for c in tree.children]
    while stack:
        node = stack.pop()
        if seen.setdefault(node, node) is not node:
            return False
        stack.extend(node.children)
    return True


def test_attach_all_shares_equal_rebuilt_subtrees_across_terms():
    # no two positions of the target give equal subtrees, so equal ones come
    # from the same node rebuilt with the same members below it
    target, leaf = t("(;(E1;(E2))(E1))"), t("(E3)")
    forest = Forest((leaf, leaf))
    result = attach_all(forest, target)
    assert len(result) == 10 and result.total_multiplicity() == 16
    assert _one_object_per_value(result)
    assert not _one_object_per_value(attach_all_by_placements(forest, target))


def test_the_shared_subtrees_die_with_the_call(monkeypatch):
    built = []

    class Traced(Tree):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    target = t("(;(;())(;()()))")
    monkeypatch.setattr(trees_module, "Tree", Traced)
    gc.disable()  # reference counts alone must free the table and its trees
    try:
        result = attach_all(Forest((LEAF, CHAIN2, LEAF)), target)
        assert len(built) > len(result)
        del result
        assert [ref for ref in built if ref() is not None] == []
    finally:
        gc.enable()


def test_attach_all_reuses_untouched_subtrees():
    target = t("(;(;()())(;(;())))")
    result = attach_all(Forest((LEAF,)), target)
    untouched = set(map(id, target.children))
    for tree, _ in result:
        assert any(id(c) in untouched for c in tree.children)


# one member goes below each node by the recursion over distinct siblings:
# corollas and twins with runs of equal siblings, planar trees whose equal
# siblings give distinct terms, and (first in each basis) the single node
ONE_MEMBER_TARGETS = {
    "rooted": [t("(;()()()())"), t("(;(;())(;())()())"), t("(;(;()())(;()())(;()()))")],
    "ordered": [ot("(;()()())"), ot("(;(;())()(;()))"), ot("(;(;()())(;()()))")],
    "labeled": [t("(;(E1)(E1)(E2)(E2)(E2))"), t("(;(E1;(E2))(E1;(E2))(E1))")],
    "ordered-labeled": [ot("(;(E1)(E1)(E2))"), ot("(;(E1;(E2))(E1;(E2))(E1))")],
    "heap": [t("(;(1)(2)(3)(4))")],
}


@pytest.mark.parametrize("flavor", sorted(GRAFT_BASES))
def test_one_member_grafts_match_both_oracles_term_for_term(flavor):
    basis = GRAFT_BASES[flavor]
    assert basis[0].node_count() == 1
    members = sorted(subtrees(*basis), key=Tree.encode)
    for target in basis + TWIN_TARGETS.get(flavor, []) + ONE_MEMBER_TARGETS[flavor]:
        for member in members:
            if flavor == "heap":
                member = shift_labels(member, target.degree())
            forest = Forest((member,))
            result = list(attach_all(forest, target))
            assert result == list(attach_all_by_placements(forest, target)), (member, target)
            assert result == list(attach_all_by_assignments(forest, target)), (member, target)
            assert sum(c for _, c in result) == target.node_count()


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_one_member_on_a_corolla_of_equal_leaves_builds_two_results(monkeypatch, k):
    corolla, member = Tree(None, [LEAF] * k), t("(E1)")
    calls = count_calls(monkeypatch, trees_module, "Tree")
    result = [(tree.encode(), c) for tree, c in attach_all(Forest((member,)), corolla)]
    monkeypatch.undo()
    assert result == [("(;" + "()" * k + "(E1))", 1), ("(;" + "()" * (k - 1) + "(;(E1)))", k)]
    # the grown leaf and the two results; a placement below each of the k + 1
    # nodes would build each leaf's copy and its root, 2k + 1 trees
    assert len(calls) == 3


def test_two_leaves_onto_twin_cherries_place_each_subtree_once(monkeypatch):
    target = t("(;(;()())(;()()))")
    calls = count_calls(monkeypatch, trees_module, "Tree")
    result = attach_all(Forest((LEAF, LEAF)), target)
    monkeypatch.undo()
    assert (len(result), result.total_multiplicity()) == (10, 49)
    # the cherry takes one leaf once for both twins (the grown leaf, then 3
    # cherries) and two leaves once (the leaf with two, then 6 cherries); the
    # root's three splits build 1 + 4 + 12 roots over those cherries
    assert len(calls) == 28


def test_one_member_grafts_onto_a_tree_600_levels_deep(monkeypatch):
    # the recursion takes one frame per level: a chain 600 edges deep, the
    # deepest term of the product of two chains of the parser's greatest depth
    levels = 2 * MAX_TREE_DEPTH
    chain = deepest = Tree()
    for depth in range(1, levels + 1):
        deepest = Tree(None, (deepest,))
        if depth == MAX_TREE_DEPTH:
            chain = deepest
    assert deepest in dict(ROOTED.product(chain, chain))
    # the leaf goes below each node, in preorder, and once each; the node at
    # depth p keeps its chain of levels - p - 1 edges below the new leaf
    below = ["(;()" + "(;" * (levels - p - 1) + "()" + ")" * (levels - p - 1) + ")" for p in range(levels)]
    expected = [("(;" * p + grown + ")" * p, 1) for p, grown in enumerate(below + ["(;())"])]
    calls = count_calls(monkeypatch, trees_module, "Tree")
    result = ROOTED.product(CHAIN2, deepest)
    monkeypatch.undo()
    assert [(tree.encode(), c) for tree, c in result] == expected
    # the work, not the time, is pinned: the node at depth p builds its own
    # copy with the leaf and one copy above each of the levels - p trees grown
    # below it, 1 + 2 + .. + (levels + 1) trees in all
    assert len(calls) == (levels + 1) * (levels + 2) // 2 == 180_901


@pytest.mark.parametrize("members, levels", [(1, 2000), (1, 901), (2, 901)])
def test_a_graft_onto_a_target_deeper_than_the_recursion_allows_is_refused(members, levels):
    target = Tree()
    for _ in range(levels):
        target = Tree(None, (target,))
    with pytest.raises(ValueError, match=r"^grafting target deeper than 900 levels$"):
        attach_all(Forest((LEAF,) * members), target)
    assert dict(attach_all(Forest(), target)) == {target: 1}  # nothing to place, no recursion


def test_a_large_shallow_target_is_not_refused():
    corolla = Tree(None, [LEAF] * 1000)  # more nodes than the depth limit, one level deep
    grown = [(tree.encode(), c) for tree, c in attach_all(Forest((LEAF,)), corolla)]
    assert grown == [("(;" + "()" * 1001 + ")", 1), ("(;" + "()" * 999 + "(;()))", 1000)]


# ---------------------------------------------------------------------------
# cached encodings, equality, hashing and canonical forms

LABELS = st.sampled_from([None, None, "E1", "E2", 1, 2])


def random_trees(ordered: bool):
    return st.recursive(
        st.builds(lambda label: Tree(label, (), ordered), LABELS),
        lambda kids: st.builds(
            lambda label, cs: Tree(label, tuple(cs), ordered), LABELS, st.lists(kids, max_size=3)
        ),
        max_leaves=10,
    )


def _reversed_copy(tree: Tree) -> Tree:
    return Tree(tree.label, tuple(_reversed_copy(c) for c in reversed(tree.children)), tree.ordered)


@settings(derandomize=True, max_examples=100, deadline=2000)
@given(random_trees(False), random_trees(False))
def test_equal_trees_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
    mirror = _reversed_copy(a)
    assert canonicalize(mirror) == canonicalize(a)
    assert hash(canonicalize(mirror)) == hash(canonicalize(a))
    assert (mirror == a) == (mirror.encode() == a.encode())


@settings(derandomize=True, max_examples=100, deadline=2000)
@given(random_trees(False))
def test_canonicalize_is_idempotent_and_marks_its_result(tree):
    fixed = canonicalize(tree)
    assert canonicalize(fixed) is fixed
    assert canonicalize(tree) is fixed
    assert fixed.node_count() == tree.node_count()


SHAPES = st.recursive(
    st.tuples(LABELS, st.just(())),
    lambda kids: st.tuples(LABELS, st.lists(kids, max_size=3).map(tuple)),
    max_leaves=12,
)


def _tree_from_shape(shape, ordered: bool = False, reverse: bool = False) -> Tree:
    """The nested ``(label, children)`` shape as a tree, children given as a list,
    in drawn order or reversed."""
    label, children = shape
    kids = [_tree_from_shape(c, ordered, reverse) for c in children]
    return Tree(label, kids[::-1] if reverse else kids, ordered)


@settings(derandomize=True, max_examples=100, deadline=2000)
@given(SHAPES)
def test_the_constructor_puts_children_in_the_text_oracle_order(shape):
    drawn, mirrored = _tree_from_shape(shape), _tree_from_shape(shape, reverse=True)
    assert drawn.encode() == mirrored.encode() == _encode_shape(shape)
    assert drawn == mirrored and hash(drawn) == hash(mirrored)
    planar = _tree_from_shape(shape, ordered=True)
    assert type(drawn.children) is type(planar.children) is tuple
    assert [c.label for c in planar.children] == [label for label, _ in shape[1]]


@settings(derandomize=True, max_examples=100, deadline=2000)
@given(random_trees(False))
def test_parse_encode_round_trip_unordered(tree):
    fixed = canonicalize(tree)
    assert parse_tree(fixed.encode()) == fixed
    assert parse_tree(tree.encode()) == fixed


@settings(derandomize=True, max_examples=100, deadline=2000)
@given(random_trees(True))
def test_parse_encode_round_trip_ordered(tree):
    assert parse_tree(tree.encode(), ordered=True) == tree
    assert canonicalize(tree) is tree


def test_flavors_with_the_same_text_are_unequal():
    assert Tree() != Tree(ordered=True)
    assert ot("(;()(;()))") != t("(;()(;()))")
    assert ot("(;()(;()))").encode() == t("(;()(;()))").encode()


def test_trees_are_immutable():
    with pytest.raises(AttributeError):
        LEAF.label = "E1"
