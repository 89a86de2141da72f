"""Tree surgery, canonical forms, and exhaustive enumeration."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from hopftrees import (
    Forest,
    Tree,
    add_root,
    attach_all,
    canonicalize,
    heap_ordered_trees,
    is_standard_heap_tree,
    labeled_trees,
    ordered_labeled_trees,
    ordered_trees,
    parse_forest,
    parse_tree,
    rooted_trees,
    shift_labels,
    strip_root,
)
from helpers import (
    attach_all_by_assignments,
    canonical_by_sorting,
    count_rooted_shapes_by_parent_arrays,
    lc,
    ot,
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
        assert count_rooted_shapes_by_parent_arrays(nodes) == expected[nodes - 1]


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


def test_heap_predicate_rejects_misordered_labels():
    bad = parse_tree("(;(2;(1)))")
    assert not is_standard_heap_tree(bad)
    assert not is_standard_heap_tree(parse_tree("(;(1)(1))"))


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


def test_enumeration_caps():
    with pytest.raises(ValueError):
        rooted_trees(9)
    with pytest.raises(ValueError):
        heap_ordered_trees(7)
    with pytest.raises(ValueError):
        rooted_trees(-1)
    assert len(rooted_trees(9, cap=9)) == 719  # cap override


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
            assert result.total_multiplicity() == target.node_count() ** len(members)


def test_attach_all_non_canonical_inputs():
    unsorted_v = Tree(None, (V, LEAF))  # canonical order is (LEAF, V)
    assert canonicalize(unsorted_v) != unsorted_v
    targets = (unsorted_v, Tree(None, (unsorted_v, CHAIN2, LEAF)))
    forests = (
        Forest((CHAIN2, LEAF, CHAIN2)),  # unsorted, equal members apart
        Forest((unsorted_v, LEAF, unsorted_v)),
        Forest((LEAF, LEAF, unsorted_v)),
    )
    for target in targets:
        for forest in forests:
            assert attach_all(forest, target) == attach_all_by_assignments(forest, target)


def test_attach_all_reuses_untouched_subtrees():
    target = t("(;(;()())(;(;())))")
    result = attach_all(Forest((LEAF,)), target)
    untouched = set(map(id, target.children))
    for tree, _ in result:
        assert any(id(c) in untouched for c in tree.children)


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


@given(random_trees(False), random_trees(False))
def test_equal_trees_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
    mirror = _reversed_copy(a)
    assert canonicalize(mirror) == canonicalize(a)
    assert hash(canonicalize(mirror)) == hash(canonicalize(a))
    assert (mirror == a) == (mirror.encode() == a.encode())


@given(random_trees(False))
def test_canonicalize_is_idempotent_and_marks_its_result(tree):
    fixed = canonicalize(tree)
    assert canonicalize(fixed) is fixed
    assert canonicalize(tree) is fixed
    assert fixed == canonical_by_sorting(tree)
    assert fixed.node_count() == tree.node_count()


@given(random_trees(False))
def test_parse_encode_round_trip_unordered(tree):
    fixed = canonicalize(tree)
    assert parse_tree(fixed.encode()) == fixed
    assert parse_tree(tree.encode()) == fixed


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
