"""Forest algebra: admissible cuts, symmetry factors, the duality pairing, and its monomials."""

from fractions import Fraction

import pytest

from hopftrees import (
    Forest,
    ROOTED,
    TensorPair,
    admissible_cuts,
    dual_pairing,
    forest_coproduct,
    forest_monomials,
    forest_symmetry_factor,
    monomial_product,
    parse_forest,
    rooted_trees,
    symmetry_factor,
    verify_forest_algebra,
)
from hopftrees import connes_kreimer
from helpers import (
    automorphisms_by_plane_count,
    count_calls,
    cuts_by_subset_filter,
    forest_encodings_by_parent_arrays,
    lc,
    t,
)


LEAF = t("()")
CHAIN2 = t("(;())")
V = t("(;()())")


def as_multiset(pairs):
    out = {}
    for forest, tree in pairs:
        key = (forest.encode(), tree.encode())
        out[key] = out.get(key, 0) + 1
    return out


def test_cuts_single_node():
    assert admissible_cuts(LEAF) == [(Forest(), LEAF)]


def test_cuts_chain():
    assert as_multiset(admissible_cuts(CHAIN2)) == {
        ("1", "(;())"): 1,
        ("()", "()"): 1,
    }


def test_cuts_v_tree():
    assert as_multiset(admissible_cuts(V)) == {
        ("1", "(;()())"): 1,
        ("()", "(;())"): 2,
        ("()*()", "()"): 1,
    }


def test_cuts_match_subset_filter_oracle():
    for degree in range(5):
        for tree in rooted_trees(degree):
            assert as_multiset(admissible_cuts(tree)) == as_multiset(
                cuts_by_subset_filter(tree)
            )


def test_coproduct_single_node():
    m = parse_forest("()")
    one = Forest()
    assert forest_coproduct(m) == lc(
        (TensorPair(m, one), 1), (TensorPair(one, m), 1)
    )


def test_coproduct_chain():
    m = parse_forest("(;())")
    one = Forest()
    dot = parse_forest("()")
    assert forest_coproduct(m) == lc(
        (TensorPair(m, one), 1), (TensorPair(one, m), 1), (TensorPair(dot, dot), 1)
    )


def test_coproduct_v():
    m = parse_forest("(;()())")
    one = Forest()
    dot = parse_forest("()")
    chain = parse_forest("(;())")
    dotdot = parse_forest("()*()")
    assert forest_coproduct(m) == lc(
        (TensorPair(m, one), 1),
        (TensorPair(one, m), 1),
        (TensorPair(dot, chain), 2),
        (TensorPair(dotdot, dot), 1),
    )


def test_forest_coproducts_are_the_products_of_their_trees_oracle_splits():
    # each tree splits as t (x) 1 + sum p (x) r over its edge-subset cuts; the
    # splits multiply tree by tree, the forests joined here by hand
    for nodes in range(6):
        for m in forest_monomials(nodes):
            expected = {TensorPair(Forest(), Forest()): 1}
            for tree in m.trees:
                splits = [(Forest((tree,)), Forest())] + [(p, Forest((r,))) for p, r in cuts_by_subset_filter(tree)]
                product = {}
                for a, c in expected.items():
                    for left, right in splits:
                        key = TensorPair(Forest(a.left.trees + left.trees), Forest(a.right.trees + right.trees))
                        product[key] = product.get(key, 0) + c
                expected = product
            assert forest_coproduct(m) == lc(*expected.items()), m.encode()


def test_counit():
    counit = connes_kreimer._ForestAlgebra().counit
    assert counit(Forest()) == 1
    assert counit(parse_forest("()")) == 0


def test_symmetry_factor_examples():
    assert symmetry_factor(LEAF) == 1
    assert symmetry_factor(V) == 2
    assert symmetry_factor(t("(;()()())")) == 6


def test_symmetry_factor_matches_plane_count_oracle():
    for degree in range(5):
        for tree in rooted_trees(degree):
            assert symmetry_factor(tree) == automorphisms_by_plane_count(tree)


def test_forest_symmetry_factor():
    assert forest_symmetry_factor(parse_forest("()*()")) == 2
    assert forest_symmetry_factor(parse_forest("()*(;())")) == 1
    assert forest_symmetry_factor(parse_forest("(;()())")) == 2


def test_pairing_examples():
    assert dual_pairing(t("(;(;()))"), parse_forest("(;())")) == 1
    assert dual_pairing(V, parse_forest("()*()")) == 2
    assert dual_pairing(V, parse_forest("(;())")) == 0


def test_monomial_product_is_commutative_monoid():
    monomials = [m for d in range(5) for m in forest_monomials(d)]
    unit = Forest()
    for a in monomials:
        assert monomial_product(unit, a) == a
        for b in monomials:
            if a.node_count() + b.node_count() > 4:
                continue
            assert monomial_product(a, b) == monomial_product(b, a)


def test_duality_against_grafting_product():
    small = [tree for d in range(3) for tree in rooted_trees(d)]
    for t1 in small:
        for t2 in small:
            degree = t1.degree() + t2.degree()
            for a in forest_monomials(degree):
                lhs = sum(
                    (c * dual_pairing(s, a) for s, c in ROOTED.product(t1, t2)),
                    Fraction(0),
                )
                rhs = sum(
                    (
                        c * dual_pairing(t1, pair.left) * dual_pairing(t2, pair.right)
                        for pair, c in forest_coproduct(a)
                    ),
                    Fraction(0),
                )
                assert lhs == rhs, (t1.encode(), t2.encode(), a.encode())


def test_full_verification_report():
    report = verify_forest_algebra(4)
    assert report.passed, report.render()


@pytest.mark.parametrize("total_nodes", range(6))
def test_forest_monomials_are_the_root_stripped_shapes(total_nodes):
    codes = [m.encode() for m in forest_monomials(total_nodes)]
    assert codes == sorted(set(codes))
    assert set(codes) == forest_encodings_by_parent_arrays(total_nodes)


def test_forest_monomials_keep_the_rooted_degree_cap():
    assert len(forest_monomials(8)) == len(rooted_trees(8)) == 286
    with pytest.raises(ValueError, match="degree 9 exceeds enumeration cap 8"):
        forest_monomials(9)


def test_the_sweep_enumerates_each_degree_once(monkeypatch):
    calls = count_calls(monkeypatch, connes_kreimer, "forest_monomials")
    report = verify_forest_algebra(4)
    assert calls == [(d,) for d in range(5)]
    assert report.passed and report.checks[-1].name == "grafting-duality"


def test_a_sweep_below_degree_zero_checks_one_duality():
    report = verify_forest_algebra(-1)
    assert [(c.name, c.checked) for c in report.checks] == [
        ("commutativity", 0), ("associativity", 0), ("unit", 0),
        ("coassociativity", 0), ("counit", 0), ("grafting-duality", 1),
    ]
    assert report.passed


def test_the_sweep_lists_the_rooted_trees_of_each_degree_once(monkeypatch):
    calls = count_calls(monkeypatch, connes_kreimer, "rooted_trees")
    verify_forest_algebra(4)
    assert calls == [(d,) for d in range(5)]


@pytest.mark.parametrize("degree", range(8))
def test_the_predicted_cut_count_is_the_number_of_admissible_cuts(degree):
    for tree in rooted_trees(degree):
        assert connes_kreimer._cut_count(tree) == len(admissible_cuts(tree)), tree.encode()
