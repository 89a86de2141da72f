"""Connections: coordinate formula, axioms, tree action, and the module law."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopftrees import (
    Connection,
    Derivation,
    DerivationEnv,
    LinearCombination,
    Polynomial,
    TensorPair,
    Tree,
    apply_connection_operator,
    check_module_law,
    covariant_derivative,
    covariant_differential,
    labeled_algebra,
    ordered_labeled_trees,
    ordered_trees,
    parse_polynomial,
    parse_tree,
    subtree_derivation,
    vector_covariant_differential,
    verify_composition,
)
from hopftrees.algebra import splits
from hopftrees.grossman_larson import ORDERED, TreeHopfAlgebra
from helpers import (
    christoffel,
    connection_action_by_recursion,
    count_calls,
    coproduct_by_masks,
    covariant_derivative_by_formula,
    covariant_differential_by_recursion,
    is_flat,
    module_law_by_coproduct,
    ot,
    random_polynomial,
    subtree_derivation_by_recursion,
    subtrees,
    tree_operator_by_index_sum,
    vector_covariant_differential_by_recursion,
)


ENV1 = DerivationEnv.from_dict({"n": 1, "E1": ["x1"], "E2": ["x1^2"]})
FLAT1 = Connection.flat(1)
CURVED1 = Connection.from_dict({"n": 1, "gamma": {"1,1,1": "1"}})
CUBE = parse_polynomial("x1^3", 1)


def test_flat_covariant_derivative():
    result = covariant_derivative(FLAT1, ENV1["E1"], ENV1["E2"])
    assert result == Derivation((parse_polynomial("2*x1^2", 1),))


def test_curved_covariant_derivative():
    result = covariant_derivative(CURVED1, ENV1["E1"], ENV1["E2"])
    assert result == Derivation((parse_polynomial("2*x1^2 + x1^3", 1),))


def _random_derivation(rng, n):
    return Derivation(tuple(random_polynomial(rng, n, 2) for _ in range(n)))


def _random_connection(rng, n):
    gamma = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if rng.random() < 0.5:
                    gamma[(i, j, k)] = random_polynomial(rng, n, 1)
    return Connection(n, gamma)


def test_connection_axioms_randomized():
    rng = random.Random(11)
    for n in (1, 2, 3):
        conn = _random_connection(rng, n)
        for _ in range(8):
            e1, e2, f1, f2 = (_random_derivation(rng, n) for _ in range(4))
            f = random_polynomial(rng, n, 2)
            # additive in the lower slot
            assert covariant_derivative(conn, e1 + e2, f1) == covariant_derivative(
                conn, e1, f1
            ) + covariant_derivative(conn, e2, f1)
            # additive in the upper slot
            assert covariant_derivative(conn, e1, f1 + f2) == covariant_derivative(
                conn, e1, f1
            ) + covariant_derivative(conn, e1, f2)
            # function-linear below
            assert covariant_derivative(conn, f * e1, f1) == f * covariant_derivative(
                conn, e1, f1
            )
            # Leibniz above
            assert covariant_derivative(conn, e1, f * f1) == f * covariant_derivative(
                conn, e1, f1
            ) + e1.apply(f) * f1


def test_subtree_derivation_base_cases():
    leaf = ot("(E1)")
    assert subtree_derivation(leaf, ENV1, FLAT1) == ENV1["E1"]
    node = ot("(E1;(E2))")
    assert subtree_derivation(node, ENV1, FLAT1) == covariant_derivative(
        FLAT1, ENV1["E2"], ENV1["E1"]
    )


def test_subtree_derivation_flat_coordinates():
    # flat theta of a one-child node: components F(a_E^mu)
    node = ot("(E1;(E2))")
    result = subtree_derivation(node, ENV1, FLAT1)
    assert result == Derivation((ENV1["E2"].apply(ENV1["E1"].coeffs[0]),))


def test_covariant_differential_base_and_order_two():
    x1, x2 = ENV1["E1"], ENV1["E2"]
    assert covariant_differential(CUBE, [x1], FLAT1) == x1.apply(CUBE)
    value = covariant_differential(CUBE, [x1, x2], FLAT1)
    assert value == parse_polynomial("6*x1^4", 1)


def test_flat_hessian_is_symmetric():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.choice((1, 2))
        flat = Connection.flat(n)
        x, y = _random_derivation(rng, n), _random_derivation(rng, n)
        f = random_polynomial(rng, n, 3)
        assert covariant_differential(f, [x, y], flat) == covariant_differential(
            f, [y, x], flat
        )


def test_tree_action_single_leaf():
    tree = ot("(;(E1))")
    assert apply_connection_operator(tree, ENV1, FLAT1, CUBE) == ENV1["E1"].apply(CUBE)


def test_tree_action_chain_through_connection():
    # child labeled E1 with grandchild E2: acts as (nabla_{E2} E1) f
    tree = ot("(;(E1;(E2)))")
    value = apply_connection_operator(tree, ENV1, FLAT1, CUBE)
    assert value == parse_polynomial("3*x1^4", 1)


def test_flat_action_reduces_to_tree_operator():
    rng = random.Random(5)
    env = DerivationEnv.from_dict({"n": 2, "E1": ["x2", "x1"], "E2": ["x1*x2", "1"]})
    for degree in range(4):
        for tree in ordered_labeled_trees(degree, ("E1", "E2")):
            f = random_polynomial(rng, 2, 3)
            flat = apply_connection_operator(tree, env, Connection.flat(2), f)
            assert flat == tree_operator_by_index_sum(tree, env, f), tree.encode()


def test_curved_action_matches_recursive_oracle():
    # every ordered labeled tree of degree <= 3 over {E1, E2}, for n = 1, 2
    rng = random.Random(43)
    for n in (1, 2):
        conn = _random_connection(rng, n)
        env = DerivationEnv(n, {s: _random_derivation(rng, n) for s in ("E1", "E2")})
        for degree in range(4):
            for tree in ordered_labeled_trees(degree, ("E1", "E2")):
                f = random_polynomial(rng, n, 3)
                expected = connection_action_by_recursion(tree, env, conn, f)
                assert apply_connection_operator(tree, env, conn, f) == expected, (n, tree.encode())
                for sub in tree.children:
                    assert subtree_derivation(sub, env, conn) == subtree_derivation_by_recursion(
                        sub, env, conn
                    ), (n, sub.encode())


def test_covariant_differentials_match_recursive_oracles():
    rng = random.Random(47)
    for n in (1, 2, 3):
        conn = _random_connection(rng, n)
        for m in range(4):
            field = _random_derivation(rng, n)
            fields = [_random_derivation(rng, n) for _ in range(m)]
            f = random_polynomial(rng, n, 3)
            assert covariant_differential(f, fields, conn) == covariant_differential_by_recursion(
                f, fields, conn
            ), (n, m)
            assert vector_covariant_differential(
                field, fields, conn
            ) == vector_covariant_differential_by_recursion(field, fields, conn), (n, m)
        lower, upper = _random_derivation(rng, n), _random_derivation(rng, n)
        assert covariant_derivative(conn, lower, upper) == covariant_derivative_by_formula(
            conn, lower, upper
        )


def test_module_law_flat_connection():
    rng = random.Random(31)
    env = DerivationEnv.from_dict({"n": 2, "E1": ["x2", "x1"], "E2": ["x1*x2", "1"]})
    flat = Connection.flat(2)
    for degree in range(3):
        for tree in ordered_labeled_trees(degree, ("E1", "E2")):
            a = random_polynomial(rng, 2, 2)
            b = random_polynomial(rng, 2, 2)
            assert check_module_law(tree, env, flat, a, b), tree.encode()


def test_module_law_curved_connection():
    rng = random.Random(37)
    for degree in range(3):
        for tree in ordered_labeled_trees(degree, ("E1", "E2")):
            a = random_polynomial(rng, 1, 2)
            b = random_polynomial(rng, 1, 2)
            assert check_module_law(tree, ENV1, CURVED1, a, b), tree.encode()


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        covariant_derivative(FLAT1, ENV1["E1"], Derivation((Polynomial.zero(2),) * 2))
    with pytest.raises(ValueError):
        Connection(1, {(1, 1, 2): Polynomial.zero(1)})


def test_connection_spec_parsing():
    spec = {"n": 2, "gamma": {"1,2,1": "x2", "2,2,2": "1/2"}}
    conn = Connection.from_dict(spec)
    assert christoffel(conn, 1, 2, 1) == parse_polynomial("x2", 2)
    assert christoffel(conn, 2, 2, 2) == parse_polynomial("1/2", 2)
    assert christoffel(conn, 1, 1, 1) == Polynomial.zero(2)
    assert not is_flat(conn)


ENV2 = DerivationEnv.from_dict({"n": 2, "E1": ["x2", "2*x1"], "E2": ["x1*x2", "1"]})
CURVED2 = Connection.from_dict({"n": 2, "gamma": {"1,2,1": "x2", "2,1,2": "3", "2,2,1": "x1 - 1"}})
HALF_CURVED2 = Connection.from_dict({"n": 2, "gamma": {"1,2,1": "1/2*x2", "2,2,2": "-1/3"}})
A2, B2 = parse_polynomial("x1^2 - 2*x2", 2), parse_polynomial("3*x1*x2 + 1", 2)


def test_fractional_inputs_stay_exact_through_the_connection():
    half = {s: Fraction(1, 2) * ENV2[s] for s in ENV2.symbols}
    half_env = DerivationEnv(2, half)
    lower, upper = half["E1"], half["E2"]
    result = covariant_derivative(HALF_CURVED2, lower, upper)
    assert result == covariant_derivative_by_formula(HALF_CURVED2, lower, upper)
    # function-linear below, additive above
    assert covariant_derivative(HALF_CURVED2, ENV2["E1"], upper) == 2 * result
    assert Fraction in {type(c) for p in result.coeffs for _, c in p.terms()}
    a, b = Fraction(1, 3) * A2, parse_polynomial("1/2*x1 - x2^2", 2)
    for degree in range(4):
        for tree in ordered_labeled_trees(degree, ("E1", "E2")):
            assert check_module_law(tree, half_env, HALF_CURVED2, a, b), tree.encode()
            assert apply_connection_operator(tree, half_env, HALF_CURVED2, a) == connection_action_by_recursion(
                tree, half_env, HALF_CURVED2, a
            ), tree.encode()


def test_integral_inputs_give_int_coefficients_through_the_connection():
    types = {type(c) for p in covariant_derivative(CURVED2, ENV2["E1"], ENV2["E2"]).coeffs for _, c in p.terms()}
    assert types == {int}
    for tree in ordered_labeled_trees(3, ("E1", "E2")):
        value = apply_connection_operator(tree, ENV2, CURVED2, A2)
        assert {type(c) for _, c in value.terms()} <= {int}, tree.encode()


ORDERED_TREES = [tree for degree in range(5) for tree in ordered_labeled_trees(degree, ("E1", "E2"))]


@st.composite
def curved_actions(draw):
    """An ordered labeled tree of degree <= 4 over {E1, E2}, a derivation for
    each label, a curved connection and a polynomial in two variables, all
    with ``int`` or all with ``Fraction`` coefficients.  Two Christoffel
    entries are opposite, so the products they add into one tensor entry can
    cancel."""
    integral = draw(st.booleans())
    coeff = st.integers(-3, 3) if integral else st.fractions(min_value=-3, max_value=3, max_denominator=4)
    poly = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeff, min_size=1, max_size=2)
    env = DerivationEnv(2, {s: Derivation((Polynomial(2, draw(poly)), Polynomial(2, draw(poly))))
                            for s in ("E1", "E2")})
    keys = draw(st.lists(st.tuples(*[st.integers(1, 2)] * 3), min_size=2, max_size=4, unique=True))
    g = Polynomial(2, draw(poly))
    gamma = {keys[0]: g, keys[1]: -1 * g, **{key: Polynomial(2, draw(poly)) for key in keys[2:]}}
    return draw(st.sampled_from(ORDERED_TREES)), env, Connection(2, gamma), draw(poly), integral


@settings(derandomize=True, max_examples=40, deadline=None)
@given(curved_actions())
def test_the_fused_kernel_matches_the_recursive_oracle(case):
    tree, env, conn, terms, integral = case
    f = Polynomial(2, terms)
    value = apply_connection_operator(tree, env, conn, f)
    assert value == connection_action_by_recursion(tree, env, conn, f), tree.encode()
    assert all(value._terms.values()), "a zero coefficient survived"
    if integral:
        assert {type(c) for c in value._terms.values()} <= {int}


def test_module_law_evaluates_each_distinct_subtree_once(monkeypatch):
    from hopftrees import diff_ops

    calls = count_calls(monkeypatch, diff_ops, "_covariant_contraction")
    alg = TreeHopfAlgebra(ordered=True, symbols=ENV2.symbols)
    trees = [tree for degree in range(4) for tree in ordered_labeled_trees(degree, ENV2.symbols)]
    trees.append(ot("(;(E1;(E2))(E1;(E2))(E2))"))  # equal siblings: 2 subtrees, 6 distinct pieces
    for tree in trees:
        calls.clear()
        assert check_module_law(tree, ENV2, CURVED2, A2, B2), tree.encode()
        # one contraction per distinct subtree, then one at the root of t and of each piece
        assert len(calls) == len(subtrees(tree)) + 1 + 2 * len(alg.coproduct(tree)), tree.encode()
    assert len(calls) == 2 + 1 + 2 * 6


def test_the_kernel_builds_a_derivation_only_for_a_result(monkeypatch):
    # inside a call a field is the tuple of its components' raw stores
    built = count_calls(monkeypatch, Derivation, "__init__")
    trees = [tree for degree in range(4) for tree in ordered_labeled_trees(degree, ENV2.symbols)]
    assert len(trees) == 51
    for tree in trees:
        assert check_module_law(tree, ENV2, CURVED2, A2, B2), tree.encode()
    assert verify_composition(("E1", "E2", "E1"), ENV2, A2)
    assert len(built) == 0
    subtree = ot("(E1;(E2)(E1;(E2)))")
    theta = subtree_derivation(subtree, ENV2, CURVED2)
    assert len(built) == 1
    assert theta == subtree_derivation_by_recursion(subtree, ENV2, CURVED2)


# equal siblings, whose runs split C(k, j) ways; and two splits that give one pair, (E1 E2) (x) (E1 E2)
EQUAL_SIBLINGS, TWO_WAYS = ot("(;(E1;(E2))(E1;(E2))(E2))"), ot("(;(E1)(E2)(E1)(E2))")


def test_the_module_law_kernel_matches_the_coproduct_oracle():
    from hopftrees import diff_ops

    pair = TensorPair(ot("(;(E1)(E2))"), ot("(;(E1)(E2))"))
    assert labeled_algebra(ENV2.symbols, ordered=True).coproduct(TWO_WAYS).coefficient(pair) == 2
    rng = random.Random(43)
    trees = [tree for degree in range(4) for tree in ordered_labeled_trees(degree, ENV2.symbols)]
    for tree in trees + [EQUAL_SIBLINGS, TWO_WAYS]:
        for conn in (CURVED2, HALF_CURVED2):
            a, b = random_polynomial(rng, 2, 2), random_polynomial(rng, 2, 2)
            lhs, rhs = diff_ops._module_law(tree, ENV2, conn._steps, a, b, a * b)
            want_lhs, want_rhs = module_law_by_coproduct(tree, ENV2, conn, a, b)
            assert (lhs, rhs) == (want_lhs._terms, want_rhs._terms), tree.encode()
            assert all(rhs.values()), "a zero coefficient survived"


def test_the_root_splits_weighted_by_ways_are_the_ordered_coproduct():
    labeled = labeled_algebra(ENV2.symbols, ordered=True)
    cases = [(ORDERED, tree) for degree in range(6) for tree in ordered_trees(degree)]
    cases += [(labeled, tree) for degree in range(5) for tree in ordered_labeled_trees(degree, ENV2.symbols)]
    for alg, tree in cases + [(labeled, EQUAL_SIBLINGS), (labeled, TWO_WAYS)]:
        built = LinearCombination((TensorPair(Tree(None, kept, True), Tree(None, rest, True)), ways)
                                  for kept, rest, ways in splits(tree.children, "root split"))
        assert built == alg.coproduct(tree) == coproduct_by_masks(alg, tree), tree.encode()


def test_the_memo_does_not_outlive_the_call(monkeypatch):
    from hopftrees import diff_ops

    class Marker:
        pass

    def towers():  # level 0 of a tower maps (0,) to the store of F's first component
        return [o for o in gc.get_objects() if type(o) is list and o and type(o[0]) is dict and (0,) in o[0]]

    key, markers, built = object(), [], []
    evaluate = diff_ops._subtree_derivation

    def marking(node, env, gamma, memo):
        if key not in memo:  # a value only the memo holds lives exactly as long as it
            memo[key] = marker = Marker()
            markers.append(weakref.ref(marker))
        theta = evaluate(node, env, gamma, memo)
        if not built:
            built.extend(towers())
        return theta

    monkeypatch.setattr(diff_ops, "_subtree_derivation", marking)
    tree = ot("(;(E1;(E2))(E2)(E1;(E2)))")
    gc.disable()  # the memo and its towers must go by reference counting, not by a collection
    try:
        assert check_module_law(tree, ENV2, CURVED2, A2, B2)
        assert len(markers) == 1 and markers[0]() is None
        assert built  # towers were built during the call ...
        built.clear()
        assert not towers()  # ... and those of a, b, a * b and each symbol died with the memo
        assert verify_composition(("E1", "E2", "E1"), ENV2, A2)
        assert len(markers) == 2 and markers[1]() is None
        assert built
        built.clear()
        assert not towers()
    finally:
        gc.enable()


def test_the_module_law_raises_each_polynomial_once_per_level(monkeypatch):
    from hopftrees import diff_ops

    calls = count_calls(monkeypatch, diff_ops, "_derive_into")
    trees = [tree for degree in range(4) for tree in ordered_labeled_trees(degree, ENV2.symbols)]
    trees.append(ot("(;(E1;(E2))(E1;(E2))(E2))"))
    for tree in trees:
        calls.clear()
        assert check_module_law(tree, ENV2, CURVED2, A2, B2), tree.encode()
        # every store of a tower, at every level, is differentiated once by each variable:
        # a level raised twice would differentiate its stores again
        raised = [(id(store), i) for _, store, i in calls]
        assert len(set(raised)) == len(raised), tree.encode()
        for f in (A2, B2, A2 * B2):  # level 0 of each tower is the polynomial's own store
            assert len([i for _, store, i in calls if store == f._terms]) in (0, 2), tree.encode()
    assert len([i for _, store, i in calls if store == (A2 * B2)._terms]) == 2


def test_a_covariant_result_past_the_exponent_limit_is_refused():
    from hopftrees.polynomials import MAX_EXPONENT

    square = DerivationEnv.from_dict({"n": 1, "E1": ["x1^2"]})["E1"]  # raises a degree by one
    high = Derivation((Polynomial(1, {(MAX_EXPONENT,): 1}),))
    env = DerivationEnv(1, {"E1": square, "H": high})
    conn = Connection.from_dict({"n": 1, "gamma": {"1,1,1": "x1"}})
    below = Polynomial(1, {(MAX_EXPONENT - 1,): 1})
    assert covariant_differential(below, [square], conn) == (MAX_EXPONENT - 1) * Polynomial(1, {(MAX_EXPONENT,): 1})
    too_high = f"exponent {2**32} is above the limit of {MAX_EXPONENT}"
    for refused in (lambda: covariant_differential(high.coeffs[0], [square], conn),
                    lambda: vector_covariant_differential(high, [square], conn),
                    lambda: covariant_derivative(conn, square, high),
                    lambda: subtree_derivation(ot("(H;(E1))"), env, conn),
                    lambda: apply_connection_operator(ot("(;(E1))"), env, conn, high.coeffs[0])):
        with pytest.raises(ValueError, match=too_high):
            refused()


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"n": 2, "gamma": 3}, "'gamma' must map 'i,j,k' keys to polynomials"),
        ({"n": 2, "gamma": ["x"]}, "'gamma' must map 'i,j,k' keys to polynomials"),
        ({"n": None, "gamma": {}}, "'n' must be a positive integer, not None"),
        ({"gamma": {}}, "connection spec needs an 'n' entry"),
        ("n", "connection spec needs an 'n' entry"),
    ],
)
def test_malformed_connection_specs_are_value_errors(spec, message):
    with pytest.raises(ValueError, match=message):
        Connection.from_dict(spec)


def test_a_missing_gamma_is_the_flat_connection():
    assert is_flat(Connection.from_dict({"n": 2})) and is_flat(Connection.from_dict({"n": 2, "gamma": None}))


def test_the_curved_action_refuses_unordered_trees():
    env = DerivationEnv.from_dict({"n": 2, "E1": ["1", "0"], "E2": ["0", "1"]})
    conn = Connection.from_dict({"n": 2, "gamma": {"1,2,1": "1"}})
    f = parse_polynomial("x1^2*x2", 2)
    # child order matters: the two orders act differently ...
    assert apply_connection_operator(ot("(;(E2)(E1))"), env, conn, f) == parse_polynomial("2*x1", 2)
    assert apply_connection_operator(ot("(;(E1)(E2))"), env, conn, f) == parse_polynomial(
        "2*x1 - 2*x1*x2", 2
    )
    # ... so an unordered tree, which would act in its sorted order, is refused
    unordered = parse_tree("(;(E2)(E1))")
    message = r"tree \(;\(E1\)\(E2\)\) has the wrong ordered/unordered flavor"
    with pytest.raises(ValueError, match=message):
        apply_connection_operator(unordered, env, conn, f)
    with pytest.raises(ValueError, match=message):
        check_module_law(unordered, env, conn, f, f)
    with pytest.raises(ValueError, match=r"tree \(E1;\(E2\)\) has the wrong ordered/unordered"):
        subtree_derivation(parse_tree("(E1;(E2))"), env, conn)
