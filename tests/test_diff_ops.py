"""Polynomials, derivations, and labeled trees acting as differential operators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopftrees import (
    Derivation,
    DerivationEnv,
    LinearCombination,
    Polynomial,
    apply_tree_operator,
    expand_operator,
    labeled_algebra,
    labeled_trees,
    parse_polynomial,
    parse_word_polynomial,
    verify_composition,
    word_to_trees,
)
from helpers import count_calls, lc, random_polynomial, subtrees, t, tree_operator_by_index_sum


ENV1 = DerivationEnv.from_dict({"n": 1, "E1": ["x1"], "E2": ["x1^2"]})
CUBE = parse_polynomial("x1^3", 1)


def test_polynomial_parsing_and_rendering():
    p = parse_polynomial("3*x1^2*x2 - 1/2*x2", 2)
    assert p.render() == "-1/2*x2 + 3*x1^2*x2"
    assert parse_polynomial(p.render(), 2) == p
    assert parse_polynomial("-x1 + 4", 1).render() == "4 - x1"


def test_polynomial_parse_errors():
    from hopftrees import ParseError

    with pytest.raises(ParseError):
        parse_polynomial("x3", 2)
    with pytest.raises(ParseError):
        parse_polynomial("2y", 2)


def test_power_rule():
    p = parse_polynomial("x1^2*x2", 2)
    assert p.derivative(1) == parse_polynomial("2*x1*x2", 2)
    assert parse_polynomial("x1^2", 2).derivative(2) == Polynomial.zero(2)


exponents = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(
    exponents, st.fractions(min_value=-9, max_value=9, max_denominator=4), max_size=4
).map(lambda d: Polynomial(3, d))


@given(polys)
def test_mixed_partials_commute(p):
    for i in range(1, 4):
        for j in range(i + 1, 4):
            assert p.derivative(i).derivative(j) == p.derivative(j).derivative(i)


@given(polys, polys)
def test_derivative_is_leibniz_on_products(p, q):
    for i in range(1, 4):
        assert (p * q).derivative(i) == p.derivative(i) * q + p * q.derivative(i)


def test_euler_operator():
    euler = Derivation((parse_polynomial("x1", 1),))
    assert euler.apply(CUBE) == parse_polynomial("3*x1^3", 1)
    squared = Derivation((parse_polynomial("x1^2", 1),))
    assert squared.apply(parse_polynomial("x1", 1)) == parse_polynomial("x1^2", 1)


@given(polys, polys)
def test_derivation_leibniz(p, q):
    field = Derivation(
        (
            parse_polynomial("x2", 3),
            parse_polynomial("x1*x3", 3),
            parse_polynomial("1", 3),
        )
    )
    assert field.apply(p * q) == field.apply(p) * q + p * field.apply(q)


def test_tree_operator_single_branch_is_plain_application():
    assert apply_tree_operator(t("(;(E1))"), ENV1, CUBE) == parse_polynomial("3*x1^3", 1)


def test_tree_operator_chain_value():
    chain = t("(;(E2;(E1)))")
    assert apply_tree_operator(chain, ENV1, CUBE) == parse_polynomial("6*x1^4", 1)


def test_tree_operator_sibling_value_and_composition_split():
    sibling = t("(;(E1)(E2))")
    chain = t("(;(E2;(E1)))")
    assert apply_tree_operator(sibling, ENV1, CUBE) == parse_polynomial("6*x1^4", 1)
    total = apply_tree_operator(sibling, ENV1, CUBE) + apply_tree_operator(chain, ENV1, CUBE)
    nested = ENV1["E1"].apply(ENV1["E2"].apply(CUBE))
    assert total == nested == parse_polynomial("12*x1^4", 1)


def test_tree_operator_rejects_unknown_labels():
    with pytest.raises(KeyError):
        apply_tree_operator(t("(;(E9))"), ENV1, CUBE)


def test_unknown_label_error_names_the_preorder_node():
    with pytest.raises(KeyError, match="unknown derivation symbol 'E9' at node 3"):
        apply_tree_operator(t("(;(E1;(E2))(E9))"), ENV1, CUBE)


def test_unknown_label_error_names_the_first_unknown_node_in_postorder():
    # nodes E9 (1) and E8 (2) are both unknown; the deeper one is reported
    with pytest.raises(KeyError, match="unknown derivation symbol 'E8' at node 2"):
        apply_tree_operator(t("(;(E9;(E8)))"), ENV1, CUBE)
    with pytest.raises(KeyError, match="unknown derivation symbol 'E7' at node 3"):
        apply_tree_operator(t("(;(E1;(E8)(E2;(E7)))(E9))"), ENV1, CUBE)


def test_sums_merge_in_one_dict_and_drop_cancelled_terms():
    p = parse_polynomial("x1 + 2 - x1 + 1/2*x1^2 + 1/2*x1^2", 1)
    assert p._terms == {(0,): 2, (2,): 1}
    assert type(p._terms[(0,)]) is int
    assert Polynomial._sum(2, []) == Polynomial.zero(2)
    assert ENV1["E1"].apply(parse_polynomial("x1^2 - x1^2", 1)) == Polynomial.zero(1)


def test_tree_operator_matches_index_sum_oracle():
    # every labeled tree of degree <= 4 over {E1, E2}, for n = 1, 2, 3
    rng = random.Random(41)
    for n in (1, 2, 3):
        env = DerivationEnv(n, {
            s: Derivation(tuple(random_polynomial(rng, n, 2) for _ in range(n)))
            for s in ("E1", "E2")
        })
        for degree in range(5):
            for tree in labeled_trees(degree, ("E1", "E2")):
                f = random_polynomial(rng, n, 4)
                expected = tree_operator_by_index_sum(tree, env, f)
                assert apply_tree_operator(tree, env, f) == expected, (n, tree.encode())


def test_word_to_trees_generator():
    assert word_to_trees(("E1",)) == lc((t("(;(E1))"), 1))


def test_word_to_trees_length_two():
    expected = lc((t("(;(E1)(E2))"), 1), (t("(;(E2;(E1)))"), 1))
    assert word_to_trees(("E1", "E2")) == expected


def test_word_to_trees_length_three_multiplicity():
    # per-step grafting counts: 2 trees, then 3 placements on each
    combo = word_to_trees(("E1", "E2", "E3"))
    assert combo.total_multiplicity() == 6


def test_commutator_leaves_only_chains():
    expansion = expand_operator(
        [(1, ("E1", "E2")), (-1, ("E2", "E1"))], ("E1", "E2")
    )
    assert expansion.surviving == lc(
        (t("(;(E2;(E1)))"), 1), (t("(;(E1;(E2)))"), -1)
    )


def test_double_commutator_cancellation_counts():
    expansion = expand_operator(
        [
            (1, ("E3", "E2", "E1")),
            (-1, ("E3", "E1", "E2")),
            (-1, ("E2", "E1", "E3")),
            (1, ("E1", "E2", "E3")),
        ],
        ("E1", "E2", "E3"),
    )
    assert expansion.raw_tree_count == 24
    assert expansion.cancelled_count == 18
    assert expansion.surviving_count == 6
    assert expansion.surviving == lc(
        (t("(;(E1;(E2)(E3)))"), 1),
        (t("(;(E1;(E2;(E3))))"), 1),
        (t("(;(E2;(E1)(E3)))"), -1),
        (t("(;(E2;(E1;(E3))))"), -1),
        (t("(;(E3;(E1;(E2))))"), -1),
        (t("(;(E3;(E2;(E1))))"), 1),
    )


def test_syntactic_cancellation():
    expansion = expand_operator([(1, ("E1", "E2")), (-1, ("E1", "E2"))], ("E1", "E2"))
    assert expansion.surviving == LinearCombination.zero()
    assert expansion.surviving_count == 0


def test_composition_check_base_case_and_pair():
    assert verify_composition(("E1",), ENV1, CUBE)
    check = verify_composition(("E1", "E2"), ENV1, CUBE)
    assert check.ok and check.tree_side == parse_polynomial("12*x1^4", 1)


def test_composition_check_randomized_sweep():
    rng = random.Random(20240811)
    symbols = ("E1", "E2", "E3")
    for trial in range(100):
        n = rng.choice((2, 3))
        env = DerivationEnv.from_dict(
            {
                "n": n,
                **{
                    s: [random_polynomial(rng, n, 2).render() for _ in range(n)]
                    for s in symbols
                },
            }
        )
        word = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3)))
        f = random_polynomial(rng, n, 3)
        assert verify_composition(word, env, f), (trial, word)


def test_module_law_flat_case():
    rng = random.Random(7)
    env = DerivationEnv.from_dict(
        {"n": 2, "E1": ["x2", "x1"], "E2": ["x1*x2", "1"]}
    )
    alg = labeled_algebra(("E1", "E2"))
    for degree in range(3):
        for tree in labeled_trees(degree, ("E1", "E2")):
            a = random_polynomial(rng, 2, 2)
            b = random_polynomial(rng, 2, 2)
            lhs = apply_tree_operator(tree, env, a * b)
            rhs = Polynomial.zero(2)
            for pair, coeff in alg.coproduct(tree):
                rhs = rhs + coeff * (
                    apply_tree_operator(pair.left, env, a)
                    * apply_tree_operator(pair.right, env, b)
                )
            assert lhs == rhs, tree.encode()


@settings(max_examples=25)
@given(polys, polys)
def test_tree_operator_linear_in_argument(p, q):
    env = DerivationEnv.from_dict({"n": 3, "E1": ["x2", "x3", "x1"]})
    tree = t("(;(E1;(E1)))")
    lhs = apply_tree_operator(tree, env, p + q)
    rhs = apply_tree_operator(tree, env, p) + apply_tree_operator(tree, env, q)
    assert lhs == rhs


def test_word_polynomial_parser():
    parsed = parse_word_polynomial("E3,E2,E1 - E3,E1,E2 + 2*E1,E2")
    assert parsed == [
        (Fraction(1), ("E3", "E2", "E1")),
        (Fraction(-1), ("E3", "E1", "E2")),
        (Fraction(2), ("E1", "E2")),
    ]


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("E1,E2 - E2,E1 + 2*E1,E 2", "invalid word 'E1,E 2'", 18),
        ("E1,E2 - E2,E1 + 1/0*E1", "invalid coefficient '1/0'", 16),
        ("  E1 + 2* E 1", "invalid word ' E 1'", 10),
        ("E1 -   x*E2", "invalid coefficient 'x'", 7),
        ("E1,E2 + *E1", "invalid coefficient ''", 8),
        ("E 1 + E2", "invalid word 'E 1'", 0),
        ("   ", "empty operator polynomial", 0),
        ("E1 - E2 -", "missing term after sign", 8),
    ],
)
def test_word_polynomial_errors_point_at_the_bad_term(text, message, position):
    from hopftrees import ParseError

    with pytest.raises(ParseError) as info:
        parse_word_polynomial(text)
    assert (info.value.message, info.value.text, info.value.position) == (message, text, position)


@pytest.mark.parametrize(
    "text, num_vars, message, position",
    [
        ("x1 + x9", 1, "variable x9 out of range for n=1", 5),
        ("   x1 + x9", 1, "variable x9 out of range for n=1", 8),
        ("x1 - 2*x9", 1, "variable x9 out of range for n=1", 5),
        ("x9", 1, "variable x9 out of range for n=1", 0),
        ("- x1 -  -y2", 2, "invalid coefficient 'y2'", 9),
        ("x1^2*x2 + 3*x1^a", 2, "invalid exponent 'a'", 10),
        (" 1/0*x1", 1, "invalid coefficient '1/0'", 1),
        ("   ", 1, "empty polynomial", 0),
        ("x1 + ", 1, "missing term after sign", 3),
        ("x2 + x1^", 2, "invalid exponent ''", 5),
        ("x²", 1, "invalid variable 'x²'", 0),
    ],
)
def test_polynomial_errors_point_at_the_bad_term(text, num_vars, message, position):
    from hopftrees import ParseError

    with pytest.raises(ParseError) as info:
        parse_polynomial(text, num_vars)
    assert (info.value.message, info.value.text, info.value.position) == (message, text, position)


# Integral inputs and the same inputs scaled: every derivation by 1/2, f by 1/3.
INT_ENV = DerivationEnv.from_dict({"n": 2, "E1": ["x1", "2*x2"], "E2": ["3*x1*x2", "-2"]})
HALF_ENV = DerivationEnv.from_dict({"n": 2, "E1": ["1/2*x1", "x2"], "E2": ["3/2*x1*x2", "-1"]})
INT_F = parse_polynomial("x1^3*x2 + 2*x2^2 - x1", 2)
THIRD_F = parse_polynomial("1/3*x1^3*x2 + 2/3*x2^2 - 1/3*x1", 2)


def _coefficient_types(p):
    return {type(c) for _, c in p.terms()}


def test_integral_inputs_give_int_coefficients():
    p, q = parse_polynomial("3*x1^2*x2 - 4/2*x2", 2), parse_polynomial("x1 - 5", 2)
    assert _coefficient_types(p) == {int}
    for result in (p + q, p - q, -p, p * q, 3 * p, p * 2, p.derivative(1), INT_ENV["E2"].apply(p)):
        assert result and _coefficient_types(result) == {int}, result
    for tree in labeled_trees(3, ("E1", "E2")):
        assert _coefficient_types(apply_tree_operator(tree, INT_ENV, INT_F)) <= {int}, tree.encode()
    check = verify_composition(("E1", "E2", "E1"), INT_ENV, INT_F)
    assert check.ok and _coefficient_types(check.tree_side) == _coefficient_types(check.nested_side) == {int}


def test_fractional_inputs_stay_exact_through_tree_operators():
    # a tree with k nodes below the root is k-linear in the derivations and linear in f
    for degree in range(4):
        for tree in labeled_trees(degree, ("E1", "E2")):
            scaled = apply_tree_operator(tree, HALF_ENV, THIRD_F)
            assert scaled == Fraction(1, 3 * 2**degree) * apply_tree_operator(tree, INT_ENV, INT_F)
            assert scaled == tree_operator_by_index_sum(tree, HALF_ENV, THIRD_F), tree.encode()
    assert Fraction in _coefficient_types(apply_tree_operator(t("(;(E1)(E2))"), HALF_ENV, THIRD_F))
    word = ("E1", "E2", "E1")
    check = verify_composition(word, HALF_ENV, THIRD_F)
    assert check.ok
    assert check.tree_side == Fraction(1, 24) * verify_composition(word, INT_ENV, INT_F).tree_side


def test_composition_evaluates_each_distinct_subtree_once(monkeypatch):
    from hopftrees import diff_ops

    calls = count_calls(monkeypatch, diff_ops, "_covariant_contraction")
    for word in (("E1", "E2", "E1"), ("E2", "E1", "E1", "E2")):
        calls.clear()
        assert verify_composition(word, INT_ENV, INT_F)
        trees = [tree for tree, _ in word_to_trees(word, INT_ENV.symbols)]
        # one contraction per distinct subtree, one at the root of each tree
        assert len(calls) == len(subtrees(*trees)) + len(trees), word
        assert len(calls) < sum(tree.degree() + 1 for tree in trees)  # once per node without the memo


def test_derivation_is_an_immutable_value():
    import pickle

    d = INT_ENV["E1"]
    twin = Derivation((parse_polynomial("x1", 2), parse_polynomial("2*x2", 2)))
    assert d == twin and d != INT_ENV["E2"] and d != d.coeffs
    assert pickle.loads(pickle.dumps(d)) == d
    assert repr(d) == "Derivation((Polynomial(2, 'x1'), Polynomial(2, '2*x2')))"
    with pytest.raises(AttributeError):
        d.coeffs = ()
    with pytest.raises(AttributeError):
        del d.coeffs
    with pytest.raises(TypeError):
        hash(d)
    assert not hasattr(d, "__dict__")
    with pytest.raises(ValueError):
        Derivation(())
    with pytest.raises(ValueError):
        Derivation((parse_polynomial("x1", 2),))


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"n": 2, "E1": 5}, "derivation E1 needs a list of 2 coefficient polynomials"),
        ({"n": 2, "E1": "x1"}, "derivation E1 needs a list of 2 coefficient polynomials"),
        ({"n": None}, "'n' must be a positive integer, not None"),
        ({"n": "2"}, "'n' must be a positive integer, not '2'"),
        ({"n": 0}, "'n' must be a positive integer, not 0"),
        ({"E1": ["x1"]}, "derivation spec needs an 'n' entry"),
        ([1, 2], "derivation spec needs an 'n' entry"),
    ],
)
def test_malformed_derivation_specs_are_value_errors(spec, message):
    with pytest.raises(ValueError, match=message):
        DerivationEnv.from_dict(spec)
