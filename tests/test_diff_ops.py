"""Polynomials, derivations, and labeled trees acting as differential operators."""

import itertools
import operator
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
    ordered_labeled_trees,
    parse_polynomial,
    parse_word_polynomial,
    verify_composition,
    word_to_trees,
)
from hopftrees.algebra import _sum_scaled
from hopftrees.cli import main
from hopftrees.polynomials import MAX_EXPONENT
from helpers import (count_calls, dict_derivative, dict_product, dict_sum, lc, random_polynomial, subtrees, t,
                     tree_operator_by_index_sum, word_to_trees_by_products)


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


@settings(derandomize=True, max_examples=100, deadline=2000)
@given(polys)
def test_mixed_partials_commute(p):
    for i in range(1, 4):
        for j in range(i + 1, 4):
            assert p.derivative(i).derivative(j) == p.derivative(j).derivative(i)


@settings(derandomize=True, max_examples=100, deadline=2000)
@given(polys, polys)
def test_derivative_is_leibniz_on_products(p, q):
    for i in range(1, 4):
        assert (p * q).derivative(i) == p.derivative(i) * q + p * q.derivative(i)


def test_euler_operator():
    euler = Derivation((parse_polynomial("x1", 1),))
    assert euler.apply(CUBE) == parse_polynomial("3*x1^3", 1)
    squared = Derivation((parse_polynomial("x1^2", 1),))
    assert squared.apply(parse_polynomial("x1", 1)) == parse_polynomial("x1^2", 1)


@settings(derandomize=True, max_examples=100, deadline=2000)
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


scalars = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def term_dict_pairs(draw):
    """A variable count from 1 to 3 and two dicts of terms over it."""
    n = draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), scalars, max_size=5)
    return n, draw(terms), draw(terms)


@settings(derandomize=True, max_examples=80, deadline=2000)
@given(term_dict_pairs(), scalars, st.integers(1, 3))
def test_polynomial_arithmetic_matches_a_plain_dict_oracle(pair, c, index):
    n, da, db = pair
    a, b = Polynomial(n, da), Polynomial(n, db)
    i = min(index, n)
    results = {
        "a": (a, dict_sum((1, da))),
        "a + b": (a + b, dict_sum((1, da), (1, db))),
        "a - b": (a - b, dict_sum((1, da), (-1, db))),
        "-a": (-a, dict_sum((-1, da))),
        "c * a": (c * a, dict_sum((c, da))),
        "a * c": (a * c, dict_sum((c, da))),
        "a * b": (a * b, dict_product(da, db)),
        "d_i a": (a.derivative(i), dict_derivative(da, i)),
    }
    for name, (got, expected) in results.items():
        assert type(got) is Polynomial and got.num_vars == n, name
        assert dict(got) == expected, name
        assert parse_polynomial(got.render(), n) == got, name
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a - b + b == a and hash(a - b + b) == hash(a)
    reordered = Polynomial(n, list(da.items())[::-1])
    assert reordered == a and hash(reordered) == hash(a)


LOW = st.integers(0, 3)


@st.composite
def wide_stores(draw):
    """A variable count from 1 to 3 and three dicts of terms over it: two whose
    exponents sum to at most :data:`MAX_EXPONENT` (the largest sum reaches it),
    and one whose exponents reach it, for the derivative."""
    n = draw(st.integers(1, 3))
    half = MAX_EXPONENT // 2  # half + (MAX_EXPONENT - half) == MAX_EXPONENT

    def store(high):
        return st.dictionaries(st.tuples(*[LOW | high] * n), scalars, max_size=4)

    return (n, draw(store(st.integers(half - 2, half))), draw(store(st.integers(MAX_EXPONENT - half - 2, MAX_EXPONENT - half))),
            draw(store(st.integers(MAX_EXPONENT - 3, MAX_EXPONENT))))


@settings(derandomize=True, max_examples=150, deadline=2000)
@given(wide_stores(), st.integers(1, 3))
def test_packed_product_and_derivative_match_the_dict_oracle_up_to_the_exponent_limit(case, index):
    # each exponent sits in a field of its own: a carry or borrow across fields would show here
    n, da, db, dc = case
    a, b, c = Polynomial(n, da), Polynomial(n, db), Polynomial(n, dc)
    i = min(index, n)
    for name, got, expected in (("a * b", a * b, dict_product(da, db)), ("b * a", b * a, dict_product(db, da)),
                                ("d_i a", a.derivative(i), dict_derivative(da, i)),
                                ("d_i c", c.derivative(i), dict_derivative(dc, i))):
        assert dict(got) == expected, name
        assert all(got.coefficient(exps) == coeff for exps, coeff in expected.items()), name
        assert parse_polynomial(got.render(), n) == got, name
    assert dict(c) == dict_sum((1, dc)) and c.terms() == sorted(dict(c).items(), key=lambda kv: (sum(kv[0]), kv[0]))


def test_non_integral_exponents_and_variable_counts_are_refused_not_truncated():
    with pytest.raises(ValueError, match=r"exponents must be integers, got \(2\.5,\)"):
        Polynomial(1, {(2.5,): 1})
    with pytest.raises(ValueError, match="the variable count must be an integer, got 2.7"):
        Polynomial(2.7, {(1, 1): 1})
    # integral floats stay accepted, as for permutation entries
    assert Polynomial(2.0, {(2.0, 1): 3}) == parse_polynomial("3*x1^2*x2", 2)
    assert Polynomial(0, {(): 3}).render() == "3"  # no variables, and no negative count: a constant


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Polynomial(-1), r"^the variable count must not be negative, got -1$"),
        (lambda: Polynomial(float("inf")), r"^the variable count must be an integer, got inf$"),
        (lambda: Polynomial(float("nan")), r"^the variable count must be an integer, got nan$"),
        (lambda: Polynomial(2, {(1, float("inf")): 1}), r"^exponents must be integers, got \(1, inf\)$"),
        (lambda: Polynomial(1, {(float("-inf"),): 1}), r"^exponents must be integers, got \(-inf,\)$"),
    ],
    ids=["negative-count", "infinite-count", "nan-count", "infinite-exponent", "minus-infinite-exponent"],
)
def test_a_negative_or_infinite_count_and_an_infinite_exponent_are_value_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


TOO_HIGH = f"exponent {2**32} is above the limit of {MAX_EXPONENT}"


def test_an_exponent_above_the_limit_is_refused_where_it_enters():
    from hopftrees import ParseError

    assert MAX_EXPONENT == 2**32 - 1
    top = Polynomial(2, {(MAX_EXPONENT, 0): 1})
    assert top.render() == "x1^4294967295" and top.coefficient((MAX_EXPONENT, 0)) == 1
    with pytest.raises(ValueError, match=TOO_HIGH):
        Polynomial(2, {(1, 2**32): 1})
    for text, position in (("x2 + 3*x1^4294967296", 5), ("x1^4294967295*x1 - x2", 0)):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, 2)
        assert (info.value.message, info.value.text, info.value.position) == (TOO_HIGH, text, position)
    assert top * parse_polynomial("x2^5", 2) == parse_polynomial("x1^4294967295*x2^5", 2)
    with pytest.raises(ValueError, match=TOO_HIGH):
        top * parse_polynomial("x1 + x2", 2)
    assert top.coefficient((2**32, 0)) == 0 and top.coefficient((MAX_EXPONENT,)) == 0


def test_a_tree_action_that_raises_an_exponent_past_the_limit_is_refused():
    f = Polynomial(1, {(MAX_EXPONENT,): 1})
    assert apply_tree_operator(t("(;(E1))"), ENV1, f) == MAX_EXPONENT * f  # E1 = x1 d/dx1 keeps the degree
    with pytest.raises(ValueError, match=TOO_HIGH):
        apply_tree_operator(t("(;(E2))"), ENV1, f)  # E2 = x1^2 d/dx1 raises it by one
    with pytest.raises(ValueError, match=TOO_HIGH):
        verify_composition(("E2",), ENV1, f)


def test_psi_apply_refuses_an_exponent_above_the_limit(tmp_path, capsys):
    env = tmp_path / "env.json"
    env.write_text('{"n": 1, "E1": ["x1"]}')
    code = main(["psi", "apply", "--env", str(env), "--tree", "(;(E1))", "--f", "x1^4294967296"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: {TOO_HIGH} at position 0\n  x1^4294967296\n  ^\n"
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [f"error: {TOO_HIGH} at position 0"]


def test_a_polynomial_never_mixes_with_a_plain_combination():
    plains = [LinearCombination(), lc((t("(;())"), 2))]
    polys = [Polynomial.zero(1), parse_polynomial("2*x1", 1)]
    for p in polys:
        for q in plains:
            assert p != q and q != p and not p == q and not q == p
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(p, q)
                with pytest.raises(TypeError):
                    op(q, p)
        for x in (p, *plains):
            for scalar in (0.5, "2", None):
                with pytest.raises(TypeError):
                    scalar * x
                with pytest.raises(TypeError):
                    x * scalar
    one, two = parse_polynomial("x1", 1), parse_polynomial("x1*x2", 2)
    assert Polynomial.zero(1) != Polynomial.zero(2)
    for op in (operator.add, operator.sub, operator.mul):
        for x, y in ((one, two), (two, one), (Polynomial.zero(1), Polynomial.zero(2))):
            with pytest.raises(ValueError, match="variable counts differ"):
                op(x, y)


def test_sums_merge_in_one_dict_and_drop_cancelled_terms():
    p = parse_polynomial("x1 + 2 - x1 + 1/2*x1^2 + 1/2*x1^2", 1)
    assert p.terms() == [((0,), 2), ((2,), 1)] and len(p) == 2
    assert type(p.terms()[0][1]) is int
    assert _sum_scaled([], Polynomial.zero(2)) == Polynomial.zero(2)
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


ORDERED_TREES = [tree for degree in range(5) for tree in ordered_labeled_trees(degree, ("E1", "E2"))]


@st.composite
def flat_actions(draw):
    """An ordered labeled tree of degree <= 4 over {E1, E2}, a derivation for
    each label and a polynomial in two variables, all with ``int`` or all with
    ``Fraction`` coefficients; E2 may be E1 turned a quarter, whose products
    with E1's cancel."""
    integral = draw(st.booleans())
    coeff = st.integers(-3, 3) if integral else st.fractions(min_value=-3, max_value=3, max_denominator=4)
    poly = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeff, min_size=1, max_size=3)
    p, q, r, s = (Polynomial(2, draw(poly)) for _ in range(4))
    e1 = Derivation((p, q))
    e2 = Derivation((q, -1 * p)) if draw(st.booleans()) else Derivation((r, s))
    return draw(st.sampled_from(ORDERED_TREES)), DerivationEnv(2, {"E1": e1, "E2": e2}), draw(poly), integral


@settings(derandomize=True, max_examples=60, deadline=None)
@given(flat_actions())
def test_the_fused_kernel_matches_the_index_sum_oracle(case):
    tree, env, terms, integral = case
    f = Polynomial(2, terms)
    value = apply_tree_operator(tree, env, f)
    assert value == tree_operator_by_index_sum(tree, env, f), tree.encode()
    assert all(value._terms.values()), "a zero coefficient survived"
    if integral:
        assert {type(c) for c in value._terms.values()} <= {int}


def test_word_to_trees_generator():
    assert word_to_trees(("E1",)) == lc((t("(;(E1))"), 1))


def test_word_to_trees_length_two():
    expected = lc((t("(;(E1)(E2))"), 1), (t("(;(E2;(E1)))"), 1))
    assert word_to_trees(("E1", "E2")) == expected


def test_word_to_trees_length_three_multiplicity():
    # per-step grafting counts: 2 trees, then 3 placements on each
    combo = word_to_trees(("E1", "E2", "E3"))
    assert combo.total_multiplicity() == 6


def test_word_to_trees_matches_the_product_expansion():
    letters = ("E1", "E2", "E3")
    for length in range(5):
        for word in itertools.product(letters, repeat=length):
            for symbols in (None, letters):
                got, expected = word_to_trees(word, symbols), word_to_trees_by_products(word, symbols)
                assert got == expected and list(got) == list(expected), (word, symbols)


@pytest.mark.parametrize(
    "word, symbols, error, message",
    [
        (("E1", "E 1"), None, ValueError, "symbol 'E 1' is not an identifier"),
        (("E1",), ("E1", "E 1"), ValueError, "symbol 'E 1' is not an identifier"),
        (("E1", "E4"), ("E1", "E2"), KeyError, "unknown derivation symbols ['E4']"),
    ],
)
def test_word_to_trees_refuses_as_the_product_expansion_did(word, symbols, error, message):
    for expand in (word_to_trees, word_to_trees_by_products):
        with pytest.raises(error) as raised:
            expand(word, symbols)
        assert raised.value.args == (message,)


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


@settings(derandomize=True, max_examples=25, deadline=2000)
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


def test_a_derivation_stores_its_coefficients_as_a_tuple():
    p = parse_polynomial("x1", 1)
    built = Derivation([p])
    assert built == Derivation((p,)) == Derivation(iter([p])) and built.coeffs == (p,)
    with pytest.raises(AttributeError):
        built.coeffs.append(p)
