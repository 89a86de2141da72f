"""The generic axiom sweep: check counts, the per-sweep memo, failure reports, int coefficients."""

import gc
import itertools
import math
import weakref
from collections import Counter

import pytest

from hopftrees import (
    HEAP_ORDERED,
    HEAP_PRODUCT_ALGEBRA,
    ORDERED,
    ROOTED,
    CyclePermutation,
    Forest,
    ShuffleHopfAlgebra,
    TreeHopfAlgebra,
    Word,
    dual_pairing,
    forest_coproduct,
    forest_counit,
    graded_antipode,
    labeled_algebra,
    perm_counit,
    verify_forest_algebra,
    word_counit,
)
from hopftrees import axioms
from hopftrees.algebra import GradedHopfAlgebra
from hopftrees.connes_kreimer import _ForestAlgebra
from helpers import t

ROOTED_SIZES = [1, 1, 2, 4, 9, 20, 48, 115]  # rooted trees with d + 1 nodes (OEIS A000081)
TWO_COLOUR_FORESTS = [1, 2, 7, 26]  # forests of 2-coloured rooted trees with d nodes


def catalan(d: int) -> int:
    return math.comb(2 * d, d) // (d + 1)


def sweep_counts(size, max_degree: int) -> dict[str, int]:
    """Closed forms of the generic sweep's check counts from the basis sizes."""
    b = [size(d) for d in range(max_degree + 1)]
    per_element = sum(b)

    def tuples(arity):
        degrees = itertools.product(range(1, max_degree + 1), repeat=arity)
        return [combo for combo in degrees if sum(combo) <= max_degree + 1]

    return {
        "unit": per_element,
        "associativity": sum(math.prod(b[d] for d in combo) for combo in tuples(3)),
        "coassociativity": per_element,
        "counit": per_element,
        "compatibility": sum(math.prod(b[d] for d in combo) for combo in tuples(2)),
        "antipode": per_element,
    }


def forest_counts(max_degree: int) -> dict[str, int]:
    """Closed forms of the forest sweep's check counts; monomials with ``n``
    nodes are as many as rooted trees with ``n + 1`` nodes."""
    m, top, half = ROOTED_SIZES, max_degree, max_degree // 2
    return {
        "commutativity": sum(m[i] * m[j] for i in range(top + 1) for j in range(top + 1 - i)),
        "associativity": sum(
            m[i] * m[j] * m[k]
            for i in range(top + 1)
            for j in range(top + 1 - i)
            for k in range(top + 1 - i - j)
        ),
        "unit": sum(m[: top + 1]),
        "coassociativity": sum(m[: top + 1]),
        "counit": sum(m[: top + 1]),
        "grafting-duality": sum(
            m[d1] * m[d2] * m[d1 + d2] for d1 in range(half + 1) for d2 in range(half + 1)
        ),
    }


def counts(report) -> dict[str, int]:
    return {c.name: c.checked for c in report.checks}


SWEEPS = [
    ("rooted", ROOTED, lambda d: ROOTED_SIZES[d], 4),
    ("ordered", ORDERED, catalan, 4),
    ("heap-ordered", HEAP_ORDERED, math.factorial, 3),
    ("labeled", labeled_algebra(("E1", "E2")), lambda d: TWO_COLOUR_FORESTS[d], 3),
    ("ordered labeled", labeled_algebra(("E1", "E2"), ordered=True), lambda d: 2**d * catalan(d), 3),
    ("shuffle", ShuffleHopfAlgebra(("a", "b")), lambda d: 2**d, 4),
    ("permutations", HEAP_PRODUCT_ALGEBRA, math.factorial, 3),
]


@pytest.mark.parametrize("name, alg, size, top", SWEEPS, ids=[s[0] for s in SWEEPS])
def test_check_counts_equal_the_closed_forms(name, alg, size, top):
    for degree in range(top + 1):
        report = alg.verify(degree)
        assert report.passed, report.render()
        assert counts(report) == sweep_counts(size, degree)


def test_forest_check_counts_equal_the_closed_forms():
    # pairs and triples are built by degree, not filtered from every monomial tuple
    assert [forest_counts(7)[name] for name in ("commutativity", "associativity", "grafting-duality")] \
        == [790, 2149, 1257]
    for degree in range(8):
        report = verify_forest_algebra(degree)
        assert report.passed, report.render()
        assert counts(report) == forest_counts(degree)


@pytest.mark.parametrize("arity, lowest, cap", [(1, 0, 3), (2, 0, 4), (3, 0, 3), (2, 1, 5), (3, 1, 5)])
def test_graded_tuples_are_the_degree_capped_products_in_degree_groups(arity, lowest, cap):
    basis = {d: [f"{d}{c}" for c in "ab"[: 1 + d % 2]] for d in range(cap + 1)}
    tuples = list(axioms.graded_tuples(basis, arity, lowest, cap))
    elements = [x for d in range(lowest, cap + 1) for x in basis[d]]
    degree = lambda combo: tuple(int(x[0]) for x in combo)
    expected = [c for c in itertools.product(elements, repeat=arity) if sum(degree(c)) <= cap]
    # grouped by the degree tuple, in basis order within a group (the sort is stable)
    assert tuples == sorted(expected, key=degree)


def product_with_a_stray_node(product):
    """The forest product, with one node too many whenever ``(;())`` multiplies
    a two-node monomial from the left."""
    dot = Forest.canonical([t("()")])

    def wrong(a, b):
        out = product(a, b)
        return product(out, dot) if a.encode() == "(;())" and b.node_count() == 2 else out

    return wrong


def coproduct_doubled_on_the_cherry(coproduct):
    def wrong(m):
        out = coproduct(m)
        return out + out if m.encode() == "(;()())" else out

    return wrong


# The reports these faults gave when the forest sweep had its own loops.
WRONG_FOREST_REPORTS = [
    (
        "monomial_product", product_with_a_stray_node,
        "verification of forest algebra with cut coproduct:\n"
        "  commutativity: FAIL (124 checks) first counterexample: (()*(), (;()))\n"
        "  associativity: FAIL (293 checks) first counterexample: ((), (;()), ()*())\n"
        "  unit: ok (37 checks)\n"
        "  coassociativity: FAIL (37 checks) first counterexample: (;(;())(;()))\n"
        "  counit: FAIL (37 checks) first counterexample: (;())*(;())\n"
        "  grafting-duality: ok (65 checks)\n"
        "result: FAIL",
    ),
    (
        "forest_coproduct", coproduct_doubled_on_the_cherry,
        "verification of forest algebra with cut coproduct:\n"
        "  commutativity: ok (124 checks)\n"
        "  associativity: ok (293 checks)\n"
        "  unit: ok (37 checks)\n"
        "  coassociativity: FAIL (37 checks) first counterexample: (;()())\n"
        "  counit: FAIL (37 checks) first counterexample: (;()())\n"
        "  grafting-duality: FAIL (65 checks) first counterexample: ((;()), (;(;())); (;()()))\n"
        "result: FAIL",
    ),
]


@pytest.mark.parametrize("name, wrong, expected", WRONG_FOREST_REPORTS, ids=[w[0] for w in WRONG_FOREST_REPORTS])
def test_a_wrong_forest_algebra_fails_with_the_same_report(monkeypatch, name, wrong, expected):
    from hopftrees import connes_kreimer

    monkeypatch.setattr(connes_kreimer, name, wrong(getattr(connes_kreimer, name)))
    assert verify_forest_algebra(5).render() == expected


def test_a_sweep_refuses_an_over_budget_basis_before_building_the_others():
    built = []

    class Recording(ShuffleHopfAlgebra):
        def basis(self, degree):
            built.append(degree)
            return super().basis(degree)

    with pytest.raises(ValueError, match="shuffle basis of degree 8 would enumerate 16777216 terms"):
        Recording(tuple("abcdefgh")).verify(8)
    assert built == [8]


class OnePairWrong(TreeHopfAlgebra):
    """The rooted tree algebra with one product doubled."""

    def product(self, a, b):
        out = super().product(a, b)
        return out + out if (a.encode(), b.encode()) == ("(;())", "(;(;()))") else out


class WrongShuffle(ShuffleHopfAlgebra):
    """The shuffle algebra with one product doubled."""

    def product(self, u, v):
        out = super().product(u, v)
        return out + out if (u.encode(), v.encode()) == ("b", "a") else out


# The reports these algebras gave before the sweep kept its products in a memo.
WRONG_REPORTS = [
    (
        lambda: OnePairWrong().verify(3, "one wrong pair"),
        "verification of one wrong pair:\n"
        "  unit: ok (8 checks)\n"
        "  associativity: FAIL (7 checks) first counterexample: ((;()), (;()), (;()))\n"
        "  coassociativity: ok (8 checks)\n"
        "  counit: ok (8 checks)\n"
        "  compatibility: FAIL (17 checks) first counterexample: ((;()), (;(;())))\n"
        "  antipode: FAIL (8 checks) first counterexample: (;()()())\n"
        "result: FAIL",
    ),
    (
        lambda: WrongShuffle(("a", "b")).verify(3),
        "verification of shuffle algebra on {a, b}:\n"
        "  unit: ok (15 checks)\n"
        "  associativity: FAIL (56 checks) first counterexample: (a, b, a)\n"
        "  coassociativity: ok (15 checks)\n"
        "  counit: ok (15 checks)\n"
        "  compatibility: FAIL (68 checks) first counterexample: (b, a)\n"
        "  antipode: FAIL (15 checks) first counterexample: a.b.a\n"
        "result: FAIL",
    ),
]


@pytest.mark.parametrize("sweep, expected", WRONG_REPORTS)
def test_a_wrong_product_fails_with_the_same_report(sweep, expected):
    assert sweep().render() == expected


class CountingAlgebra:
    """Delegates to an algebra and counts each product and coproduct call."""

    def __init__(self, alg):
        self.alg = alg
        self.calls = Counter()

    def unit(self):
        return self.alg.unit()

    def degree(self, element):
        return self.alg.degree(element)

    def basis(self, degree):
        return self.alg.basis(degree)

    def counit(self, element):
        return self.alg.counit(element)

    def product(self, a, b):
        self.calls["product", a, b] += 1
        return self.alg.product(a, b)

    def coproduct(self, element):
        self.calls["coproduct", element] += 1
        return self.alg.coproduct(element)


@pytest.mark.parametrize("alg", [ROOTED, ShuffleHopfAlgebra(("a", "b")), HEAP_PRODUCT_ALGEBRA])
def test_a_sweep_computes_each_product_and_coproduct_once(alg):
    counting = CountingAlgebra(alg)
    report = axioms.verify_hopf_axioms(counting, 3, "counted")
    assert report.passed, report.render()
    assert counting.calls and set(counting.calls.values()) == {1}


def test_the_memo_does_not_outlive_the_sweep(monkeypatch):
    memos = []

    class Watched(axioms._SweepMemo):
        def __init__(self, alg):
            super().__init__(alg)
            memos.append(weakref.ref(self))

    monkeypatch.setattr(axioms, "_SweepMemo", Watched)
    cache_before = graded_antipode.cache_info()
    gc.disable()  # the memo must go by reference counting, not by a collection
    try:
        report = ROOTED.verify(3)
        assert len(memos) == 1 and memos[0]() is None
    finally:
        gc.enable()
    assert report.passed
    assert graded_antipode.cache_info() == cache_before


def test_the_derived_counit_is_each_algebras_own_up_to_degree_four():
    own = [(ShuffleHopfAlgebra(("a", "b")), word_counit), (HEAP_PRODUCT_ALGEBRA, perm_counit),
           (_ForestAlgebra(), forest_counit)]
    own += [(alg, alg.counit) for alg in (ROOTED, ORDERED, HEAP_ORDERED, labeled_algebra(["E1", "E2"]),
                                          labeled_algebra(["E1", "E2"], ordered=True))]
    for alg, counit in own:
        for degree in range(5):
            for x in alg.basis(degree):
                assert GradedHopfAlgebra.counit(alg, x) == counit(x) == (x == alg.unit()), (alg, x)


def coefficients(*combos):
    return [c for combo in combos for _, c in combo]


def test_hopf_algebra_results_carry_int_coefficients():
    x, y = t("(;()(;()))"), t("(;(;())())")
    s, p = CyclePermutation.from_cycles([(1, 2), (3,)]), CyclePermutation.from_cycles([(1,), (2,)])
    u, v = Word(("a", "b")), Word(("b",))
    shuffle = ShuffleHopfAlgebra(("a", "b"))
    combos = [
        ROOTED.product(x, y), ROOTED.coproduct(x), ROOTED.antipode(y),
        HEAP_ORDERED.antipode(t("(;(1;(3))(2))")),
        shuffle.product(u, v), shuffle.coproduct(u), shuffle.antipode(u),
        HEAP_PRODUCT_ALGEBRA.product(s, p), HEAP_PRODUCT_ALGEBRA.coproduct(s),
        HEAP_PRODUCT_ALGEBRA.antipode(s),
        forest_coproduct(Forest.canonical([x, y])),
    ]
    assert all(combos)
    assert all(type(c) is int for c in coefficients(*combos))
    cherry_pairing = dual_pairing(t("(;()())"), Forest.canonical([t("()"), t("()")]))
    assert (forest_counit(Forest()), cherry_pairing) == (1, 2)
    scalars = [
        ROOTED.counit(x), ROOTED.counit(t("()")), shuffle.counit(u), HEAP_PRODUCT_ALGEBRA.counit(s),
        forest_counit(Forest()), cherry_pairing, dual_pairing(x, Forest()),
        ROOTED.product(x, y).coefficient(t("()")),
    ]
    assert all(type(c) is int for c in scalars)
