"""The plain record classes: value equality, hashing, repr, pickling, (im)mutability.

Five are immutable and hashable values (``Forest``, the three algebra
adapters, and ``Cut`` from the edge-subset cut oracle in ``helpers``) and five are mutable, unhashable records (the reports and
results).  Their equality, hashes and reprs are those of the dataclasses they
replace: same class and equal fields in order, ``hash`` of the field tuple,
and ``Name(field=value, ...)``.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from hopftrees import (
    HEAP_ORDERED,
    HEAP_PRODUCT_ALGEBRA,
    ROOTED,
    CompositionCheck,
    DerivationEnv,
    Forest,
    ShuffleHopfAlgebra,
    TreeHopfAlgebra,
    VerificationReport,
    expand_operator,
    graded_antipode,
    labeled_algebra,
    parse_polynomial,
    verify_composition,
)
from hopftrees.axioms import AxiomCheck
from hopftrees.diff_ops import OperatorExpansion, OperatorTerm
from hopftrees.permutations import PermutationHopfAlgebra
from helpers import Cut, lc, ot, t


def values():
    """(instance, an equal instance built apart, a different instance, repr) per value class."""
    return [
        (Forest((t("(;())"), t("()"))), Forest(trees=(t("(;())"), t("()"))), Forest((t("()"),)),
         "Forest(trees=(Tree('()', ordered=False), Tree('(;())', ordered=False)))"),
        (Cut(frozenset({(0,), (1, 0)})), Cut(removed_edges=frozenset({(1, 0), (0,)})),
         Cut(frozenset()), "Cut(removed_edges=frozenset({(0,), (1, 0)}))"),
        (labeled_algebra(["E1", "E2"], ordered=True),
         TreeHopfAlgebra(ordered=True, symbols=("E1", "E2")), labeled_algebra(["E1", "E2"]),
         "TreeHopfAlgebra(ordered=True, heap=False, symbols=('E1', 'E2'))"),
        (HEAP_PRODUCT_ALGEBRA, PermutationHopfAlgebra(), ROOTED, "PermutationHopfAlgebra()"),
        (ShuffleHopfAlgebra(("x1", "x2")), ShuffleHopfAlgebra(letters=("x1", "x2")),
         ShuffleHopfAlgebra(("x2", "x1")), "ShuffleHopfAlgebra(letters=('x1', 'x2'))"),
    ]


ENV = DerivationEnv.from_dict({"n": 1, "E1": ["x1"]})


def records():
    """(instance, an equal instance built apart, a different instance, repr) per record class."""
    square = parse_polynomial("x1^2", 1)
    expansion = expand_operator([(1, ("E1", "E2")), (-1, ("E2", "E1"))], ["E1", "E2"])
    return [
        (AxiomCheck("unit", 3, True), AxiomCheck("unit", 3, True, None),
         AxiomCheck("unit", 3, False, "()"),
         "AxiomCheck(name='unit', checked=3, passed=True, counterexample=None)"),
        (VerificationReport("alg", [AxiomCheck("unit", 1, True)]),
         VerificationReport(algebra="alg", checks=[AxiomCheck("unit", 1, True)]),
         VerificationReport("alg"),
         "VerificationReport(algebra='alg', checks=[AxiomCheck(name='unit', checked=1, "
         "passed=True, counterexample=None)])"),
        (OperatorTerm(Fraction(1, 2), t("(;(E1))"), ("a",)),
         OperatorTerm(coeff=Fraction(1, 2), tree=t("(;(E1))"), factors=("a",)),
         OperatorTerm(1, t("(;(E1))"), ("a",)),
         "OperatorTerm(coeff=Fraction(1, 2), tree=Tree('(;(E1))', ordered=False), factors=('a',))"),
        (expansion, expand_operator([(1, ("E1", "E2")), (-1, ("E2", "E1"))], ["E1", "E2"]),
         OperatorExpansion(4, expansion.surviving, []),
         f"OperatorExpansion(raw_tree_count=4, surviving={expansion.surviving!r}, "
         f"terms={expansion.terms!r})"),
        (verify_composition(("E1",), ENV, square), CompositionCheck(True, 2 * square, 2 * square),
         CompositionCheck(False, 2 * square, square),
         "CompositionCheck(ok=True, tree_side=Polynomial(1, '2*x1^2'), "
         "nested_side=Polynomial(1, '2*x1^2'))"),
    ]


CASES = values() + records()


@pytest.mark.parametrize("value, same, other, text", CASES, ids=lambda x: type(x).__name__)
def test_equality_repr_and_pickling(value, same, other, text):
    assert value == same and not value != same
    assert value != other
    assert value != (value,) and value.__eq__(object()) is NotImplemented
    assert repr(value) == text
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is type(value) and copied == value


@pytest.mark.parametrize("value, same, other, text", values(), ids=lambda x: type(x).__name__)
def test_values_are_immutable_and_hash_by_their_fields(value, same, other, text):
    assert hash(value) == hash(same) == hash(tuple(getattr(value, n) for n in value.__slots__))
    assert len({value, same, other}) == 2
    name = value.__slots__[0] if value.__slots__ else "anything"
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", 1)
    if value.__slots__:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same


@pytest.mark.parametrize("value, same, other, text", records(), ids=lambda x: type(x).__name__)
def test_records_are_mutable_and_unhashable(value, same, other, text):
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)
    name = value.__slots__[0]
    setattr(same, name, getattr(other, name))
    assert getattr(same, name) == getattr(other, name)
    with pytest.raises(AttributeError):
        same.extra = 1


def test_forest_and_algebra_defaults():
    assert Forest() == Forest(()) and Forest().trees == () and Forest().encode() == "1"
    assert ROOTED == TreeHopfAlgebra(False, False, ())
    assert HEAP_ORDERED == TreeHopfAlgebra(heap=True)
    assert VerificationReport("x").checks == []
    assert VerificationReport("x").checks is not VerificationReport("x").checks


@pytest.mark.parametrize("kwargs", [{"heap": True, "ordered": True}, {"heap": True, "symbols": ("E1",)}])
def test_a_heap_algebra_of_another_flavor_is_refused(kwargs):
    with pytest.raises(ValueError, match="heap-ordered flavor uses unordered trees"):
        TreeHopfAlgebra(**kwargs)


def test_equal_labeled_algebras_share_antipode_cache_entries():
    tree = ot("(;(E1;(E2))(E2))")
    first, second = labeled_algebra(["E1", "E2"], ordered=True), labeled_algebra(("E1", "E2"), True)
    assert first is not second and first == second and hash(first) == hash(second)
    graded_antipode.cache_clear()
    value = graded_antipode(first, tree)
    before = graded_antipode.cache_info()
    assert graded_antipode(second, tree) is value
    after = graded_antipode.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_a_report_takes_appended_and_renamed_checks():
    combined = VerificationReport("sweep")
    for flavor, alg in (("rooted", ROOTED), ("labeled", labeled_algebra(["E1"]))):
        for check in alg.verify(2).checks:
            check.name = f"{flavor}/{check.name}"
            combined.checks.append(check)
    assert [c.name for c in combined.checks][:2] == ["rooted/unit", "rooted/associativity"]
    assert len(combined.checks) == 12 and combined.passed
    combined.checks[-1].passed = False
    assert not combined.passed
    assert combined.render().endswith("labeled/antipode: FAIL (4 checks)\nresult: FAIL")


def test_a_cut_is_used_by_value():
    cut = Cut(frozenset({(0,)}))
    assert cut.is_admissible() and {cut: 1}[Cut(frozenset({(0,)}))] == 1
    assert lc((Forest((t("()"),)), 1)) == lc((Forest([t("()")]), 1))
