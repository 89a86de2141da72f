"""Refusals that no other in-process test reaches: each call names its fault.

Each row is a call the library refuses, with the exception's exact type and
its full message (a ``KeyError``'s argument, as ``str`` quotes it).
"""

import pytest

from hopftrees import (
    Connection,
    Derivation,
    DerivationEnv,
    Forest,
    ParseError,
    admissible_cuts,
    apply_tree_operator,
    dual_pairing,
    forest_coproduct,
    heap_product,
    labeled_trees,
    parse_polynomial,
    parse_tree,
    parse_word,
    permutation_to_tree,
    relabel,
    subtree_derivation,
    verify_composition,
    word_count,
)
from hopftrees.permutations import CyclePermutation

X1 = parse_polynomial("x1", 1)
X1_OF_2 = parse_polynomial("x1", 2)
ENV1 = DerivationEnv(1, {"E1": Derivation((X1,))})
FIELD2 = Derivation((X1_OF_2, parse_polynomial("x2", 2)))
CHERRY_ORDERED = parse_tree("(;())", ordered=True)
FIXED_TWO = CyclePermutation(((2,),))  # a permutation of {2}, not of {1}

REFUSALS = [
    ("christoffel-entry-variables", lambda: Connection(2, {(1, 1, 1): X1}),
     ValueError, "Christoffel entry has the wrong variable count"),
    ("christoffel-key", lambda: Connection.from_dict({"n": 2, "gamma": {"1,1": "1"}}),
     ValueError, "bad Christoffel key '1,1'; expected 'i,j,k'"),
    ("subtree-unlabeled-node", lambda: subtree_derivation(parse_tree("(E1;())", ordered=True), ENV1, Connection.flat(1)),
     ValueError, "every node below the root must carry a derivation symbol"),
    ("cuts-ordered", lambda: admissible_cuts(CHERRY_ORDERED),
     ValueError, "cuts are defined on unordered trees"),
    ("pairing-ordered", lambda: dual_pairing(CHERRY_ORDERED, Forest()),
     ValueError, "the pairing is defined on unordered trees"),
    ("forest-coproduct-labeled", lambda: forest_coproduct(Forest((parse_tree("(E1)"),))),
     ValueError, "the forest algebra takes unlabeled trees, got (E1)"),
    ("derivation-apply-variables", lambda: FIELD2.apply(X1),
     ValueError, "variable counts differ"),
    ("tree-operator-variables", lambda: apply_tree_operator(parse_tree("(;(E1))"), ENV1, X1_OF_2),
     ValueError, "variable counts differ"),
    ("composition-variables", lambda: verify_composition(["E1"], ENV1, X1_OF_2),
     ValueError, "variable counts differ"),
    ("env-variables", lambda: DerivationEnv(1, {"E1": FIELD2}),
     ValueError, "derivation E1 has the wrong variable count"),
    ("env-unknown-symbol", lambda: ENV1["E9"],
     KeyError, "unknown derivation symbol 'E9'"),
    ("tree-operator-labeled-root", lambda: apply_tree_operator(parse_tree("(E1)"), ENV1, X1),
     ValueError, "the root of an operator tree must be unlabeled"),
    ("relabel-overlapping", lambda: relabel([(1, 2), (2, 3)]),
     ValueError, "cycles are not disjoint"),
    ("heap-product-domain", lambda: heap_product(FIXED_TWO, FIXED_TWO),
     ValueError, "heap product expects permutations of {1..n}"),
    ("permutation-to-tree-domain", lambda: permutation_to_tree(FIXED_TWO),
     ValueError, "expected a permutation of {1..n}"),
    ("derivative-index", lambda: parse_polynomial("x1*x2", 2).derivative(3),
     ValueError, "variable index 3 out of range 1..2"),
    ("polynomial-empty-factor", lambda: parse_polynomial("3**x1", 1),
     ParseError, "empty factor at position 2\n  3**x1\n    ^"),
    ("word-count-letter-degree", lambda: word_count([("a", 0)], 2),
     ValueError, "letter degrees must be positive"),
    ("word-count-total-degree", lambda: word_count([("a", 1)], -1),
     ValueError, "total degree must be >= 0"),
    ("blank-word", lambda: parse_word("  "),
     ParseError, "empty word must be written '1' at position 0\n    \n  ^"),
    ("labeled-trees-no-symbols", lambda: labeled_trees(1, []),
     ValueError, "labeled enumeration needs a nonempty symbol set"),
]


@pytest.mark.parametrize("call, kind, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_each_refusal_names_its_fault(call, kind, message):
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is kind
    assert (caught.value.args[0] if kind is KeyError else str(caught.value)) == message

