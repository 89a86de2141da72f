"""The commutative forest algebra with the admissible-cut coproduct.

Monomials are multisets of unordered unlabeled rooted trees (:class:`Forest`
with the empty forest as unit).  The monomials with ``n`` nodes are exactly
the rooted trees with ``n + 1`` nodes, root removed, and that is how
:func:`forest_monomials` lists them.

A cut of a tree is a set of removed edges; it is admissible when no
root-to-leaf path loses more than one edge.  Each admissible cut splits a
tree into the pruned forest (the pieces that fell off) and the part still
containing the root, and the coproduct of a tree is

    Delta(t) = t (x) 1  +  sum over admissible cuts  pruned (x) root-part,

the empty cut contributing ``1 (x) t``.  One recursion gives both: a tree falls
whole or is cut, so its cuts multiply its children's splits, and a monomial's
coproduct its trees' splits (``Delta B+ = B+ (x) 1 + (id (x) B+) Delta``,
Connes-Kreimer 1998).  The pairing against the grafting tree algebra is
diagonal, ``<B+(m), m'> = [m = m'] |Aut m|`` with ``|Aut m|`` the order of
the forest's automorphism group (Panaite 2000; Hoffman 2003), so the duality
``<t1 t2, a> = (<t1, .> (x) <t2, .>)(Delta a)`` is one identity between the
grafting and the coproduct tables,

    g(m1, m2; a) |Aut a| = Delta(a)[m1 (x) m2] |Aut m1| |Aut m2|,

with ``g(m1, m2; a)`` the coefficient of ``B+(a)`` in ``B+(m1) B+(m2)``.
:func:`verify_forest_algebra` checks that identity and the bialgebra axioms.
It reads the forest algebra as a graded bialgebra over monomials (degree the
node count) and runs the shared checks of :mod:`hopftrees.axioms` on it.
"""

from __future__ import annotations

import itertools
import math

from .algebra import _PLAIN, GradedHopfAlgebra, LinearCombination, TensorPair, _collect, check_budget
from . import axioms
from .trees import Forest, Tree, add_root, attach_all, rooted_trees, strip_root


def admissible_cuts(t: Tree) -> list[tuple[Forest, Tree]]:
    """All (pruned forest, root part) splittings, the empty cut included: the
    product of the children's splits, whose fallen pieces form the forest and
    whose kept parts go back under the root."""
    if t.ordered:
        raise ValueError("cuts are defined on unordered trees")
    results: list[tuple[Forest, Tree]] = []
    for choice in itertools.product(*map(_falls_or_is_cut, t.children)):
        pruned, kept = [], []
        for fell, root in choice:
            pruned += fell
            kept += root
        results.append((Forest(pruned), Tree(None, kept)))
    return results


def _falls_or_is_cut(t: Tree) -> list[tuple[tuple[Tree, ...], tuple[Tree, ...]]]:
    """The (fallen, kept) splits of one tree: it falls whole, or an admissible cut keeps its root part."""
    return [((t,), ())] + [(cut.trees, (root,)) for cut, root in admissible_cuts(t)]


def _cut_count(t: Tree) -> int:
    """``len(admissible_cuts(t))``: each child edge is cut, or kept with its subtree cut admissibly."""
    return math.prod(1 + _cut_count(c) for c in t.children)


def monomial_product(a: Forest, b: Forest) -> Forest:
    """Multiset union; the commutative product of the forest algebra."""
    return Forest(a.trees + b.trees)


def forest_coproduct(m: Forest) -> LinearCombination:
    """Admissible-cut coproduct, extended multiplicatively to monomials: each
    tree's splits merge, then multiply into the product of the trees before."""
    _check_unlabeled(m.trees)
    check_budget(math.prod(1 + _cut_count(t) for t in m.trees), "cut coproduct")
    out = {TensorPair(Forest(), Forest()): 1}
    for t in m.trees:
        splits = _collect((TensorPair(Forest(fell), Forest(kept)), 1) for fell, kept in _falls_or_is_cut(t))
        out = _collect((TensorPair(monomial_product(x.left, y.left), monomial_product(x.right, y.right)), cx * cy)
                       for x, cx in out.items() for y, cy in splits.items())
    return _PLAIN._new(out)


def _check_unlabeled(trees) -> None:
    for t in trees:
        if any(label is not None for label in t.labels()):
            raise ValueError(f"the forest algebra takes unlabeled trees, got {t.encode()}")


def symmetry_factor(t: Tree) -> int:
    """Order of the automorphism group of a rooted tree.

    The product over nodes of ``prod_k (multiplicity of the k-th isomorphism
    class of child subtrees)!``: the automorphism count of the root's forest.
    """
    return forest_symmetry_factor(strip_root(t))


def forest_symmetry_factor(f: Forest) -> int:
    """Automorphism count of a forest: tree factors times multiplicity factorials."""
    factor = 1
    counts: dict[str, int] = {}
    for t in f.trees:
        counts[t.encode()] = counts.get(t.encode(), 0) + 1
        factor *= symmetry_factor(t)
    for mult in counts.values():
        factor *= math.factorial(mult)
    return factor


def dual_pairing(t: Tree, a: Forest) -> int:
    """Pairing of a tree against a forest monomial.

    Nonzero only when the root-stripped forest of ``t`` is isomorphic to ``a``,
    in which case the value is the automorphism count of that forest.
    """
    if t.ordered:
        raise ValueError("the pairing is defined on unordered trees")
    _check_unlabeled((t,) + a.trees)
    return forest_symmetry_factor(a) if strip_root(t) == a else 0


def forest_monomials(total_nodes: int) -> list[Forest]:
    """All forest monomials with the given total node count: the rooted trees
    with one node more, root removed (so the rooted-tree degree cap applies)."""
    return sorted(map(strip_root, rooted_trees(total_nodes)), key=Forest.encode)


class _ForestAlgebra(GradedHopfAlgebra):
    """The forest algebra as a graded bialgebra.  The methods call the module
    functions by their global names, so wrappers put on the module see them."""

    __slots__ = ()

    def unit(self) -> Forest:
        return Forest()

    def degree(self, m: Forest) -> int:
        return m.node_count()

    def basis(self, degree: int) -> list[Forest]:
        return forest_monomials(degree)

    def product(self, a: Forest, b: Forest) -> LinearCombination:
        return _PLAIN._new({monomial_product(a, b): 1})

    def coproduct(self, m: Forest) -> LinearCombination:
        return forest_coproduct(m)

    def describe(self) -> str:
        return "forest algebra with cut coproduct"


def verify_forest_algebra(max_degree: int) -> axioms.VerificationReport:
    """Sweep: commutativity/associativity/unit of the monomial product,
    coassociativity and counit of the cut coproduct, and the duality against
    the grafting product on trees.

    The product checks run on monomials (the empty one included) whose node
    counts sum to at most ``max_degree``, coassociativity on the single trees
    with at most ``max_degree + 1`` nodes, all read from the integer tables of
    one :class:`~hopftrees.axioms._SweepMemo`.  The duality is the module's
    identity between two tables: the grafting products ``m1`` onto ``B+(m2)``
    and the memo's coproducts, each weighted by automorphism counts, as the
    pairing is diagonal.  Each table entry is computed once per call."""
    memo = axioms._SweepMemo(_ForestAlgebra())
    # each degree is listed once: its trees are its monomials under a root, in rooted_trees order;
    # the duality check grafts two single nodes even when max_degree < 0
    by_degree = [list(map(memo.number, memo.alg.basis(d))) for d in range(max(max_degree, 0) + 1)]
    aut = list(map(forest_symmetry_factor, memo.elems))  # by index, as the monomials are all numbered
    monomials = list(axioms.graded_tuples(by_degree, 1, 0, max_degree))
    trees = [(memo.number(Forest((add_root(memo.elems[m]),))),) for (m,) in monomials]
    small = [m for level in by_degree[:max(0, max_degree // 2) + 1] for m in level]
    graft = {(m1, m2): attach_all(memo.elems[m1], add_root(memo.elems[m2])) for m1 in small for m2 in small}

    def dual(memo, m1: int, m2: int, a: int) -> bool:
        # B+(m1) B+(m2) pairs with a only through its term B+(a), and Delta(a) only through m1 (x) m2
        return (graft[m1, m2].coefficient(add_root(memo.elems[a])) * aut[a]
                == memo.coproduct(a).get((m1, m2), 0) * aut[m1] * aut[m2])

    return axioms.sweep(memo, memo.alg.describe(), (
        ("commutativity", axioms.graded_tuples(by_degree, 2, 0, max_degree),
         lambda memo, a, b: memo.product(a, b) == memo.product(b, a)),
        ("associativity", axioms.graded_tuples(by_degree, 3, 0, max_degree), axioms.associative),
        ("unit", monomials, axioms.unital),
        ("coassociativity", trees, axioms.coassociative),
        ("counit", monomials, axioms.counital),
        ("grafting-duality",
         ((m1, m2, a) for m1 in small for m2 in small for a in by_degree[memo.degrees[m1] + memo.degrees[m2]]),
         dual,
         lambda m1, m2, a: f"({add_root(m1).encode()}, {add_root(m2).encode()}; {a.encode()})"),
    ))
