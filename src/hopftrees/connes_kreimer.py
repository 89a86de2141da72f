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

the empty cut contributing ``1 (x) t``.  The pairing against the grafting tree
algebra is diagonal on isomorphism classes of forests, weighted by the order
of the forest's automorphism group; that normalization is what makes
``<pairing(t1 t2), a> = (pairing(t1) (x) pairing(t2))(Delta a)`` hold.

:func:`verify_forest_algebra` checks that identity and the bialgebra axioms.
It reads the forest algebra as a graded bialgebra over monomials (degree the
node count) and runs the shared checks of :mod:`hopftrees.axioms` on it.
"""

from __future__ import annotations

import itertools
import math

from .algebra import GradedHopfAlgebra, LinearCombination, TensorPair, check_budget, extend_bilinear
from . import axioms
from .trees import Forest, Tree, add_root, canonicalize, rooted_trees, strip_root


def admissible_cuts(t: Tree) -> list[tuple[Forest, Tree]]:
    """All (pruned forest, root part) splittings, the empty cut included.

    Built recursively: for each child edge, either remove it (the whole child
    subtree falls off) or keep it and cut the child subtree admissibly.
    """
    if t.ordered:
        raise ValueError("cuts are defined on unordered trees")
    t = canonicalize(t)

    def options(child: Tree) -> list[tuple[tuple[Tree, ...], Tree | None]]:
        return [((child,), None)] + [(cut.trees, kept) for cut, kept in admissible_cuts(child)]

    results: list[tuple[Forest, Tree]] = []
    for choice in itertools.product(*(options(c) for c in t.children)):
        pruned: list[Tree] = []
        kept_children: list[Tree] = []
        for fell, kept in choice:
            pruned.extend(fell)
            if kept is not None:
                kept_children.append(kept)
        results.append(
            (Forest.canonical(pruned), canonicalize(Tree(None, tuple(kept_children))))
        )
    return results


def _cut_count(t: Tree) -> int:
    """``len(admissible_cuts(t))``: each child edge is cut, or kept with its subtree cut admissibly."""
    return math.prod(1 + _cut_count(c) for c in t.children)


def monomial_product(a: Forest, b: Forest) -> Forest:
    """Multiset union; the commutative product of the forest algebra."""
    return Forest.canonical(a.trees + b.trees)


def forest_coproduct(m: Forest) -> LinearCombination:
    """Admissible-cut coproduct, extended multiplicatively to monomials."""
    _check_unlabeled(m.trees)
    check_budget(math.prod(1 + _cut_count(t) for t in m.trees), "cut coproduct")
    out = LinearCombination.single(TensorPair(Forest(), Forest()))
    for t in m.trees:
        out = _pairwise_union(out, _tree_coproduct(t))
    return out


def _tree_coproduct(t: Tree) -> LinearCombination:
    terms = [(TensorPair(cut, Forest.canonical([root])), 1) for cut, root in admissible_cuts(t)]
    return LinearCombination([(TensorPair(Forest.canonical([t]), Forest()), 1)] + terms)


def _pairwise_union(a: LinearCombination, b: LinearCombination) -> LinearCombination:
    def union(x: TensorPair, y: TensorPair) -> LinearCombination:
        return LinearCombination.single(
            TensorPair(monomial_product(x.left, y.left), monomial_product(x.right, y.right))
        )

    return extend_bilinear(union, a, b)


def _check_unlabeled(trees) -> None:
    for t in trees:
        if any(label is not None for label in t.labels()):
            raise ValueError(f"the forest algebra takes unlabeled trees, got {t.encode()}")


def forest_counit(m: Forest) -> int:
    return 1 if not m.trees else 0


def symmetry_factor(t: Tree) -> int:
    """Order of the automorphism group of a rooted tree.

    The product over nodes of ``prod_k (multiplicity of the k-th isomorphism
    class of child subtrees)!``: the automorphism count of the root's forest.
    """
    return forest_symmetry_factor(strip_root(t))


def forest_symmetry_factor(f: Forest) -> int:
    """Automorphism count of a forest: tree factors times multiplicity factorials."""
    f = Forest.canonical(f.trees)
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
    stripped = Forest.canonical(strip_root(canonicalize(t)).trees)
    if stripped != Forest.canonical(a.trees):
        return 0
    return forest_symmetry_factor(stripped)


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
        return LinearCombination.single(monomial_product(a, b))

    def coproduct(self, m: Forest) -> LinearCombination:
        return forest_coproduct(m)

    def describe(self) -> str:
        return "forest algebra with cut coproduct"


def verify_forest_algebra(max_degree: int) -> axioms.VerificationReport:
    """Sweep: commutativity/associativity/unit of the monomial product,
    coassociativity and counit of the cut coproduct, and the duality identity
    against the grafting product on trees.

    The product checks run on monomials (the empty one included) whose node
    counts sum to at most ``max_degree``, coassociativity on the single trees
    with at most ``max_degree + 1`` nodes.  Each product, coproduct, grafting
    product and pairing is computed once per call."""
    from .grossman_larson import ROOTED

    alg = axioms._SweepMemo(_ForestAlgebra())
    graft, pairing = axioms.memoize(ROOTED.product), axioms.memoize(dual_pairing)
    # each degree is listed once: its trees are its monomials under a root, in rooted_trees order;
    # the duality check grafts two single nodes even when max_degree < 0
    by_degree = [alg.basis(d) for d in range(max(max_degree, 0) + 1)]
    monomials = list(axioms.graded_tuples(by_degree, 1, 0, max_degree))
    trees = [(Forest.canonical([add_root(m)]),) for level in by_degree[:max_degree + 1] for m in level]
    report = axioms.VerificationReport(_ForestAlgebra().describe())
    for name, cases, holds in (
        ("commutativity", axioms.graded_tuples(by_degree, 2, 0, max_degree),
         lambda alg, a, b: alg.product(a, b) == alg.product(b, a)),
        ("associativity", axioms.graded_tuples(by_degree, 3, 0, max_degree), axioms.associative),
        ("unit", monomials, axioms.unital),
        ("coassociativity", trees, axioms.coassociative),
        ("counit", monomials, axioms.counital),
    ):
        axioms.check(report, alg, name, cases, holds)

    def dual(alg, t1: Tree, t2: Tree, a: Forest) -> bool:
        lhs = sum(coeff * pairing(s, a) for s, coeff in graft(t1, t2))
        rhs = sum(
            coeff * pairing(t1, pair.left) * pairing(t2, pair.right)
            for pair, coeff in alg.coproduct(a)
        )
        return lhs == rhs

    small = [add_root(m) for level in by_degree[:max(0, max_degree // 2) + 1] for m in level]
    axioms.check(
        report, alg, "grafting-duality",
        ((t1, t2, a) for t1 in small for t2 in small for a in by_degree[t1.degree() + t2.degree()]),
        dual,
        lambda t1, t2, a: f"({t1.encode()}, {t2.encode()}; {a.encode()})",
    )
    return report
