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
``<pairing(t1 t2), a> = (pairing(t1) (x) pairing(t2))(Delta a)`` hold, and the
brute-force sweep in the tests is the contract for it.
"""

from __future__ import annotations

import itertools
import math

from .algebra import LinearCombination, TensorPair, extend_bilinear
from . import axioms
from .trees import Forest, Tree, canonicalize, rooted_trees, strip_root


def admissible_cuts(t: Tree) -> list[tuple[Forest, Tree]]:
    """All (pruned forest, root part) splittings, the empty cut included.

    Built recursively: for each child edge, either remove it (the whole child
    subtree falls off) or keep it and cut the child subtree admissibly.
    """
    if t.ordered:
        raise ValueError("cuts are defined on unordered trees")
    t = canonicalize(t)

    def options(child: Tree) -> list[tuple[tuple[Tree, ...], Tree | None]]:
        out: list[tuple[tuple[Tree, ...], Tree | None]] = [((child,), None)]
        for pruned, kept in admissible_cuts(child):
            out.append((pruned.trees, kept))
        return out

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


def monomial_product(a: Forest, b: Forest) -> Forest:
    """Multiset union; the commutative product of the forest algebra."""
    return Forest.canonical(a.trees + b.trees)


def forest_coproduct(m: Forest) -> LinearCombination:
    """Admissible-cut coproduct, extended multiplicatively to monomials."""
    _check_unlabeled(m.trees)
    out = LinearCombination.single(TensorPair(Forest(), Forest()))
    for t in m.trees:
        single = _tree_coproduct(t)
        out = _pairwise_union(out, single)
    return out


def _tree_coproduct(t: Tree) -> LinearCombination:
    terms: list[tuple[TensorPair, int]] = [(TensorPair(Forest.canonical([t]), Forest()), 1)]
    for pruned, root_part in admissible_cuts(t):
        terms.append((TensorPair(pruned, Forest.canonical([root_part])), 1))
    return LinearCombination(terms)


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


def verify_forest_algebra(max_degree: int) -> axioms.VerificationReport:
    """Sweep: commutativity/associativity/unit of the monomial product,
    coassociativity and counit of the cut coproduct, and the duality identity
    against the grafting product on trees.  Each coproduct and pairing is
    computed once per call."""
    from .grossman_larson import ROOTED

    coproduct = axioms.memoize(forest_coproduct)
    pairing = axioms.memoize(dual_pairing)
    report = axioms.VerificationReport("forest algebra with cut coproduct")
    # the duality check grafts two single nodes even when max_degree < 0
    by_degree = [forest_monomials(d) for d in range(max(max_degree, 0) + 1)]
    monomials = [m for d in range(max_degree + 1) for m in by_degree[d]]
    trees_small = [t for d in range(max_degree + 1) for t in rooted_trees(d)]

    def record(name: str, failures: list[str], checked: int) -> None:
        report.checks.append(
            axioms.AxiomCheck(name, checked, not failures, failures[0] if failures else None)
        )

    fails, count = [], 0
    for a, b in itertools.product(monomials, repeat=2):
        if a.node_count() + b.node_count() > max_degree:
            continue
        count += 1
        if monomial_product(a, b) != monomial_product(b, a):
            fails.append(f"({a.encode()}, {b.encode()})")
    record("commutativity", fails, count)

    fails, count = [], 0
    for a, b, c in itertools.product(monomials, repeat=3):
        if a.node_count() + b.node_count() + c.node_count() > max_degree:
            continue
        count += 1
        if monomial_product(monomial_product(a, b), c) != monomial_product(
            a, monomial_product(b, c)
        ):
            fails.append(f"({a.encode()}, {b.encode()}, {c.encode()})")
    record("associativity", fails, count)

    fails, count = [], 0
    unit = Forest()
    for m in monomials:
        count += 1
        if monomial_product(unit, m) != m or monomial_product(m, unit) != m:
            fails.append(m.encode())
    record("unit", fails, count)

    fails, count = [], 0
    for t in trees_small:
        count += 1
        m = Forest.canonical([t])
        left, right = axioms.coassociativity_sides(coproduct, coproduct(m))
        if left != right:
            fails.append(m.encode())
    record("coassociativity", fails, count)

    fails, count = [], 0
    for m in monomials:
        count += 1
        single = LinearCombination.single(m)
        left, right = axioms.counit_sides(forest_counit, coproduct(m))
        if left != single or right != single:
            fails.append(m.encode())
    record("counit", fails, count)

    fails, count = [], 0
    half = max(0, max_degree // 2)
    small_trees = [t for d in range(half + 1) for t in rooted_trees(d)]
    for t1, t2 in itertools.product(small_trees, repeat=2):
        product = ROOTED.product(t1, t2)
        for a in by_degree[t1.degree() + t2.degree()]:
            count += 1
            lhs = sum(coeff * pairing(s, a) for s, coeff in product)
            rhs = sum(
                coeff * pairing(t1, pair.left) * pairing(t2, pair.right)
                for pair, coeff in coproduct(a)
            )
            if lhs != rhs:
                fails.append(f"({t1.encode()}, {t2.encode()}; {a.encode()})")
    record("grafting-duality", fails, count)

    return report
