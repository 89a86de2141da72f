"""The grafting Hopf algebra of rooted trees, parameterized by tree variant.

The product of ``t1`` and ``t2`` strips the root of ``t1`` and attaches the
resulting forest to the nodes of ``t2`` in all ``(n+1)^r`` ways; the coproduct
splits the root's children over all ``2^r`` position subsets, regrafting each
side onto a fresh root.  The single-node tree is the unit and the only
group-like basis element, so the algebra is graded connected and the antipode
is the standard recursion.

One object, :class:`TreeHopfAlgebra`, covers plain, labeled, ordered,
ordered-labeled and standard heap-ordered trees; the heap variant shifts
labels on the product side and restandardizes them on the coproduct side so
that basis elements stay in standard form.
"""

from __future__ import annotations

from .algebra import GradedHopfAlgebra, LinearCombination, TensorPair, _set, splits
from .trees import (
    Forest,
    Tree,
    add_root,
    attach_all,
    canonicalize,
    heap_ordered_trees,
    is_standard_heap_tree,
    labeled_trees,
    ordered_labeled_trees,
    ordered_trees,
    relabel_standard,
    rooted_trees,
    shift_labels,
    strip_root,
)


class TreeHopfAlgebra(GradedHopfAlgebra):
    """Grafting product / root-split coproduct on a chosen tree variant."""

    __slots__ = ("ordered", "heap", "symbols")

    def __init__(self, ordered: bool = False, heap: bool = False, symbols: tuple[str, ...] = ()):
        if heap and (ordered or symbols):
            raise ValueError("heap-ordered flavor uses unordered trees with integer labels")
        _set(self, "ordered", ordered)
        _set(self, "heap", heap)
        _set(self, "symbols", symbols)

    def unit(self) -> Tree:
        return Tree(ordered=self.ordered)

    def degree(self, t: Tree) -> int:
        return t.degree()

    def basis(self, degree: int, cap: int | None = None) -> list[Tree]:
        if self.heap:
            return heap_ordered_trees(degree, cap)
        if self.symbols and self.ordered:
            return ordered_labeled_trees(degree, self.symbols, cap)
        if self.symbols:
            return labeled_trees(degree, self.symbols, cap)
        if self.ordered:
            return ordered_trees(degree, cap)
        return rooted_trees(degree, cap)

    def _check_member(self, t: Tree) -> None:
        if t.ordered != self.ordered:
            raise ValueError(f"tree {t.encode()} has the wrong ordered/unordered flavor")
        if self.heap and not is_standard_heap_tree(t):
            raise ValueError(f"tree {t.encode()} is not a standard heap-ordered tree")
        if not self.heap:
            root, *rest = t.labels()
            bad = [x for x in rest if x not in (self.symbols or (None,))]
            if root is not None:
                bad.insert(0, root)
            if bad:
                raise ValueError(f"labels {bad} in {t.encode()} do not belong to the {self.describe()}")

    def product(self, t1: Tree, t2: Tree) -> LinearCombination:
        """Attach the root-subtrees of ``t1`` to the nodes of ``t2`` in all ways."""
        self._check_member(t1)
        self._check_member(t2)
        forest = strip_root(t1)
        if self.heap:
            forest = Forest(tuple(shift_labels(s, t2.degree()) for s in forest.trees))
        return attach_all(forest, t2)

    def coproduct(self, t: Tree) -> LinearCombination:
        """Split the root's children over all position subsets; cocommutative."""
        self._check_member(t)
        terms: list[tuple[TensorPair, int]] = []
        for kept, rest in splits(t.children, "root split"):
            left, right = add_root(Forest(kept), self.ordered), add_root(Forest(rest), self.ordered)
            if self.heap:
                left, right = relabel_standard(left), relabel_standard(right)
            terms.append((TensorPair(left, right), 1))
        return LinearCombination(terms)

    def counit(self, t: Tree) -> int:
        self._check_member(t)
        return super().counit(t)

    def antipode(self, t: Tree) -> LinearCombination:
        self._check_member(t)
        return super().antipode(canonicalize(t))

    def describe(self) -> str:
        if self.heap:
            return "heap-ordered tree algebra"
        bits = []
        if self.ordered:
            bits.append("ordered")
        if self.symbols:
            bits.append(f"labeled({','.join(self.symbols)})")
        return " ".join(bits) + " tree algebra" if bits else "rooted tree algebra"


ROOTED = TreeHopfAlgebra()
ORDERED = TreeHopfAlgebra(ordered=True)
HEAP_ORDERED = TreeHopfAlgebra(heap=True)


def labeled_algebra(symbols, ordered: bool = False) -> TreeHopfAlgebra:
    return TreeHopfAlgebra(ordered=ordered, symbols=tuple(symbols))
