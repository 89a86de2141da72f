"""The grafting Hopf algebra of rooted trees, parameterized by tree variant.

The product of ``t1`` and ``t2`` strips the root of ``t1`` and attaches the
resulting forest to the nodes of ``t2`` in all ``(n+1)^r`` ways; the coproduct
splits the root's children over all ``2^r`` position subsets, regrafting each
side onto a fresh root.  The single-node tree is the unit and the only
group-like basis element, so the algebra is graded connected and the antipode
is the standard recursion.

One object, :class:`TreeHopfAlgebra`, covers plain, labeled, ordered,
ordered-labeled and standard heap-ordered trees; the heap variant shifts
labels on the product side and ranks them to ``1..k`` on the coproduct side so
that basis elements stay in standard form.  The public ``product``,
``coproduct`` and ``counit`` refuse a tree of another flavor, and the
inherited ``antipode`` refuses it through ``counit``; the trusted
``_product`` and ``_coproduct`` behind them check nothing, and the axiom
sweeps and the antipode recursion call those on trees the algebra made
itself.
"""

from __future__ import annotations

from .algebra import _PLAIN, GradedHopfAlgebra, LinearCombination, TensorPair, _collect, _set, splits
from .trees import (
    DEFAULT_DEGREE_CAP,
    HEAP_DEGREE_CAP,
    Forest,
    Tree,
    _check_degree,
    _symbols,
    attach_all,
    heap_ordered_trees,
    is_standard_heap_tree,
    labeled_trees,
    ordered_labeled_trees,
    ordered_trees,
    rooted_trees,
    strip_root,
)


def _map_integer_labels(t: Tree, new_label) -> Tree:
    """``t`` with each integer label ``x`` replaced by ``new_label(x)``."""
    label = new_label(t.label) if isinstance(t.label, int) else t.label
    return Tree(label, [_map_integer_labels(c, new_label) for c in t.children], t.ordered)


def standard_root(subtrees) -> Tree:
    """``subtrees`` under an unlabeled unordered root, their integer labels ranked
    order-isomorphically to ``1..k`` as the tree is built.  A subtree whose labels
    keep their ranks is reused."""
    found = [s.labels() for s in subtrees]
    present = sorted([x for ls in found for x in ls if isinstance(x, int)])
    rank = {old: new for new, old in enumerate(present, start=1)}
    return Tree(None, [
        s if all(rank.get(x, x) == x for x in ls) else _map_integer_labels(s, rank.get)
        for s, ls in zip(subtrees, found)
    ])


def shift_labels(t: Tree, offset: int) -> Tree:
    """Add ``offset`` to every integer label."""
    return _map_integer_labels(t, offset.__add__)


class TreeHopfAlgebra(GradedHopfAlgebra):
    """Grafting product / root-split coproduct on a chosen tree variant."""

    __slots__ = ("ordered", "heap", "symbols")

    def __init__(self, ordered: bool = False, heap: bool = False, symbols=()):
        symbols = tuple(symbols)
        if heap and (ordered or symbols):
            raise ValueError("heap-ordered flavor uses unordered trees with integer labels")
        _symbols(symbols, 0)  # refuses a symbol that is not an identifier
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

    def check_degree(self, degree: int) -> None:
        """Refuse ``degree`` above this flavor's enumeration cap, as :meth:`basis` would,
        without building anything."""
        _check_degree(degree, None, HEAP_DEGREE_CAP if self.heap else DEFAULT_DEGREE_CAP)

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
        return self._product(t1, t2)

    def _product(self, t1: Tree, t2: Tree) -> LinearCombination:
        forest = strip_root(t1)
        if self.heap:
            forest = Forest(tuple(shift_labels(s, t2.degree()) for s in forest.trees))
        return attach_all(forest, t2)

    def coproduct(self, t: Tree) -> LinearCombination:
        """Split the root's children over all position subsets; cocommutative."""
        self._check_member(t)
        return self._coproduct(t)

    def _coproduct(self, t: Tree) -> LinearCombination:
        half = standard_root if self.heap else lambda kept: Tree(None, kept, self.ordered)
        return _PLAIN._new(_collect((TensorPair(half(kept), half(rest)), ways)
                                    for kept, rest, ways in splits(t.children, "root split")))

    def counit(self, t: Tree) -> int:
        self._check_member(t)
        return super().counit(t)

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
    return TreeHopfAlgebra(ordered=ordered, symbols=symbols)
