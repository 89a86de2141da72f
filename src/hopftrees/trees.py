"""Rooted trees in all supported variants, canonical forms, grafting, enumeration and parsing.

A :class:`Tree` node carries an optional label (``None``, an identifier string
such as ``"E1"``, or a positive integer) and a flag saying whether the child
sequence is significant (``ordered=True``, planar trees) or a multiset
(``ordered=False``).  An unordered tree stands for its isomorphism class, and
the constructor is the one place that decides its representative: it sorts
the children by their canonical encoding, so every tree is canonical from
construction and no caller canonicalizes.

Grafting one tree below each node is one recursion over distinct siblings;
a forest of two or more is placed by one recursion in which each node keeps a
split of the members it receives and passes the rest to its children, the
dual of the coproduct's root split (:func:`attach_all`).  One
recursion enumerates the rooted, labeled, ordered and ordered-labeled
families: each tree is built once from a forest of smaller subtrees, a
multiset of them for an unordered tree and a sequence for a planar one.
Heap-ordered trees are grown by grafting one leaf at a time.

The canonical text grammar is ``tree := '(' label? (';' tree*)? ')'``; the
single-node tree is ``()``, a two-node chain is ``(;())`` and a labeled leaf
is ``(E1)``.  :func:`parse_tree` reads it with one recursive function.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter

from .algebra import _PLAIN, Immutable, LinearCombination, ParseError, Value, _set, check_budget, check_degree, pieces, splits

Label = str | int | None

DEFAULT_DEGREE_CAP = 8
HEAP_DEGREE_CAP = 6

# Deepest node (edges from the root) the parser accepts: the tree functions
# recurse per level, and under Python's default limit of 1000 frames a chain
# 330 deep already ends in RecursionError.
MAX_TREE_DEPTH = 300

# Deepest target grafting accepts: it recurses once per level, and under
# Python's default limit of 1000 frames a call from a pytest test grafts onto
# chains up to 954 deep; the rest is a margin for deeper callers.
_MAX_GRAFT_DEPTH = 900


class Tree(Immutable):
    """A finite rooted tree, immutable and canonical from construction.

    An unordered tree's children are sorted by encoding, so a tree built from
    canonical children is canonical: the bottom-up isomorphism test of
    Aho, Hopcroft and Ullman (*The Design and Analysis of Computer
    Algorithms*, 1974).  A planar tree keeps its children in the given order.
    Children are stored as a tuple and the encoding is joined from theirs (the
    hash is the encoding's, which Python keeps on the string); it holds one
    ``(`` per node, as no label contains one, so the node count is read from
    it.  Trees are equal when they have the same flavor and the same encoding.

    The constructor trusts its labels, since grafting builds trees in its hot
    loop.  The checked entry points are :func:`parse_tree`, the symbol check
    ``_symbols`` of the labeled enumerations and the membership check
    ``TreeHopfAlgebra._check_member``, which the algebras' public ``product``,
    ``coproduct``, ``counit`` and ``antipode`` run and their trusted
    ``_product`` and ``_coproduct`` skip; each refuses a label holding ``(``.
    """

    __slots__ = ("label", "children", "ordered", "_code")

    def __init__(self, label: Label = None, children=(), ordered: bool = False):
        children = tuple(children) if ordered else tuple(sorted(children, key=_code))
        _set(self, "label", label)
        _set(self, "children", children)
        _set(self, "ordered", ordered)
        head = "" if label is None else label
        _set(self, "_code", f"({head};{''.join(map(_code, children))})" if children else f"({head})")

    def __reduce__(self):
        return Tree, (self.label, self.children, self.ordered)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        return self.ordered == other.ordered and self._code == other._code

    def __hash__(self) -> int:
        return hash(self._code)

    def __repr__(self) -> str:
        return f"Tree({self._code!r}, ordered={self.ordered})"

    def encode(self) -> str:
        return self._code

    def node_count(self) -> int:
        return self._code.count("(")

    def degree(self) -> int:
        """Number of non-root nodes."""
        return self._code.count("(") - 1

    def labels(self) -> list[Label]:
        """Labels of all nodes in preorder (root first)."""
        out: list[Label] = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node.label)
            stack.extend(reversed(node.children))
        return out

    def __str__(self) -> str:
        return self._code


_code = attrgetter("_code")


class Forest(Value):
    """A sequence of trees; a multiset when the trees are unordered-flavor.

    Like a tree's children, the members of an unordered forest are sorted by
    encoding at construction, so equal monomials are equal forests; a planar
    forest keeps its order.
    """

    __slots__ = ("trees",)

    def __init__(self, trees=()):
        trees = tuple(trees)
        _set(self, "trees", trees if trees and trees[0].ordered else tuple(sorted(trees, key=_code)))

    # the forest algebra's basis elements are dictionary keys: its one field
    # is compared and hashed directly rather than through ``Value._fields``
    def __eq__(self, other) -> bool:
        if other.__class__ is not Forest:
            return NotImplemented
        return self.trees == other.trees

    def __hash__(self) -> int:
        return hash((self.trees,))

    def encode(self) -> str:
        if not self.trees:
            return "1"
        return "*".join(t.encode() for t in self.trees)

    def node_count(self) -> int:
        return sum(t.node_count() for t in self.trees)

    def __len__(self) -> int:
        return len(self.trees)

    def __str__(self) -> str:
        return self.encode()


def canonicalize(t: Tree) -> Tree:
    """The canonical form of ``t``, which is ``t``: every tree is canonical from construction."""
    return t


def strip_root(t: Tree) -> Forest:
    """Remove the root, returning the forest of its child subtrees."""
    return Forest(t.children)


def add_root(f: Forest, ordered: bool = False) -> Tree:
    """Graft a forest under a fresh unlabeled root; inverse of :func:`strip_root`."""
    return Tree(None, f.trees, ordered)


def _below_each(m: Tree, node: Tree) -> list[tuple[Tree, int]]:
    """``node`` with ``m`` made the first child of each of its nodes, in preorder,
    each with the number of nodes that give it: a run of equal siblings of an
    unordered node gives equal trees, so its first copy is visited, weighted by
    the run's length.  The trees are distinct, as a node that receives ``m``
    gains a child and two grown children differ in place or in size."""
    kids, ordered = node.children, node.ordered
    out = [(Tree(node.label, (m, *kids), ordered), 1)]
    i = 0
    while i < len(kids):
        child, j = kids[i], i + 1
        while not ordered and j < len(kids) and kids[j]._code == child._code:
            j += 1
        for grown, ways in _below_each(m, child):
            out.append((Tree(node.label, (*kids[:i], grown, *kids[i + 1:]), ordered), ways * (j - i)))
        i = j
    return out


def _split(left: tuple, call: dict) -> list[tuple[tuple, tuple, int]]:
    """The splits of ``left`` (:func:`~hopftrees.algebra.splits`), most kept first, listed once per ``call``."""
    found = call.get(left)
    if found is None:
        found = call[left] = list(splits(left, "grafting split"))[::-1]
    return found


def _placed(left: tuple, node: Tree, call: dict) -> list[tuple[Tree, int]]:
    """``node`` with the members ``left`` placed below its nodes: each distinct
    tree, in the order of its first placement, with its number of placements.

    The node keeps each split of ``left`` as the block in front of its children,
    and its children take the rest one after another, each a split of what the
    children before it left, the last child all of it.  ``call``, made for one
    product, holds each ``(encoding, left)``'s result, so equal subtrees that
    receive equal members are placed, and their trees built, once."""
    key = (node._code, left)
    if key in call:
        return call[key]
    kids, ordered = node.children, node.ordered
    if not kids:
        out = call[key] = [(Tree(node.label, left, ordered), 1)]
        return out
    found, weights = {}, {}
    for kept, rest, ways in _split(left, call):
        rows = [(kept, rest, ways)]
        for i, child in enumerate(kids):
            grown = []
            for row, more, w in rows:
                for sub, later, v in _split(more, call)[:1] if i == len(kids) - 1 else _split(more, call):
                    for tree, u in _placed(sub, child, call) if sub else ((child, 1),):
                        grown.append((row + (tree,), later, w * v * u))
            rows = grown
        for row, _, w in rows:
            tree = Tree(node.label, row, ordered)
            found.setdefault(tree._code, tree)
            weights[tree._code] = weights.get(tree._code, 0) + w
    out = call[key] = list(zip(found.values(), weights.values()))
    return out


def attach_all(f: Forest, t: Tree) -> LinearCombination:
    """Sum over all ways of attaching each forest member below a node of ``t``.

    Each of the ``r`` members picks one of the ``n+1`` nodes of ``t``, so the
    sum has ``(n+1)^r`` summands counted with multiplicity.  For ordered trees
    a member becomes the leftmost child of its node; members sharing a node
    form a block in forest order.  (Per-slot insertion would break
    associativity of the grafting product.)  Terms come in the order of their
    first placement; one member goes below each node by :func:`_below_each`.

    Two or more members are placed by :func:`_placed`, the dual of the root
    split that the coproduct makes: each node keeps a split of the members it
    receives (:func:`~hopftrees.algebra.splits`, so ``k`` equal adjacent members
    keep ``j`` in ``C(k, j)`` ways) and passes the rest to its children.  A table
    made here places each subtree encoding with each sequence of members once,
    so equal rebuilt subtrees are one object across the terms; it dies with the
    call.  A target deeper than the recursion allows is refused by name.
    """
    if any(s.ordered != t.ordered for s in f.trees):
        raise ValueError("forest and target tree have different ordered/unordered flavor")
    runs = [(m, len(list(g))) for m, g in itertools.groupby(f.trees)]
    size = t.node_count()
    if f.trees and size > _MAX_GRAFT_DEPTH:  # only a target this large can be too deep: count its levels
        level, depth = t.children, 0
        while level:
            level, depth = [c for node in level for c in node.children], depth + 1
        if depth > _MAX_GRAFT_DEPTH:
            raise ValueError(f"grafting target deeper than {_MAX_GRAFT_DEPTH} levels")
    check_budget(math.prod(math.comb(size + k - 1, k) for _, k in runs), "grafting product")
    if len(f.trees) < 2:
        return _PLAIN._new(dict(_below_each(f.trees[0], t)) if f.trees else {t: 1})
    return _PLAIN._new(dict(_placed(f.trees, t, {})))


def is_standard_heap_tree(t: Tree) -> bool:
    """Root unlabeled, integer labels ``1..n`` each once, increasing downward: one
    walk checks each label against its parent's, then the set of labels against ``1..n``."""
    if t.ordered or t.label is not None:
        return False
    nodes = [t]
    for node in nodes:  # the walk appends to the list it runs over
        for c in node.children:
            if not isinstance(c.label, int) or c.label <= (node.label or 0):
                return False
            nodes.append(c)
    labels = {c.label for c in nodes[1:]}
    return len(labels) == len(nodes) - 1 == max(labels, default=0)


# ---------------------------------------------------------------------------
# Enumeration


def _check_degree(degree: int, cap: int | None, default_cap: int) -> None:
    limit = default_cap if cap is None else cap
    check_degree(degree)
    if degree > limit:
        raise ValueError(f"degree {degree} exceeds enumeration cap {limit}")


def _symbols(symbols, degree: int) -> tuple:
    """``symbols`` in order without repeats (a repeated symbol labels nothing new), each an identifier."""
    symbols = tuple(dict.fromkeys(symbols))
    for symbol in symbols:
        if not (isinstance(symbol, str) and symbol.isidentifier()):
            raise ValueError(f"symbol {symbol!r} is not an identifier")
    if degree > 0 and not symbols:
        raise ValueError("labeled enumeration needs a nonempty symbol set")
    return symbols


def _rooted_count(nodes: int) -> int:
    """Unordered rooted trees with ``nodes`` nodes (OEIS A000081), by its recurrence in quadratic time."""
    a, weights = [0, 1], [0]
    for n in range(1, nodes):
        weights.append(sum(d * a[d] for d in range(1, n + 1) if n % d == 0))
        a.append(sum(weights[k] * a[n - k + 1] for k in range(1, n + 1)) // n)
    return a[nodes]


def _planted(roots: tuple, nodes: int, labels: tuple, ordered: bool, cache: dict) -> list[Tree]:
    """Every tree of the flavor ``ordered`` whose root is labeled from ``roots``
    and whose ``nodes`` other nodes are labeled from ``labels``, each built once
    from a forest of smaller subtrees.  ``cache``, made for one enumeration,
    keeps the subtrees by their size - 1, and each planar subtree's sort key.

    Unordered trees are sorted by encoding.  Planar trees come shape by shape,
    each shape's labelings in product order: the key is the child sizes of each
    node in preorder (the root's composition, then each child's key), which
    have as many entries as the tree has non-root nodes, followed by the ranks
    in ``labels`` of the non-root nodes' labels in preorder."""
    universe: list[Tree] = []
    for k in range(nodes):
        if k not in cache:
            cache[k] = _planted(labels, k, labels, ordered, cache)
        universe.extend(cache[k])
    trees = [Tree(root, forest, ordered) for root in roots for forest in _forests(nodes, universe, 0, ordered)]
    if not ordered:
        return sorted(trees, key=_code)
    rank = {label: i for i, label in enumerate(labels)}

    def key(t: Tree) -> list[int]:
        sizes, ranks = [c.node_count() for c in t.children], []
        for c in t.children:
            sizes += cache[c][0]
            ranks += [rank[c.label], *cache[c][1]]
        cache[t] = sizes, ranks
        return sizes + ranks

    return sorted(trees, key=key)


def _forests(total: int, universe: list[Tree], start: int, ordered: bool):
    """Yield each forest of universe trees (sorted by size) with ``total`` nodes:
    each sequence when ``ordered``, else each multiset once, its members in universe order."""
    if total == 0:
        yield ()
        return
    for i in range(start, len(universe)):
        size = universe[i].node_count()
        if size > total:
            break
        for rest in _forests(total - size, universe, 0 if ordered else i, ordered):
            yield (universe[i],) + rest


def _family(degree: int, labels: tuple, ordered: bool, what: str) -> list[Tree]:
    """The trees of one flavor with ``degree`` non-root nodes labeled from ``labels``, budgeted first."""
    shapes = math.comb(2 * degree, degree) // (degree + 1) if ordered else _rooted_count(degree + 1)  # Catalan or A000081
    check_budget(shapes * len(labels) ** degree, f"{what} of degree {degree}")
    return _planted((None,), degree, labels, ordered, {})


def rooted_trees(degree: int, cap: int | None = None) -> list[Tree]:
    """All unordered unlabeled rooted trees with ``degree + 1`` nodes."""
    _check_degree(degree, cap, DEFAULT_DEGREE_CAP)
    return _family(degree, (None,), False, "rooted trees")


def ordered_trees(degree: int, cap: int | None = None) -> list[Tree]:
    """All planar rooted trees with ``degree + 1`` nodes (Catalan many)."""
    _check_degree(degree, cap, DEFAULT_DEGREE_CAP)
    return _family(degree, (None,), True, "ordered trees")


def heap_ordered_trees(degree: int, cap: int | None = None) -> list[Tree]:
    """Standard heap-ordered trees: labels ``1..n``, increasing away from the root.

    Built by attaching label ``k`` below any of the ``k`` existing nodes, so the
    count is ``n!``.
    """
    _check_degree(degree, cap, HEAP_DEGREE_CAP)
    check_budget(math.factorial(degree), f"heap-ordered trees of degree {degree}")
    trees = [Tree()]
    for k in range(1, degree + 1):
        leaf = Forest((Tree(k),))
        trees = [grown for t in trees for grown, _ in attach_all(leaf, t)]
    return trees


def labeled_trees(degree: int, symbols, cap: int | None = None) -> list[Tree]:
    """Unordered rooted trees whose non-root nodes carry labels from ``symbols``."""
    _check_degree(degree, cap, DEFAULT_DEGREE_CAP)
    return _family(degree, _symbols(symbols, degree), False, "labeled trees")


def ordered_labeled_trees(degree: int, symbols, cap: int | None = None) -> list[Tree]:
    """Planar rooted trees with labeled non-root nodes."""
    _check_degree(degree, cap, DEFAULT_DEGREE_CAP)
    return _family(degree, _symbols(symbols, degree), True, "ordered labeled trees")


# ---------------------------------------------------------------------------
# Parsing


def parse_tree(text: str, ordered: bool = False) -> Tree:
    """Parse the canonical tree grammar; an unordered tree comes out canonical, as every tree does."""

    def node(pos: int, depth: int) -> tuple[Tree, int]:
        """The tree whose ``(`` is at ``pos``, and the position after its ``)``."""
        if text[pos : pos + 1] != "(":
            raise ParseError("expected '('", text, pos)
        if depth > MAX_TREE_DEPTH:
            raise ParseError(f"tree nested deeper than {MAX_TREE_DEPTH} levels", text, pos)
        start = pos = pos + 1
        while text[pos : pos + 1] not in ("", ";", ")", "("):
            pos += 1
        raw = text[start:pos].strip()
        if raw.isdecimal() and int(raw) > 0:
            label = int(raw)
        elif raw.isidentifier() or not raw:
            label = raw or None
        else:
            raise ParseError("integer labels must be positive" if raw.isdecimal() else f"invalid label {raw!r}", text, start)
        children = []
        if text[pos : pos + 1] == ";":
            pos += 1
            while text[pos : pos + 1] == "(":
                child, pos = node(pos, depth + 1)
                children.append(child)
        if text[pos : pos + 1] != ")":
            raise ParseError("expected ')'", text, pos)
        return Tree(label, children, ordered), pos + 1

    tree, end = node(0, 0)
    if end != len(text):
        raise ParseError("unexpected trailing input", text, end)
    return tree


def parse_forest(text: str) -> Forest:
    """Parse a ``*``-joined forest monomial; ``1`` denotes the empty forest."""
    if text.strip() == "1":
        return Forest()
    trees = []
    for column, piece in pieces(text, "*"):
        try:
            trees.append(parse_tree(piece))
        except ParseError as exc:
            raise exc.within(text, column) from exc
    return Forest(trees)
