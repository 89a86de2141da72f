"""Rooted trees in all supported variants, canonical forms, and enumeration.

A :class:`Tree` node carries an optional label (``None``, an identifier string
such as ``"E1"``, or a positive integer) and a flag saying whether the child
sequence is significant (``ordered=True``, planar trees) or a multiset
(``ordered=False``, in which case children are kept sorted by their canonical
encoding).

The canonical text grammar is ``tree := '(' label? (';' tree*)? ')'``; the
single-node tree is ``()``, a two-node chain is ``(;())`` and a labeled leaf
is ``(E1)``.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter

from .algebra import Immutable, LinearCombination, ParseError, Value, _set, check_budget, pieces

Label = str | int | None

DEFAULT_DEGREE_CAP = 8
HEAP_DEGREE_CAP = 6

# Deepest node (edges from the root) the parser accepts: the tree functions
# recurse per level, and under Python's default limit of 1000 frames a chain
# 330 deep already ends in RecursionError.
MAX_TREE_DEPTH = 300


class Tree(Immutable):
    """A finite rooted tree. Immutable; use :func:`canonicalize` after surgery.

    Each tree computes its derived facts once and keeps them: the node count
    at construction, the encoding on first use (the hash is the encoding's,
    which Python keeps on the string), and its canonical form once
    :func:`canonicalize` has seen it.  Trees are equal when they have the same
    flavor and the same encoding.
    """

    __slots__ = ("label", "children", "ordered", "_size", "_code", "_canon")

    def __init__(self, label: Label = None, children: tuple["Tree", ...] = (), ordered: bool = False):
        _set(self, "label", label)
        _set(self, "children", children)
        _set(self, "ordered", ordered)
        _set(self, "_size", 1 + sum([c._size for c in children]))
        _set(self, "_code", None)
        _set(self, "_canon", None)

    def __reduce__(self):
        return Tree, (self.label, self.children, self.ordered)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        return self.ordered == other.ordered and (self._code or self.encode()) == (
            other._code or other.encode()
        )

    def __hash__(self) -> int:
        return hash(self._code or self.encode())

    def __repr__(self) -> str:
        return f"Tree({self.encode()!r}, ordered={self.ordered})"

    def encode(self) -> str:
        if self._code is None:
            # Post-order without recursion: products can be deeper than the
            # parser's limit.  A node with an encoding has encoded descendants.
            stack = [self]
            while stack:
                node = stack[-1]
                pending = [c for c in node.children if c._code is None]
                if pending:
                    stack.extend(pending)
                else:
                    stack.pop()
                    _set(node, "_code", _join(node.label, node.children))
        return self._code

    def node_count(self) -> int:
        return self._size

    def degree(self) -> int:
        """Number of non-root nodes."""
        return self._size - 1

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
        return self.encode()


_code = attrgetter("_code")


def _join(label: Label, children) -> str:
    """Encoding of a node from its children's (already computed) encodings."""
    head = "" if label is None else str(label)
    if not children:
        return f"({head})"
    return f"({head};" + "".join([c._code for c in children]) + ")"


def _canonical_node(label: Label, children: tuple[Tree, ...], ordered: bool) -> Tree:
    """A node over encoded canonical children, in order, marked canonical."""
    node = Tree(label, children, ordered)
    _set(node, "_code", _join(label, children))
    _set(node, "_canon", node)
    return node


class Forest(Value):
    """A sequence of trees; a multiset when the trees are unordered-flavor."""

    __slots__ = ("trees",)

    def __init__(self, trees: tuple[Tree, ...] = ()):
        _set(self, "trees", trees)

    # the forest algebra's basis elements are dictionary keys: its one field
    # is compared and hashed directly rather than through ``Value._fields``
    def __eq__(self, other) -> bool:
        if other.__class__ is not Forest:
            return NotImplemented
        return self.trees == other.trees

    def __hash__(self) -> int:
        return hash((self.trees,))

    @classmethod
    def canonical(cls, trees) -> "Forest":
        """Multiset form: members canonicalized and sorted by encoding."""
        fixed = sorted((canonicalize(t) for t in trees), key=Tree.encode)
        return cls(tuple(fixed))

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
    """Sort unordered children recursively by encoding; identity on ordered trees.

    The result is recorded on ``t`` and marked canonical, so a second call on
    either tree is a lookup.
    """
    if t.ordered:
        return t
    if t._canon is not None:
        return t._canon
    children = tuple(sorted(map(canonicalize, t.children), key=Tree.encode))
    if all(a is b for a, b in zip(children, t.children)):
        _set(t, "_code", t._code or _join(t.label, children))
        _set(t, "_canon", t)
        return t
    result = _canonical_node(t.label, children, False)
    _set(t, "_canon", result)
    return result


def strip_root(t: Tree) -> Forest:
    """Remove the root, returning the forest of its child subtrees."""
    return Forest(t.children)


def add_root(f: Forest, ordered: bool = False) -> Tree:
    """Graft a forest under a fresh unlabeled root; inverse of :func:`strip_root`."""
    return canonicalize(Tree(None, f.trees, ordered))


def _prepared(t: Tree) -> Tree:
    """``t`` in canonical form, with every node's encoding computed."""
    if not (t.ordered or t._canon is t):
        t = canonicalize(t)
    t.encode()
    return t


def _preorder(t: Tree) -> tuple[list[Tree], list[list[int]], list[tuple[int, ...]]]:
    """The nodes of ``t`` in preorder, the indices of each node's children, and
    each node's path of indices from the root (itself last)."""
    nodes: list[Tree] = []
    kids: list[list[int]] = []
    paths: list[tuple[int, ...]] = []
    stack: list[tuple[Tree, tuple[int, ...]]] = [(t, ())]
    while stack:
        node, above = stack.pop()
        path = above + (len(nodes),)
        if above:
            kids[above[-1]].append(path[-1])
        nodes.append(node)
        kids.append([])
        paths.append(path)
        for c in reversed(node.children):  # a loop: a generator here doubles the cost
            stack.append((c, path))
    return nodes, kids, paths


def _graft_blocks(nodes, kids, paths, blocks: dict[int, list[Tree]], ordered: bool) -> Tree:
    """Prepend ``blocks[i]`` to the children of preorder node ``i``.

    Only the nodes on the paths from the root to the receiving nodes are
    rebuilt; every other subtree is reused.  With canonical, encoded inputs the
    result is canonical and marked so.
    """
    touched: set[int] = set()
    for i in blocks:
        touched.update(paths[i])
    rebuilt: dict[int, Tree] = {}
    for i in sorted(touched, reverse=True):  # children before their parents
        children = blocks.get(i, []) + [rebuilt.get(c, nodes[c]) for c in kids[i]]
        if not ordered:
            children.sort(key=_code)
        rebuilt[i] = _canonical_node(nodes[i].label, tuple(children), ordered)
    return rebuilt.get(0, nodes[0])


def _multinomial(combo: tuple[int, ...]) -> int:
    """Ways to deal ``len(combo)`` equal members onto the sorted nodes ``combo``."""
    weight = math.factorial(len(combo))
    for _, group in itertools.groupby(combo):
        weight //= math.factorial(len(list(group)))
    return weight


def attach_all(f: Forest, t: Tree) -> LinearCombination:
    """Sum over all ways of attaching each forest member below a node of ``t``.

    Each of the ``r`` members picks one of the ``n+1`` nodes of ``t``, so the
    sum has ``(n+1)^r`` summands counted with multiplicity.  For ordered trees
    a member becomes the leftmost child of its node; members sharing a node
    form a block in forest order.  (Per-slot insertion would break
    associativity of the grafting product.)

    Equal members that stand next to each other (in an unordered forest, which
    is sorted, all equal members do) are placed together: a run of ``k``
    copies goes to a multiset of ``k`` nodes, weighted by the multinomial
    ``k!/prod(m_i!)`` over the copies ``m_i`` each node gets.  That enumerates
    ``prod C(n+k, k)`` placements instead of ``(n+1)^r``.  Each placement
    rebuilds only the paths from the root to the nodes that receive members;
    terms come in placement order (one member: by its node, in preorder).
    """
    if any(s.ordered != t.ordered for s in f.trees):
        raise ValueError("forest and target tree have different ordered/unordered flavor")
    nodes, kids, paths = _preorder(_prepared(t))
    runs = [(m, len(list(g))) for m, g in itertools.groupby(map(_prepared, f.trees))]
    size = len(nodes)
    check_budget(math.prod(math.comb(size + k - 1, k) for _, k in runs), "grafting product")
    choices = [
        [(member, combo, _multinomial(combo))
         for combo in itertools.combinations_with_replacement(range(size), k)]
        for member, k in runs
    ]
    out: dict[Tree, int] = {}
    for placement in itertools.product(*choices):
        blocks: dict[int, list[Tree]] = {}
        weight = 1
        for member, combo, ways in placement:
            weight *= ways
            for i in combo:
                blocks.setdefault(i, []).append(member)
        key = canonicalize(_graft_blocks(nodes, kids, paths, blocks, t.ordered))
        out[key] = out.get(key, 0) + weight
    return LinearCombination(out)


def _map_integer_labels(t: Tree, new_label) -> Tree:
    """``t`` with each integer label ``x`` replaced by ``new_label(x)``, canonicalized."""

    def walk(node: Tree) -> Tree:
        lab = new_label(node.label) if isinstance(node.label, int) else node.label
        return Tree(lab, tuple(walk(c) for c in node.children), node.ordered)

    return canonicalize(walk(t))


def relabel_standard(t: Tree) -> Tree:
    """Relabel integer-labeled nodes order-isomorphically to ``1..k``."""
    present = sorted(x for x in t.labels() if isinstance(x, int))
    return _map_integer_labels(t, {old: new for new, old in enumerate(present, start=1)}.get)


def shift_labels(t: Tree, offset: int) -> Tree:
    """Add ``offset`` to every integer label."""
    return _map_integer_labels(t, offset.__add__)


def is_standard_heap_tree(t: Tree) -> bool:
    """Root unlabeled, integer labels ``1..n`` each once, increasing downward."""
    if t.ordered or t.label is not None:
        return False
    non_root = t.labels()[1:]
    if not all(isinstance(x, int) for x in non_root):
        return False
    if sorted(non_root) != list(range(1, len(non_root) + 1)):
        return False

    def increasing(node: Tree, floor: int) -> bool:
        for c in node.children:
            if not isinstance(c.label, int) or c.label <= floor:
                return False
            if not increasing(c, c.label):
                return False
        return True

    return increasing(t, 0)


# ---------------------------------------------------------------------------
# Enumeration


def _check_degree(degree: int, cap: int | None, default_cap: int) -> None:
    limit = default_cap if cap is None else cap
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree > limit:
        raise ValueError(f"degree {degree} exceeds enumeration cap {limit}")


def _symbols(symbols, degree: int) -> tuple:
    """``symbols`` in order without repeats (a repeated symbol labels nothing new)."""
    symbols = tuple(dict.fromkeys(symbols))
    if degree > 0 and not symbols:
        raise ValueError("labeled enumeration needs a nonempty symbol set")
    return symbols


def _rooted_count(nodes: int) -> int:
    """Unordered rooted trees with ``nodes`` nodes (OEIS A000081), by its recurrence."""
    a = [0, 1]
    for n in range(1, nodes):
        weights = [sum(d * a[d] for d in range(1, k + 1) if k % d == 0) for k in range(n + 1)]
        a.append(sum(weights[k] * a[n - k + 1] for k in range(1, n + 1)) // n)
    return a[nodes]


def _planted(roots: tuple, nodes: int, labels: tuple, cache: dict) -> tuple[Tree, ...]:
    """Every unordered tree whose root is labeled from ``roots`` and whose
    ``nodes`` other nodes are labeled from ``labels``, sorted by encoding.
    ``cache``, made for one enumeration, keeps the subtrees by their size - 1."""
    universe: list[Tree] = []
    for k in range(nodes):
        if k not in cache:
            cache[k] = _planted(labels, k, labels, cache)
        universe.extend(cache[k])
    trees = (
        canonicalize(Tree(root, forest))
        for root in roots
        for forest in _multiset_forests(nodes, universe, 0)
    )
    return tuple(sorted(trees, key=Tree.encode))


def _multiset_forests(total: int, universe: list[Tree], start: int):
    """Yield once each multiset of universe trees (sorted by size) with ``total`` nodes."""
    if total == 0:
        yield ()
        return
    for i in range(start, len(universe)):
        size = universe[i].node_count()
        if size > total:
            break
        for count in range(1, total // size + 1):
            for rest in _multiset_forests(total - count * size, universe, i + 1):
                yield (universe[i],) * count + rest


def _planar(degree: int, labels: tuple, what: str) -> list[Tree]:
    """Every planar tree with ``degree`` non-root nodes labeled from ``labels``:
    shape by shape, each shape's labelings in product order over its preorder."""
    shapes = math.comb(2 * degree, degree) // (degree + 1)  # Catalan(degree)
    check_budget(shapes * len(labels) ** degree, f"{what} of degree {degree}")
    return [
        _label_preorder(shape, None, iter(labeling))
        for shape in _planar_shapes(degree + 1, {})
        for labeling in itertools.product(labels, repeat=degree)
    ]


def _planar_shapes(nodes: int, cache: dict) -> tuple[Tree, ...]:
    """Every planar shape with ``nodes`` nodes, by the compositions of ``nodes - 1``."""
    if nodes not in cache:
        cache[nodes] = tuple(
            Tree(None, subtrees, True)
            for sizes in _compositions(nodes - 1)
            for subtrees in itertools.product(*[_planar_shapes(k, cache) for k in sizes])
        )
    return cache[nodes]


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _label_preorder(shape: Tree, label: Label, labels) -> Tree:
    """``shape`` with root ``label`` and the next items of ``labels`` below, in preorder."""
    return Tree(label, tuple(_label_preorder(c, next(labels), labels) for c in shape.children), True)


def rooted_trees(degree: int, cap: int | None = None) -> list[Tree]:
    """All unordered unlabeled rooted trees with ``degree + 1`` nodes."""
    _check_degree(degree, cap, DEFAULT_DEGREE_CAP)
    check_budget(_rooted_count(degree + 1), f"rooted trees of degree {degree}")
    return list(_planted((None,), degree, (None,), {}))


def ordered_trees(degree: int, cap: int | None = None) -> list[Tree]:
    """All planar rooted trees with ``degree + 1`` nodes (Catalan many)."""
    _check_degree(degree, cap, DEFAULT_DEGREE_CAP)
    return _planar(degree, (None,), "ordered trees")


def heap_ordered_trees(degree: int, cap: int | None = None) -> list[Tree]:
    """Standard heap-ordered trees: labels ``1..n``, increasing away from the root.

    Built by attaching label ``k`` below any of the ``k`` existing nodes, so the
    count is ``n!``.
    """
    _check_degree(degree, cap, HEAP_DEGREE_CAP)
    check_budget(math.factorial(degree), f"heap-ordered trees of degree {degree}")
    trees = [canonicalize(Tree())]
    for k in range(1, degree + 1):
        leaf = Forest((canonicalize(Tree(k)),))
        trees = [grown for t in trees for grown, _ in attach_all(leaf, t)]
    return trees


def labeled_trees(degree: int, symbols, cap: int | None = None) -> list[Tree]:
    """Unordered rooted trees whose non-root nodes carry labels from ``symbols``."""
    _check_degree(degree, cap, DEFAULT_DEGREE_CAP)
    symbols = _symbols(symbols, degree)
    check_budget(_rooted_count(degree + 1) * len(symbols) ** degree, f"labeled trees of degree {degree}")
    return list(_planted((None,), degree, symbols, {}))


def ordered_labeled_trees(degree: int, symbols, cap: int | None = None) -> list[Tree]:
    """Planar rooted trees with labeled non-root nodes."""
    _check_degree(degree, cap, DEFAULT_DEGREE_CAP)
    return _planar(degree, _symbols(symbols, degree), "ordered labeled trees")


# ---------------------------------------------------------------------------
# Parsing


def parse_tree(text: str, ordered: bool = False) -> Tree:
    """Parse the canonical tree grammar; unordered trees are canonicalized."""
    parser = _TreeParser(text, ordered)
    tree = parser.parse_tree()
    parser.expect_end()
    return canonicalize(tree)


class _TreeParser:
    def __init__(self, text: str, ordered: bool):
        self.text = text
        self.pos = 0
        self.ordered = ordered

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_tree(self, depth: int = 0) -> Tree:
        if self.peek() != "(":
            raise self.error("expected '('")
        if depth > MAX_TREE_DEPTH:
            raise self.error(f"tree nested deeper than {MAX_TREE_DEPTH} levels")
        self.pos += 1
        label = self._parse_label()
        children: list[Tree] = []
        if self.peek() == ";":
            self.pos += 1
            while self.peek() == "(":
                children.append(self.parse_tree(depth + 1))
        if self.peek() != ")":
            raise self.error("expected ')'")
        self.pos += 1
        return Tree(label, tuple(children), self.ordered)

    def _parse_label(self) -> Label:
        start = self.pos
        while self.peek() not in ("", ";", ")", "("):
            self.pos += 1
        raw = self.text[start : self.pos].strip()
        if not raw:
            return None
        if raw.isdigit():
            value = int(raw)
            if value <= 0:
                self.pos = start
                raise self.error("integer labels must be positive")
            return value
        if raw.isidentifier():
            return raw
        self.pos = start
        raise self.error(f"invalid label {raw!r}")

    def expect_end(self) -> None:
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")


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
    return Forest.canonical(trees)
