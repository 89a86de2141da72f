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
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LinearCombination, ParseError

Label = str | int | None

DEFAULT_DEGREE_CAP = 8
HEAP_DEGREE_CAP = 6

# Deepest node (edges from the root) the parser accepts: the tree functions
# recurse per level, and under Python's default limit of 1000 frames a chain
# 330 deep already ends in RecursionError.
MAX_TREE_DEPTH = 300


@dataclass(frozen=True)
class Tree:
    """A finite rooted tree. Immutable; use :func:`canonicalize` after surgery."""

    label: Label = None
    children: tuple["Tree", ...] = ()
    ordered: bool = False

    def encode(self) -> str:
        head = "" if self.label is None else str(self.label)
        if not self.children:
            return f"({head})"
        return f"({head};" + "".join(c.encode() for c in self.children) + ")"

    def node_count(self) -> int:
        return 1 + sum(c.node_count() for c in self.children)

    def degree(self) -> int:
        """Number of non-root nodes."""
        return self.node_count() - 1

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


@dataclass(frozen=True)
class Forest:
    """A sequence of trees; a multiset when the trees are unordered-flavor."""

    trees: tuple[Tree, ...] = ()

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
    """Sort unordered children recursively by encoding; identity on ordered trees."""
    if t.ordered:
        return t
    fixed = sorted((canonicalize(c) for c in t.children), key=Tree.encode)
    return Tree(t.label, tuple(fixed), False)


def strip_root(t: Tree) -> Forest:
    """Remove the root, returning the forest of its child subtrees."""
    return Forest(t.children)


def add_root(f: Forest, ordered: bool = False) -> Tree:
    """Graft a forest under a fresh unlabeled root; inverse of :func:`strip_root`."""
    return canonicalize(Tree(None, f.trees, ordered))


def _check_same_flavor(f: Forest, t: Tree) -> None:
    if any(s.ordered != t.ordered for s in f.trees):
        raise ValueError("forest and target tree have different ordered/unordered flavor")


def _graft(t: Tree, index: int, placement: dict[int, list[Tree]]) -> tuple[Tree, int]:
    # Rebuild t with the assigned subtrees prepended to each node's children.
    # Nodes are indexed in preorder; returns the next free index.
    nxt = index + 1
    rebuilt: list[Tree] = []
    for c in t.children:
        nc, nxt = _graft(c, nxt, placement)
        rebuilt.append(nc)
    block = placement.get(index, [])
    return Tree(t.label, tuple(block) + tuple(rebuilt), t.ordered), nxt


def attach_all(f: Forest, t: Tree) -> LinearCombination:
    """Sum over all ways of attaching each forest member below a node of ``t``.

    Each of the ``r`` members independently picks one of the ``n+1`` nodes of
    ``t``, giving ``(n+1)^r`` summands counted with multiplicity.  For ordered
    trees a member becomes the leftmost child of its node; members sharing a
    node form a block in forest order.  (Per-slot insertion would break
    associativity of the grafting product.)
    """
    _check_same_flavor(f, t)
    members = f.trees
    n_nodes = t.node_count()
    out: dict[Tree, Fraction] = {}
    for assignment in itertools.product(range(n_nodes), repeat=len(members)):
        placement: dict[int, list[Tree]] = {}
        for member, node in zip(members, assignment):
            placement.setdefault(node, []).append(member)
        grafted, _ = _graft(t, 0, placement)
        key = canonicalize(grafted)
        out[key] = out.get(key, Fraction(0)) + 1
    return LinearCombination(out)


def relabel_standard(t: Tree) -> Tree:
    """Relabel integer-labeled nodes order-isomorphically to ``1..k``."""
    present = sorted(x for x in t.labels() if isinstance(x, int))
    mapping = {old: new for new, old in enumerate(present, start=1)}

    def walk(node: Tree) -> Tree:
        lab = mapping[node.label] if isinstance(node.label, int) else node.label
        return Tree(lab, tuple(walk(c) for c in node.children), node.ordered)

    return canonicalize(walk(t))


def shift_labels(t: Tree, offset: int) -> Tree:
    """Add ``offset`` to every integer label."""

    def walk(node: Tree) -> Tree:
        lab = node.label + offset if isinstance(node.label, int) else node.label
        return Tree(lab, tuple(walk(c) for c in node.children), node.ordered)

    return canonicalize(walk(t))


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


_rooted_cache: dict[int, tuple[Tree, ...]] = {}


def _rooted_by_nodes(m: int) -> tuple[Tree, ...]:
    if m in _rooted_cache:
        return _rooted_cache[m]
    if m == 1:
        result: tuple[Tree, ...] = (Tree(),)
    else:
        universe = _tree_universe(m - 1, _rooted_by_nodes)
        result = tuple(
            canonicalize(Tree(None, forest))
            for forest in _multiset_forests(m - 1, universe, 0)
        )
        result = tuple(sorted(result, key=Tree.encode))
    _rooted_cache[m] = result
    return result


def _tree_universe(max_nodes: int, by_nodes) -> list[Tree]:
    out: list[Tree] = []
    for k in range(1, max_nodes + 1):
        out.extend(by_nodes(k))
    return out


def _multiset_forests(total: int, universe: list[Tree], start: int):
    """Yield each multiset of universe trees with the given total node count once."""
    if total == 0:
        yield ()
        return
    for i in range(start, len(universe)):
        size = universe[i].node_count()
        if size > total:
            continue
        for rest in _multiset_forests(total - size, universe, i + 1):
            yield (universe[i],) + rest
        count = 2
        while count * size <= total:
            for rest in _multiset_forests(total - count * size, universe, i + 1):
                yield (universe[i],) * count + rest
            count += 1


def rooted_trees(degree: int, cap: int | None = None) -> list[Tree]:
    """All unordered unlabeled rooted trees with ``degree + 1`` nodes."""
    _check_degree(degree, cap, DEFAULT_DEGREE_CAP)
    return list(_rooted_by_nodes(degree + 1))


_planar_cache: dict[int, tuple[Tree, ...]] = {}


def _planar_by_nodes(m: int) -> tuple[Tree, ...]:
    if m in _planar_cache:
        return _planar_cache[m]
    if m == 1:
        result: tuple[Tree, ...] = (Tree(ordered=True),)
    else:
        out = []
        for comp in _compositions(m - 1):
            pools = [_planar_by_nodes(k) for k in comp]
            for combo in itertools.product(*pools):
                out.append(Tree(None, combo, True))
        result = tuple(out)
    _planar_cache[m] = result
    return result


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def ordered_trees(degree: int, cap: int | None = None) -> list[Tree]:
    """All planar rooted trees with ``degree + 1`` nodes (Catalan many)."""
    _check_degree(degree, cap, DEFAULT_DEGREE_CAP)
    return list(_planar_by_nodes(degree + 1))


def heap_ordered_trees(degree: int, cap: int | None = None) -> list[Tree]:
    """Standard heap-ordered trees: labels ``1..n``, increasing away from the root.

    Built by attaching label ``k`` below any of the ``k`` existing nodes, so the
    count is ``n!``.
    """
    _check_degree(degree, cap, HEAP_DEGREE_CAP)
    trees = [Tree()]
    for k in range(1, degree + 1):
        grown: list[Tree] = []
        for t in trees:
            for node in range(t.node_count()):
                grafted, _ = _graft(t, 0, {node: [Tree(label=k)]})
                grown.append(canonicalize(grafted))
        trees = grown
    return trees


def labeled_trees(degree: int, symbols, cap: int | None = None) -> list[Tree]:
    """Unordered rooted trees whose non-root nodes carry labels from ``symbols``."""
    _check_degree(degree, cap, DEFAULT_DEGREE_CAP)
    symbols = tuple(symbols)
    if degree > 0 and not symbols:
        raise ValueError("labeled enumeration needs a nonempty symbol set")

    cache: dict[int, tuple[Tree, ...]] = {}

    def subtrees_by_nodes(m: int) -> tuple[Tree, ...]:
        if m in cache:
            return cache[m]
        out = []
        universe = _tree_universe(m - 1, subtrees_by_nodes)
        for sym in symbols:
            for forest in _multiset_forests(m - 1, universe, 0):
                out.append(canonicalize(Tree(sym, forest)))
        result = tuple(sorted(set(out), key=Tree.encode))
        cache[m] = result
        return result

    universe = _tree_universe(degree, subtrees_by_nodes)
    found = {
        canonicalize(Tree(None, forest))
        for forest in _multiset_forests(degree, universe, 0)
    }
    return sorted(found, key=Tree.encode)


def ordered_labeled_trees(degree: int, symbols, cap: int | None = None) -> list[Tree]:
    """Planar rooted trees with labeled non-root nodes."""
    _check_degree(degree, cap, DEFAULT_DEGREE_CAP)
    symbols = tuple(symbols)
    if degree > 0 and not symbols:
        raise ValueError("labeled enumeration needs a nonempty symbol set")
    out: list[Tree] = []
    for shape in _planar_by_nodes(degree + 1):
        slots = shape.degree()
        for labelling in itertools.product(symbols, repeat=slots):
            it = iter(labelling)

            def relabel(node: Tree, is_root: bool) -> Tree:
                lab = None if is_root else next(it)
                return Tree(lab, tuple(relabel(c, False) for c in node.children), True)

            out.append(relabel(shape, True))
    return out


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
    stripped = text.strip()
    if stripped == "1":
        return Forest()
    trees = []
    offset = 0
    for chunk in stripped.split("*"):
        try:
            trees.append(parse_tree(chunk.strip()))
        except ParseError as exc:
            raise ParseError(exc.message, text, offset + (exc.position or 0)) from exc
        offset += len(chunk) + 1
    return Forest.canonical(trees)
