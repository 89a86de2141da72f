"""Shared fixtures: element shortcuts and independent brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: tree
isomorphism classes (unlabeled, labeled, and root-stripped as forest
monomials) are found through parent arrays and nested tuples, planar labelings
by writing labels into a shape's text in preorder, the order of planar trees
by the root's child sizes in composition order, grafting products through
every one of the (n+1)^r assignments (and, for the order of terms, through the
library's recursion over root splits with every placement rebuilt from scratch), heap
labels ranked to ``1..k`` by rebuilding the whole tree, shuffles
through their defining recursion, heap products as maps with spliced cycles,
cycle coproducts over every subset of the cycles,
symmetric groups by walking the cycles of every image tuple, the tree of a
cycle string by a stack of its smaller left neighbors, standard heap trees
by sorting their labels and then recursing, automorphism counts
through plane-representation counting, cuts through edge-subset filtering,
words as products in the labeled grafting algebra, and
the Hopf axioms as identities between ``LinearCombination``s of elements, the
reading that the sweep's integer tables replace; ``verify_morphism`` checks a
map between two algebras over two such tables, such as the forgetful map that
rebuilds a tree without its order and labels.  Trees act on polynomials
here through the two textbook definitions the library replaces by one
contraction: the flat sum over all index assignments of a tree's nodes, and
the recursive m-th covariant differentials of a connection; the module law
sums its coproduct's pieces as trees acting one at a time.
The trees the oracles build are put in canonical form by the ``Tree``
constructor itself; ``tests/test_trees.py`` checks that constructor against
the text oracle ``_encode_shape``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from hopftrees import (
    CyclePermutation,
    Derivation,
    Forest,
    LinearCombination,
    Polynomial,
    Tree,
    apply_connection_operator,
    labeled_algebra,
    parse_tree,
)
from hopftrees import axioms
from hopftrees.algebra import TensorPair, Value, _collect, _sum_scaled, extend_bilinear, extend_linear, splits, tensor


def t(text: str) -> Tree:
    return parse_tree(text)


def ot(text: str) -> Tree:
    return parse_tree(text, ordered=True)


def lc(*pairs) -> LinearCombination:
    return LinearCombination([(basis, coeff) for basis, coeff in pairs])


def swap(pair: TensorPair) -> TensorPair:
    """``right (x) left`` for ``left (x) right``: the flip behind cocommutativity."""
    return TensorPair(pair.right, pair.left)


def subtrees(*trees: Tree) -> set[Tree]:
    """Every subtree hanging below the root of one of ``trees``, as values."""
    found, stack = set(), [s for tree in trees for s in tree.children]
    while stack:
        node = stack.pop()
        found.add(node)
        stack.extend(node.children)
    return found


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so that each call appends to the returned list."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def random_polynomial(rng: random.Random, num_vars: int, max_degree: int) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(num_vars)] += 1
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    return Polynomial(num_vars, terms)


# ---------------------------------------------------------------------------
# oracle: polynomial arithmetic on plain dicts from exponent vectors to coefficients


def dict_sum(*scaled: tuple) -> dict[tuple[int, ...], Fraction]:
    """``sum c * terms`` over (c, terms) pairs of plain dicts, zero coefficients dropped."""
    out: dict[tuple[int, ...], Fraction] = {}
    for scale, terms in scaled:
        for exps, coeff in terms.items():
            out[exps] = out.get(exps, Fraction(0)) + Fraction(scale) * coeff
    return {exps: coeff for exps, coeff in out.items() if coeff}


def dict_product(a: dict, b: dict) -> dict[tuple[int, ...], Fraction]:
    """Every term of ``a`` times every term of ``b``, exponents added."""
    out: dict[tuple[int, ...], Fraction] = {}
    for (e1, c1), (e2, c2) in itertools.product(a.items(), b.items()):
        exps = tuple(x + y for x, y in zip(e1, e2))
        out[exps] = out.get(exps, Fraction(0)) + Fraction(c1) * c2
    return dict_sum((1, out))


def dict_derivative(a: dict, index: int) -> dict[tuple[int, ...], Fraction]:
    """The power rule in ``x_index`` (1-based), term by term."""
    out = {}
    for exps, coeff in a.items():
        lowered = list(exps)
        lowered[index - 1] -= 1
        if lowered[index - 1] >= 0:
            out[tuple(lowered)] = exps[index - 1] * Fraction(coeff)
    return dict_sum((1, out))


# ---------------------------------------------------------------------------
# oracle: the grafting sum over all (n+1)^r assignments


def attach_all_by_assignments(forest: Forest, target: Tree) -> LinearCombination:
    """Each member independently picks a node of ``target`` (nodes in preorder);
    members sharing a node go in front of its children in forest order."""

    def graft(node: Tree, index: int, placement) -> tuple[Tree, int]:
        nxt = index + 1
        rebuilt = []
        for child in node.children:
            new_child, nxt = graft(child, nxt, placement)
            rebuilt.append(new_child)
        block = tuple(placement.get(index, ()))
        return Tree(node.label, block + tuple(rebuilt), node.ordered), nxt

    out: dict[Tree, int] = {}
    nodes = target.node_count()
    for assignment in itertools.product(range(nodes), repeat=len(forest.trees)):
        placement: dict[int, list[Tree]] = {}
        for member, node in zip(forest.trees, assignment):
            placement.setdefault(node, []).append(member)
        key = graft(target, 0, placement)[0]
        out[key] = out.get(key, 0) + 1
    return LinearCombination(out)


def attach_all_by_placements(f: Forest, t: Tree) -> LinearCombination:
    """The recursion ``attach_all`` uses for two or more members, without its table:
    each node keeps a split of the members it receives, most kept first, and its
    children take the rest one after another.  Every placement rebuilds each node
    it touches, nothing merges below the root, and terms come in the order of
    their first placement."""
    out: dict[Tree, int] = {}
    for tree, weight in _placements(f.trees, t):
        out[tree] = out.get(tree, 0) + weight
    return LinearCombination(out)


def _placements(left: tuple, node: Tree) -> list[tuple[Tree, int]]:
    """Each placement of the members ``left`` below the nodes of ``node``, as a rebuilt tree and its weight."""
    out = []
    for kept, rest, ways in list(splits(left, "split"))[::-1]:
        rows = [(kept, rest, ways)]
        for child in node.children:
            rows = [(row + (tree,), later, w * v * u)
                    for row, more, w in rows
                    for sub, later, v in list(splits(more, "split"))[::-1]
                    for tree, u in (_placements(sub, child) if sub else [(child, 1)])]
        out += [(Tree(node.label, row, node.ordered), w) for row, more, w in rows if not more]
    return out


def forget_order_and_labels(t: Tree) -> Tree:
    """``t`` as an unordered unlabeled tree, rebuilt node by node: the forgetful
    map from the ordered, heap-ordered and labeled algebras to the rooted one."""
    return Tree(None, [forget_order_and_labels(c) for c in t.children])


def relabel_standard(t: Tree) -> Tree:
    """``t`` with its integer labels ranked order-isomorphically to ``1..k``, the
    whole tree rebuilt: the oracle of ``grossman_larson.standard_root``."""
    present = sorted(x for x in t.labels() if isinstance(x, int))
    rank = {old: new for new, old in enumerate(present, start=1)}

    def walk(node: Tree) -> Tree:
        return Tree(rank.get(node.label, node.label), [walk(c) for c in node.children], node.ordered)

    return walk(t)


def coproduct_by_masks(alg, t: Tree) -> LinearCombination:
    """The root-split coproduct of the tree algebra ``alg``, one term for each of
    the ``2^r`` subsets of the root's children, equal children split apart."""
    kids = t.children
    terms = []
    for mask in range(1 << len(kids)):
        kept = Tree(None, [c for i, c in enumerate(kids) if mask >> i & 1], alg.ordered)
        rest = Tree(None, [c for i, c in enumerate(kids) if not mask >> i & 1], alg.ordered)
        if alg.heap:
            kept, rest = relabel_standard(kept), relabel_standard(rest)
        terms.append((TensorPair(kept, rest), 1))
    return LinearCombination(terms)


# ---------------------------------------------------------------------------
# oracle: shuffles by the defining recursion, heap products as maps, cycle
# coproducts by subsets, symmetric groups by cycle walks, cycle strings as trees by a stack


def shuffles_by_recursion(u: tuple, v: tuple) -> dict[tuple, int]:
    """``au * bv = a(u * bv) + b(au * v)`` with the empty word as unit, as
    a count of each interleaved letter tuple."""
    if not u or not v:
        return {u + v: 1}
    out: dict[tuple, int] = {}
    for head, rest in (
        (u[0], shuffles_by_recursion(u[1:], v)),
        (v[0], shuffles_by_recursion(u, v[1:])),
    ):
        for word, count in rest.items():
            out[(head,) + word] = out.get((head,) + word, 0) + count
    return out


def _images(cycles) -> dict[int, int]:
    return {c[i]: c[(i + 1) % len(c)] for c in cycles for i in range(len(c))}


def _as_tuple(image: dict[int, int]) -> tuple[int, ...]:
    return tuple(image[x] for x in range(1, len(image) + 1))


def permutation_as_map(cycles) -> tuple[int, ...]:
    """The images of 1..n under a permutation given by disjoint cycles."""
    return _as_tuple(_images(cycles))


def heap_product_by_maps(s_cycles, t_cycles) -> dict[tuple[int, ...], int]:
    """Every cycle of ``s``, shifted above the points of ``t``, either stays a
    cycle of its own or is spliced into the cycle of ``t`` right after one of
    its points; strings spliced after the same point come in decreasing order
    of their first entry.  One term per choice, counted as image tuples."""
    n = sum(len(c) for c in t_cycles)
    strings = [tuple(x + n for x in c) for c in s_cycles]
    out: dict[tuple[int, ...], int] = {}
    for choice in itertools.product(range(n + 1), repeat=len(strings)):
        image = _images(t_cycles) | _images(strings)
        for point in range(1, n + 1):
            stacked = sorted((st for st, p in zip(strings, choice) if p == point), reverse=True)
            nxt = image[point]
            for string in reversed(stacked):
                image[string[-1]] = nxt
                nxt = string[0]
            image[point] = nxt
        key = _as_tuple(image)
        out[key] = out.get(key, 0) + 1
    return out


def cycles_by_walk(images) -> tuple[tuple[int, ...], ...]:
    """The cycles of the permutation ``x -> images[x - 1]`` of ``1..n`` in standard
    order, found by following ``x -> image(x)`` from the smallest point not yet
    seen (so each cycle starts at its smallest entry, with increasing starts),
    listed last cycle first."""
    mapping = {i + 1: image for i, image in enumerate(images)}
    remaining = set(mapping)
    cycles = []
    while remaining:
        start = min(remaining)
        cycle = [start]
        remaining.discard(start)
        nxt = mapping[start]
        while nxt != start:
            cycle.append(nxt)
            remaining.discard(nxt)
            nxt = mapping[nxt]
        cycles.append(tuple(cycle))
    return tuple(reversed(cycles))


def cycle_coproduct_by_subsets(p: CyclePermutation) -> LinearCombination:
    """The cycle coproduct by its definition: one term for each of the ``2^r`` subsets of
    the cycles, fixed points split apart, each part ranked to ``1..k`` afresh."""

    def ranked(cycles):
        rank = {x: r for r, x in enumerate(sorted(x for c in cycles for x in c), 1)}
        return CyclePermutation([[rank[x] for x in c] for c in cycles])

    cycles = p.cycles
    terms = []
    for mask in range(1 << len(cycles)):
        kept = [c for i, c in enumerate(cycles) if mask >> i & 1]
        rest = [c for i, c in enumerate(cycles) if not mask >> i & 1]
        terms.append((TensorPair(ranked(kept), ranked(rest)), 1))
    return LinearCombination(terms)


def symmetric_group_by_cycle_walk(n: int) -> list[CyclePermutation]:
    """S_n from every image tuple of ``1..n``, each cut into cycles by
    :func:`cycles_by_walk`; sorted by encoding."""
    out = [CyclePermutation(cycles_by_walk(images)) for images in itertools.permutations(range(1, n + 1))]
    return sorted(out, key=CyclePermutation.encode)


def permutation_to_tree_by_stack(p: CyclePermutation) -> Tree:
    """Each entry of each cycle string hangs below its nearest smaller left
    neighbor, found with a stack; the strings' heads hang below the root."""

    def subtree(string: tuple[int, ...]) -> Tree:
        children_of: dict[int, list[int]] = {x: [] for x in string}
        stack: list[int] = []
        for x in string:
            while stack and stack[-1] > x:
                stack.pop()
            if stack:
                children_of[stack[-1]].append(x)
            stack.append(x)

        def build(x: int) -> Tree:
            return Tree(x, tuple(build(c) for c in children_of[x]))

        return build(string[0])

    return Tree(None, tuple(subtree(c) for c in p.cycles))


def is_standard_heap_tree_by_sort(t: Tree) -> bool:
    """Root unlabeled, integer labels ``1..n`` each once, increasing downward, in
    two passes: the sorted non-root labels against ``1..n``, then a recursion
    comparing each label with its parent's."""
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
# oracle: unordered tree isomorphism classes via parent arrays


def _shape_from_parents(parents: tuple[int, ...], labels: tuple) -> tuple:
    """Canonical nested ``(label, sorted child shapes)`` form of the tree whose
    node ``i`` (``i >= 1``) hangs below ``parents[i - 1]`` and carries
    ``labels[i - 1]``; the root, node 0, is unlabeled."""
    children: list[list[int]] = [[] for _ in range(len(parents) + 1)]
    for node, parent in enumerate(parents, start=1):
        children[parent].append(node)
    names = (None,) + labels

    def shape(node: int) -> tuple:
        return (names[node], tuple(sorted(shape(c) for c in children[node])))

    return shape(0)


def _encode_shape(shape: tuple) -> str:
    """The tree grammar's text for a nested shape, children sorted as text."""
    label, children = shape
    head = "" if label is None else str(label)
    if not children:
        return f"({head})"
    return f"({head};" + "".join(sorted(map(_encode_shape, children))) + ")"


def shapes_by_parent_arrays(degree: int, symbols=(None,)) -> set[tuple]:
    """Isomorphism classes of unordered trees with ``degree + 1`` nodes whose
    non-root nodes carry labels from ``symbols`` (``(None,)``: unlabeled).

    Every rooted tree admits a numbering where parents precede children, so
    enumerating all parent arrays (node i's parent among 0..i-1) times all
    label tuples and reducing to canonical nested tuples hits every class.
    """
    return {
        _shape_from_parents(parents, labels)
        for parents in itertools.product(*(range(i) for i in range(1, degree + 1)))
        for labels in itertools.product(symbols, repeat=degree)
    }


def tree_encodings_by_parent_arrays(degree: int, symbols=(None,)) -> set[str]:
    return {_encode_shape(shape) for shape in shapes_by_parent_arrays(degree, symbols)}


def forest_encodings_by_parent_arrays(total_nodes: int) -> set[str]:
    """Forest monomials with ``total_nodes`` nodes: the root-stripped shapes
    of the rooted trees with one node more, joined by ``*`` (``1`` if empty)."""
    return {
        "*".join(sorted(map(_encode_shape, children))) or "1"
        for _, children in shapes_by_parent_arrays(total_nodes)
    }


def label_in_preorder(shape: str, labels) -> str:
    """The encoding of an unlabeled planar ``shape`` with its non-root nodes
    labeled from ``labels`` in preorder: in the text, each ``(`` after the
    first opens the next node in preorder."""
    root, *below = shape.split("(")[1:]
    return "(" + root + "".join(f"({label}{rest}" for label, rest in zip(labels, below, strict=True))


# ---------------------------------------------------------------------------
# oracle: planar trees in composition order


def _compositions(total: int):
    """The compositions of ``total``, smallest first part first."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


@functools.cache
def _planar_shapes(nodes: int) -> tuple[Tree, ...]:
    """Every planar shape with ``nodes`` nodes: by the root's child sizes in
    composition order, then by the children's shapes in product order."""
    return tuple(
        Tree(None, subtrees, True)
        for sizes in _compositions(nodes - 1)
        for subtrees in itertools.product(*[_planar_shapes(k) for k in sizes])
    )


def _label_preorder(shape: Tree, label, labels) -> Tree:
    """``shape`` with root ``label`` and the next items of ``labels`` below, in preorder."""
    return Tree(label, tuple(_label_preorder(c, next(labels), labels) for c in shape.children), True)


def planar_trees_by_compositions(degree: int, labels=(None,)) -> list[Tree]:
    """Every planar tree with ``degree`` non-root nodes labeled from ``labels``:
    shape by shape, each shape's labelings in product order over its preorder."""
    return [
        _label_preorder(shape, None, iter(labeling))
        for shape in _planar_shapes(degree + 1)
        for labeling in itertools.product(labels, repeat=degree)
    ]


# ---------------------------------------------------------------------------
# oracle: automorphism count via plane representations


def _plane_forms(tree: Tree):
    """All distinct plane (child-order-sensitive) forms of an unordered tree."""
    if not tree.children:
        yield ()
        return
    child_forms = [set(_plane_forms(c)) for c in tree.children]
    seen = set()
    for perm in itertools.permutations(range(len(tree.children))):
        for combo in itertools.product(*(child_forms[i] for i in perm)):
            seen.add(combo)
    yield from seen


def automorphisms_by_plane_count(tree: Tree) -> int:
    """|Aut| = (product of children-count factorials) / #plane representations."""
    total_orderings = 1

    def count(node: Tree) -> None:
        nonlocal total_orderings
        total_orderings *= math.factorial(len(node.children))
        for c in node.children:
            count(c)

    count(tree)
    plane = len(set(_plane_forms(tree)))
    assert total_orderings % plane == 0
    return total_orderings // plane


# ---------------------------------------------------------------------------
# oracle: admissible cuts by filtering all edge subsets


class Cut(Value):
    """A set of removed edges, each named by the address of its child endpoint.

    An address is the tuple of child positions walked from the root in the
    tree's canonical form.
    """

    __slots__ = ("removed_edges",)

    def __init__(self, removed_edges: frozenset[tuple[int, ...]]):
        object.__setattr__(self, "removed_edges", removed_edges)

    def is_admissible(self) -> bool:
        """No removed edge may sit on the path from the root to another."""
        for a, b in itertools.combinations(self.removed_edges, 2):
            shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
            if longer[: len(shorter)] == shorter:
                return False
        return True


def tree_edges(tree: Tree) -> list[tuple[int, ...]]:
    """Addresses of all edges (identified by their child endpoints)."""
    out: list[tuple[int, ...]] = []

    def walk(node: Tree, address: tuple[int, ...]) -> None:
        for i, child in enumerate(node.children):
            out.append(address + (i,))
            walk(child, address + (i,))

    walk(tree, ())
    return out


def apply_cut(tree: Tree, cut: Cut) -> tuple[Forest, Tree]:
    """Split ``tree`` along an admissible cut into (pruned forest, root part)."""
    pruned: list[Tree] = []

    def walk(node: Tree, address: tuple[int, ...]) -> Tree:
        kept: list[Tree] = []
        for i, child in enumerate(node.children):
            child_address = address + (i,)
            if child_address in cut.removed_edges:
                pruned.append(child)
            else:
                kept.append(walk(child, child_address))
        return Tree(node.label, tuple(kept), node.ordered)

    root_part = walk(tree, ())
    return Forest(pruned), root_part


def cuts_by_subset_filter(tree: Tree) -> list[tuple[Forest, Tree]]:
    """Enumerate all edge subsets and keep the admissible ones."""
    edges = tree_edges(tree)
    results = []
    for r in range(len(edges) + 1):
        for chosen in itertools.combinations(edges, r):
            cut = Cut(frozenset(chosen))
            if cut.is_admissible():
                results.append(apply_cut(tree, cut))
    return results


def word_to_trees_by_products(word, symbols=None) -> LinearCombination:
    """A word's trees as products in the labeled grafting algebra: each letter's
    single-leaf tree times the product of the letters after it, through the
    algebra's validated public product."""
    word = tuple(word)
    if symbols is not None:
        known = set(symbols)
        unknown = [s for s in word if s not in known]
        if unknown:
            raise KeyError(f"unknown derivation symbols {unknown}")
    alphabet = tuple(dict.fromkeys(word)) if symbols is None else tuple(sorted(set(word) | set(symbols)))
    alg = labeled_algebra(alphabet)
    result = LinearCombination.single(alg.unit())
    for letter in reversed(word):
        generator = Tree(None, (Tree(letter),))
        result = extend_bilinear(alg.product, LinearCombination.single(generator), result)
    return result


# ---------------------------------------------------------------------------
# oracle: the flat tree action as a sum over all n^k index assignments


def tree_operator_by_index_sum(tree: Tree, env, f: Polynomial) -> Polynomial:
    """Number the non-root nodes 1..k, pick an index in 1..n for each, and
    multiply one factor per node: the root gives ``f`` and a node labeled E
    gives the chosen coefficient of E, each differentiated by its children's
    indices.  Child order plays no part, so ordered trees work too.
    """
    info: dict[int, tuple[str, list[int]]] = {}  # node number -> (label, child numbers)
    counter = itertools.count(1)

    def walk(node: Tree) -> list[int]:
        numbers = []
        for child in node.children:
            j = next(counter)
            numbers.append(j)
            info[j] = (child.label, walk(child))
        return numbers

    root_children = walk(tree)
    total = Polynomial.zero(env.num_vars)
    for assignment in itertools.product(range(1, env.num_vars + 1), repeat=len(info)):
        index = dict(zip(range(1, len(info) + 1), assignment))
        term = f
        for child in root_children:
            term = term.derivative(index[child])
        for j, (label, children) in info.items():
            factor = env[label].coeffs[index[j] - 1]
            for child in children:
                factor = factor.derivative(index[child])
            term = term * factor
        total = total + term
    return total


# ---------------------------------------------------------------------------
# oracle: covariant differentials by their defining recursions (m! calls)


def christoffel(conn, i: int, j: int, k: int) -> Polynomial:
    """The Christoffel entry ``gamma[i, j, k]`` of ``conn``, the zero polynomial where it has none."""
    entries = {(a + 1, b + 1, c + 1): store for a, b, c, store, _ in conn._steps}
    return Polynomial.zero(conn.num_vars)._new(dict(entries.get((i, j, k), {})))


def is_flat(conn) -> bool:
    return not conn._steps


def covariant_derivative_by_formula(conn, lower: Derivation, upper: Derivation) -> Derivation:
    """``(nabla_X Y)^k = sum_mu X^mu dY^k/dx_mu + sum_{i,j} gamma[i,j,k] X^i Y^j``."""
    n = conn.num_vars
    comps = []
    for k in range(1, n + 1):
        comp = Polynomial.zero(n)
        for mu in range(1, n + 1):
            comp = comp + lower.coeffs[mu - 1] * upper.coeffs[k - 1].derivative(mu)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                comp = comp + christoffel(conn, i, j, k) * lower.coeffs[i - 1] * upper.coeffs[j - 1]
        comps.append(comp)
    return Derivation(tuple(comps))


def vector_covariant_differential_by_recursion(field: Derivation, fields, conn) -> Derivation:
    """``nabla_{X_1}((nabla^{m-1} E)(X_2,..)) - sum_i (nabla^{m-1} E)(X_2,.., nabla_{X_1} X_i, ..)``."""
    if not fields:
        return field
    head, tail = fields[0], list(fields[1:])
    result = covariant_derivative_by_formula(
        conn, head, vector_covariant_differential_by_recursion(field, tail, conn)
    )
    for i in range(len(tail)):
        corrected = list(tail)
        corrected[i] = covariant_derivative_by_formula(conn, head, tail[i])
        result = result - vector_covariant_differential_by_recursion(field, corrected, conn)
    return result


def covariant_differential_by_recursion(f: Polynomial, fields, conn) -> Polynomial:
    """``X_1((nabla^{m-1} f)(X_2,..)) - sum_i (nabla^{m-1} f)(X_2,.., nabla_{X_1} X_i, ..)``."""
    if not fields:
        return f
    head, tail = fields[0], list(fields[1:])
    result = head.apply(covariant_differential_by_recursion(f, tail, conn))
    for i in range(len(tail)):
        corrected = list(tail)
        corrected[i] = covariant_derivative_by_formula(conn, head, tail[i])
        result = result - covariant_differential_by_recursion(f, corrected, conn)
    return result


def subtree_derivation_by_recursion(subtree: Tree, env, conn) -> Derivation:
    fields = [subtree_derivation_by_recursion(u, env, conn) for u in subtree.children]
    return vector_covariant_differential_by_recursion(env[subtree.label], fields, conn)


def connection_action_by_recursion(tree: Tree, env, conn, f: Polynomial) -> Polynomial:
    """Curved action of an ordered labeled tree: the root's covariant
    differential of ``f`` on its children's folded derivations, in order."""
    fields = [subtree_derivation_by_recursion(s, env, conn) for s in tree.children]
    return covariant_differential_by_recursion(f, fields, conn)


def module_law_by_coproduct(tree: Tree, env, conn, a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Both sides of the module law ``t . (a b) = sum (t' . a)(t'' . b)`` from the
    public API alone: each piece of the ordered labeled coproduct is a pair of
    trees, each tree acts through ``apply_connection_operator``, and the products
    are summed as polynomials."""
    rhs = Polynomial.zero(a.num_vars)
    for pair, coeff in labeled_algebra(env.symbols, ordered=True).coproduct(tree):
        left = apply_connection_operator(pair.left, env, conn, a)
        rhs = rhs + coeff * (left * apply_connection_operator(pair.right, env, conn, b))
    return apply_connection_operator(tree, env, conn, a * b), rhs


# ---------------------------------------------------------------------------
# oracle: the Hopf axioms as identities between combinations of elements


class ObjectSweep:
    """An algebra whose products, coproducts and antipodes are each computed
    once and kept as ``LinearCombination``s of elements; the antipode is the
    recursion ``S(x) = -x - sum S(x') x''`` over the proper part of ``Delta x``."""

    def __init__(self, alg):
        self.unit, self.degree, self.counit = alg.unit, alg.degree, alg.counit
        self.product = functools.cache(alg.product)
        self.coproduct = functools.cache(alg.coproduct)
        self.antipode = functools.cache(self._antipode)

    def _antipode(self, x) -> LinearCombination:
        deg = self.degree(x)
        if deg == 0:
            return LinearCombination.single(x)
        pieces = [(-1, LinearCombination.single(x))]
        for pair, coeff in self.coproduct(x):
            if self.degree(pair.left) not in (0, deg):
                pieces.extend((-coeff * c, self.product(s, pair.right)) for s, c in self.antipode(pair.left))
        return _sum_scaled(pieces)


def unital(alg, x) -> bool:
    single, unit = LinearCombination.single(x), alg.unit()
    return alg.product(unit, x) == single and alg.product(x, unit) == single


def associative(alg, x, y, z) -> bool:
    left = extend_linear(lambda s: alg.product(s, z), alg.product(x, y))
    right = extend_linear(lambda s: alg.product(x, s), alg.product(y, z))
    return left == right


def coassociative(alg, x) -> bool:
    """``(Delta (x) id) Delta x = (id (x) Delta) Delta x``, both over ``(a (x) b) (x) c``."""
    delta = alg.coproduct(x)
    left = extend_linear(
        lambda pair: alg.coproduct(pair.left).map_basis(lambda p: TensorPair(p, pair.right)), delta
    )
    right = extend_linear(
        lambda pair: alg.coproduct(pair.right).map_basis(
            lambda p: TensorPair(TensorPair(pair.left, p.left), p.right)
        ),
        delta,
    )
    return left == right


def counital(alg, x) -> bool:
    """``(counit (x) id) Delta x = (id (x) counit) Delta x = x``."""
    single, delta = LinearCombination.single(x), alg.coproduct(x)
    left = LinearCombination((pair.right, coeff * alg.counit(pair.left)) for pair, coeff in delta)
    right = LinearCombination((pair.left, coeff * alg.counit(pair.right)) for pair, coeff in delta)
    return left == single and right == single


def compatible(alg, x, y) -> bool:
    """The coproduct is an algebra morphism: ``Delta(x y) = Delta(x) Delta(y)``."""
    def pairwise(p: TensorPair, q: TensorPair) -> LinearCombination:
        return tensor(alg.product(p.left, q.left), alg.product(p.right, q.right))

    lhs = extend_linear(alg.coproduct, alg.product(x, y))
    return lhs == extend_bilinear(pairwise, alg.coproduct(x), alg.coproduct(y))


def antipodal(alg, x) -> bool:
    """``m(S (x) id) Delta x = m(id (x) S) Delta x = counit(x) 1``."""
    target = alg.counit(x) * LinearCombination.single(alg.unit())
    delta = alg.coproduct(x)
    left = _sum_scaled(
        (coeff * s_coeff, alg.product(s, pair.right))
        for pair, coeff in delta
        for s, s_coeff in alg.antipode(pair.left)
    )
    right = _sum_scaled(
        (coeff * s_coeff, alg.product(pair.left, s))
        for pair, coeff in delta
        for s, s_coeff in alg.antipode(pair.right)
    )
    return left == target and right == target


def verify_morphism(phi, source, target, max_degree: int) -> axioms.VerificationReport:
    """Check that ``phi``, which sends each basis element of ``source`` to one of
    ``target``, is a morphism of Hopf algebras on the basis of ``source`` up to
    ``max_degree``: ``phi(1) = 1``, ``phi(xy) = phi(x) phi(y)`` on the sweep's
    pairs (positive degrees summing to at most ``max_degree + 1``),
    ``(phi (x) phi) Delta x = Delta phi(x)``, ``counit(phi(x)) = counit(x)`` and
    ``phi S x = S phi x`` on every element.  Each side is read from the integer
    tables of its own sweep store and ``phi`` is applied once per element."""
    src, tgt = axioms._SweepMemo(source), axioms._SweepMemo(target)
    basis = {d: list(map(src.number, source.basis(d))) for d in reversed(range(max_degree + 1))}
    image = functools.cache(lambda i: tgt.number(phi(src.elems[i])))

    def mapped(table: dict) -> dict:
        return _collect((image(k), c) for k, c in table.items())

    def comultiplicative(_, x: int) -> bool:
        delta = src.coproduct(x).items()
        return _collect(((image(a), image(b)), c) for (a, b), c in delta) == tgt.coproduct(image(x))

    elements = list(axioms.graded_tuples(basis, 1, 0, max_degree))
    return axioms.sweep(src, f"{source.describe()} -> {target.describe()}", (
        ("unit", [(src.unit,)], lambda _, x: image(x) == tgt.unit),
        ("product", axioms.graded_tuples(basis, 2, 1, max_degree + 1),
         lambda _, x, y: mapped(src.product(x, y)) == tgt.product(image(x), image(y))),
        ("coproduct", elements, comultiplicative),
        ("counit", elements, lambda _, x: source.counit(src.elems[x]) == target.counit(tgt.elems[image(x)])),
        ("antipode", elements, lambda _, x: mapped(src.antipode(x)) == tgt.antipode(image(x))),
    ))
