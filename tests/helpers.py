"""Shared fixtures: element shortcuts and independent brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: tree
isomorphism classes (unlabeled, labeled, and root-stripped as forest
monomials) are found through parent arrays and nested tuples, planar
labelings by writing labels into a shape's text in preorder, grafting
products through every one of the (n+1)^r assignments, shuffles through their
defining recursion, heap products as maps with spliced cycles, symmetric
groups by walking the cycles of every image tuple, the tree of a cycle string
by a stack of its smaller left neighbors, automorphism counts through
plane-representation counting, and cuts through edge-subset filtering.  Trees
act on polynomials here through the two textbook definitions the library
replaces by one contraction: the flat sum over all index assignments of a
tree's nodes, and the recursive m-th covariant differentials of a connection.
"""

from __future__ import annotations

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
    canonicalize,
    parse_tree,
)
from hopftrees.algebra import Value


def t(text: str) -> Tree:
    return parse_tree(text)


def ot(text: str) -> Tree:
    return parse_tree(text, ordered=True)


def lc(*pairs) -> LinearCombination:
    return LinearCombination([(basis, coeff) for basis, coeff in pairs])


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


def canonical_by_sorting(tree: Tree) -> Tree:
    """A fresh copy with unordered children sorted by encoding at every level."""
    children = tuple(canonical_by_sorting(c) for c in tree.children)
    if not tree.ordered:
        children = tuple(sorted(children, key=Tree.encode))
    return Tree(tree.label, children, tree.ordered)


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
        key = canonical_by_sorting(graft(target, 0, placement)[0])
        out[key] = out.get(key, 0) + 1
    return LinearCombination(out)


# ---------------------------------------------------------------------------
# oracle: shuffles by the defining recursion, heap products as maps,
# symmetric groups by cycle walks, cycle strings as trees by a stack


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


def symmetric_group_by_cycle_walk(n: int) -> list[CyclePermutation]:
    """S_n from every image tuple of ``1..n``, each cut into cycles by following
    ``x -> image(x)`` from the smallest point not yet seen; sorted by encoding."""
    out = []
    for images in itertools.permutations(range(1, n + 1)):
        mapping = {i + 1: images[i] for i in range(n)}
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
        out.append(CyclePermutation.from_cycles(cycles))
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

    return canonicalize(Tree(None, tuple(subtree(c) for c in p.cycles)))


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
    return Forest.canonical(pruned), canonicalize(root_part)


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
                comp = comp + conn.christoffel(i, j, k) * lower.coeffs[i - 1] * upper.coeffs[j - 1]
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
