"""Shared fixtures: element shortcuts and independent brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: tree
isomorphism classes are counted through parent arrays and nested tuples,
grafting products through every one of the (n+1)^r assignments, automorphism
counts through plane-representation counting, and cuts through edge-subset
filtering.  Trees act on polynomials here through the two
textbook definitions the library replaces by one contraction: the flat sum
over all index assignments of a tree's nodes, and the recursive m-th
covariant differentials of a connection.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from hopftrees import Derivation, Forest, LinearCombination, Polynomial, Tree, parse_tree


def t(text: str) -> Tree:
    return parse_tree(text)


def ot(text: str) -> Tree:
    return parse_tree(text, ordered=True)


def lc(*pairs) -> LinearCombination:
    return LinearCombination([(basis, coeff) for basis, coeff in pairs])


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
# oracle: unordered rooted tree isomorphism classes via parent arrays


def _shape_from_parents(parents: tuple[int, ...]):
    """Canonical nested-sorted-tuple form of a rooted tree given parent links."""
    children: list[list[int]] = [[] for _ in range(len(parents) + 1)]
    for node, parent in enumerate(parents, start=1):
        children[parent].append(node)

    def shape(node: int):
        return tuple(sorted(shape(c) for c in children[node]))

    return shape(0)


def count_rooted_shapes_by_parent_arrays(num_nodes: int) -> int:
    """Number of unordered rooted trees with ``num_nodes`` nodes.

    Every rooted tree admits a numbering where parents precede children, so
    enumerating all parent arrays (node i's parent among 0..i-1) and reducing
    to canonical nested tuples hits every isomorphism class.
    """
    if num_nodes == 1:
        return 1
    shapes = set()
    for parents in itertools.product(*(range(i) for i in range(1, num_nodes))):
        shapes.add(_shape_from_parents(parents))
    return len(shapes)


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
