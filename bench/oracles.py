"""Computations the benchmark checks the program against.

Nothing here imports ``hopftrees``: trees are parsed by a parser of our own
into nested sorted tuples, grafting is brute force over those tuples,
polynomials are plain dicts, and basis sizes come from closed formulas and the
Euler transform rather than from the program's enumerators.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

# Rooted (unordered, unlabeled) trees with d + 1 nodes, d = 0..6 (OEIS A000081).
ROOTED_COUNTS = (1, 1, 2, 4, 9, 20, 48)


# ---------------------------------------------------------------------------
# trees as nested tuples: node = (label, children), children sorted


def parse_shape(text: str, ordered: bool = False):
    """Parse ``tree := '(' label? (';' tree*)? ')'`` into ``(label, children)``.

    Labels stay strings (``""`` for none).  Unordered children are sorted,
    which is a canonical form independent of the program's ``canonicalize``.
    """
    pos = 0

    def node():
        nonlocal pos
        if text[pos] != "(":
            raise ValueError(f"expected '(' at {pos} in {text!r}")
        pos += 1
        start = pos
        while text[pos] not in ";()":
            pos += 1
        label = text[start:pos].strip()
        kids = []
        if text[pos] == ";":
            pos += 1
            while text[pos] == "(":
                kids.append(node())
        if text[pos] != ")":
            raise ValueError(f"expected ')' at {pos} in {text!r}")
        pos += 1
        return (label, tuple(kids) if ordered else tuple(sorted(kids)))

    shape = node()
    if pos != len(text):
        raise ValueError(f"trailing input in {text!r}")
    return shape


def render_shape(shape) -> str:
    label, kids = shape
    if not kids:
        return f"({label})"
    return f"({label};" + "".join(render_shape(k) for k in kids) + ")"


def shape_nodes(shape) -> int:
    return 1 + sum(shape_nodes(k) for k in shape[1])


def _sort_shape(shape):
    label, kids = shape
    return (label, tuple(sorted(_sort_shape(k) for k in kids)))


def _shift_shape(shape, offset: int):
    label, kids = shape
    if label.isdigit():
        label = str(int(label) + offset)
    return (label, tuple(_shift_shape(k, offset) for k in kids))


def graft_oracle(t1: str, t2: str, shift: int = 0) -> dict:
    """Brute-force grafting product of two unordered trees given as text.

    Strips the root of ``t1``, shifts its integer labels by ``shift`` (the
    heap-ordered flavor), and hangs every member below every node of ``t2``
    in all ``n^r`` ways.  Returns ``{canonical shape: multiplicity}``.
    """
    members = [_shift_shape(m, shift) for m in parse_shape(t1)[1]]
    target = parse_shape(t2)
    n = shape_nodes(target)
    out: dict = {}
    for assignment in itertools.product(range(n), repeat=len(members)):
        extra: dict[int, list] = {}
        for member, at in zip(members, assignment):
            extra.setdefault(at, []).append(member)
        counter = itertools.count()

        def rebuild(shape):
            index = next(counter)
            label, kids = shape
            rebuilt = [rebuild(k) for k in kids] + extra.get(index, [])
            return (label, tuple(sorted(rebuilt)))

        key = _sort_shape(rebuild(target))
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# seeded tree text


def random_tree_text(rng: random.Random, nodes: int, root_degree: int, labels=None,
                     heap: bool = False) -> str:
    """A random tree with ``nodes`` nodes whose root has ``root_degree`` children.

    Node ``k`` hangs below a uniformly chosen earlier node (a random recursive
    tree), redrawn until the root degree matches.  ``labels`` draws a label for
    each non-root node; ``heap`` labels node ``k`` with ``k``, which is a
    standard heap order because parents precede children.
    """
    if not 1 <= root_degree <= nodes - 1:
        raise ValueError("root degree must be between 1 and nodes - 1")
    while True:
        parents = [rng.randrange(k) for k in range(1, nodes)]
        if parents.count(0) == root_degree:
            break
    names = [""] + [
        str(k) if heap else (rng.choice(labels) if labels else "") for k in range(1, nodes)
    ]
    kids: list[list[int]] = [[] for _ in range(nodes)]
    for child, parent in enumerate(parents, start=1):
        kids[parent].append(child)

    def text(k: int) -> str:
        if not kids[k]:
            return f"({names[k]})"
        return f"({names[k]};" + "".join(text(c) for c in kids[k]) + ")"

    return text(0)


# ---------------------------------------------------------------------------
# basis sizes and the check counts of the axiom sweeps


def colored_forest_counts(colors: int, max_nodes: int) -> list[int]:
    """Forests of rooted trees with nodes coloured from ``colors`` colours.

    ``f(n)`` is the Euler transform of ``a(n) = colors * f(n - 1)``, the
    coloured rooted trees.  With one colour ``f(n)`` is the number of rooted
    trees with ``n + 1`` nodes; with ``k`` colours it is the size of the
    degree-``n`` basis of the ``k``-labeled tree algebra.
    """
    f = [1]
    a = [0]
    for n in range(1, max_nodes + 1):
        a.append(colors * f[n - 1])
        c = [0] + [sum(d * a[d] for d in range(1, j + 1) if j % d == 0) for j in range(1, n + 1)]
        f.append(sum(c[j] * f[n - j] for j in range(1, n + 1)) // n)
    return f


def catalan(d: int) -> int:
    return math.comb(2 * d, d) // (d + 1)


def _degree_tuples(arity: int, cap: int):
    return [
        combo
        for combo in itertools.product(range(1, cap + 1), repeat=arity)
        if sum(combo) <= cap
    ]


def expected_sweep_checks(basis_size, max_degree: int) -> dict[str, int]:
    """Check counts of the generic Hopf sweep, from the basis sizes alone."""
    b = [basis_size(d) for d in range(max_degree + 2)]
    per_element = sum(b[: max_degree + 1])
    return {
        "unit": per_element,
        "associativity": sum(b[x] * b[y] * b[z] for x, y, z in _degree_tuples(3, max_degree + 1)),
        "coassociativity": per_element,
        "counit": per_element,
        "compatibility": sum(b[x] * b[y] for x, y in _degree_tuples(2, max_degree + 1)),
        "antipode": per_element,
    }


def expected_forest_checks(max_degree: int) -> dict[str, int]:
    """Check counts of the forest-algebra sweep.

    Monomials with ``n`` nodes are as many as rooted trees with ``n + 1`` nodes.
    """
    m = colored_forest_counts(1, 2 * max_degree + 1)
    D = max_degree
    half = D // 2
    return {
        "commutativity": sum(m[i] * m[j] for i in range(D + 1) for j in range(D + 1 - i)),
        "associativity": sum(
            m[i] * m[j] * m[k]
            for i in range(D + 1)
            for j in range(D + 1 - i)
            for k in range(D + 1 - i - j)
        ),
        "unit": sum(m[: D + 1]),
        "coassociativity": sum(m[: D + 1]),
        "counit": sum(m[: D + 1]),
        "grafting-duality": sum(
            m[d1] * m[d2] * m[d1 + d2] for d1 in range(half + 1) for d2 in range(half + 1)
        ),
    }


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: Fraction}


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out = poly_add(out, {tuple(a + b for a, b in zip(e1, e2)): c1 * c2})
    return out


def poly_diff(p: dict, i: int) -> dict:
    """Partial derivative by the 0-based variable ``i``."""
    out: dict = {}
    for e, c in p.items():
        if e[i]:
            out = poly_add(out, {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i]})
    return out


def apply_derivation(coeffs: list[dict], f: dict) -> dict:
    out: dict = {}
    for i, a in enumerate(coeffs):
        out = poly_add(out, poly_mul(a, poly_diff(f, i)))
    return out


def nested_application(word, env: dict, f: dict) -> dict:
    """``E_{w1}(E_{w2}(...E_{wk}(f)))``: the right side of the composition law."""
    for symbol in reversed(tuple(word)):
        f = apply_derivation(env[symbol], f)
    return f


def tree_operator_oracle(text: str, env: dict, f: dict, num_vars: int) -> dict:
    """The multi-index sum that defines a labeled tree's operator.

    Each non-root node takes an index; the root contributes ``f`` and each node
    the indexed coefficient of its derivation, each differentiated by the
    indices of that node's children.
    """
    root = parse_shape(text, ordered=True)
    nodes = []

    def walk(shape) -> list[int]:
        numbers = []
        for kid in shape[1]:
            j = len(nodes)
            nodes.append(None)
            nodes[j] = (kid[0], walk(kid))
            numbers.append(j)
        return numbers

    top = walk(root)
    total: dict = {}
    for index in itertools.product(range(num_vars), repeat=len(nodes)):
        term = f
        for j in top:
            term = poly_diff(term, index[j])
        for j, (label, kids) in enumerate(nodes):
            factor = env[label][index[j]]
            for k in kids:
                factor = poly_diff(factor, index[k])
            term = poly_mul(term, factor)
        total = poly_add(total, term)
    return total


def random_poly(rng: random.Random, num_vars: int, terms: int, max_degree: int) -> dict:
    """``terms`` distinct monomials of degree at most ``max_degree``, nonzero coefficients."""
    out: dict = {}
    while len(out) < terms:
        e = [0] * num_vars
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(num_vars)] += 1
        out[tuple(e)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
    return out


def render_poly(p: dict) -> str:
    """Text the program's polynomial parser reads, e.g. ``3/2*x1^2*x3 - x2``."""
    if not p:
        return "0"
    parts = []
    for e, c in sorted(p.items()):
        factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k]
        body = "*".join([str(abs(c))] + factors)
        parts.append(("-" if c < 0 else "+") + " " + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
