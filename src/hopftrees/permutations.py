"""Permutations in disjoint-cycle form and their heap-product Hopf algebra.

A permutation is canonical from construction: its constructor writes every
cycle from its smallest entry and lists the cycles with decreasing first
entries; fixed points are kept as explicit 1-cycles.  The heap product of
``s in S_m`` with ``t in S_n`` shifts ``s``'s entries up by ``n`` and gives each
of its cycle strings a target: the letter of ``t`` it follows, or 0 for a cycle
of its own; one term per assignment, ``(n+1)^r`` terms in all.  The
coproduct splits the cycle set over all subsets, relabeling each part
order-isomorphically down to an initial segment.  The product also lists the
basis: S_{k+1} is the support of the products of ``(1)`` with S_k.

The same structure lives on standard heap-ordered trees: a cycle string maps
to the subtree in which each entry hangs below its nearest smaller left
neighbor (the head over the left-to-right minima of the rest), and the string
is recovered by listing children in decreasing label order.
:func:`permutation_to_tree` / :func:`tree_to_permutation` realize this
bijection; the exhaustive sweeps in the tests check that it intertwines both
products and both coproducts.
"""

from __future__ import annotations

import itertools
import math
import re

from .algebra import (_PLAIN, GradedHopfAlgebra, Immutable, LinearCombination, ParseError, TensorPair, _collect,
                      _int, _set, check_budget, check_degree, pieces, splits)
from .trees import HEAP_DEGREE_CAP, Tree, _check_degree, is_standard_heap_tree


class CyclePermutation(Immutable):
    """Disjoint cycles over a finite set of positive integers, standard order.

    The constructor is the one place that decides standard order: it rotates
    each cycle to start at its smallest entry, drops an empty one, and sorts the
    cycles by decreasing first entry.  :meth:`from_cycles` checks the entries.
    Algebra basis elements act on ``{1..n}``; :func:`shift` produces the
    shifted window ``{m+1..m+k}`` used while building heap products.
    Immutable and equal by value; the hash is computed once at construction.
    """

    __slots__ = ("cycles", "_hash")

    def __init__(self, cycles=()):
        standard = []
        for cycle in cycles:
            if not cycle:
                continue
            low = min(cycle)
            if cycle[0] != low:
                pivot = cycle.index(low)
                cycle = cycle[pivot:] + cycle[:pivot]
            standard.append(tuple(cycle))
        standard.sort(reverse=True)
        _set(self, "cycles", tuple(standard))
        _set(self, "_hash", hash((self.cycles,)))

    def __reduce__(self):
        return CyclePermutation, (self.cycles,)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, CyclePermutation):
            return NotImplemented
        return self._hash == other._hash and self.cycles == other.cycles

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CyclePermutation({self.cycles!r})"

    @classmethod
    def from_cycles(cls, cycles, n: int | None = None) -> "CyclePermutation":
        """Check raw cycles and build the permutation, adding fixed points up to ``n``.

        A bad entry raises :class:`ParseError` positioned at its index among all the entries, and a
        non-integral ``n`` a ``ValueError``."""
        seen = {}  # entry -> its index among all the entries
        cleaned = []  # the cycles, checked, then the fixed points
        for cycle in cycles:
            cleaned.append([])
            for given in cycle:
                x = _int(given)
                if x != given or x <= 0 or x in seen:
                    problem = (f"entries must be integers, got {given!r}" if x != given
                               else f"duplicate entry {x} across cycles" if x > 0 else f"entries must be positive, got {x}")
                    raise ParseError(problem, position=len(seen))
                seen[x] = len(seen)
                cleaned[-1].append(x)
        top = max(seen, default=0)
        size = top if n is None else _int(n)
        if n is not None and size != n:  # an integral float such as 2.0 passes
            raise ValueError(f"n must be an integer, got {n!r}")
        if size < top:
            raise ParseError(f"entry {top} out of range for S_{size}", position=seen.get(top))
        for fixed in range(1, size + 1):
            if fixed not in seen:
                cleaned.append([fixed])
        return cls(cleaned)

    @classmethod
    def identity(cls, n: int) -> "CyclePermutation":
        return cls.from_cycles([], n=n)

    @property
    def size(self) -> int:
        """Number of points moved-or-fixed; the grading degree."""
        return sum(len(c) for c in self.cycles)

    def is_standard_domain(self) -> bool:
        return frozenset(x for cycle in self.cycles for x in cycle) == frozenset(range(1, self.size + 1))

    def encode(self) -> str:
        if not self.cycles:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in self.cycles)

    __str__ = encode


def shift(p: CyclePermutation, offset: int) -> CyclePermutation:
    """Increase every entry by ``offset`` (a permutation of the shifted window)."""
    return CyclePermutation(tuple(tuple(x + offset for x in c) for c in p.cycles))


def relabel(cycles) -> CyclePermutation:
    """Relabel the entries of disjoint cycles order-isomorphically to ``1..k``."""
    cycles = [tuple(c) for c in cycles]
    entries = sorted(itertools.chain.from_iterable(cycles))
    if list(map(_int, entries)) != entries:
        raise ValueError("cycle entries must be integers")
    if len(entries) != len(set(entries)):
        raise ValueError("cycles are not disjoint")
    rank = dict(zip(entries, range(1, len(entries) + 1))).__getitem__
    return CyclePermutation([tuple(map(rank, c)) for c in cycles])


def heap_product(s: CyclePermutation, t: CyclePermutation) -> LinearCombination:
    """Attach each shifted cycle string of ``s`` into ``t``; ``(n+1)^r`` terms.

    A string's target is a letter of ``t`` (in cycle order) or 0, meaning "keep
    the string as its own cycle".  A string targeting letter ``x`` is inserted
    immediately to the right of ``x``; strings sharing a letter stack with
    larger heads nearer to ``x``, which is exactly the arrangement that makes
    every stacked string hang below ``x`` under the tree bijection.
    """
    if not s.is_standard_domain() or not t.is_standard_domain():
        raise ValueError("heap product expects permutations of {1..n}")
    n = t.size
    shifted = shift(s, n).cycles  # heads strictly decreasing
    check_budget((n + 1) ** len(shifted), "heap product")
    targets = [x for cycle in t.cycles for x in cycle] + [0]
    counts = {}
    for assignment in itertools.product(targets, repeat=len(shifted)):
        after = {}  # letter -> the strings stacked after it, joined
        cycles = []  # the standalone strings, then the grown cycles of t
        for string, letter in zip(shifted, assignment):
            if letter:
                after.setdefault(letter, []).extend(string)
            else:
                cycles.append(string)
        for cycle in t.cycles:
            grown = []
            for letter in cycle:
                grown.append(letter)
                grown += after.get(letter, ())
            cycles.append(grown)
        p = CyclePermutation(cycles)
        counts[p] = counts.get(p, 0) + 1
    return _PLAIN._new(counts)


def cycle_coproduct(p: CyclePermutation) -> LinearCombination:
    """Split the cycle set over all subsets, relabeling both parts; the ``2^r`` subsets are budgeted.

    A run of fixed points ``(x)(x-1)..`` is adjacent in standard order, and no other entry lies
    between its points, so any ``j`` of its ``k`` points relabel alike.  So the run's points share
    one key, which :func:`~hopftrees.algebra.splits` keeps ``j`` times in ``C(k, j)`` ways, and the
    ``i``-th copy of a key ``(x)`` stands for the point ``x - i``."""
    # the subsets, not the fewer splits: each split relabels every entry, so a split count
    # would admit a long run of fixed points with work quadratic in its length
    check_budget(2 ** len(p.cycles), "cycle coproduct")
    keys = list(p.cycles[:1])
    for before, cycle in zip(p.cycles, p.cycles[1:]):
        keys.append(keys[-1] if len(cycle) == 1 and before == (cycle[0] + 1,) else cycle)

    def points(part):
        return [(key[0] - i,) + key[1:] for key, copies in itertools.groupby(part) for i, key in enumerate(copies)]

    return _PLAIN._new(_collect((TensorPair(relabel(points(kept)), relabel(points(rest))), ways)
                                for kept, rest, ways in splits(tuple(keys), "cycle coproduct")))


def symmetric_group(n: int) -> list[CyclePermutation]:
    """All elements of S_n in standard cycle form, sorted by encoding.  S_{k+1} grows from S_k by
    the heap product with ``(1)``, which puts ``k+1`` after one letter or alone: each element once."""
    check_degree(n)
    check_budget(math.factorial(n), f"symmetric group S_{n}")
    group, one = [CyclePermutation()], CyclePermutation(((1,),))
    for _ in range(n):
        group = [q for p in group for q, _ in heap_product(one, p)]
    return sorted(group, key=CyclePermutation.encode)


# ---------------------------------------------------------------------------
# Bijection with standard heap-ordered trees


def _string_to_subtree(string: tuple[int, ...]) -> Tree:
    """The head is the root; its children are the left-to-right minima of the
    rest, each over the entries up to the next minimum."""
    head, rest = string[0], string[1:]
    starts = [i for i, low in enumerate(itertools.accumulate(rest, min)) if rest[i] == low]
    bounds = zip(starts, starts[1:] + [len(rest)])
    return Tree(head, [_string_to_subtree(rest[a:b]) for a, b in bounds])


def permutation_to_tree(p: CyclePermutation) -> Tree:
    """Standard-order cycles become the root subtrees of a heap-ordered tree."""
    if not p.is_standard_domain():
        raise ValueError("expected a permutation of {1..n}")
    return Tree(None, [_string_to_subtree(c) for c in p.cycles])


def _subtree_to_string(t: Tree) -> tuple[int, ...]:
    out = [t.label]
    for child in sorted(t.children, key=lambda c: -c.label):
        out.extend(_subtree_to_string(child))
    return tuple(out)


def tree_to_permutation(t: Tree) -> CyclePermutation:
    """Inverse of :func:`permutation_to_tree` on standard heap-ordered trees."""
    if not is_standard_heap_tree(t):
        raise ValueError(f"{t.encode()} is not a standard heap-ordered tree")
    return CyclePermutation([_subtree_to_string(c) for c in t.children])


class PermutationHopfAlgebra(GradedHopfAlgebra):
    """Adapter exposing the heap product algebra to the generic axiom sweep."""

    __slots__ = ()

    def unit(self) -> CyclePermutation:
        return CyclePermutation()

    def degree(self, p: CyclePermutation) -> int:
        return p.size

    def basis(self, degree: int) -> list[CyclePermutation]:
        """S_degree, refused above the cap of heap-ordered trees (the same algebra)."""
        _check_degree(degree, None, HEAP_DEGREE_CAP)
        return symmetric_group(degree)

    def product(self, a: CyclePermutation, b: CyclePermutation) -> LinearCombination:
        return heap_product(a, b)

    def coproduct(self, p: CyclePermutation) -> LinearCombination:
        return cycle_coproduct(p)

    def describe(self) -> str:
        return "heap product algebra"


HEAP_PRODUCT_ALGEBRA = PermutationHopfAlgebra()


def parse_permutation(text: str, n: int | None = None) -> CyclePermutation:
    """Parse standard cycle notation like ``(1 3)(4)(5 7)``, entries separated by
    spaces or commas; ``()`` is the identity of S_0.  ``n`` forces the ambient symmetric group."""
    if text.strip() == "()":
        return CyclePermutation.identity(n or 0)
    *closed, (end, rest) = pieces(text, ")")
    cycles: list[list[int]] = []
    columns: list[int] = []  # of every entry, in order
    for column, cycle in closed:
        if not cycle.startswith("("):
            raise ParseError("expected '('", text, column)
        entries = []
        for at, entry in pieces(re.sub(r"^\(|[\s,]", " ", cycle), " ", column):
            if entry.isdecimal():
                entries.append(int(entry))
                columns.append(at)
            elif entry:
                raise ParseError(f"invalid entry {entry!r}", text, at)
        if not entries:
            raise ParseError("empty cycle", text, column)
        cycles.append(entries)
    if rest:
        raise ParseError("unclosed cycle" if rest[0] == "(" else "expected '('", text, end)
    try:
        return CyclePermutation.from_cycles(cycles, n=n)
    except ParseError as exc:
        raise ParseError(exc.message, text, columns[exc.position]) from None
