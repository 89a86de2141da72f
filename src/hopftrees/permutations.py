"""Permutations in disjoint-cycle form and their heap-product Hopf algebra.

A permutation is stored in standard order: every cycle written starting from
its smallest entry, cycles listed with decreasing first entries, and fixed
points kept as explicit 1-cycles.  The heap product of ``s in S_m`` with
``t in S_n`` shifts ``s``'s entries up by ``n`` and then attaches each of its
cycle strings either immediately to the right of a letter of ``t`` or as a
standalone cycle, one term per assignment, ``(n+1)^r`` terms in all.  The
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

from .algebra import (GradedHopfAlgebra, Immutable, LinearCombination, ParseError, TensorPair, _set,
                      check_budget, pieces, splits)
from .trees import Tree, canonicalize, is_standard_heap_tree


class CyclePermutation(Immutable):
    """Disjoint cycles over a finite set of positive integers, standard order.

    Algebra basis elements act on ``{1..n}``; :func:`shift` produces the
    shifted window ``{m+1..m+k}`` used while building heap products.
    Immutable and equal by value; the hash is computed once at construction.
    """

    __slots__ = ("cycles", "_hash")

    def __init__(self, cycles: tuple[tuple[int, ...], ...] = ()):
        _set(self, "cycles", cycles)
        _set(self, "_hash", hash((cycles,)))

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
        """Normalize raw cycles to standard order, adding fixed points up to ``n``.

        A bad entry raises :class:`ParseError` positioned at its index among all the entries."""
        seen: dict[int, int] = {}  # entry -> its index among all the entries
        cleaned: list[tuple[int, ...]] = []
        for cycle in cycles:
            entries = tuple(int(x) for x in cycle)
            for x in entries:
                if x <= 0 or x in seen:
                    problem = f"duplicate entry {x} across cycles" if x > 0 else f"entries must be positive, got {x}"
                    raise ParseError(problem, position=len(seen))
                seen[x] = len(seen)
            if entries:
                cleaned.append(entries)
        top = max(seen, default=0)
        size = top if n is None else int(n)
        if size < top:
            raise ParseError(f"entry {top} out of range for S_{size}", position=seen.get(top))
        for fixed in range(1, size + 1):
            if fixed not in seen:
                cleaned.append((fixed,))
        return cls(_standardize(cleaned))

    @classmethod
    def identity(cls, n: int) -> "CyclePermutation":
        return cls.from_cycles([], n=n)

    def points(self) -> frozenset[int]:
        return frozenset(x for cycle in self.cycles for x in cycle)

    @property
    def size(self) -> int:
        """Number of points moved-or-fixed; the grading degree."""
        return sum(len(c) for c in self.cycles)

    def is_standard_domain(self) -> bool:
        return self.points() == frozenset(range(1, self.size + 1))

    def encode(self) -> str:
        if not self.cycles:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in self.cycles)

    def __str__(self) -> str:
        return self.encode()


def _standardize(cycles) -> tuple[tuple[int, ...], ...]:
    rotated = []
    for cycle in cycles:
        pivot = cycle.index(min(cycle))
        rotated.append(tuple(cycle[pivot:] + cycle[:pivot]))
    rotated.sort(key=lambda c: -c[0])
    return tuple(rotated)


def shift(p: CyclePermutation, offset: int) -> CyclePermutation:
    """Increase every entry by ``offset`` (a permutation of the shifted window)."""
    return CyclePermutation(tuple(tuple(x + offset for x in c) for c in p.cycles))


def relabel(cycles) -> CyclePermutation:
    """Relabel the entries of disjoint cycles order-isomorphically to ``1..k``."""
    cycles = [tuple(int(x) for x in c) for c in cycles]
    entries = sorted(x for c in cycles for x in c)
    if len(entries) != len(set(entries)):
        raise ValueError("cycles are not disjoint")
    mapping = {old: new for new, old in enumerate(entries, start=1)}
    return CyclePermutation(_standardize([tuple(mapping[x] for x in c) for c in cycles]))


_STANDALONE = ("standalone",)


def heap_product(s: CyclePermutation, t: CyclePermutation) -> LinearCombination:
    """Attach each shifted cycle string of ``s`` into ``t``; ``(n+1)^r`` terms.

    Attachment points are the letters of ``t`` plus one extra meaning "keep the
    string as its own cycle".  A string attached to letter ``x`` is inserted
    immediately to the right of ``x``; strings sharing a letter stack with
    larger heads nearer to ``x``, which is exactly the arrangement that makes
    every stacked string hang below ``x`` under the tree bijection.
    """
    if not s.is_standard_domain() or not t.is_standard_domain():
        raise ValueError("heap product expects permutations of {1..n}")
    n = t.size
    shifted = shift(s, n).cycles  # heads strictly decreasing
    check_budget((n + 1) ** len(shifted), "heap product")
    points: list[tuple] = [(ci, pi) for ci, cycle in enumerate(t.cycles) for pi in range(len(cycle))]
    points.append(_STANDALONE)
    counts: dict[CyclePermutation, int] = {}
    for assignment in itertools.product(points, repeat=len(shifted)):
        blocks: dict[tuple, list[tuple[int, ...]]] = {}
        standalone: list[tuple[int, ...]] = []
        for string, point in zip(shifted, assignment):
            if point is _STANDALONE:
                standalone.append(string)
            else:
                # iteration order of `shifted` has decreasing heads already
                blocks.setdefault(point, []).append(string)
        new_cycles: list[tuple[int, ...]] = []
        for ci, cycle in enumerate(t.cycles):
            grown: list[int] = []
            for pi, letter in enumerate(cycle):
                grown.append(letter)
                for string in blocks.get((ci, pi), []):
                    grown.extend(string)
            new_cycles.append(tuple(grown))
        new_cycles.extend(standalone)
        p = CyclePermutation(_standardize(new_cycles))
        counts[p] = counts.get(p, 0) + 1
    return LinearCombination(counts)


def cycle_coproduct(p: CyclePermutation) -> LinearCombination:
    """Split the cycle set over all subsets, relabeling both parts."""
    return LinearCombination((TensorPair(relabel(kept), relabel(rest)), 1)
                             for kept, rest in splits(p.cycles, "cycle coproduct"))


def perm_counit(p: CyclePermutation) -> int:
    return 1 if not p.cycles else 0


def symmetric_group(n: int) -> list[CyclePermutation]:
    """All elements of S_n in standard cycle form, sorted by encoding.  S_{k+1} grows from S_k by
    the heap product with ``(1)``, which puts ``k+1`` after one letter or alone: each element once."""
    check_budget(math.factorial(max(n, 0)), f"symmetric group S_{n}")
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
    return canonicalize(Tree(head, tuple(_string_to_subtree(rest[a:b]) for a, b in bounds)))


def permutation_to_tree(p: CyclePermutation) -> Tree:
    """Standard-order cycles become the root subtrees of a heap-ordered tree."""
    if not p.is_standard_domain():
        raise ValueError("expected a permutation of {1..n}")
    subtrees = tuple(_string_to_subtree(c) for c in p.cycles)
    return canonicalize(Tree(None, subtrees))


def _subtree_to_string(t: Tree) -> tuple[int, ...]:
    out: list[int] = [t.label]
    for child in sorted(t.children, key=lambda c: -c.label):
        out.extend(_subtree_to_string(child))
    return tuple(out)


def tree_to_permutation(t: Tree) -> CyclePermutation:
    """Inverse of :func:`permutation_to_tree` on standard heap-ordered trees."""
    if not is_standard_heap_tree(t):
        raise ValueError(f"{t.encode()} is not a standard heap-ordered tree")
    cycles = [_subtree_to_string(c) for c in t.children]
    return CyclePermutation(_standardize(cycles))


class PermutationHopfAlgebra(GradedHopfAlgebra):
    """Adapter exposing the heap product algebra to the generic axiom sweep."""

    __slots__ = ()

    def unit(self) -> CyclePermutation:
        return CyclePermutation()

    def degree(self, p: CyclePermutation) -> int:
        return p.size

    def basis(self, degree: int) -> list[CyclePermutation]:
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
