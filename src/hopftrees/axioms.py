"""Generic axiom checks for graded connected bialgebras.

Every Hopf algebra in this library (trees of any flavor, forests, words,
permutations) is graded with a one-dimensional degree-0 part, so one antipode
recursion and one set of checks work for all of them: a predicate per axiom
(:func:`unital` to :func:`antipodal`), one generator of degree-capped cases
(:func:`graded_tuples`) and one runner (:func:`sweep`) that counts the cases
of each check, keeps its first failure and returns the report.
:func:`verify_hopf_axioms` and the forest sweep
``connes_kreimer.verify_forest_algebra`` are built from them; failures are
data, not exceptions.  :class:`~hopftrees.algebra.GradedHopfAlgebra` derives its
``antipode`` and ``verify`` from :func:`graded_antipode` and :func:`verify_hopf_axioms`;
a sweep reads only ``unit``, ``degree``, ``basis`` and the trusted ``_product`` and
``_coproduct``, and takes the counit from the grading: 1 exactly at degree 0.  So
a sweep validates nothing once it has numbered its basis, since every element
it meets comes from the algebra's own basis and structure maps.
:func:`graded_antipode` is public, so it validates its element once, through
the algebra's public ``counit``, before the recursion.

A sweep asks for the same products, coproducts and antipodes many times
over, so it reads the algebra as integer structure constants: a
:class:`_SweepMemo` numbers each basis element once and keeps products,
coproducts and antipodes as ``int``-keyed dicts, each computed once.  The
predicates are identities between such dicts, and only a failure is turned
back into elements.  The tables die with the sweep call.  The antipode
recursion is :meth:`_SweepMemo.antipode` alone: :func:`graded_antipode` reads
one element's antipode from the tables of a store made for that call.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any

from .algebra import _PLAIN, GradedHopfAlgebra, LinearCombination, Record, _collect


ANTIPODE_CACHE_SIZE = 1024
"""Most (algebra, element) antipodes :func:`graded_antipode` keeps.

The cache is shared by every algebra in the process, so it is bounded; the
least recently used entries go first.  Axiom sweeps do not use it: they keep
their antipodes in their own tables.
"""


@functools.lru_cache(maxsize=ANTIPODE_CACHE_SIZE)
def graded_antipode(alg: Any, element: Any) -> LinearCombination:
    """Antipode by the recursion available in any graded connected bialgebra, read from the
    tables of one :class:`_SweepMemo` made for this call (see :meth:`_SweepMemo.antipode`).
    ``element`` is checked first by ``alg.counit``, which refuses a non-member where the algebra
    checks its members; a refused element is not cached."""
    alg.counit(element)
    memo = _SweepMemo(alg)
    return _PLAIN._new({memo.elems[k]: c for k, c in memo.antipode(memo.number(element)).items()})


class _SweepMemo:
    """The integer structure tables of one algebra, filled during one sweep.

    ``number`` gives each basis element an index the first time the sweep
    meets it (``index`` maps an element to it, ``elems`` back) and reads its
    ``degrees`` once through the algebra's own method; the counit of ``i`` is 1
    exactly when ``degrees[i]`` is 0.  The
    product ``(i, j) -> {k: c}``, the coproduct ``i -> {(j, k): c}`` and the
    antipode ``i -> {k: c}`` are filled on demand, each entry computed once.
    A store is made for one sweep or antipode call and dies with it.
    """

    def __init__(self, alg: GradedHopfAlgebra):
        self.alg, self.index, self.elems, self.degrees = alg, {}, [], []
        self._products: dict[tuple[int, int], dict[int, int]] = {}
        self._coproducts: dict[int, dict[tuple[int, int], int]] = {}
        self._antipodes: dict[int, dict[int, int]] = {}
        self.unit = self.number(alg.unit())

    def number(self, element: Any) -> int:
        i = self.index.get(element)
        if i is None:
            i = self.index[element] = len(self.elems)
            self.elems.append(element)
            self.degrees.append(self.alg.degree(element))
        return i

    def product(self, i: int, j: int) -> dict[int, int]:
        value = self._products.get((i, j))
        if value is None:
            number = self.number
            value = self._products[i, j] = {
                number(x): c for x, c in self.alg._product(self.elems[i], self.elems[j])}
        return value

    def coproduct(self, i: int) -> dict[tuple[int, int], int]:
        value = self._coproducts.get(i)
        if value is None:
            number = self.number
            value = self._coproducts[i] = {
                (number(pair.left), number(pair.right)): c for pair, c in self.alg._coproduct(self.elems[i])}
        return value

    def antipode(self, i: int) -> dict[int, int]:
        """The recursion of any graded connected bialgebra: ``S(e) = e`` and, for positive degree,
        ``S(x) = -x - sum S(x') x''`` over the proper part of the coproduct."""
        value = self._antipodes.get(i)
        if value is None:
            deg, degrees = self.degrees[i], self.degrees
            value = self._antipodes[i] = {i: 1} if deg == 0 else _collect(itertools.chain([(i, -1)], (
                (k, -c * e * d) for (a, b), c in self.coproduct(i).items() if degrees[a] not in (0, deg)
                for s, e in self.antipode(a).items() for k, d in self.product(s, b).items())))
        return value


class AxiomCheck(Record):
    """One axiom's outcome: how many cases were checked, and the first failure."""

    __slots__ = ("name", "checked", "passed", "counterexample")

    def __init__(self, name: str, checked: int, passed: bool, counterexample: str | None = None):
        self.name = name
        self.checked = checked
        self.passed = passed
        self.counterexample = counterexample


class VerificationReport(Record):
    """The checks of one sweep; mutable, so sweeps can be renamed and combined."""

    __slots__ = ("algebra", "checks")

    def __init__(self, algebra: str, checks: list[AxiomCheck] | None = None):
        self.algebra = algebra
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"verification of {self.algebra}:"]
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            line = f"  {c.name}: {status} ({c.checked} checks)"
            if c.counterexample:
                line += f" first counterexample: {c.counterexample}"
            lines.append(line)
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def sweep(memo: _SweepMemo, name: str, checks) -> VerificationReport:
    """The report ``name`` of the ``(axiom, cases, holds[, render])`` checks: for each, how many
    ``cases`` (tuples of indices) there were and the first for which ``holds(memo, *case)`` is
    false, shown by ``render`` on its elements (by default the encoding of its one element, or
    of its elements in parentheses)."""
    report = VerificationReport(name)
    for axiom, cases, holds, *render in checks:
        checked, failed = 0, None
        for case in cases:
            checked += 1
            if not holds(memo, *case) and failed is None:
                failed = case
        show = render[0] if render else _encode_case
        shown = None if failed is None else show(*[memo.elems[i] for i in failed])
        report.checks.append(AxiomCheck(axiom, checked, failed is None, shown))
    return report


def _encode_case(*case) -> str:
    codes = [x.encode() for x in case]
    return codes[0] if len(codes) == 1 else f"({', '.join(codes)})"


def graded_tuples(basis, arity: int, lowest: int, cap: int):
    """Tuples of ``arity`` basis elements, each of degree at least ``lowest``,
    with degrees summing to at most ``cap``; ``basis[d]`` lists degree ``d``.

    The tuples come grouped by their degrees, in increasing order, and within
    a group in basis order.
    """

    def degrees(slots: int, remaining: int):
        if slots == 0:
            yield ()
            return
        for d in range(lowest, remaining - lowest * (slots - 1) + 1):
            for rest in degrees(slots - 1, remaining - d):
                yield (d,) + rest

    for combo in degrees(arity, cap):
        yield from itertools.product(*(basis[d] for d in combo))


def unital(memo: _SweepMemo, x: int) -> bool:
    single = {x: 1}
    return memo.product(memo.unit, x) == single and memo.product(x, memo.unit) == single


def associative(memo: _SweepMemo, x: int, y: int, z: int) -> bool:
    product = memo.product
    left = _collect((k, c * d) for s, c in product(x, y).items() for k, d in product(s, z).items())
    right = _collect((k, c * d) for s, c in product(y, z).items() for k, d in product(x, s).items())
    return left == right


def coassociative(memo: _SweepMemo, x: int) -> bool:
    """``(Delta (x) id) Delta x = (id (x) Delta) Delta x``, both over index triples ``(a, b, c)``."""
    coproduct = memo.coproduct
    delta = coproduct(x).items()
    left = _collect(((a1, a2, b), c * d) for (a, b), c in delta for (a1, a2), d in coproduct(a).items())
    right = _collect(((a, b1, b2), c * d) for (a, b), c in delta for (b1, b2), d in coproduct(b).items())
    return left == right


def counital(memo: _SweepMemo, x: int) -> bool:
    """``(counit (x) id) Delta x = (id (x) counit) Delta x = x``, the counit 1 exactly at degree 0."""
    single, delta, degrees = {x: 1}, memo.coproduct(x).items(), memo.degrees
    return (_collect((b, c) for (a, b), c in delta if not degrees[a]) == single
            and _collect((a, c) for (a, b), c in delta if not degrees[b]) == single)


def compatible(memo: _SweepMemo, x: int, y: int) -> bool:
    """The coproduct is an algebra morphism: ``Delta(x y) = Delta(x) Delta(y)``."""
    product, coproduct = memo.product, memo.coproduct
    lhs = _collect((pair, c * d) for s, c in product(x, y).items() for pair, d in coproduct(s).items())
    rhs = _collect(
        ((k1, k2), c1 * c2 * d1 * d2)
        for (a1, b1), c1 in coproduct(x).items() for (a2, b2), c2 in coproduct(y).items()
        for k1, d1 in product(a1, a2).items() for k2, d2 in product(b1, b2).items()
    )
    return lhs == rhs


def antipodal(memo: _SweepMemo, x: int) -> bool:
    """``m(S (x) id) Delta x = m(id (x) S) Delta x = counit(x) 1``."""
    product, antipode, delta = memo.product, memo.antipode, memo.coproduct(x).items()
    target = {} if memo.degrees[x] else {memo.unit: 1}
    left = _collect((k, c * e * d) for (a, b), c in delta
                    for s, e in antipode(a).items() for k, d in product(s, b).items())
    right = _collect((k, c * e * d) for (a, b), c in delta
                     for s, e in antipode(b).items() for k, d in product(a, s).items())
    return left == target and right == target


def verify_hopf_axioms(alg: GradedHopfAlgebra, max_degree: int, name: str) -> VerificationReport:
    """Exhaustively check the Hopf axioms on small basis elements.

    Per-element checks (unit, coassociativity, counit, antipode) run on every
    basis element of degree <= ``max_degree``; pair and triple checks
    (compatibility, associativity) run on tuples of positive-degree elements
    whose degrees sum to at most ``max_degree + 1``.  Each product, coproduct
    and antipode is computed once per call, into the tables of a :class:`_SweepMemo`.
    """
    memo = _SweepMemo(alg)
    # largest first, so an over-budget basis is refused before the others are built
    basis = {d: list(map(memo.number, alg.basis(d))) for d in reversed(range(max_degree + 1))}
    elements = list(graded_tuples(basis, 1, 0, max_degree))
    return sweep(memo, name, (
        ("unit", elements, unital),
        ("associativity", graded_tuples(basis, 3, 1, max_degree + 1), associative),
        ("coassociativity", elements, coassociative),
        ("counit", elements, counital),
        ("compatibility", graded_tuples(basis, 2, 1, max_degree + 1), compatible),
        ("antipode", elements, antipodal),
    ))
