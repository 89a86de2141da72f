"""Generic axiom checks for graded connected bialgebras.

Every Hopf algebra in this library (trees of any flavor, forests, words,
permutations) is graded with a one-dimensional degree-0 part, so one antipode
recursion and one set of checks work for all of them: a predicate per axiom
(:func:`unital` to :func:`antipodal`), one generator of degree-capped cases
(:func:`graded_tuples`) and one runner (:func:`check`) that counts the cases
and keeps the first failure.  :func:`verify_hopf_axioms` and the forest sweep
``connes_kreimer.verify_forest_algebra`` are built from them; failures are
data, not exceptions.

A sweep asks for the same products, coproducts and antipodes many times over
(a degree-4 sweep of rooted trees makes over a thousand product calls on fewer
than a hundred distinct pairs), so it reads the algebra through a
:class:`_SweepMemo`: plain dicts keyed by basis elements, created for one
:func:`verify_hopf_axioms` call and dropped when it returns.  Nothing the
sweep computes outlives it.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable, Protocol

from .algebra import (LinearCombination, Record, TensorPair, _sum_scaled, extend_bilinear,
                      extend_linear, tensor)


class GradedBialgebra(Protocol):
    def unit(self) -> Any: ...
    def degree(self, element: Any) -> int: ...
    def basis(self, degree: int) -> list[Any]: ...
    def product(self, a: Any, b: Any) -> LinearCombination: ...
    def coproduct(self, element: Any) -> LinearCombination: ...
    def counit(self, element: Any) -> int: ...


ANTIPODE_CACHE_SIZE = 1024
"""Most (algebra, element) antipodes :func:`graded_antipode` keeps.

The cache is shared by every algebra in the process, so it is bounded; the
least recently used entries go first.  Axiom sweeps do not use it: they keep
their antipodes in their own memo.
"""


def _antipode(
    alg: GradedBialgebra, element: Any, antipode: Callable[[Any], LinearCombination]
) -> LinearCombination:
    """The antipode recursion, taking the antipodes of lower degrees from ``antipode``.

    ``S(e) = e`` and, for positive degree,
    ``S(x) = -x - sum S(x') * x''`` over the proper part of the coproduct.
    """
    deg = alg.degree(element)
    if deg == 0:
        return LinearCombination.single(element)
    pieces = [(-1, LinearCombination.single(element))]
    for pair, coeff in alg.coproduct(element):
        left, right = pair.left, pair.right
        if alg.degree(left) in (0, deg):
            continue
        pieces.extend(
            (-coeff * s_coeff, alg.product(s_term, right)) for s_term, s_coeff in antipode(left)
        )
    return _sum_scaled(pieces)


@functools.lru_cache(maxsize=ANTIPODE_CACHE_SIZE)
def graded_antipode(alg: Any, element: Any) -> LinearCombination:
    """Antipode by the recursion available in any graded connected bialgebra."""
    return _antipode(alg, element, lambda x: graded_antipode(alg, x))


def memoize(fn: Callable) -> Callable:
    """``fn`` with its values kept in a dict keyed by the arguments.

    The dict lives exactly as long as the returned function.
    """
    values: dict = {}

    def memoized(*args):
        value = values.get(args)
        if value is None:
            value = values[args] = fn(*args)
        return value

    return memoized


class _SweepMemo:
    """An algebra whose products, coproducts and antipodes are each computed once.

    Made for one sweep and dropped with it.  The antipode is the recursion of
    :func:`graded_antipode`, reading its products and coproducts through the
    memo.
    """

    def __init__(self, alg: GradedBialgebra):
        self.unit, self.degree, self.basis = alg.unit, alg.degree, alg.basis
        self.counit = alg.counit
        self.product = memoize(alg.product)
        self.coproduct = memoize(alg.coproduct)
        self._antipodes: dict[Any, LinearCombination] = {}

    def antipode(self, element: Any) -> LinearCombination:
        value = self._antipodes.get(element)
        if value is None:
            value = self._antipodes[element] = _antipode(self, element, self.antipode)
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


def check(report: VerificationReport, alg, name: str, cases, holds, render=None) -> None:
    """Append to ``report`` how many ``cases`` there were and the first for which
    ``holds(alg, *case)`` is false, shown by ``render(*case)`` (by default the
    encoding of its one element, or of its elements in parentheses)."""
    checked, failed = 0, None
    for case in cases:
        checked += 1
        if not holds(alg, *case) and failed is None:
            failed = case
    shown = None if failed is None else (render or _encode_case)(*failed)
    report.checks.append(AxiomCheck(name, checked, failed is None, shown))


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


def verify_hopf_axioms(alg: GradedBialgebra, max_degree: int, name: str) -> VerificationReport:
    """Exhaustively check the Hopf axioms on small basis elements.

    Per-element checks (unit, coassociativity, counit, antipode) run on every
    basis element of degree <= ``max_degree``; pair and triple checks
    (compatibility, associativity) run on tuples of positive-degree elements
    whose degrees sum to at most ``max_degree + 1``.  Each product, coproduct
    and antipode is computed once per call (see :class:`_SweepMemo`); the
    antipode is the recursion of :func:`graded_antipode`.
    """
    alg = _SweepMemo(alg)
    # largest first, so an over-budget basis is refused before the others are built
    basis = {d: list(alg.basis(d)) for d in reversed(range(max_degree + 1))}
    elements = list(graded_tuples(basis, 1, 0, max_degree))
    report = VerificationReport(name)
    for axiom, cases, holds in (
        ("unit", elements, unital),
        ("associativity", graded_tuples(basis, 3, 1, max_degree + 1), associative),
        ("coassociativity", elements, coassociative),
        ("counit", elements, counital),
        ("compatibility", graded_tuples(basis, 2, 1, max_degree + 1), compatible),
        ("antipode", elements, antipodal),
    ):
        check(report, alg, axiom, cases, holds)
    return report
