"""Generic axiom checks for graded connected bialgebras.

Every Hopf algebra in this library (trees of any flavor, words, permutations)
is graded with a one-dimensional degree-0 part, so a single antipode recursion
and a single axiom sweep work for all of them.  The sweep reports what it
checked; failures are data, not exceptions.

A sweep asks for the same products, coproducts and antipodes many times over
(a degree-4 sweep of rooted trees makes over a thousand product calls on fewer
than a hundred distinct pairs), so it reads the algebra through a
:class:`_SweepMemo`: plain dicts keyed by basis elements, created for one
:func:`verify_hopf_axioms` call and dropped when it returns.  Nothing the
sweep computes outlives it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from .algebra import (
    LinearCombination,
    TensorPair,
    _sum_scaled,
    extend_bilinear,
    extend_linear,
    tensor,
)


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


@dataclass
class AxiomCheck:
    name: str
    checked: int
    passed: bool
    counterexample: str | None = None


@dataclass
class VerificationReport:
    algebra: str
    checks: list[AxiomCheck] = field(default_factory=list)

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


def _tensor_product(alg, a: LinearCombination, b: LinearCombination) -> LinearCombination:
    def pairwise(x: TensorPair, y: TensorPair) -> LinearCombination:
        return tensor(alg.product(x.left, y.left), alg.product(x.right, y.right))

    return extend_bilinear(pairwise, a, b)


def coassociativity_sides(
    coproduct: Callable[[Any], LinearCombination], delta: LinearCombination
) -> tuple[LinearCombination, LinearCombination]:
    """``(Delta (x) id) delta`` and ``(id (x) Delta) delta``, both over ``(a (x) b) (x) c``."""
    left = extend_linear(
        lambda pair: coproduct(pair.left).map_basis(lambda p: TensorPair(p, pair.right)), delta
    )
    right = extend_linear(
        lambda pair: coproduct(pair.right).map_basis(
            lambda p: TensorPair(TensorPair(pair.left, p.left), p.right)
        ),
        delta,
    )
    return left, right


def counit_sides(
    counit: Callable[[Any], int], delta: LinearCombination
) -> tuple[LinearCombination, LinearCombination]:
    """``(counit (x) id) delta`` and ``(id (x) counit) delta``."""
    left = LinearCombination((pair.right, coeff * counit(pair.left)) for pair, coeff in delta)
    right = LinearCombination((pair.left, coeff * counit(pair.right)) for pair, coeff in delta)
    return left, right


def verify_hopf_axioms(alg: GradedBialgebra, max_degree: int, name: str) -> VerificationReport:
    """Exhaustively check the Hopf axioms on small basis elements.

    Per-element checks (counit, coassociativity, antipode) run on every basis
    element of degree <= ``max_degree``; pair and triple checks (compatibility,
    associativity) run on tuples of positive-degree elements whose degrees sum
    to at most ``max_degree + 1``.  Each product, coproduct and antipode is
    computed once per call (see :class:`_SweepMemo`); the antipode is the
    recursion of :func:`graded_antipode`.
    """
    alg = _SweepMemo(alg)
    basis_by_degree = {d: list(alg.basis(d)) for d in range(max_degree + 1)}
    elements = [b for d in range(max_degree + 1) for b in basis_by_degree[d]]
    unit = alg.unit()
    unit_lc = LinearCombination.single(unit)
    report = VerificationReport(name)

    def record(axiom: str, failures: list[str], checked: int) -> None:
        report.checks.append(
            AxiomCheck(axiom, checked, not failures, failures[0] if failures else None)
        )

    # unit
    fails, count = [], 0
    for b in elements:
        count += 1
        single = LinearCombination.single(b)
        if alg.product(unit, b) != single or alg.product(b, unit) != single:
            fails.append(b.encode())
    record("unit", fails, count)

    # associativity
    fails, count = [], 0
    for da, db, dc in _degree_tuples(3, max_degree + 1):
        for x in basis_by_degree[da]:
            for y in basis_by_degree[db]:
                for z in basis_by_degree[dc]:
                    count += 1
                    left = extend_linear(lambda s: alg.product(s, z), alg.product(x, y))
                    right = extend_linear(lambda s: alg.product(x, s), alg.product(y, z))
                    if left != right:
                        fails.append(f"({x.encode()}, {y.encode()}, {z.encode()})")
    record("associativity", fails, count)

    # coassociativity
    fails, count = [], 0
    for b in elements:
        count += 1
        left, right = coassociativity_sides(alg.coproduct, alg.coproduct(b))
        if left != right:
            fails.append(b.encode())
    record("coassociativity", fails, count)

    # counit
    fails, count = [], 0
    for b in elements:
        count += 1
        single = LinearCombination.single(b)
        left, right = counit_sides(alg.counit, alg.coproduct(b))
        if left != single or right != single:
            fails.append(b.encode())
    record("counit", fails, count)

    # compatibility: the coproduct is an algebra morphism
    fails, count = [], 0
    for da, db in _degree_tuples(2, max_degree + 1):
        for x in basis_by_degree[da]:
            for y in basis_by_degree[db]:
                count += 1
                lhs = extend_linear(alg.coproduct, alg.product(x, y))
                rhs = _tensor_product(alg, alg.coproduct(x), alg.coproduct(y))
                if lhs != rhs:
                    fails.append(f"({x.encode()}, {y.encode()})")
    record("compatibility", fails, count)

    # antipode: m(S (x) id)Delta = m(id (x) S)Delta = counit * unit
    fails, count = [], 0
    for b in elements:
        count += 1
        target = alg.counit(b) * unit_lc
        delta = alg.coproduct(b)
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
        if left != target or right != target:
            fails.append(b.encode())
    record("antipode", fails, count)

    return report


def _degree_tuples(arity: int, degree_sum_cap: int):
    """All tuples of positive degrees with sum at most the cap."""

    def rec(slots: int, remaining: int):
        if slots == 0:
            yield ()
            return
        for d in range(1, remaining - slots + 2):
            for rest in rec(slots - 1, remaining - d):
                yield (d,) + rest

    yield from rec(arity, degree_sum_cap)
