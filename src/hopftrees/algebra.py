"""Formal linear combinations over arbitrary bases, with exact rational coefficients.

Every algebraic object in this library is either a basis element (a tree, a
forest, a word, a permutation, a tensor pair of those) or a
:class:`LinearCombination` of basis elements.  Coefficients are exact: an
``int`` stays an ``int`` (every structure constant of the Hopf algebras here
is one), and anything else becomes a ``fractions.Fraction``, so a coefficient
turns rational only where a division happens.  Nothing in the library ever
touches floating point.

A basis element must be immutable, hashable, and expose ``encode() -> str``
returning its canonical text form.  Two basis elements are equal exactly when
their encodings are equal, and all printed output is sorted by encoding, so
results are deterministic across runs and platforms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from . import axioms  # the package's lazy module object: it runs when a sweep first needs it


Scalar = Fraction | int
"""Anything accepted where a coefficient is expected."""

MAX_TERMS = 250_000
"""Most terms one enumeration may generate before they merge.

Products and coproducts predict their raw term count (the multiset
placements of a grafting product, 2^r root splits, C(a+b, a) interleavings,
(n+1)^r heap-product assignments) and refuse to start above this, so an
oversized job fails at once instead of running for hours.  At the limit a
shuffle product holds about 150 MB and takes a few seconds; the tests, demos
and benchmark stay below 20,000.
"""


def check_budget(count: int, what: str) -> None:
    """Raise ``ValueError`` if an enumeration of ``count`` terms is over :data:`MAX_TERMS`."""
    if count > MAX_TERMS:
        raise ValueError(f"{what} would enumerate {count} terms, more than the limit of {MAX_TERMS}")


def splits(items: tuple, what: str) -> Iterator[tuple[tuple, tuple]]:
    """Every split of ``items`` into ``(kept, rest)``, both in order, by mask ``0 .. 2^r - 1``
    (bit ``i`` keeps ``items[i]``); the ``2^r`` splits of ``what`` are checked against the budget."""
    check_budget(2 ** len(items), what)
    for mask in range(1 << len(items)):
        yield (tuple([x for i, x in enumerate(items) if mask >> i & 1]),
               tuple([x for i, x in enumerate(items) if not mask >> i & 1]))


class ParseError(ValueError):
    """Malformed textual input, annotated with the offending position."""

    def __init__(self, message: str, text: str | None = None, position: int | None = None):
        super().__init__(message)
        self.message = message
        self.text = text
        self.position = position

    def __str__(self) -> str:
        if self.text is None or self.position is None:
            return self.message
        pointer = " " * self.position + "^"
        return f"{self.message} at position {self.position}\n  {self.text}\n  {pointer}"

    def within(self, text: str, column: int) -> "ParseError":
        """This error, raised on the piece of ``text`` at ``column``, as an error in ``text``."""
        return ParseError(self.message, text, column + (self.position or 0))


def pieces(text: str, sep: str, start: int = 0) -> list[tuple[int, str]]:
    """The pieces of ``text`` between the ``sep``s, stripped, each with the column of its
    first character (an empty piece: where it begins) when ``text`` starts at ``start``."""
    out = []
    for raw in text.split(sep):
        piece = raw.strip()
        out.append((start + (len(raw) - len(raw.lstrip()) if piece else 0), piece))
        start += len(raw) + len(sep)
    return out


def identifiers(text: str, sep: str, what: str) -> list[str]:
    """The pieces of ``text`` between the ``sep``s, each of which must be an identifier."""
    parts = pieces(text, sep)
    for column, name in parts:
        if not name.isidentifier():
            raise ParseError(f"invalid {what} {name!r}", text, column)
    return [name for _, name in parts]


_set = object.__setattr__


class Immutable:
    """Base of the slotted immutable values: each attribute is set once, with
    ``object.__setattr__`` in ``__init__``, and assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


class Record:
    """Base of the plain record classes, whose fields are their ``__slots__``.

    Two records are equal when they are of the same class and their fields
    are equal in order; ``repr`` is ``Name(field=value, ...)`` and pickling
    passes the fields to ``__init__`` in order.  A record is mutable and
    unhashable; a :class:`Value` is the immutable, hashable kind.
    """

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class Value(Immutable, Record):
    """An immutable :class:`Record`, hashed by the tuple of its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())


class GradedHopfAlgebra(Value):
    """A graded connected Hopf algebra: a subclass states ``unit``, ``degree``, ``basis``, ``product``,
    ``coproduct`` and ``describe``, and the counit, antipode and axiom sweep follow from the grading."""

    __slots__ = ()

    def counit(self, x: Any) -> int:
        return 1 if self.degree(x) == 0 else 0

    def antipode(self, x: Any) -> LinearCombination:
        return axioms.graded_antipode(self, x)

    def verify(self, max_degree: int, name: str | None = None) -> axioms.VerificationReport:
        """Run the Hopf axiom sweep on all basis elements up to ``max_degree``."""
        return axioms.verify_hopf_axioms(self, max_degree, name or self.describe())


def _exact(coeff: Scalar) -> Scalar:
    """``coeff`` itself when it is an ``int``, else as a ``Fraction``."""
    return coeff if type(coeff) is int else Fraction(coeff)


class TensorPair(Immutable):
    """A pure tensor ``left (x) right`` of two basis elements.

    Immutable; the hash is computed once at construction, because tensor
    pairs are dictionary keys in every coproduct and nest in iterated ones.
    """

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: Any, right: Any):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((left, right)))

    def __reduce__(self):
        return TensorPair, (self.left, self.right)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, TensorPair):
            return NotImplemented
        return self._hash == other._hash and self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TensorPair({self.left!r}, {self.right!r})"

    def encode(self) -> str:
        return f"{self.left.encode()} (x) {self.right.encode()}"

    def swap(self) -> "TensorPair":
        return TensorPair(self.right, self.left)


class LinearCombination:
    """A finite formal sum ``sum_i c_i * b_i`` with nonzero exact coefficients.

    Immutable.  Supports ``+``, ``-``, unary ``-`` and multiplication by an
    ``int`` or ``Fraction`` on either side.  Zero coefficients are purged on construction.
    Combinations of different classes never mix: ``==`` is false and ``+``
    raises ``TypeError``.  A subclass whose instances lie in several spaces
    (a :class:`~hopftrees.diff_ops.Polynomial` in one per variable count)
    overrides :meth:`_check` and the trusted constructor :meth:`_new`; one
    whose basis has no ``encode`` overrides :meth:`terms` and :meth:`_term_text`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Any, Scalar] | Iterable[tuple[Any, Scalar]] = ()):
        data: dict[Any, Scalar] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for basis, coeff in items:
            c = _exact(coeff)
            if not c:
                continue
            c += data.get(basis, 0)
            if c:
                data[basis] = c
            else:
                data.pop(basis, None)
        self._terms = data

    def _new(self, terms: dict[Any, Scalar]) -> "LinearCombination":
        """A combination in the space of ``self`` holding ``terms`` as they are:
        exact, nonzero coefficients, nothing merged or checked."""
        result = object.__new__(LinearCombination)
        result._terms = terms
        return result

    def _check(self, other: "LinearCombination") -> None:
        """Raise ``ValueError`` if ``other``, of the same class, lies in another space."""

    @classmethod
    def zero(cls) -> "LinearCombination":
        return cls()

    @classmethod
    def single(cls, basis: Any, coeff: Scalar = 1) -> "LinearCombination":
        return cls(((basis, coeff),))

    def terms(self) -> list[tuple[Any, Scalar]]:
        """Terms sorted by the basis elements' canonical encodings."""
        return sorted(self._terms.items(), key=lambda item: item[0].encode())

    def __iter__(self) -> Iterator[tuple[Any, Scalar]]:
        """Terms in no particular order; use :meth:`terms` for the sorted list."""
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, basis: Any) -> Scalar:
        """The coefficient of ``basis`` (0 if absent), an ``int`` when integral."""
        c = self._terms.get(basis, 0)
        return c.numerator if c.denominator == 1 else c

    def total_multiplicity(self) -> Scalar:
        """Sum of the absolute values of all coefficients.

        For combinations produced by counting constructions (all coefficients
        positive integers) this is the raw number of generated terms before
        merging.
        """
        return sum(abs(c) for c in self._terms.values())

    def map_basis(self, fn: Callable[[Any], Any]) -> "LinearCombination":
        """Relabel basis elements through ``fn`` (coefficients merge)."""
        return LinearCombination((fn(b), c) for b, c in self._terms.items())

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        if other.__class__ is not self.__class__:
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for basis, coeff in other._terms.items():
            out[basis] = coeff = coeff + out.get(basis, 0)
            if not coeff:
                del out[basis]
        return self._new(out)

    def __sub__(self, other: "LinearCombination") -> "LinearCombination":
        return self + (-other)

    def __neg__(self) -> "LinearCombination":
        return (-1) * self

    def __rmul__(self, scalar: Scalar) -> "LinearCombination":
        if not isinstance(scalar, (int, Fraction)):  # a float would become a binary fraction
            return NotImplemented
        c = _exact(scalar)
        return self._new({b: c * v for b, v in self._terms.items()} if c else {})

    def __mul__(self, scalar: Scalar) -> "LinearCombination":
        return self.__rmul__(scalar)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def _term_text(self, basis: Any, magnitude: Scalar) -> str:
        """The text of one term of :meth:`render` without its sign."""
        body = basis.encode()
        return body if magnitude == 1 else f"{magnitude}*{body}"

    def render(self) -> str:
        """Deterministic text form, e.g. ``(;()()) + 2*(;(;()))``."""
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for basis, coeff in self.terms():
            part = self._term_text(basis, abs(coeff))
            if not pieces:
                pieces.append(part if coeff > 0 else f"-{part}")
            else:
                pieces.append((" + " if coeff > 0 else " - ") + part)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LinearCombination({self.render()})"


_PLAIN = LinearCombination()


def _sum_scaled(pieces: Iterable[tuple[Scalar, LinearCombination]],
                space: LinearCombination = _PLAIN) -> LinearCombination:
    """``sum c * combo`` accumulated in one dict, zero coefficients purged, as a
    combination in the space of ``space`` (default: plain combinations)."""
    out: dict[Any, Scalar] = {}
    for scale, combo in pieces:
        for basis, coeff in combo._terms.items():
            out[basis] = out.get(basis, 0) + scale * coeff
    return space._new({basis: coeff for basis, coeff in out.items() if coeff})


def extend_linear(fn: Callable[[Any], LinearCombination], combo: LinearCombination) -> LinearCombination:
    """Apply a basis-level map to a combination by linearity."""
    return _sum_scaled((coeff, fn(basis)) for basis, coeff in combo)


def extend_bilinear(
    fn: Callable[[Any, Any], LinearCombination],
    a: LinearCombination,
    b: LinearCombination,
) -> LinearCombination:
    """Apply a basis-level binary map to two combinations bilinearly."""
    return _sum_scaled((cx * cy, fn(x, y)) for x, cx in a for y, cy in b)


def tensor(a: LinearCombination, b: LinearCombination) -> LinearCombination:
    """Tensor product: the coefficient of ``x (x) y`` is ``a[x] * b[y]``."""
    return extend_bilinear(lambda x, y: LinearCombination.single(TensorPair(x, y)), a, b)


def format_fraction(value: Scalar) -> str:
    """``p/q`` with the ``/q`` omitted for integers."""
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
