"""Sparse exact polynomials in packed-monomial form, with their grammar.

A :class:`Polynomial` is a :class:`~hopftrees.algebra.LinearCombination` of
monomials whose store is ``{key: coefficient}`` with one ``int`` key per
monomial: the exponent of ``x_(i+1)`` is the 64-bit field ``i`` of the key,
``key = sum(e_i << 64*i)`` (packed monomials, Monagan-Pearce 2007).  The
product of two monomials is then the sum of their keys, and a partial
derivative lowers one field by a subtraction.  This module alone reads the
format; every public face speaks exponent tuples: the constructor,
:meth:`~Polynomial.terms`, iteration, :meth:`~Polynomial.coefficient`,
``map_basis`` and the text.

Exactness rests on :data:`MAX_EXPONENT`.  The constructor and
:func:`parse_polynomial` refuse a larger exponent, and each public result that
can raise a degree (a product, a tree action, a covariant differential) is
checked once before it is returned, by :meth:`Polynomial._checked`; the
kernels and the trusted ``_new`` check nothing.  No carry can cross a field
inside one call: an exponent there is a sum of one exponent per factor, each
at most ``2^32 - 1``, so a field stays below ``2^63`` for up to ``2^31``
factors, far more than any computation inside the term budget multiplies; and
a derivative lowers only a field that is not zero.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .algebra import LinearCombination, ParseError, Scalar, _int, _nonzero, format_fraction, pieces


MAX_EXPONENT = 2**32 - 1
"""The largest exponent a polynomial may hold; see the module docstring."""

_BITS = 64  # one struct "Q" field per variable
_FIELD = (1 << _BITS) - 1
_OVER = _FIELD ^ MAX_EXPONENT  # the bits of a field that only an exponent above the limit sets


def _over_limit(exponent: int) -> str:
    return f"exponent {exponent} is above the limit of {MAX_EXPONENT}"


def _pack(exponents: Iterable, n: int) -> int:
    """The key of an exponent vector of length ``n``; ``ValueError`` if it is not one."""
    given = tuple(exponents)
    exps = tuple(map(_int, given))
    if exps != given:  # an integral float such as 2.0 passes
        raise ValueError(f"exponents must be integers, got {given}")
    if len(exps) != n or min(exps, default=0) < 0:
        raise ValueError(f"bad exponent vector {exps} for {n} variables")
    if max(exps, default=0) > MAX_EXPONENT:
        raise ValueError(_over_limit(max(exps)))
    return int.from_bytes(struct.pack(f"<{n}Q", *exps), "little")


def _unpacker(n: int) -> Callable[[int], tuple[int, ...]]:
    """The map from a key to its exponent vector of length ``n``."""
    unpack, size = struct.Struct(f"<{n}Q").unpack, _BITS // 8 * n
    return lambda key: unpack(key.to_bytes(size, "little"))


class Polynomial(LinearCombination):
    """Sparse multivariate polynomial with exact coefficients: a
    :class:`LinearCombination` whose basis elements are exponent vectors
    (tuples of length ``num_vars``), in the space of polynomials in
    ``num_vars`` variables, stored under packed keys.

    The store, sums, scalar multiples and the signed-sum text are those of
    :class:`LinearCombination`; this class adds the variable count, the
    product, the derivative, the degree-lex order of :meth:`terms` and the
    text of one monomial.  Only the public constructor validates.
    """

    __slots__ = ("num_vars",)

    def __init__(self, num_vars: int, terms: Mapping | Iterable = ()):
        n = _int(num_vars)
        if n != num_vars:
            raise ValueError(f"the variable count must be an integer, got {num_vars!r}")
        if n < 0:
            raise ValueError(f"the variable count must not be negative, got {n}")
        self.num_vars = n
        items = terms.items() if isinstance(terms, Mapping) else terms
        LinearCombination.__init__(self, [(_pack(exponents, n), coeff) for exponents, coeff in items])

    def _new(self, terms: dict) -> "Polynomial":
        p = object.__new__(Polynomial)
        p.num_vars, p._terms = self.num_vars, terms
        return p

    def _checked(self) -> "Polynomial":
        """``self``, or ``ValueError`` if an exponent is above :data:`MAX_EXPONENT`."""
        over = _OVER * (((1 << _BITS * self.num_vars) - 1) // _FIELD)  # _OVER in every field
        for key in self._terms:
            if key & over:
                raise ValueError(_over_limit(max(_unpacker(self.num_vars)(key))))
        return self

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars)

    def _check(self, other: "Polynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("variable counts differ")

    def terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        return sorted(self, key=lambda kv: (sum(kv[0]), kv[0]))

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], Scalar]]:
        unpack = _unpacker(self.num_vars)
        return iter([(unpack(key), c) for key, c in self._terms.items()])

    def coefficient(self, exponents) -> Scalar:
        try:
            key = _pack(exponents, self.num_vars)
        except (TypeError, ValueError):  # not an exponent vector in these variables
            return 0
        return LinearCombination.coefficient(self, key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Polynomial:
            return NotImplemented
        return self.num_vars == other.num_vars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.num_vars, frozenset(self._terms.items())))

    def __mul__(self, other):
        if other.__class__ is not Polynomial:
            return self.__rmul__(other)
        self._check(other)
        return self._new(_nonzero(_mul_into({}, self._terms, other._terms)))._checked()

    def derivative(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to ``x_index`` (1-based)."""
        if not 1 <= index <= self.num_vars:
            raise ValueError(f"variable index {index} out of range 1..{self.num_vars}")
        return self._new(_derive_into({}, self._terms, index - 1))  # lowering x_i meets no two terms

    def _term_text(self, exps: tuple[int, ...], magnitude: Scalar) -> str:
        factors = "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e)
        if not factors:
            return format_fraction(magnitude)
        return factors if magnitude == 1 else f"{format_fraction(magnitude)}*{factors}"

    def __repr__(self) -> str:
        return f"Polynomial({self.num_vars}, {self.render()!r})"


def _mul_into(out: dict, p: dict, q: dict) -> dict:
    """Add the product of the raw stores ``p`` and ``q`` (``{key: coeff}``) into the
    store ``out`` and return it; a zero sum stays for the caller to purge."""
    get = out.get
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = e1 + e2
            out[key] = get(key, 0) + c1 * c2
    return out


def _derive_into(out: dict, p: dict, i: int) -> dict:
    """Add the partial derivative of the raw store ``p`` by ``x_(i+1)`` into ``out`` and return it."""
    shift = _BITS * i
    one = 1 << shift
    for key, coeff in p.items():
        e = key >> shift & _FIELD
        if e:
            key -= one
            out[key] = out.get(key, 0) + coeff * e
    return out


_TERM = re.compile(r"(?=[^\s+-])(?:[*^/]\s*[+-]|[^+-])+")


def _signed_terms(text: str, what: str) -> list[tuple[int, int, str]]:
    """The terms of the signed sum ``text`` as (sign, column, term), each term stripped.

    The sign rule of both polynomial grammars: a ``+`` or ``-`` separates
    terms except right after ``*``, ``^`` or ``/``, where it belongs to the
    term (:data:`_TERM` matches a term); a run of signs before a term
    multiplies out; a sign with no term after it is an error.
    """
    terms, end = [], 0
    for term in _TERM.finditer(text):
        terms.append(((-1) ** text.count("-", end, term.start()), term.start(), term.group().rstrip()))
        end = term.end()
    if text[end:].strip():
        raise ParseError("missing term after sign", text, len(text.rstrip()) - 1)
    if not terms:
        raise ParseError(f"empty {what}", text, 0)
    return terms


def parse_polynomial(text: str, num_vars: int) -> Polynomial:
    """Parse forms like ``3*x1^2*x2 - 1/2*x2 + 4``.

    A run of signs multiplies out, as in
    :func:`~hopftrees.diff_ops.parse_word_polynomial`: ``a - -b`` is ``a + b``
    and ``a - +b`` is ``a - b``.  Spaces are allowed around ``*``, and a
    malformed term, or one whose exponent of a variable is above
    :data:`MAX_EXPONENT`, is reported at its column in ``text`` as typed.
    """
    return Polynomial(num_vars, [_parse_monomial(sign, term, num_vars, text, column)
                                 for sign, column, term in _signed_terms(text, "polynomial")])


def _parse_monomial(coeff: Scalar, term: str, num_vars: int, full: str, offset: int) -> tuple:
    """``coeff`` times the monomial ``term`` as (exponent vector, coefficient)."""
    exps = [0] * num_vars
    for _, piece in pieces(term, "*"):
        if not piece:
            raise ParseError("empty factor", full, offset)
        if piece[0] == "x":
            name, hat, power = piece.partition("^")
            if not name[1:].isdecimal():
                raise ParseError(f"invalid variable {name!r}", full, offset)
            idx = int(name[1:])
            if not 1 <= idx <= num_vars:
                raise ParseError(f"variable x{idx} out of range for n={num_vars}", full, offset)
            if hat and not power.strip().isdecimal():
                raise ParseError(f"invalid exponent {power!r}", full, offset)
            exps[idx - 1] += int(power) if hat else 1
        else:
            try:
                value = Fraction(piece)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"invalid coefficient {piece!r}", full, offset) from None
            coeff *= value.numerator if value.denominator == 1 else value
    if max(exps, default=0) > MAX_EXPONENT:
        raise ParseError(_over_limit(max(exps)), full, offset)
    return tuple(exps), coeff
