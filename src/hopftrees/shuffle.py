"""The shuffle Hopf algebra on words.

Words multiply by summing over all order-preserving interleavings and
comultiply by deconcatenation into prefix/suffix pairs.  The antipode reverses
a word and attaches the sign ``(-1)^length``.  Letters may carry degrees
larger than one; graded alphabets only matter for dimension counts, where the
number of words of a given total degree is computed by a small recurrence.
"""

from __future__ import annotations

import itertools
import math

from .algebra import (_PLAIN, GradedHopfAlgebra, Immutable, LinearCombination, ParseError, TensorPair, _int,
                      _set, check_budget, check_degree, identifiers)


class Word(Immutable):
    """A finite sequence of letters; the empty word is the unit, printed ``1``.

    Immutable and equal by value; the hash is computed once at construction,
    because words are dictionary keys in every product and coproduct.
    """

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: tuple[str, ...] = ()):
        _set(self, "letters", letters)
        _set(self, "_hash", hash((letters,)))

    def __reduce__(self):
        return Word, (self.letters,)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Word):
            return NotImplemented
        return self._hash == other._hash and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Word({self.letters!r})"

    def encode(self) -> str:
        return ".".join(self.letters) if self.letters else "1"

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.encode()


EMPTY_WORD = Word()


def shuffle_product(u: Word, v: Word) -> LinearCombination:
    """Sum over all ``C(|u|+|v|, |u|)`` interleavings preserving both orders."""
    total = len(u) + len(v)
    check_budget(math.comb(total, len(u)), "shuffle product")
    counts: dict[Word, int] = {}
    for u_slots in itertools.combinations(range(total), len(u)):
        letters: list[str | None] = [None] * total
        for letter, slot in zip(u.letters, u_slots):
            letters[slot] = letter
        it = iter(v.letters)
        word = Word(tuple(x if x is not None else next(it) for x in letters))
        counts[word] = counts.get(word, 0) + 1
    return _PLAIN._new(counts)


def deconcatenation(w: Word) -> LinearCombination:
    """``Delta(w) = sum_k prefix_k (x) suffix_k`` over all split points."""
    return _PLAIN._new({TensorPair(Word(w.letters[:k]), Word(w.letters[k:])): 1 for k in range(len(w) + 1)})


def shuffle_antipode(w: Word) -> LinearCombination:
    """Reverse the word with sign ``(-1)^|w|``."""
    return LinearCombination.single(Word(tuple(reversed(w.letters))), (-1) ** len(w))


def word_count(alphabet, total_degree: int) -> int:
    """Number of words over a graded alphabet with letter degrees summing to n.

    ``alphabet`` is a sequence of ``(letter, degree)`` pairs with positive
    integer degrees.
    """
    given = [d for _, d in alphabet]
    degrees = list(map(_int, given))
    if degrees != given:
        raise ValueError("letter degrees must be integers")
    if any(d <= 0 for d in degrees):
        raise ValueError("letter degrees must be positive")
    total = _int(total_degree)
    if total != total_degree:
        raise ValueError("total degree must be an integer")
    if total < 0:
        raise ValueError("total degree must be >= 0")
    counts = [0] * (total + 1)
    counts[0] = 1
    for n in range(1, total + 1):
        counts[n] = sum(counts[n - d] for d in degrees if d <= n)
    return counts[total]


class ShuffleHopfAlgebra(GradedHopfAlgebra):
    """Shuffle product + deconcatenation over a finite degree-1 alphabet."""

    __slots__ = ("letters",)

    def __init__(self, letters):
        _set(self, "letters", tuple(letters))

    def unit(self) -> Word:
        return EMPTY_WORD

    def degree(self, w: Word) -> int:
        return len(w)

    def basis(self, degree: int) -> list[Word]:
        check_degree(degree)
        check_budget(len(self.letters) ** degree, f"shuffle basis of degree {degree}")
        return [Word(combo) for combo in itertools.product(self.letters, repeat=degree)]

    def product(self, u: Word, v: Word) -> LinearCombination:
        return shuffle_product(u, v)

    def coproduct(self, w: Word) -> LinearCombination:
        return deconcatenation(w)

    def antipode(self, w: Word) -> LinearCombination:
        return shuffle_antipode(w)

    def describe(self) -> str:
        return f"shuffle algebra on {{{', '.join(self.letters)}}}"


def parse_word(text: str) -> Word:
    """Parse a ``.``-joined word; ``1`` denotes the empty word."""
    if text.strip() == "1":
        return EMPTY_WORD
    if not text.strip():
        raise ParseError("empty word must be written '1'", text, 0)
    return Word(tuple(identifiers(text, ".", "letter")))
