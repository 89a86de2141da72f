"""Sparse exact polynomials, derivations, and the tree-to-operator expansion.

A labeled tree encodes a higher-order differential operator, evaluated bottom
up: a node labeled E with children ``u_1 .. u_k`` becomes the k-th
differential of E contracted with the children's derivations (a leaf is E),
and the root does the same with ``f`` -- the elementary differentials of
B-series.  One evaluator serves flat trees here and ordered trees under a
connection (:mod:`hopftrees.connection`); no Christoffel data means flat.
Evaluations that act on many trees (:func:`verify_composition`, the module
law) share one memo for the length of the call: a dict from subtree to its
derivation, so each distinct subtree is evaluated once and nothing outlives
the call.

Words in the derivation symbols expand to combinations of labeled trees via
the grafting product, and the expansion composes: the tree operator of a word
equals the nested application of the derivations.  Cancellations between words
happen at the tree level, before any differentiation.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import (Immutable, LinearCombination, ParseError, Record, Scalar, _exact, _set,
                      _sum_scaled, extend_bilinear, format_fraction, pieces)
from .grossman_larson import labeled_algebra
from .trees import Tree, _preorder, canonicalize


class Polynomial:
    """Sparse multivariate polynomial with exact coefficients.

    Terms map exponent vectors (tuples of length ``num_vars``) to nonzero
    coefficients.  An ``int`` coefficient stays an ``int`` and anything else
    becomes a ``Fraction``, so a coefficient turns rational only where a
    ``Fraction`` or a division comes in.  Immutable by convention.  Only the
    public constructor validates; arithmetic builds its results with
    :meth:`_trusted`.
    """

    __slots__ = ("num_vars", "_terms")

    def __init__(self, num_vars: int, terms: Mapping | Iterable = ()):
        self.num_vars = int(num_vars)
        data: dict[tuple[int, ...], Scalar] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exponents, coeff in items:
            exps = tuple(int(e) for e in exponents)
            if len(exps) != self.num_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {self.num_vars} variables")
            c = _exact(coeff)
            if c:
                data[exps] = c = c + data.get(exps, 0)
                if not c:
                    del data[exps]
        self._terms = data

    @classmethod
    def _trusted(cls, num_vars: int, terms: dict) -> "Polynomial":
        """``terms`` as they are: exponent vectors of length ``num_vars``, nonzero coefficients."""
        p = object.__new__(cls)
        p.num_vars = num_vars
        p._terms = terms
        return p

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls._trusted(int(num_vars), {})

    @classmethod
    def _sum(cls, num_vars: int, pieces: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of ``pieces``, all over ``num_vars`` variables, accumulated in one dict."""
        out: dict[tuple[int, ...], Scalar] = {}
        for p in pieces:
            for e, c in p._terms.items():
                out[e] = out.get(e, 0) + c
        return cls._trusted(int(num_vars), {e: c for e, c in out.items() if c})

    def terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.num_vars, frozenset(self._terms.items())))

    def _check(self, other: "Polynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("variable counts differ")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = c = c + out.get(e, 0)
            if not c:
                del out[e]
        return Polynomial._trusted(self.num_vars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.num_vars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            out: dict[tuple[int, ...], Scalar] = {}
            add = operator.add
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    key = tuple(map(add, e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
            return Polynomial._trusted(self.num_vars, {e: c for e, c in out.items() if c})
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            terms = {e: c * v for e, v in self._terms.items()} if c else {}
            return Polynomial._trusted(self.num_vars, terms)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def derivative(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to ``x_index`` (1-based)."""
        if not 1 <= index <= self.num_vars:
            raise ValueError(f"variable index {index} out of range 1..{self.num_vars}")
        i = index - 1
        out = {}
        for exps, coeff in self._terms.items():
            k = exps[i]
            if k:  # lowering x_i is one-to-one, so no two terms meet
                out[exps[:i] + (k - 1,) + exps[i + 1 :]] = coeff * k
        return Polynomial._trusted(self.num_vars, out)

    def render(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for exps, coeff in self.terms():
            factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e > 0]
            mag = abs(coeff)
            if not factors:
                body = format_fraction(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = format_fraction(mag) + "*" + "*".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.num_vars}, {self.render()!r})"


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

    A run of signs multiplies out, as in :func:`parse_word_polynomial`:
    ``a - -b`` is ``a + b`` and ``a - +b`` is ``a - b``.  Spaces are allowed
    around ``*``, and a malformed term is reported at its column in ``text``
    as typed.
    """
    return Polynomial._sum(num_vars, (sign * _parse_monomial(term, num_vars, text, column)
                                      for sign, column, term in _signed_terms(text, "polynomial")))


def _parse_monomial(term: str, num_vars: int, full: str, offset: int) -> Polynomial:
    coeff: Scalar = 1
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
    return Polynomial(num_vars, {tuple(exps): coeff})


class Derivation(Immutable):
    """A first-order operator ``sum_mu a^mu d/dx_mu`` with polynomial coefficients; immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Polynomial, ...]):
        if not coeffs:
            raise ValueError("a derivation needs at least one coefficient")
        n = coeffs[0].num_vars
        if any(p.num_vars != n for p in coeffs) or len(coeffs) != n:
            raise ValueError("coefficient count must equal the variable count")
        _set(self, "coeffs", coeffs)

    def __reduce__(self):
        return Derivation, (self.coeffs,)

    def __repr__(self) -> str:
        return f"Derivation({self.coeffs!r})"

    @classmethod
    def zero(cls, num_vars: int) -> "Derivation":
        return cls(tuple(Polynomial.zero(num_vars) for _ in range(num_vars)))

    @property
    def num_vars(self) -> int:
        return len(self.coeffs)

    def apply(self, f: Polynomial) -> Polynomial:
        """``sum_mu a^mu * df/dx_mu``; satisfies the Leibniz rule."""
        if f.num_vars != self.num_vars:
            raise ValueError("variable counts differ")
        coeffs = enumerate(self.coeffs, start=1)
        return Polynomial._sum(self.num_vars, (a * f.derivative(mu) for mu, a in coeffs if a))

    def __add__(self, other: "Derivation") -> "Derivation":
        if not isinstance(other, Derivation):
            return NotImplemented
        return Derivation(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-1) * other

    def __rmul__(self, other) -> "Derivation":
        if isinstance(other, (int, Fraction, Polynomial)):
            return Derivation(tuple(other * p for p in self.coeffs))
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.coeffs == other.coeffs

    def render(self) -> str:
        parts = [f"({p.render()})*D{mu}" for mu, p in enumerate(self.coeffs, start=1) if p]
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.render()


class DerivationEnv:
    """A finite family of named derivations sharing one variable count."""

    def __init__(self, num_vars: int, derivations: Mapping[str, Derivation]):
        self.num_vars = int(num_vars)
        table = dict(derivations)
        for name, deriv in table.items():
            if deriv.num_vars != self.num_vars:
                raise ValueError(f"derivation {name} has the wrong variable count")
        self._table = table

    def __getitem__(self, symbol: str) -> Derivation:
        if symbol not in self._table:
            raise KeyError(f"unknown derivation symbol {symbol!r}")
        return self._table[symbol]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._table

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted(self._table))

    @classmethod
    def from_dict(cls, spec: Mapping) -> "DerivationEnv":
        """Build from ``{"n": 2, "E1": ["x1", "0"], ...}`` with polynomial strings."""
        n = _spec_size(spec, "derivation")
        table = {}
        for name, coeffs in spec.items():
            if name == "n":
                continue
            if not isinstance(coeffs, (list, tuple)) or len(coeffs) != n:
                raise ValueError(f"derivation {name} needs a list of {n} coefficient polynomials")
            table[name] = Derivation(tuple(parse_polynomial(str(c), n) for c in coeffs))
        return cls(n, table)


def _spec_size(spec: Mapping, what: str) -> int:
    """The variable count ``n`` of a JSON spec, which must be a mapping with a positive integer ``n``."""
    if not isinstance(spec, Mapping) or "n" not in spec:
        raise ValueError(f"{what} spec needs an 'n' entry")
    n = spec["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"{what} spec: 'n' must be a positive integer, not {n!r}")
    return n


# ---------------------------------------------------------------------------
# Tree operators


def apply_tree_operator(t: Tree, env: DerivationEnv, f: Polynomial) -> Polynomial:
    """Evaluate the differential operator encoded by a labeled tree on ``f``."""
    return _tree_action(t, env, {}, f, {})


def _tree_action(t: Tree, env: DerivationEnv, gamma: Mapping, f: Polynomial, memo: dict) -> Polynomial:
    """``(nabla^m f)(theta(s_1), .., theta(s_m))`` for the root's child subtrees
    ``s_i``, once the root, the labels and the variable count are checked."""
    if t.label is not None:
        raise ValueError("the root of an operator tree must be unlabeled")
    if f.num_vars != env.num_vars:
        raise ValueError("variable counts differ")
    nodes, _, paths = _preorder(t)  # a node's number is its preorder index
    unknown = [j for j in range(1, len(nodes))
               if not isinstance(nodes[j].label, str) or nodes[j].label not in env]
    if unknown:  # report the first in postorder: node j is at j + size - 1 - depth there
        j = min(unknown, key=lambda j: j + nodes[j].node_count() - len(paths[j]))
        raise KeyError(f"unknown derivation symbol {nodes[j].label!r} at node {j}")
    fields = [_subtree_derivation(s, env, gamma, memo) for s in t.children]
    return _covariant_contraction((f,), fields, gamma, vector=False)[0]


def _subtree_derivation(node: Tree, env: DerivationEnv, gamma: Mapping, memo: dict) -> Derivation:
    """``theta(node) = (nabla^k E)(theta(u_1), .., theta(u_k))`` for a node
    labeled E with children ``u_i``; a leaf is E itself.  ``memo`` maps the
    subtrees already evaluated under ``env`` and ``gamma`` to their derivations."""
    theta = memo.get(node)
    if theta is None:
        if not isinstance(node.label, str):
            raise ValueError("every node below the root must carry a derivation symbol")
        fields = [_subtree_derivation(u, env, gamma, memo) for u in node.children]
        theta = Derivation(_covariant_contraction(env[node.label].coeffs, fields, gamma, vector=True))
        memo[node] = theta
    return theta


def _covariant_contraction(components: Sequence[Polynomial], fields: Sequence[Derivation],
                           gamma: Mapping, vector: bool) -> tuple[Polynomial, ...]:
    """``(nabla^m F)(X_1, .., X_m)`` for a function ``F`` (one component) or a
    vector field, given Christoffel data ``gamma`` (empty: flat).  The tensor
    ``T^k[a_1, .., a_j]`` grows one index per level from ``T_0 = F``:

        T_j^k[a, b..] = d_a T_{j-1}^k[b..] + sum_i gamma[a,i,k] T_{j-1}^i[b..]
                        - sum_l sum_c gamma[a,b_l,c] T_{j-1}^k[b.. c ..]

    (middle term for vector fields only), then ``a_i`` is contracted with ``X_i``.
    """
    n = components[0].num_vars
    tensor = {(k,): p for k, p in enumerate(components, start=1)}
    for _ in fields:
        raised: dict[tuple[int, ...], Polynomial] = {}
        for key, p in tensor.items():
            k, rest = key[0], key[1:]
            for a in range(1, n + 1):
                _accumulate(raised, (k, a) + rest, p.derivative(a))
            for (a, b, c), g in gamma.items():
                if vector and b == k:
                    _accumulate(raised, (c, a) + rest, g * p)
                for slot, index in enumerate(rest):
                    if index == c:
                        bent = rest[:slot] + (b,) + rest[slot + 1 :]
                        _accumulate(raised, (k, a) + bent, -(g * p))
        tensor = raised
    for field in reversed(fields):
        contracted: dict[tuple[int, ...], Polynomial] = {}
        for key, p in tensor.items():
            _accumulate(contracted, key[:-1], field.coeffs[key[-1] - 1] * p)
        tensor = contracted
    zero = Polynomial.zero(n)
    return tuple(tensor.get((k,), zero) for k in range(1, len(components) + 1))


def _accumulate(acc: dict, key: tuple[int, ...], p: Polynomial) -> None:
    if p:
        acc[key] = acc[key] + p if key in acc else p


def word_to_trees(word: Sequence[str], symbols: Iterable[str] | None = None) -> LinearCombination:
    """Expand a word in derivation symbols into labeled trees.

    The letters multiply left to right through the grafting product, starting
    from single-branch trees; the result is the tree form of the composed
    operator.
    """
    word = tuple(word)
    if symbols is not None:
        known = set(symbols)
        unknown = [s for s in word if s not in known]
        if unknown:
            raise KeyError(f"unknown derivation symbols {unknown}")
    alphabet = tuple(dict.fromkeys(word)) if symbols is None else tuple(sorted(set(word) | set(symbols)))
    alg = labeled_algebra(alphabet)
    result = LinearCombination.single(alg.unit())
    for letter in reversed(word):
        generator = canonicalize(Tree(None, (Tree(letter),)))
        result = extend_bilinear(alg.product, LinearCombination.single(generator), result)
    return result


class OperatorTerm(Record):
    """One surviving tree together with its formal multi-index factorization."""

    __slots__ = ("coeff", "tree", "factors")

    def __init__(self, coeff: Scalar, tree: Tree, factors: tuple[str, ...]):
        self.coeff = coeff
        self.tree = tree
        self.factors = factors

    def render(self) -> str:
        sign = "-" if self.coeff < 0 else "+"
        mag = abs(self.coeff)
        coeff_text = "" if mag == 1 else f"{format_fraction(mag)}*"
        return f"{sign} {coeff_text}sum " + " ".join(self.factors)


class OperatorExpansion(Record):
    """Tree-level expansion of a formal polynomial in derivation symbols."""

    __slots__ = ("raw_tree_count", "surviving", "terms")

    def __init__(self, raw_tree_count: int, surviving: LinearCombination, terms: list[OperatorTerm]):
        self.raw_tree_count = raw_tree_count
        self.surviving = surviving
        self.terms = terms

    @property
    def surviving_count(self) -> int:
        return int(self.surviving.total_multiplicity())

    @property
    def cancelled_count(self) -> int:
        return self.raw_tree_count - self.surviving_count

    def report(self) -> str:
        return (f"raw_trees: {self.raw_tree_count}, cancelled: {self.cancelled_count}, "
                f"surviving: {self.surviving_count}")


def _tree_factors(t: Tree) -> tuple[str, ...]:
    nodes, kids, _ = _preorder(t)  # node i^j is preorder node j
    factors = []
    for j in range(len(nodes) - 1, -1, -1):
        ds = "".join(f"D_i{c} " for c in kids[j])
        factors.append(f"({ds}a_{nodes[j].label}^i{j})" if j else f"({ds}f)")
    return tuple(factors)


def expand_operator(word_terms: Sequence[tuple[Scalar, Sequence[str]]],
                    symbols: Iterable[str] | None = None) -> OperatorExpansion:
    """Expand ``sum_w c_w * word`` to trees and cancel at the tree level.

    The raw count tallies every generated tree with multiplicity, before
    cancellation between words; the surviving combination is what is left
    after coefficients merge.
    """
    expansions = [(Fraction(coeff), word_to_trees(tuple(word), symbols)) for coeff, word in word_terms]
    raw = sum(abs(coeff) * expansion.total_multiplicity() for coeff, expansion in expansions)
    surviving = _sum_scaled(expansions)
    terms = [OperatorTerm(c, t, _tree_factors(t)) for t, c in surviving.terms()]
    return OperatorExpansion(int(raw), surviving, terms)


class CompositionCheck(Record):
    """Outcome of comparing a word's tree expansion against nested application."""

    __slots__ = ("ok", "tree_side", "nested_side")

    def __init__(self, ok: bool, tree_side: Polynomial, nested_side: Polynomial):
        self.ok = ok
        self.tree_side = tree_side
        self.nested_side = nested_side

    def __bool__(self) -> bool:
        return self.ok

    def render(self) -> str:
        if self.ok:
            return f"ok: both sides equal {self.tree_side.render()}"
        return (f"MISMATCH\n  tree expansion:     {self.tree_side.render()}\n"
                f"  nested application: {self.nested_side.render()}")


def verify_composition(word: Sequence[str], env: DerivationEnv, f: Polynomial) -> CompositionCheck:
    """Check that the tree expansion of a word applied to ``f`` equals the
    nested application of its derivations, left to right."""
    trees = word_to_trees(tuple(word), env.symbols)
    memo: dict[Tree, Derivation] = {}
    tree_side = Polynomial._sum(env.num_vars,
                                (coeff * _tree_action(t, env, {}, f, memo) for t, coeff in trees))
    nested = f
    for symbol in reversed(tuple(word)):
        nested = env[symbol].apply(nested)
    return CompositionCheck(tree_side == nested, tree_side, nested)


def parse_word_polynomial(text: str) -> list[tuple[Fraction, tuple[str, ...]]]:
    """Parse ``E3,E2,E1 - E3,E1,E2 + 2*E1,E2`` into (coefficient, word) pairs.

    A run of signs multiplies out, as in :func:`parse_polynomial`:
    ``a - -b`` is ``a + b`` and ``a - +b`` is ``a - b``.  Spaces are allowed
    around ``*`` and ``,``, and a malformed coefficient or word is reported at
    its column in ``text`` as typed.
    """
    out: list[tuple[Fraction, tuple[str, ...]]] = []
    for sign, column, term in _signed_terms(text, "operator polynomial"):
        coeff, at, word = Fraction(sign), column, term
        if "*" in term:
            (_, head), (at, _) = pieces(term, "*", column)[:2]
            try:
                coeff *= Fraction(head)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"invalid coefficient {head!r}", text, column) from None
            word = term.partition("*")[2]
        letters = tuple(letter for _, letter in pieces(word, ","))
        if not all(letter.isidentifier() for letter in letters):
            raise ParseError(f"invalid word {word!r}", text, at)
        out.append((coeff, letters))
    return out
