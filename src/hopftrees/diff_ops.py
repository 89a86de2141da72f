"""Derivations, the tree-to-operator expansion and its evaluation on polynomials.

The polynomials themselves, their packed stores and the kernels that add
products and derivatives into those stores are :mod:`hopftrees.polynomials`.

A labeled tree encodes a higher-order differential operator, evaluated bottom
up: a node labeled E with children ``u_1 .. u_k`` becomes the k-th
differential of E contracted with the children's derivations (a leaf is E),
and the root does the same with ``f`` -- the elementary differentials of
B-series.  One fused kernel serves flat trees here and ordered trees under a
connection (:mod:`hopftrees.connection`).  A public call validates each tree
once and keeps one memo, dropped when it returns: the derivation of each
distinct subtree, and the tower ``nabla^m F`` of each operand F, built once.
Inside the call a derivation is the tuple of the raw stores of its
components; a :class:`Derivation` is built only for a result.  The result is
checked once against the exponent limit.  The module law of
:mod:`hopftrees.connection` has a kernel of its own here: its pieces are the
splits of the root's children, so each is two contractions of one call's
towers, and their products are summed as raw stores.

Words in the derivation symbols expand to labeled trees by grafting one
leaf per letter (Grossman-Larson 1989), and the expansion composes: the tree
operator of a word equals the nested application of the derivations.  Words
cancel against each other at the tree level, before any differentiation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import (_PLAIN, Immutable, LinearCombination, ParseError, Record, Scalar, _collect, _nonzero, _set,
                      _sum_scaled, check_budget, format_fraction, pieces, splits)
from .polynomials import Polynomial, _derive_into, _mul_into, _signed_terms, parse_polynomial
from .trees import Forest, Tree, _symbols, attach_all


class Derivation(Immutable, Record):
    """A first-order operator ``sum_mu a^mu d/dx_mu`` with polynomial coefficients;
    an immutable, unhashable record, equal to a derivation with the same coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a derivation needs at least one coefficient")
        n = coeffs[0].num_vars
        if any(p.num_vars != n for p in coeffs) or len(coeffs) != n:
            raise ValueError("coefficient count must equal the variable count")
        _set(self, "coeffs", coeffs)

    def __repr__(self) -> str:
        return f"Derivation({self.coeffs!r})"

    @property
    def num_vars(self) -> int:
        return len(self.coeffs)

    def apply(self, f: Polynomial) -> Polynomial:
        """``sum_mu a^mu * df/dx_mu``; satisfies the Leibniz rule."""
        if f.num_vars != self.num_vars:
            raise ValueError("variable counts differ")
        coeffs = enumerate(self.coeffs, start=1)
        return _sum_scaled(((1, a * f.derivative(mu)) for mu, a in coeffs if a), f)

    def __add__(self, other: "Derivation") -> "Derivation":
        if not isinstance(other, Derivation):
            return NotImplemented
        return Derivation(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-1) * other

    def __rmul__(self, other) -> "Derivation":
        if isinstance(other, (int, Fraction, Polynomial)):
            return Derivation(other * p for p in self.coeffs)
        return NotImplemented

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
            table[name] = Derivation(parse_polynomial(str(c), n) for c in coeffs)
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
    _check_tree(t, env, f)
    return _tree_action(t, env, (), f, {})._checked()


def _check_tree(t: Tree, env: DerivationEnv, f: Polynomial) -> None:
    """Refuse a labeled root, a variable count not ``env``'s, or a label not in ``env``.
    One walk checks each node after its children, so the first unknown label in
    postorder is reported, by the node's preorder number."""
    if t.label is not None:
        raise ValueError("the root of an operator tree must be unlabeled")
    if f.num_vars != env.num_vars:
        raise ValueError("variable counts differ")

    def walk(node: Tree, j: int) -> int:  # checks the subtree of preorder node j, returns the number after it
        k = j + 1
        for child in node.children:
            k = walk(child, k)
        if j and (not isinstance(node.label, str) or node.label not in env):
            raise KeyError(f"unknown derivation symbol {node.label!r} at node {j}")
        return k

    walk(t, 0)


def _tree_action(t: Tree, env: DerivationEnv, steps: Sequence, f: Polynomial, memo: dict) -> Polynomial:
    """``(nabla^m f)(theta(s_1), .., theta(s_m))`` for the root's child subtrees
    ``s_i``, once :func:`_check_tree` has passed ``t`` or a tree it came from."""
    fields = [_subtree_derivation(s, env, steps, memo) for s in t.children]
    return f._new(_covariant_contraction(f, fields, steps, memo)[0])


def _module_law(t: Tree, env: DerivationEnv, steps: Sequence, a: Polynomial, b: Polynomial,
                ab: Polynomial) -> tuple[dict, dict]:
    """The raw stores of ``t . (a b)`` and of ``sum (t' . a)(t'' . b)`` over the ordered
    coproduct, once :func:`_check_tree` has passed ``t`` with ``ab = a * b``.  A piece
    ``t' (x) t''`` is a split of the root's children (:func:`~hopftrees.algebra.splits`,
    as the coproduct itself), so each side of it contracts the tower of ``a`` or ``b``
    with the children's derivations, and ``ways`` times the product is added into one
    store.  One memo serves the call."""
    memo, rhs = {}, {}
    theta = {s: _subtree_derivation(s, env, steps, memo) for s in t.children}
    lhs = _covariant_contraction(ab, [theta[s] for s in t.children], steps, memo)[0]
    for kept, rest, ways in splits(t.children, "root split"):
        left = _covariant_contraction(a, [theta[s] for s in kept], steps, memo)[0]
        right = _covariant_contraction(b, [theta[s] for s in rest], steps, memo)[0]
        _mul_into(rhs, left if ways == 1 else {e: ways * c for e, c in left.items()}, right)
    return lhs, _nonzero(rhs)


def _subtree_derivation(node: Tree, env: DerivationEnv, steps: Sequence, memo: dict) -> tuple:
    """``theta(node) = (nabla^k E)(theta(u_1), .., theta(u_k))`` for a node
    labeled E with children ``u_i``, as the raw stores of its components; a leaf
    is E itself.  ``memo`` maps the subtrees already evaluated under ``env`` and
    ``steps`` to their stores."""
    if node not in memo:
        fields = [_subtree_derivation(u, env, steps, memo) for u in node.children]
        memo[node] = _covariant_contraction(env[node.label], fields, steps, memo)
    return memo[node]


def _covariant_contraction(operand, fields: Sequence[tuple], steps: Sequence, memo: dict) -> tuple:
    """The raw stores of the components of ``(nabla^m F)(X_1, .., X_m)`` for ``F`` a polynomial or
    a :class:`Derivation`, each field ``X_i`` given by the raw stores of its components.
    ``steps`` holds the connection as (a, b, c, the stores of
    ``gamma[a,b,c]`` and of its negative), indices from 0 (empty: flat).
    ``memo`` keeps the tower of ``F`` for the call: level j is the tensor
    ``T_j`` of raw stores by index tuple, built once, from ``T_0 = F``, as

        T_j^k[a, b..] = d_a T_{j-1}^k[b..] + sum_i gamma[a,i,k] T_{j-1}^i[b..]
                        - sum_l sum_c gamma[a,b_l,c] T_{j-1}^k[b.. c ..]

    (middle term for vector fields only); then ``a_i`` is contracted with ``X_i``."""
    vector = isinstance(operand, Derivation)
    components = operand.coeffs if vector else (operand,)
    # a safe key: F (an argument, a * b, or a symbol's field) outlives the memo
    tower = memo.get(id(operand)) or memo.setdefault(
        id(operand), [{(k,): p._terms for k, p in enumerate(components)}])
    while len(tower) <= len(fields):  # T_j from T_{j-1}, each term added into its target store
        raised = {}
        for key, p in tower[-1].items():
            k, rest = key[0], key[1:]
            for a in range(components[0].num_vars):
                _derive_into(raised.setdefault((k, a) + rest, {}), p, a)
            for a, b, c, g, minus_g in steps:
                if vector and b == k:
                    _mul_into(raised.setdefault((c, a) + rest, {}), g, p)
                for slot, index in enumerate(rest):
                    if index == c:
                        _mul_into(raised.setdefault((k, a) + rest[:slot] + (b,) + rest[slot + 1 :], {}), minus_g, p)
        tower.append({key: q for key, p in raised.items() if (q := _nonzero(p))})
    tensor = tower[len(fields)]
    for field in reversed(fields):
        contracted = {}
        for key, p in tensor.items():
            if q := field[key[-1]]:  # a zero component adds nothing
                _mul_into(contracted.setdefault(key[:-1], {}), q, p)
        tensor = contracted
    return tuple(_nonzero(tensor.get((k,), {})) for k in range(len(components)))


def word_to_trees(word: Sequence[str], symbols: Iterable[str] | None = None) -> LinearCombination:
    """Expand a word in derivation symbols into labeled trees.

    The letters graft right to left, each as one leaf placed below every node
    of every tree so far, starting from the single node; the result is the
    tree form of the composed operator.
    """
    if symbols is not None:
        known = set(symbols)
        unknown = [s for s in word if s not in known]
        if unknown:
            raise KeyError(f"unknown derivation symbols {unknown}")
    _symbols(word if symbols is None else sorted(known), 0)  # refuses a symbol that is not an identifier
    terms = {Tree(): 1}
    for k, letter in enumerate(reversed(word), 1):
        check_budget(len(terms) * k, "word expansion")  # each tree so far has k nodes to graft below
        leaf = Forest((Tree(letter),))
        terms = _collect((s, c * cs) for t, c in terms.items() for s, cs in attach_all(leaf, t))
    return _PLAIN._new(terms)


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
    """One factor per node, last in preorder first; node ``i^j`` is preorder node ``j``."""
    factors = []

    def number(node: Tree) -> int:
        j = len(factors)
        factors.append(None)  # the node's place, filled once its children are numbered
        ds = "".join(f"D_i{number(c)} " for c in node.children)
        factors[j] = f"({ds}a_{node.label}^i{j})" if j else f"({ds}f)"
        return j

    number(t)
    return tuple(reversed(factors))


def expand_operator(word_terms: Sequence[tuple[Scalar, Sequence[str]]],
                    symbols: Iterable[str] | None = None) -> OperatorExpansion:
    """Expand ``sum_w c_w * word`` to trees and cancel at the tree level.

    The raw count tallies every generated tree with multiplicity, before
    cancellation between words; the surviving combination is what is left
    after coefficients merge.
    """
    expansions = [(Fraction(coeff), word_to_trees(word, symbols)) for coeff, word in word_terms]
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
    trees = word_to_trees(word, env.symbols)  # refuses a symbol not in env
    if f.num_vars != env.num_vars:
        raise ValueError("variable counts differ")
    memo = {}
    tree_side = _sum_scaled(((coeff, _tree_action(t, env, (), f, memo)) for t, coeff in trees), f)._checked()
    nested = f
    for symbol in reversed(word):
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
