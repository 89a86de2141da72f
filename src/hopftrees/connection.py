"""Connections on derivations and the induced action of ordered labeled trees.

A connection is given in coordinates by Christoffel data: polynomials
``gamma[i, j, k]`` so that

    (nabla_E F)^k = sum_mu E^mu dF^k/dx_mu + sum_{i,j} gamma[i,j,k] E^i F^j.

This formula is additive in both slots, function-linear in the lower slot and
Leibniz in the upper one, for arbitrary polynomial Christoffel data.

An ordered labeled subtree turns into a single derivation by folding its
children through the connection, first child outermost; a whole tree (root
unlabeled, child subtrees s_1..s_m) acts on a polynomial f as the m-th
covariant differential of f evaluated on the subtree derivations, in child
order (Munthe-Kaas-Wright, FoCM 2008).  Child order matters, so the tree
action refuses unordered trees with a ``ValueError``.  Every function here
validates its inputs and then calls the fused kernel of
:mod:`hopftrees.diff_ops`, which keeps each covariant differential
``nabla^m F`` as a per-call tower of raw stores and adds each product straight
into its target; with zero Christoffel data it is the flat tree action.  The
module law calls that kernel through ``diff_ops._module_law``, which sums the
coproduct's pieces as raw stores.  A returned polynomial or derivation is
checked once against the exponent limit of :mod:`hopftrees.polynomials`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .algebra import pieces
from .diff_ops import (Derivation, DerivationEnv, Polynomial, _check_tree, _covariant_contraction, _module_law,
                       _spec_size, _subtree_derivation, _tree_action, parse_polynomial)
from .trees import Tree


class Connection:
    """Christoffel data ``gamma[i, j, k]`` with polynomial entries; zeros omitted."""

    def __init__(self, num_vars: int, gamma: Mapping[tuple[int, int, int], Polynomial] | None = None):
        self.num_vars = int(num_vars)
        data = {}  # (i, j, k) -> a nonzero entry
        for (i, j, k), poly in (gamma or {}).items():
            for index in (i, j, k):
                if not 1 <= index <= self.num_vars:
                    raise ValueError(f"index {index} out of range 1..{self.num_vars}")
            if poly.num_vars != self.num_vars:
                raise ValueError("Christoffel entry has the wrong variable count")
            if poly:
                data[(i, j, k)] = poly
        self._gamma = data
        # the form the kernel in diff_ops reads: indices from 0, the stores of each entry and its negative
        self._steps = [(i - 1, j - 1, k - 1, p._terms, {e: -c for e, c in p._terms.items()})
                       for (i, j, k), p in data.items()]

    @classmethod
    def flat(cls, num_vars: int) -> "Connection":
        return cls(num_vars)

    @classmethod
    def from_dict(cls, spec: Mapping) -> "Connection":
        """Build from ``{"n": 1, "gamma": {"i,j,k": "<polynomial>"}}``."""
        n = _spec_size(spec, "connection")
        entries = spec.get("gamma")
        if entries is not None and not isinstance(entries, Mapping):
            raise ValueError("connection spec: 'gamma' must map 'i,j,k' keys to polynomials")
        gamma = {}
        for key, value in (entries or {}).items():
            parts = [p for _, p in pieces(str(key), ",")]
            if len(parts) != 3 or not all(p.isdecimal() for p in parts):
                raise ValueError(f"bad Christoffel key {key!r}; expected 'i,j,k'")
            gamma[tuple(map(int, parts))] = parse_polynomial(str(value), n)
        return cls(n, gamma)


def covariant_derivative(conn: Connection, lower: Derivation, upper: Derivation) -> Derivation:
    """``nabla_lower upper`` in coordinates: the first covariant differential of ``upper``."""
    return vector_covariant_differential(upper, [lower], conn)


def vector_covariant_differential(field: Derivation, fields: Sequence[Derivation], conn: Connection) -> Derivation:
    """The m-th covariant differential of a vector field, ``(nabla^m E)(X_1..X_m)``:

    ``nabla_{X_1}((nabla^{m-1} E)(X_2,..)) - sum_i (nabla^{m-1} E)(X_2,.., nabla_{X_1} X_i, ..)``.
    """
    if not fields:
        return field
    _check_vars(conn.num_vars, field, *fields)
    return Derivation(map(field.coeffs[0]._new, _covariant_contraction(field, fields, conn._steps, {})))._checked()


def subtree_derivation(subtree: Tree, env: DerivationEnv, conn: Connection) -> Derivation:
    """Fold a labeled subtree into one derivation: a leaf labeled E is E itself;
    a node labeled E with children ``u_1 .. u_k`` is the k-th covariant
    differential of E evaluated on the child derivations in order."""
    _check_ordered(subtree)
    _check_vars(env.num_vars, conn)
    if not all(isinstance(label, str) for label in subtree.labels()):
        raise ValueError("every node below the root must carry a derivation symbol")
    return _subtree_derivation(subtree, env, conn._steps, {})._checked()


def covariant_differential(f: Polynomial, fields: Sequence[Derivation], conn: Connection) -> Polynomial:
    """The m-th covariant differential ``(nabla^m f)(X_1, .., X_m)``:

    ``X_1((nabla^{m-1} f)(X_2,..)) - sum_i (nabla^{m-1} f)(X_2,.., nabla_{X_1} X_i, ..)``.
    """
    if not fields:
        return f
    _check_vars(f.num_vars, conn, *fields)
    return f._new(_covariant_contraction(f, fields, conn._steps, {})[0])._checked()


def apply_connection_operator(t: Tree, env: DerivationEnv, conn: Connection, f: Polynomial) -> Polynomial:
    """Action of an ordered labeled tree on ``f`` through the connection."""
    _check_ordered(t)
    _check_vars(env.num_vars, conn)
    _check_tree(t, env, f)
    return _tree_action(t, env, conn._steps, f, {})._checked()


def _check_ordered(t: Tree) -> None:
    # child order matters here; an unordered tree would act in its sorted order
    if not t.ordered:
        raise ValueError(f"tree {t.encode()} has the wrong ordered/unordered flavor")


def _check_vars(num_vars: int, *objects) -> None:
    if any(x.num_vars != num_vars for x in objects):
        raise ValueError("variable counts differ")


def check_module_law(t: Tree, env: DerivationEnv, conn: Connection, a: Polynomial, b: Polynomial) -> bool:
    """Does ``t . (a b) = sum (t' . a)(t'' . b)`` over the ordered coproduct?

    Each piece ``t' (x) t''`` is a split of the root's children, so ``t`` is
    validated once, here, and the trusted kernel ``diff_ops._module_law`` sums
    the pieces as raw stores, with no tree or polynomial built for any of them.
    One memo serves the call: each distinct subtree derivation, and each level
    of the towers of ``a``, ``b`` and ``a b``, is computed once."""
    _check_ordered(t)
    _check_vars(env.num_vars, conn)
    ab = a * b
    _check_tree(t, env, ab)  # the pieces of t have t's labels, and a and b the variables of a * b
    lhs, rhs = _module_law(t, env, conn._steps, a, b, ab)
    return lhs == rhs
