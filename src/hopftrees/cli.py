"""Command-line front end.

One binary with subcommands mirroring the library: gl (tree algebra),
ck (forest algebra), shuffle, perm, trees (enumeration), psi (derivation
operators), conn (connections) and verify.  Every subcommand takes
--format text|json; element arguments accept '-' to read the element from
stdin.

Exit codes: 0 on success, 1 on malformed input, 2 on verification failure.

Each ``_cmd_<subcommand>`` returns its result and prints nothing: a
``LinearCombination``, a ``VerificationReport`` or a ``(text, payload)`` pair.
``main`` turns it into text and a JSON payload with ``_payload``, prints one of
the two as ``--format`` says, and exits 2 exactly when the payload's ``ok`` or
``passed`` is false.  (``-h`` shows this docstring up to this paragraph, so
the paragraphs above it are plain text, not markup.)
"""

from __future__ import annotations

import argparse
import json
import random
import sys

# Modules a subcommand may not need are reached through their module objects,
# which the package loads on first attribute access (see ``hopftrees/__init__``):
# ``from .diff_ops import X`` here would run ``diff_ops`` for every subcommand.
from . import axioms, connection, diff_ops
from . import connes_kreimer as ck
from . import grossman_larson as gl
from . import permutations as perm
from . import shuffle as sh
from .algebra import LinearCombination, ParseError, TensorPair, format_fraction, identifiers
from .trees import DEFAULT_DEGREE_CAP, HEAP_DEGREE_CAP, ordered_labeled_trees, parse_forest, parse_tree

FLAVORS = ("rooted", "ordered", "labeled", "ordered-labeled", "hot")

# The element operations of each algebra subcommand and how many elements each
# takes: the parser's choices, and the arity check in ``_validate``.
_ARITY = {
    "gl": {"mul": 2, "coprod": 1, "antipode": 1},
    "ck": {"coprod": 1, "pair": 2},
    "shuffle": {"mul": 2, "coprod": 1},
    "perm": {"mul": 2, "coprod": 1, "to-tree": 1, "from-tree": 1},
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; malformed input is exit 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _read_element(value: str | None) -> str | None:
    return sys.stdin.read().strip() if value == "-" else value


def _algebra_for(flavor: str, symbols) -> gl.TreeHopfAlgebra:
    """The tree algebra of ``flavor``; the labeled flavors take ``symbols`` as labels."""
    if flavor in ("labeled", "ordered-labeled"):
        return gl.labeled_algebra(symbols, ordered=(flavor == "ordered-labeled"))
    return {"rooted": gl.ROOTED, "ordered": gl.ORDERED, "hot": gl.HEAP_ORDERED}[flavor]


def _payload(result) -> tuple[str, dict]:
    """The text and the JSON payload of a handler's result."""
    # a report is tested last: naming ``axioms.VerificationReport`` runs ``axioms``
    if isinstance(result, tuple):
        return result
    if isinstance(result, LinearCombination):
        terms = [
            {"coeff": format_fraction(coeff),
             "basis": [basis.left.encode(), basis.right.encode()] if isinstance(basis, TensorPair) else basis.encode()}
            for basis, coeff in result.terms()
        ]
        return result.render(), {"terms": terms}
    checks = [
        {"name": c.name, "checked": c.checked, "passed": c.passed, "counterexample": c.counterexample}
        for c in result.checks
    ]
    return result.render(), {"algebra": result.algebra, "passed": result.passed, "axioms": checks}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gl(args):
    ordered = args.flavor in ("ordered", "ordered-labeled")
    elements = [parse_tree(e, ordered=ordered) for e in args.elements]
    symbols = identifiers(args.symbols, ",", "symbol") if args.symbols is not None else sorted(
        {lab for t in elements for lab in t.labels() if isinstance(lab, str)}
    )
    alg = _algebra_for(args.flavor, symbols)
    return {"mul": alg.product, "coprod": alg.coproduct, "antipode": alg.antipode}[args.operation](*elements)


def _cmd_ck(args):
    if args.operation == "coprod":
        return ck.forest_coproduct(parse_forest(args.elements[0]))
    value = format_fraction(ck.dual_pairing(parse_tree(args.elements[0]), parse_forest(args.elements[1])))
    return value, {"value": value}


def _cmd_shuffle(args):
    words = [sh.parse_word(w) for w in args.elements]
    return {"mul": sh.shuffle_product, "coprod": sh.deconcatenation}[args.operation](*words)


def _cmd_perm(args):
    if args.operation == "from-tree":
        code = perm.tree_to_permutation(parse_tree(args.elements[0])).encode()
        return code, {"permutation": code}
    parsed = [perm.parse_permutation(p, n=args.n) for p in args.elements]
    if args.operation == "to-tree":
        code = perm.permutation_to_tree(parsed[0]).encode()
        return code, {"tree": code}
    return {"mul": perm.heap_product, "coprod": perm.cycle_coproduct}[args.operation](*parsed)


def _cmd_trees(args):
    symbols = identifiers(args.symbols, ",", "symbol") if args.family == "labeled" else ()
    members = _algebra_for(args.family, symbols).basis(args.degree, args.cap)
    if args.operation == "count":
        return str(len(members)), {"count": len(members)}
    codes = [t.encode() for t in members]
    return "\n".join(codes), {"trees": codes}


def _load(path: str, spec_type):
    """``spec_type.from_dict`` of the JSON spec file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return spec_type.from_dict(json.load(handle))


def _cmd_psi(args):
    env = _load(args.env, diff_ops.DerivationEnv)
    if args.operation == "apply":
        tree = parse_tree(args.tree)
        result = diff_ops.apply_tree_operator(tree, env, diff_ops.parse_polynomial(args.f, env.num_vars)).render()
        return result, {"polynomial": result}
    if args.operation == "expand":
        expansion = diff_ops.expand_operator(diff_ops.parse_word_polynomial(args.word), env.symbols)
        terms = [{"coeff": format_fraction(term.coeff), "tree": term.tree.encode(), "factors": list(term.factors)}
                 for term in expansion.terms]
        payload = {"raw_trees": expansion.raw_tree_count, "cancelled": expansion.cancelled_count,
                   "surviving": expansion.surviving_count, "terms": terms}
        lines = [expansion.report()]
        if not args.report:
            lines += [f"{format_fraction(c)}*{t.encode()}" for t, c in expansion.surviving.terms()]
        return "\n".join(lines), payload
    # check-diagram
    word = identifiers(args.word, ",", "symbol")
    check = diff_ops.verify_composition(word, env, diff_ops.parse_polynomial(args.f, env.num_vars))
    payload = {"ok": check.ok, "tree_side": check.tree_side.render(), "nested_side": check.nested_side.render()}
    return check.render(), payload


def _cmd_conn(args):
    conn = _load(args.connection, connection.Connection)
    env = _load(args.env, diff_ops.DerivationEnv)
    if args.operation == "apply":
        result = connection.covariant_derivative(conn, env[args.fields[0]], env[args.fields[1]]).render()
        return result, {"derivation": result}
    # check-module: sweep all ordered labeled trees up to --max-degree with seeded random
    # polynomial pairs, listing every degree first, largest first, so an over-budget one fails at once
    rng = random.Random(args.seed)
    failures: list[str] = []
    checked = 0
    trees = {d: ordered_labeled_trees(d, env.symbols) for d in reversed(range(args.max_degree + 1))}
    for degree in range(args.max_degree + 1):
        for tree in trees[degree]:
            a = _random_polynomial(rng, env.num_vars, 2)
            b = _random_polynomial(rng, env.num_vars, 2)
            checked += 1
            if not connection.check_module_law(tree, env, conn, a, b):
                failures.append(tree.encode())
    ok = not failures
    text = f"module law: {'ok' if ok else 'FAIL'} ({checked} trees)"
    text += "" if ok else f" first counterexample: {failures[0]}"
    return text, {"ok": ok, "checked": checked, "failures": failures}


def _random_polynomial(rng: random.Random, num_vars: int, max_degree: int) -> diff_ops.Polynomial:
    terms = {}
    for _ in range(rng.randint(2, 4)):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(num_vars)] += 1
        terms[tuple(exps)] = rng.randint(-3, 3)
    return diff_ops.Polynomial(num_vars, terms)


def _cmd_verify(args):
    degree = args.max_degree
    if args.algebra == "gl":
        flavors = [args.flavor] if args.flavor else ["rooted", "ordered", "labeled", "hot"]
        symbols = identifiers("E1,E2" if args.symbols is None else args.symbols, ",", "symbol")
        combined = axioms.VerificationReport(f"tree algebra sweep (degree <= {degree})")
        algebras = [(flavor, _algebra_for(flavor, symbols)) for flavor in flavors]
        for _, alg in algebras:  # every flavor's cap, before the first sweep
            alg.check_degree(degree)
        for flavor, alg in algebras:
            report = alg.verify(degree)
            for check in report.checks:
                check.name = f"{flavor}/{check.name}"
                combined.checks.append(check)
        return combined
    if args.algebra == "ck":
        return ck.verify_forest_algebra(degree)
    if args.algebra == "shuffle":
        letters = identifiers("x1,x2" if args.symbols is None else args.symbols, ",", "symbol")
        return sh.ShuffleHopfAlgebra(letters).verify(degree)
    return perm.HEAP_PRODUCT_ALGEBRA.verify(degree)


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hopftrees", description=__doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, operations=(), elements=None):
        """The subparser ``name`` with ``--format``, an ``operation`` if it has any (an
        algebra's are ``_ARITY``'s) and, where ``elements`` is their help, ``elements``."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("text", "json"), default="text")
        if operations := tuple(_ARITY.get(name, operations)):
            p.add_argument("operation", choices=operations)
        if elements:
            p.add_argument("elements", nargs="+", help=elements)
        return p

    glp = command("gl", "grafting algebra of trees", elements="trees like '(;())' ('-' reads stdin)")
    glp.add_argument("--flavor", choices=FLAVORS, default="rooted")
    glp.add_argument("--symbols", help="comma-separated labels for labeled flavors")
    command("ck", "forest algebra with cut coproduct", elements="monomial '()*(;())' or tree + monomial")
    command("shuffle", "shuffle algebra of words", elements="words like 'x1.x2' ('1' = empty)")
    pp = command("perm", "heap product algebra of permutations", elements="permutations like '(1 3)(2)'")
    pp.add_argument("--n", type=int, help="ambient symmetric group size")

    tp = command("trees", "enumerate tree families", ("enum", "count"))
    tp.add_argument("--family", choices=("rooted", "ordered", "hot", "labeled"), required=True)
    tp.add_argument("--degree", type=int, required=True)
    tp.add_argument("--symbols", default="E1,E2", help="labels for the labeled family (default %(default)s)")
    tp.add_argument("--cap", type=int, help=f"enumeration cap (defaults {DEFAULT_DEGREE_CAP}, hot {HEAP_DEGREE_CAP})")

    psip = command("psi", "labeled trees as differential operators", ("apply", "expand", "check-diagram"))
    psip.add_argument("--env", required=True, help="derivation spec JSON file")
    psip.add_argument("--tree", help="operator tree for 'apply'")
    psip.add_argument("--word", help="word(s) in derivation symbols, e.g. 'E1,E2 - E2,E1'")
    psip.add_argument("--f", help="polynomial argument")
    psip.add_argument("--report", action="store_true", help="print only the cancellation summary")

    cp = command("conn", "connection action of ordered labeled trees", ("apply", "check-module"))
    cp.add_argument("fields", nargs="*", help="two derivation symbols for 'apply'")
    cp.add_argument("--connection", required=True, help="Christoffel spec JSON file")
    cp.add_argument("--env", required=True, help="derivation spec JSON file")
    cp.add_argument("--max-degree", type=int, default=2)
    cp.add_argument("--seed", type=int, default=2024)

    vp = command("verify", "run axiom sweeps")
    vp.add_argument("--algebra", choices=("gl", "ck", "shuffle", "perm"), required=True)
    vp.add_argument("--flavor", choices=FLAVORS)
    vp.add_argument("--symbols")
    vp.add_argument("--max-degree", type=int, default=3)

    return parser


def _validate(args) -> None:
    if args.command in _ARITY:
        needs = _ARITY[args.command][args.operation]
        if len(args.elements) != needs:
            raise ValueError(f"{args.command} {args.operation} expects {needs} element(s)")
    if args.command == "psi":
        if args.operation == "apply" and (not args.tree or not args.f):
            raise ValueError("psi apply needs --tree and --f")
        if args.operation in ("expand", "check-diagram") and not args.word:
            raise ValueError(f"psi {args.operation} needs --word")
        if args.operation == "check-diagram" and not args.f:
            raise ValueError("psi check-diagram needs --f")
    if getattr(args, "max_degree", 0) < 0:
        raise ValueError(f"degree must be >= 0, got {args.max_degree}")
    if args.command == "perm" and args.n is not None and args.n < 0:
        raise ValueError(f"n must be >= 0, got {args.n}")
    if args.command == "conn" and args.operation == "apply" and len(args.fields) != 2:
        raise ValueError("conn apply needs two derivation symbols")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
        # each '-' element, and psi's '--tree -', is read from stdin in turn
        args.elements = [_read_element(e) for e in getattr(args, "elements", ())]
        args.tree = _read_element(getattr(args, "tree", None))
        text, payload = _payload(globals()[f"_cmd_{args.command}"](args))
        print(json.dumps(payload) if args.format == "json" else text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = f": {exc.filename}" if exc.filename else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        # a KeyError's str() quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 2 if False in (payload.get("ok"), payload.get("passed")) else 0


if __name__ == "__main__":
    sys.exit(main())
