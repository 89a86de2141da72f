"""Command-line front end.

One binary with subcommands mirroring the library: ``gl`` (tree algebra),
``ck`` (forest algebra), ``shuffle``, ``perm``, ``trees`` (enumeration),
``psi`` (derivation operators), ``conn`` (connections) and ``verify``.
Every subcommand takes ``--format text|json``; element arguments accept ``-``
to read the element from stdin.

Exit codes: 0 on success, 1 on malformed input, 2 on verification failure.
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


def _read_element(value: str) -> str:
    return sys.stdin.read().strip() if value == "-" else value


def _algebra_for(flavor: str, symbols) -> gl.TreeHopfAlgebra:
    """The tree algebra of ``flavor``; the labeled flavors take ``symbols`` as labels."""
    if flavor in ("labeled", "ordered-labeled"):
        return gl.labeled_algebra(symbols, ordered=(flavor == "ordered-labeled"))
    return {"rooted": gl.ROOTED, "ordered": gl.ORDERED, "hot": gl.HEAP_ORDERED}[flavor]


def _combination_payload(combo: LinearCombination) -> dict:
    terms = []
    for basis, coeff in combo.terms():
        if isinstance(basis, TensorPair):
            encoded: object = [basis.left.encode(), basis.right.encode()]
        else:
            encoded = basis.encode()
        terms.append({"coeff": format_fraction(coeff), "basis": encoded})
    return {"terms": terms}


def _emit(args, text: str, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(text)


def _emit_combination(args, combo: LinearCombination) -> None:
    _emit(args, combo.render(), _combination_payload(combo))


def _report_exit(args, report: axioms.VerificationReport) -> int:
    payload = {
        "algebra": report.algebra,
        "passed": report.passed,
        "axioms": [
            {
                "name": c.name,
                "checked": c.checked,
                "passed": c.passed,
                "counterexample": c.counterexample,
            }
            for c in report.checks
        ],
    }
    _emit(args, report.render(), payload)
    return 0 if report.passed else 2


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gl(args) -> int:
    ordered = args.flavor in ("ordered", "ordered-labeled")
    elements = [parse_tree(_read_element(e), ordered=ordered) for e in args.elements]
    symbols = identifiers(args.symbols, ",", "symbol") if args.symbols is not None else sorted(
        {lab for t in elements for lab in t.labels() if isinstance(lab, str)}
    )
    alg = _algebra_for(args.flavor, symbols)
    if args.operation == "mul":
        _emit_combination(args, alg.product(elements[0], elements[1]))
    elif args.operation == "coprod":
        _emit_combination(args, alg.coproduct(elements[0]))
    else:
        _emit_combination(args, alg.antipode(elements[0]))
    return 0


def _cmd_ck(args) -> int:
    if args.operation == "coprod":
        monomial = parse_forest(_read_element(args.elements[0]))
        _emit_combination(args, ck.forest_coproduct(monomial))
        return 0
    tree = parse_tree(_read_element(args.elements[0]))
    monomial = parse_forest(_read_element(args.elements[1]))
    value = ck.dual_pairing(tree, monomial)
    _emit(args, format_fraction(value), {"value": format_fraction(value)})
    return 0


def _cmd_shuffle(args) -> int:
    words = [sh.parse_word(_read_element(w)) for w in args.elements]
    if args.operation == "mul":
        _emit_combination(args, sh.shuffle_product(words[0], words[1]))
    else:
        _emit_combination(args, sh.deconcatenation(words[0]))
    return 0


def _cmd_perm(args) -> int:
    if args.operation == "from-tree":
        tree = parse_tree(_read_element(args.elements[0]))
        result = perm.tree_to_permutation(tree)
        _emit(args, result.encode(), {"permutation": result.encode()})
        return 0
    parsed = [perm.parse_permutation(_read_element(p), n=args.n) for p in args.elements]
    if args.operation == "mul":
        _emit_combination(args, perm.heap_product(parsed[0], parsed[1]))
    elif args.operation == "coprod":
        _emit_combination(args, perm.cycle_coproduct(parsed[0]))
    else:  # to-tree
        tree = perm.permutation_to_tree(parsed[0])
        _emit(args, tree.encode(), {"tree": tree.encode()})
    return 0


def _cmd_trees(args) -> int:
    symbols = identifiers(args.symbols, ",", "symbol") if args.family == "labeled" else ()
    members = _algebra_for(args.family, symbols).basis(args.degree, args.cap)
    if args.operation == "count":
        _emit(args, str(len(members)), {"count": len(members)})
    else:
        text = "\n".join(t.encode() for t in members)
        _emit(args, text, {"trees": [t.encode() for t in members]})
    return 0


def _load(path: str, spec_type):
    """``spec_type.from_dict`` of the JSON spec file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return spec_type.from_dict(json.load(handle))


def _cmd_psi(args) -> int:
    env = _load(args.env, diff_ops.DerivationEnv)
    if args.operation == "apply":
        tree = parse_tree(_read_element(args.tree))
        f = diff_ops.parse_polynomial(args.f, env.num_vars)
        result = diff_ops.apply_tree_operator(tree, env, f)
        _emit(args, result.render(), {"polynomial": result.render()})
        return 0
    if args.operation == "expand":
        word_terms = diff_ops.parse_word_polynomial(args.word)
        expansion = diff_ops.expand_operator(word_terms, env.symbols)
        payload = {
            "raw_trees": expansion.raw_tree_count,
            "cancelled": expansion.cancelled_count,
            "surviving": expansion.surviving_count,
            "terms": [
                {
                    "coeff": format_fraction(term.coeff),
                    "tree": term.tree.encode(),
                    "factors": list(term.factors),
                }
                for term in expansion.terms
            ],
        }
        if args.report:
            _emit(args, expansion.report(), payload)
        else:
            lines = [expansion.report()] + [
                f"{format_fraction(c)}*{t.encode()}" for t, c in expansion.surviving.terms()
            ]
            _emit(args, "\n".join(lines), payload)
        return 0
    # check-diagram
    word = identifiers(args.word, ",", "symbol")
    f = diff_ops.parse_polynomial(args.f, env.num_vars)
    check = diff_ops.verify_composition(word, env, f)
    payload = {
        "ok": check.ok,
        "tree_side": check.tree_side.render(),
        "nested_side": check.nested_side.render(),
    }
    _emit(args, check.render(), payload)
    return 0 if check.ok else 2


def _cmd_conn(args) -> int:
    conn = _load(args.connection, connection.Connection)
    env = _load(args.env, diff_ops.DerivationEnv)
    if args.operation == "apply":
        lower = env[args.fields[0]]
        upper = env[args.fields[1]]
        result = connection.covariant_derivative(conn, lower, upper)
        _emit(args, result.render(), {"derivation": result.render()})
        return 0
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
    text = (
        f"module law: {'ok' if ok else 'FAIL'} ({checked} trees)"
        + ("" if ok else f" first counterexample: {failures[0]}")
    )
    _emit(args, text, {"ok": ok, "checked": checked, "failures": failures})
    return 0 if ok else 2


def _random_polynomial(rng: random.Random, num_vars: int, max_degree: int) -> diff_ops.Polynomial:
    terms = {}
    for _ in range(rng.randint(2, 4)):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(num_vars)] += 1
        terms[tuple(exps)] = rng.randint(-3, 3)
    return diff_ops.Polynomial(num_vars, terms)


def _cmd_verify(args) -> int:
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
        return _report_exit(args, combined)
    if args.algebra == "ck":
        return _report_exit(args, ck.verify_forest_algebra(degree))
    if args.algebra == "shuffle":
        letters = identifiers("x1,x2" if args.symbols is None else args.symbols, ",", "symbol")
        return _report_exit(args, sh.ShuffleHopfAlgebra(letters).verify(degree))
    return _report_exit(args, perm.HEAP_PRODUCT_ALGEBRA.verify(degree))


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = _Parser(prog="hopftrees", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    glp = sub.add_parser("gl", parents=[common], help="grafting algebra of trees")
    glp.add_argument("operation", choices=tuple(_ARITY["gl"]))
    glp.add_argument("elements", nargs="+", help="trees like '(;())' ('-' reads stdin)")
    glp.add_argument("--flavor", choices=FLAVORS, default="rooted")
    glp.add_argument("--symbols", help="comma-separated labels for labeled flavors")
    glp.set_defaults(handler=_cmd_gl)

    ckp = sub.add_parser("ck", parents=[common], help="forest algebra with cut coproduct")
    ckp.add_argument("operation", choices=tuple(_ARITY["ck"]))
    ckp.add_argument("elements", nargs="+", help="monomial '()*(;())' or tree + monomial")
    ckp.set_defaults(handler=_cmd_ck)

    shp = sub.add_parser("shuffle", parents=[common], help="shuffle algebra of words")
    shp.add_argument("operation", choices=tuple(_ARITY["shuffle"]))
    shp.add_argument("elements", nargs="+", help="words like 'x1.x2' ('1' = empty)")
    shp.set_defaults(handler=_cmd_shuffle)

    pp = sub.add_parser("perm", parents=[common], help="heap product algebra of permutations")
    pp.add_argument("operation", choices=tuple(_ARITY["perm"]))
    pp.add_argument("elements", nargs="+", help="permutations like '(1 3)(2)'")
    pp.add_argument("--n", type=int, help="ambient symmetric group size")
    pp.set_defaults(handler=_cmd_perm)

    tp = sub.add_parser("trees", parents=[common], help="enumerate tree families")
    tp.add_argument("operation", choices=("enum", "count"))
    tp.add_argument("--family", choices=("rooted", "ordered", "hot", "labeled"), required=True)
    tp.add_argument("--degree", type=int, required=True)
    tp.add_argument("--symbols", default="E1,E2", help="labels for the labeled family (default %(default)s)")
    tp.add_argument("--cap", type=int, help=f"enumeration cap (defaults {DEFAULT_DEGREE_CAP}, hot {HEAP_DEGREE_CAP})")
    tp.set_defaults(handler=_cmd_trees)

    psip = sub.add_parser("psi", parents=[common], help="labeled trees as differential operators")
    psip.add_argument("operation", choices=("apply", "expand", "check-diagram"))
    psip.add_argument("--env", required=True, help="derivation spec JSON file")
    psip.add_argument("--tree", help="operator tree for 'apply'")
    psip.add_argument("--word", help="word(s) in derivation symbols, e.g. 'E1,E2 - E2,E1'")
    psip.add_argument("--f", help="polynomial argument")
    psip.add_argument("--report", action="store_true", help="print only the cancellation summary")
    psip.set_defaults(handler=_cmd_psi)

    cp = sub.add_parser("conn", parents=[common], help="connection action of ordered labeled trees")
    cp.add_argument("operation", choices=("apply", "check-module"))
    cp.add_argument("fields", nargs="*", help="two derivation symbols for 'apply'")
    cp.add_argument("--connection", required=True, help="Christoffel spec JSON file")
    cp.add_argument("--env", required=True, help="derivation spec JSON file")
    cp.add_argument("--max-degree", type=int, default=2)
    cp.add_argument("--seed", type=int, default=2024)
    cp.set_defaults(handler=_cmd_conn)

    vp = sub.add_parser("verify", parents=[common], help="run axiom sweeps")
    vp.add_argument("--algebra", choices=("gl", "ck", "shuffle", "perm"), required=True)
    vp.add_argument("--flavor", choices=FLAVORS)
    vp.add_argument("--symbols")
    vp.add_argument("--max-degree", type=int, default=3)
    vp.set_defaults(handler=_cmd_verify)

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
        return args.handler(args)
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


if __name__ == "__main__":
    sys.exit(main())
