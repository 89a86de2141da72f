"""The four workloads: seeded inputs, one operation per call, and their checks.

Each workload function returns ``(warmup, ops)``.  Warm-up operations have fixed inputs
that the timed set never uses; timed operations are made from the seed.  A
seed changes the inputs but not the shape of a workload: the same number of
operations of each kind and size and, outside ``cli``, in the same order (the
order matters in one process: the heap, and so the collector's work, grows
through a round).  Every operation returns
its result; ``check`` lists what is wrong with it (empty when correct), and
``render`` gives the text that goes into the workload's digest.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import hopftrees as H
import oracles as O


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    render: Callable[[Any], str] = str


def _failures(label: str, pairs) -> list[str]:
    return [f"{label}: {message}" for ok, message in pairs if not ok]


def coeff_sum(combo) -> Fraction:
    return sum((c for _, c in combo), Fraction(0))


# ---------------------------------------------------------------------------
# graft: large grafting products, where attach_all and canonicalize dominate

# (nodes of t1, root children of t1, nodes of t2, how many); n2^r assignments each
ROOTED_PROFILE = [(6, 5, 6, 1), (7, 5, 5, 1), (6, 4, 7, 2), (7, 4, 6, 2), (5, 4, 6, 2),
                  (7, 3, 7, 2), (5, 3, 5, 2)]
LABELED_PROFILE = [(5, 4, 6, 2), (6, 3, 6, 2)]
HEAP_PROFILE = [(5, 4, 6, 2), (6, 3, 6, 2)]
ANTIPODE_ROOT_DEGREES = (2, 3, 3, 4)  # degree-5 trees
ORACLE_LIMIT = 700  # brute-force oracle on products with at most this many assignments


def _product_op(label, alg, a, b, heap=False):
    n1, n2 = O.shape_nodes(O.parse_shape(a)), O.shape_nodes(O.parse_shape(b))
    r = len(O.parse_shape(a)[1])

    def run():
        return alg.product(H.parse_tree(a), H.parse_tree(b))

    def check(combo):
        terms = {O.parse_shape(t.encode()): c for t, c in combo}
        pairs = [
            (coeff_sum(combo) == n2**r, f"coefficients sum to {coeff_sum(combo)}, not {n2**r}"),
            (all(O.shape_nodes(s) == n1 + n2 - 1 for s in terms), "a term has the wrong node count"),
        ]
        if n2**r <= ORACLE_LIMIT:
            oracle = O.graft_oracle(a, b, shift=n2 - 1 if heap else 0)
            pairs.append((terms == oracle, "differs from the brute-force grafting oracle"))
        return _failures(f"{label} {a} x {b}", pairs)

    return Op(f"{label} {a} x {b}", run, check, lambda combo: combo.render())


def _antipode_op(alg, text):
    def run():
        return alg.antipode(H.parse_tree(text))

    def check(s):
        # m(S (x) id) Delta(t) = counit(t) * unit, with S(t) the result under test;
        # and S is graded
        t = H.parse_tree(text)
        total = H.LinearCombination.zero()
        for pair, c in alg.coproduct(t):
            for x, cx in (s if pair.left == t else alg.antipode(pair.left)):
                total = total + (c * cx) * alg.product(x, pair.right)
        target = alg.counit(t) * H.LinearCombination.single(alg.unit())
        return _failures(f"antipode {text}", [
            (total == target, "m(S (x) id) Delta is not the counit"),
            (all(x.node_count() == t.node_count() for x, _ in s), "S is not graded"),
        ])

    return Op(f"antipode {text}", run, check, lambda s: s.render())


def graft(seed: int, ctx=None):
    rng = random.Random(seed)
    labeled = H.labeled_algebra(("E1", "E2"))
    ops = []
    for n1, r, n2, count in ROOTED_PROFILE:
        for _ in range(count):
            a = O.random_tree_text(rng, n1, r)
            b = O.random_tree_text(rng, n2, rng.randint(1, n2 - 1))
            ops.append(_product_op("rooted", H.ROOTED, a, b))
    for n1, r, n2, count in LABELED_PROFILE:
        for _ in range(count):
            a = O.random_tree_text(rng, n1, r, labels=("E1", "E2"))
            b = O.random_tree_text(rng, n2, rng.randint(1, n2 - 1), labels=("E1", "E2"))
            ops.append(_product_op("labeled", labeled, a, b))
    for n1, r, n2, count in HEAP_PROFILE:
        for _ in range(count):
            a = O.random_tree_text(rng, n1, r, heap=True)
            b = O.random_tree_text(rng, n2, rng.randint(1, n2 - 1), heap=True)
            ops.append(_product_op("heap", H.HEAP_ORDERED, a, b, heap=True))
    for r in ANTIPODE_ROOT_DEGREES:
        ops.append(_antipode_op(H.ROOTED, O.random_tree_text(rng, 6, r)))
    warmup = [
        _product_op("rooted", H.ROOTED, "(;()())", "(;(;()))"),
        _product_op("labeled", labeled, "(;(E2)(E1))", "(;(E1))"),
        _product_op("heap", H.HEAP_ORDERED, "(;(1)(2))", "(;(1))", heap=True),
        _antipode_op(H.ROOTED, "(;(;())())"),
    ]
    return warmup, ops


# ---------------------------------------------------------------------------
# sweep: exhaustive axiom sweeps, many tiny products, coproducts and antipodes

SYMBOL_PAIRS = (("E1", "E2"), ("F1", "F2"), ("G1", "G2"), ("a1", "a2"), ("b1", "b2"))


def _sweep_op(label, verify, expected):
    def check(report):
        counts = {c.name: c.checked for c in report.checks}
        return _failures(label, [
            (report.passed, f"sweep failed: {report.render()}"),
            (counts == expected, f"checked counts {counts}, expected {expected}"),
        ])

    return Op(label, verify, check, lambda report: report.render())


def _tree_sweep(label, alg, degree, basis_size):
    return _sweep_op(f"{label} verify({degree})", lambda: alg.verify(degree),
                     O.expected_sweep_checks(basis_size, degree))


def sweep(seed: int, ctx=None):
    rng = random.Random(seed)
    labels = rng.choice(SYMBOL_PAIRS)
    letters = rng.choice(SYMBOL_PAIRS)
    two_colours = O.colored_forest_counts(2, 8)
    ops = [
        _tree_sweep("rooted", H.ROOTED, 4, lambda d: O.ROOTED_COUNTS[d]),
        _tree_sweep("ordered", H.ORDERED, 4, O.catalan),
        _tree_sweep("heap-ordered", H.HEAP_ORDERED, 3, math.factorial),
        _tree_sweep(f"labeled{labels}", H.labeled_algebra(labels), 3, lambda d: two_colours[d]),
        _sweep_op("forest verify(4)", lambda: H.verify_forest_algebra(4), O.expected_forest_checks(4)),
        _tree_sweep(f"shuffle{letters}", H.ShuffleHopfAlgebra(letters), 4, lambda d: 2**d),
        _tree_sweep("permutations", H.HEAP_PRODUCT_ALGEBRA, 3, math.factorial),
    ]
    warmup = [
        _tree_sweep("shuffle(p, q)", H.ShuffleHopfAlgebra(("p", "q")), 2, lambda d: 2**d),
        _tree_sweep("labeled(W)", H.labeled_algebra(("W",)), 2,
                    lambda d: O.colored_forest_counts(1, 8)[d]),
    ]
    return warmup, ops


# ---------------------------------------------------------------------------
# operators: trees acting on polynomials, where diff_ops and connection dominate

SYMBOLS = ("E1", "E2", "E3")
WORD_LENGTHS = (5, 4, 4, 4, 4, 4, 3, 3, 3, 3)
# The structure of the operator inputs (which monomials, words and tree shapes)
# is fixed by this seed; a run's seed draws every coefficient.  With positive
# coefficients no terms cancel, so every intermediate polynomial has the same
# size whatever the draw and the cost of the workload does not depend on the
# run's seed.  (Permuting the variables would not keep it: the index loop of
# a tree operator meets the distinct monomials in another order.)
TEMPLATE_SEED = 711
FLAT_TREES = ((4, 2), (4, 1))  # (nodes, root degree); with the template, both act nonzero
COEFFICIENTS = (Fraction(1), Fraction(2), Fraction(3))


def _poly_dict(p) -> dict:
    return dict(p.terms())


def _env_spec(env: dict, n: int) -> dict:
    spec = {"n": n}
    spec.update({s: [O.render_poly(c) for c in coeffs] for s, coeffs in env.items()})
    return spec


def _commutator(words_a, words_b):
    """[A, B] = AB - BA on formal sums of words."""
    out = [(ca * cb, wa + wb) for ca, wa in words_a for cb, wb in words_b]
    return out + [(-ca * cb, wb + wa) for ca, wa in words_a for cb, wb in words_b]


def _render_word_poly(terms) -> str:
    text = " ".join(("+ " if c > 0 else "- ") + (f"{abs(c)}*" if abs(c) != 1 else "") + ",".join(w)
                    for c, w in terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _draw(rng, exponents) -> dict:
    return {e: rng.choice(COEFFICIENTS) for e in exponents}


def _draw_env(rng, template) -> dict:
    return {s: [_draw(rng, exponents) for exponents in coeffs] for s, coeffs in template.items()}


def _monomials(rng, n, terms, max_degree):
    return list(O.random_poly(rng, n, terms, max_degree))


def operators(seed: int, ctx=None):
    shape = random.Random(TEMPLATE_SEED)
    rng = random.Random(seed)
    n = 3
    env = _draw_env(rng, {s: [_monomials(shape, n, 1, 2) for _ in range(n)] for s in SYMBOLS})
    f = _draw(rng, _monomials(shape, n, 3, 3))
    henv = H.DerivationEnv.from_dict(_env_spec(env, n))
    hf = H.parse_polynomial(O.render_poly(f), n)
    ops = []

    def composition(word, henv, hf, env, f):
        def check(result):
            return _failures(f"composition {word}", [
                (result.ok, "tree side differs from nested application"),
                (_poly_dict(result.tree_side) == O.nested_application(word, env, f),
                 "tree side differs from the benchmark's own nested application"),
            ])

        return Op(f"composition {','.join(word)}", lambda: H.verify_composition(word, henv, hf),
                  check, lambda c: c.render())

    for length in WORD_LENGTHS:
        word = tuple(shape.choice(SYMBOLS) for _ in range(length))
        ops.append(composition(word, henv, hf, env, f))

    def tree_operator(text):
        def check(p):
            oracle = O.tree_operator_oracle(text, env, f, n)
            return _failures(f"tree operator {text}", [(_poly_dict(p) == oracle, "differs from the multi-index oracle")])

        return Op(f"tree operator {text}", lambda: H.apply_tree_operator(H.parse_tree(text), henv, hf),
                  check, lambda p: p.render())

    for nodes, r in ((4, 2), (5, 2), (5, 3)):
        ops.append(tree_operator(O.random_tree_text(shape, nodes, r, labels=SYMBOLS)))

    def expansion(terms):
        text = _render_word_poly(terms)
        raw = sum(abs(c) * math.factorial(len(w)) for c, w in terms)

        def check(e):
            return _failures(f"expand {text}", [(e.raw_tree_count == raw, f"raw count {e.raw_tree_count}, expected {raw}")])

        return Op(f"expand {text}", lambda: H.expand_operator(H.parse_word_polynomial(text), SYMBOLS),
                  check, lambda e: e.report() + "\n" + e.surviving.render())

    a, b, c = shape.sample(SYMBOLS, 3)
    d = shape.choice(SYMBOLS)
    ops.append(expansion(_commutator(_commutator([(1, (a,))], [(1, (b,))]), [(1, (c,))])))
    ops.append(expansion(_commutator(_commutator([(1, (b,))], [(2, (c,))]), [(1, (a,)), (1, (d,))])))

    # the module law under a curved connection, on every ordered labeled tree of degree <= 3
    cenv = _draw_env(rng, {s: [_monomials(shape, 2, 1, 2) for _ in range(2)] for s in ("E1", "E2")})
    henv2 = H.DerivationEnv.from_dict(_env_spec(cenv, 2))
    gamma = {}
    for i, j, k in shape.sample([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)], 3):
        gamma[f"{i + 1},{j + 1},{k + 1}"] = O.render_poly(_draw(rng, _monomials(shape, 2, 1, 1)))
    conn = H.Connection.from_dict({"n": 2, "gamma": gamma})
    pa, pb = (H.parse_polynomial(O.render_poly(_draw(rng, _monomials(shape, 2, 2, 2))), 2) for _ in range(2))

    def module_law():
        return [(t.encode(), H.check_module_law(t, henv2, conn, pa, pb))
                for degree in range(4) for t in H.ordered_labeled_trees(degree, henv2.symbols)]

    ops.append(Op(f"module law {gamma}", module_law,
                  lambda rows: _failures("module law", [(len(rows) == 51, f"{len(rows)} trees, expected 51")]
                                         + [(ok, f"fails on {t}") for t, ok in rows]),
                  lambda rows: "\n".join(f"{t} {ok}" for t, ok in rows)))

    def flat(text):
        def run():
            via_connection = H.apply_connection_operator(
                H.parse_tree(text, ordered=True), henv, H.Connection.flat(n), hf)
            return via_connection, H.apply_tree_operator(H.parse_tree(text), henv, hf)

        return Op(f"flat connection {text}", run,
                  lambda pair: _failures(f"flat connection {text}", [(pair[0] == pair[1], "differs from apply_tree_operator")]),
                  lambda pair: pair[0].render())

    for nodes, r in FLAT_TREES:
        ops.append(flat(O.random_tree_text(shape, nodes, r, labels=SYMBOLS)))
    shape.shuffle(ops)

    wenv = {"E1": [{(1, 0): Fraction(1)}, {(0, 0): Fraction(1)}], "E2": [{(0, 1): Fraction(2)}, {(2, 0): Fraction(1)}]}
    wf = {(2, 1): Fraction(1), (0, 1): Fraction(-1)}
    hwenv = H.DerivationEnv.from_dict(_env_spec(wenv, 2))
    hwf = H.parse_polynomial(O.render_poly(wf), 2)
    warmup = [composition(("E1", "E2"), hwenv, hwf, wenv, wf)]
    return warmup, ops


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per invocation


@dataclass
class CliContext:
    root: str
    workdir: str
    mode: str  # "direct" runs python -m hopftrees.cli; otherwise a cli_probe mode
    probe_files: list


def _random_env(rng, n, symbols):
    return {s: [O.random_poly(rng, n, rng.randint(1, 2), 2) for _ in range(n)] for s in symbols}


def _cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _cli_op(ctx: CliContext, label: str, args: list[str], check, stdin: str | None = None):
    args = list(args) + ["--format", "json"]
    env = _cli_env(ctx.root)

    def run():
        if ctx.mode == "direct":
            cmd = [sys.executable, "-m", "hopftrees.cli", *args]
        else:
            out = os.path.join(ctx.workdir, f"probe-{len(ctx.probe_files)}.json")
            ctx.probe_files.append(out)
            cmd = [sys.executable, os.path.join(ctx.root, "bench", "cli_probe.py"), ctx.mode, out, *args]
        return subprocess.run(cmd, input=stdin, capture_output=True, text=True, cwd=ctx.root,
                              env=env, timeout=120)

    def checked(proc):
        if proc.returncode != 0:
            return [f"cli {label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        try:
            payload = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return [f"cli {label}: output is not JSON: {proc.stdout[:200]!r}"]
        return _failures(f"cli {label}", check(payload))

    return Op(f"cli {label}", run, checked, lambda proc: f"{proc.returncode}\n{proc.stdout}")


def _terms(payload):
    return [(Fraction(t["coeff"]), t["basis"]) for t in payload["terms"]]


def _sum(payload) -> Fraction:
    return sum((c for c, _ in _terms(payload)), Fraction(0))


def _aut(shape) -> int:
    """|Aut| of a nested sorted tuple: multiplicities factorial, times children's."""
    out = 1
    for kid in set(shape[1]):
        out *= math.factorial(shape[1].count(kid)) * _aut(kid) ** shape[1].count(kid)
    return out


def _forest_nodes(text: str) -> int:
    return sum(O.shape_nodes(O.parse_shape(t)) for t in text.split("*") if t != "1")


def _perm_text(rng, n: int) -> tuple[str, int]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    seen, cycles = set(), []
    for start in range(1, n + 1):
        if start not in seen:
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = images[x - 1]
            cycles.append(cycle)
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles), len(cycles)


def _sweep_counts(payload, prefix=""):
    return {a["name"][len(prefix):]: a["checked"] for a in payload["axioms"] if a["name"].startswith(prefix)}


def cli(seed: int, ctx: CliContext):
    rng = random.Random(seed)
    os.makedirs(ctx.workdir, exist_ok=True)
    env = _random_env(rng, 2, ("E1", "E2"))
    env_path = os.path.join(ctx.workdir, f"env-{seed}.json")
    conn_path = os.path.join(ctx.workdir, f"conn-{seed}.json")
    with open(env_path, "w", encoding="utf-8") as handle:
        json.dump(_env_spec(env, 2), handle)
    with open(conn_path, "w", encoding="utf-8") as handle:
        json.dump({"n": 2, "gamma": {"1,1,1": O.render_poly(O.random_poly(rng, 2, 1, 1)),
                                     "2,1,2": O.render_poly(O.random_poly(rng, 2, 1, 1))}}, handle)
    op = lambda label, args, check, stdin=None: _cli_op(ctx, label, args, check, stdin)
    ops = []

    def graded(nodes):
        return lambda p: [(all(O.shape_nodes(O.parse_shape(b)) == nodes for _, b in _terms(p)), "not graded")]

    a, b = O.random_tree_text(rng, 4, 2), O.random_tree_text(rng, 4, rng.randint(1, 3))
    ops.append(op("gl mul", ["gl", "mul", a, b], lambda p: [(_sum(p) == 4**2, "coefficient sum")]
                  + graded(7)(p)))
    ha, hb = O.random_tree_text(rng, 3, 2, heap=True), O.random_tree_text(rng, 4, 2, heap=True)
    ops.append(op("gl mul hot", ["gl", "mul", "--flavor", "hot", ha, hb],
                  lambda p: [(_sum(p) == 4**2, "coefficient sum")] + graded(6)(p)))
    c = O.random_tree_text(rng, 5, 3)
    ops.append(op("gl coprod -", ["gl", "coprod", "-"],
                  lambda p: [(_sum(p) == 2**3, "coefficient sum")], stdin=c))
    s = O.random_tree_text(rng, 5, rng.randint(1, 4))
    ops.append(op("gl antipode", ["gl", "antipode", s], graded(5)))
    forest = "*".join(O.random_tree_text(rng, k, 1) if k > 1 else "()" for k in (rng.randint(1, 3), 2))
    total = _forest_nodes(forest)
    ops.append(op("ck coprod", ["ck", "coprod", forest],
                  lambda p: [(all(_forest_nodes(l) + _forest_nodes(r) == total for _, (l, r) in _terms(p)),
                              "not graded")]))
    pt = O.random_tree_text(rng, 5, rng.randint(2, 3))
    stripped = "*".join(O.render_shape(k) for k in O.parse_shape(pt)[1])
    ops.append(op("ck pair", ["ck", "pair", pt, stripped],
                  lambda p: [(Fraction(p["value"]) == _aut(O.parse_shape(pt)) and _aut(O.parse_shape(pt)) >= 1,
                              f"pairing {p['value']}, expected {_aut(O.parse_shape(pt))}")]))
    u = ".".join(rng.choice(("x1", "x2", "x3")) for _ in range(3))
    v = ".".join(rng.choice(("x1", "x2", "x3")) for _ in range(2))
    ops.append(op("shuffle mul", ["shuffle", "mul", u, v], lambda p: [(_sum(p) == math.comb(5, 3), "coefficient sum")]))
    w = ".".join(rng.choice(("x1", "x2")) for _ in range(4))
    ops.append(op("shuffle coprod", ["shuffle", "coprod", w], lambda p: [(len(_terms(p)) == 5, "term count")]))
    p1, _ = _perm_text(rng, 2)
    p2, _ = _perm_text(rng, 3)
    cycles1 = p1.count("(")
    ops.append(op("perm mul", ["perm", "mul", p1, p2], lambda p: [(_sum(p) == 4**cycles1, "coefficient sum")]))
    p3, cycles3 = _perm_text(rng, 4)
    ops.append(op("perm coprod", ["perm", "coprod", p3], lambda p: [(_sum(p) == 2**cycles3, "coefficient sum")]))
    p4, _ = _perm_text(rng, 4)
    ops.append(op("perm to-tree", ["perm", "to-tree", p4],
                  lambda p: [(O.shape_nodes(O.parse_shape(p["tree"])) == 5, "tree size")]))
    ht = O.random_tree_text(rng, 5, rng.randint(1, 4), heap=True)
    ops.append(op("perm from-tree", ["perm", "from-tree", ht],
                  lambda p: [(sorted(int(x) for x in p["permutation"].replace("(", " ").replace(")", " ").split()) == [1, 2, 3, 4],
                              "not a permutation of 1..4")]))
    d1, d2, d3 = rng.randint(3, 6), rng.randint(3, 5), rng.randint(3, 4)
    ops.append(op("trees count rooted", ["trees", "count", "--family", "rooted", "--degree", str(d1)],
                  lambda p: [(p["count"] == O.ROOTED_COUNTS[d1], "rooted count")]))
    ops.append(op("trees count hot", ["trees", "count", "--family", "hot", "--degree", str(d2)],
                  lambda p: [(p["count"] == math.factorial(d2), "heap-ordered count")]))
    ops.append(op("trees enum ordered", ["trees", "enum", "--family", "ordered", "--degree", str(d3)],
                  lambda p: [(len(set(p["trees"])) == len(p["trees"]) == O.catalan(d3), "ordered trees")]))
    x, y = rng.sample(("E1", "E2"), 2)
    z = rng.choice(("E1", "E2"))
    word_poly = _commutator([(1, (x,))], [(1, (y,))])
    word_poly = _commutator(word_poly, [(1, (z,))])
    raw = sum(abs(c) * math.factorial(len(w)) for c, w in word_poly)
    ops.append(op("psi expand", ["psi", "expand", "--word", _render_word_poly(word_poly), "--env", env_path],
                  lambda p: [(p["raw_trees"] == raw, "raw tree count")]))
    f = O.random_poly(rng, 2, 2, 3)
    tt = O.random_tree_text(rng, 4, rng.randint(1, 3), labels=("E1", "E2"))
    ops.append(op("psi apply", ["psi", "apply", "--tree", tt, "--f", O.render_poly(f), "--env", env_path],
                  lambda p: [(_poly_dict(H.parse_polynomial(p["polynomial"], 2)) == O.tree_operator_oracle(tt, env, f, 2),
                              "differs from the multi-index oracle")]))
    word = tuple(rng.choice(("E1", "E2")) for _ in range(3))
    ops.append(op("psi check-diagram", ["psi", "check-diagram", "--word", ",".join(word), "--f", O.render_poly(f), "--env", env_path],
                  lambda p: [(p["ok"], "diagram fails"),
                             (_poly_dict(H.parse_polynomial(p["tree_side"], 2)) == O.nested_application(word, env, f),
                              "differs from the benchmark's own nested application")]))
    ops.append(op("conn apply", ["conn", "apply", "E1", "E2", "--connection", conn_path, "--env", env_path],
                  lambda p: [("derivation" in p, "no derivation")]))
    ops.append(op("conn check-module", ["conn", "check-module", "--connection", conn_path, "--env", env_path,
                                        "--max-degree", "2", "--seed", str(seed)],
                  lambda p: [(p["ok"] and p["checked"] == 1 + 2 + 8, f"module law {p}")]))
    two_colours = O.colored_forest_counts(2, 4)
    gl_expected = {
        "rooted": O.expected_sweep_checks(lambda d: O.ROOTED_COUNTS[d], 2),
        "ordered": O.expected_sweep_checks(O.catalan, 2),
        "labeled": O.expected_sweep_checks(lambda d: two_colours[d], 2),
        "hot": O.expected_sweep_checks(math.factorial, 2),
    }
    ops.append(op("verify gl", ["verify", "--algebra", "gl", "--max-degree", "2"],
                  lambda p: [(p["passed"], "sweep failed")]
                  + [(_sweep_counts(p, k + "/") == v, f"{k} counts") for k, v in gl_expected.items()]))
    ops.append(op("verify ck", ["verify", "--algebra", "ck", "--max-degree", "2"],
                  lambda p: [(p["passed"] and _sweep_counts(p) == O.expected_forest_checks(2), "forest sweep")]))
    ops.append(op("verify shuffle", ["verify", "--algebra", "shuffle", "--max-degree", "2"],
                  lambda p: [(p["passed"] and _sweep_counts(p) == O.expected_sweep_checks(lambda d: 2**d, 2), "shuffle sweep")]))
    ops.append(op("verify perm", ["verify", "--algebra", "perm", "--max-degree", "2"],
                  lambda p: [(p["passed"] and _sweep_counts(p) == O.expected_sweep_checks(math.factorial, 2), "perm sweep")]))
    rng.shuffle(ops)
    warmup = [op("trees count warm-up", ["trees", "count", "--family", "rooted", "--degree", "2"],
                 lambda p: [(p["count"] == 2, "rooted count")])]
    return warmup, ops


WORKLOADS = {"graft": graft, "sweep": sweep, "operators": operators, "cli": cli}
