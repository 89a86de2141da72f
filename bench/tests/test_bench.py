"""The benchmark's own tests: its checks reject corrupted results, the
reference loop stays independent of the library, and seeds change inputs but
not the shape of a workload.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hopftrees as H  # noqa: E402
import oracles as O  # noqa: E402
import run as bench_run  # noqa: E402
import workloads as W  # noqa: E402


def changed_coefficient(combo):
    terms = combo.terms()
    basis, coeff = terms[0]
    return H.LinearCombination(terms[1:] + [(basis, coeff + 1)])


def dropped_term(combo):
    return H.LinearCombination(combo.terms()[1:])


def corrupt_poly(p, how):
    terms = dict(p.terms())
    assert terms, "corrupting a zero polynomial shows nothing"
    if how == "dropped":
        terms.pop(next(iter(terms)))
    else:
        key = next(iter(terms))
        terms[key] += 1
    return H.Polynomial(p.num_vars, terms)


# ---------------------------------------------------------------------------
# graft


@pytest.mark.parametrize("op", [
    W._product_op("rooted", H.ROOTED, "(;()())", "(;(;()))"),
    W._product_op("rooted", H.ROOTED, "(;()()()()())", "(;()(;()()(;())))"),  # beyond the oracle
    W._product_op("labeled", H.labeled_algebra(("E1", "E2")), "(;(E2)(E1))", "(;(E1;(E2)))"),
    W._product_op("heap", H.HEAP_ORDERED, "(;(1)(2;(3)))", "(;(1)(2))", heap=True),
    W._antipode_op(H.ROOTED, "(;(;())()())"),
], ids=lambda op: op.label)
def test_graft_checks_reject_corruption(op):
    result = op.run()
    assert op.check(result) == []
    assert op.check(changed_coefficient(result))
    assert op.check(dropped_term(result))


def test_graft_oracle_matches_a_worked_product():
    oracle = W.O.graft_oracle("(;())", "(;(;()))")
    assert {O.render_shape(s): c for s, c in oracle.items()} == {
        "(;()(;()))": 1, "(;(;()()))": 1, "(;(;(;())))": 1}


# ---------------------------------------------------------------------------
# sweep


def test_sweep_checks_reject_corruption():
    op = W._tree_sweep("rooted", H.ROOTED, 2, lambda d: O.ROOTED_COUNTS[d])
    report = op.run()
    assert op.check(report) == []
    report.checks[0].checked += 1
    assert op.check(report)
    report = op.run()
    report.checks.pop()
    assert op.check(report)
    report = op.run()
    report.checks[-1].passed = False
    assert op.check(report)


def test_expected_counts_match_known_sequences():
    assert O.colored_forest_counts(1, 6) == list(O.ROOTED_COUNTS)
    assert O.colored_forest_counts(2, 5) == [1, 2, 7, 26, 107, 458]
    assert [O.catalan(d) for d in range(6)] == [1, 1, 2, 5, 14, 42]


# ---------------------------------------------------------------------------
# operators


def _operator_ops(prefix):
    _, ops = W.operators(3)
    return [op for op in ops if op.label.startswith(prefix)]


@pytest.mark.parametrize("how", ["changed", "dropped"])
def test_composition_check_rejects_corruption(how):
    op = min(_operator_ops("composition"), key=lambda op: len(op.label))
    result = op.run()
    assert op.check(result) == []
    result.tree_side = corrupt_poly(result.tree_side, how)
    assert op.check(result)


@pytest.mark.parametrize("how", ["changed", "dropped"])
def test_tree_operator_check_rejects_corruption(how):
    op = _operator_ops("tree operator")[0]
    result = op.run()
    assert op.check(result) == []
    assert op.check(corrupt_poly(result, how))


def test_expansion_module_law_and_flat_checks_reject_corruption():
    expand = _operator_ops("expand")[0]
    result = expand.run()
    assert expand.check(result) == []
    result.raw_tree_count += 1
    assert expand.check(result)

    law = _operator_ops("module law")[0]
    rows = law.run()
    assert law.check(rows) == []
    assert law.check(rows[1:])
    assert law.check([(t, False) for t, _ in rows])

    flat = _operator_ops("flat connection")[0]
    pair = flat.run()
    assert flat.check(pair) == []
    assert flat.check((corrupt_poly(pair[0], "changed"), pair[1]))


# ---------------------------------------------------------------------------
# cli


def test_cli_checks_reject_corruption(tmp_path):
    ctx = W.CliContext(ROOT, str(tmp_path), "direct", [])
    _, ops = W.cli(5, ctx)
    op = next(op for op in ops if op.label == "cli gl mul")
    proc = op.run()
    assert op.check(proc) == []
    payload = json.loads(proc.stdout)

    def with_terms(terms):
        return subprocess.CompletedProcess(proc.args, 0, json.dumps({"terms": terms}), "")

    changed = [dict(payload["terms"][0], coeff=str(Fraction(payload["terms"][0]["coeff"]) + 1))]
    assert op.check(with_terms(changed + payload["terms"][1:]))
    assert op.check(with_terms(payload["terms"][1:]))
    assert op.check(subprocess.CompletedProcess(proc.args, 0, "not json", ""))
    assert op.check(subprocess.CompletedProcess(proc.args, 1, proc.stdout, "error"))


# ---------------------------------------------------------------------------
# the reference loop and the shape of the workloads


def test_reference_loop_imports_nothing_from_the_library():
    with open(os.path.join(BENCH, "reference.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name and name.split(".")[0] in ("hopftrees", "workloads")]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, reference; reference.timed_reference(); "
         "print([m for m in sys.modules if m.startswith('hopftrees')])"],
        cwd=BENCH, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def _shape(op):
    """What a seed must not change: the kind of operation and its input sizes."""
    words = op.label.split()
    if " x " in op.label:
        a, b = words[1], words[3]
        return (words[0], O.shape_nodes(O.parse_shape(a)), len(O.parse_shape(a)[1]),
                O.shape_nodes(O.parse_shape(b)))
    if op.label.startswith("antipode "):
        return ("antipode", O.shape_nodes(O.parse_shape(words[1])), len(O.parse_shape(words[1])[1]))
    if op.label.startswith("composition "):
        return ("composition", len(words[1].split(",")))
    if op.label.startswith(("tree operator ", "flat connection ")):
        return (" ".join(words[:2]), O.shape_nodes(O.parse_shape(words[2])))
    if op.label.startswith("expand "):
        return ("expand", op.label.count(","), op.label.count("*"))
    return " ".join(words[:2]) if op.label.startswith("cli") else words[0].split("(")[0]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_new_seed_changes_inputs_not_shape(name, tmp_path):
    def build(seed):
        ctx = W.CliContext(ROOT, str(tmp_path), "direct", [])
        return W.WORKLOADS[name](seed, ctx)

    (warm1, ops1), (warm2, ops2) = build(1), build(2)
    assert [op.label for op in warm1] == [op.label for op in warm2]
    assert [op.label for op in ops1] != [op.label for op in ops2] or name == "sweep"
    assert Counter(map(_shape, ops1)) == Counter(map(_shape, ops2))
    assert [op.label for op in build(1)[1]] == [op.label for op in ops1]


def test_sweep_seed_changes_symbols():
    labels = {tuple(sorted(op.label for op in W.sweep(seed)[1])) for seed in range(8)}
    assert len(labels) > 1


# ---------------------------------------------------------------------------
# the entry point


def test_recorded_digest_mismatch_is_an_error():
    rnd = {"errors": [], "digest": "x", "warm_digest": "y"}
    errors = bench_run.check_rounds("graft", 1, [rnd, dict(rnd, digest="z")])
    assert any("different results" in e for e in errors)
    assert any("warm-up" in e for e in errors)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "graft", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
