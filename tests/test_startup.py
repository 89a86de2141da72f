"""Package start-up: the public names, and which modules each subcommand runs.

``import hopftrees`` registers its ten modules in ``sys.modules`` without
running them; a module runs on the first read of one of its attributes.  The
loading checks run in fresh interpreters, because this test process has
already run every module.  A module that has not run is still a
``LazyLoader`` module, so its type is read rather than an attribute, which
would run it.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
import tokenize
import types
from pathlib import Path

import pytest

import hopftrees

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = (
    "algebra", "axioms", "connection", "connes_kreimer", "diff_ops",
    "grossman_larson", "permutations", "polynomials", "shuffle", "trees",
)

PUBLIC_NAMES = [
    "CompositionCheck", "Connection", "CyclePermutation", "Derivation", "DerivationEnv",
    "EMPTY_WORD", "Forest", "HEAP_ORDERED", "HEAP_PRODUCT_ALGEBRA", "LinearCombination",
    "ORDERED", "OperatorExpansion", "ParseError", "Polynomial", "ROOTED",
    "ShuffleHopfAlgebra", "TensorPair", "Tree", "TreeHopfAlgebra", "VerificationReport",
    "Word", "add_root", "admissible_cuts", "apply_connection_operator",
    "apply_tree_operator", "attach_all", "canonicalize", "check_module_law",
    "covariant_derivative", "covariant_differential", "cycle_coproduct",
    "deconcatenation", "dual_pairing", "expand_operator", "extend_bilinear",
    "extend_linear", "forest_coproduct", "forest_monomials", "forest_symmetry_factor",
    "format_fraction", "graded_antipode", "heap_ordered_trees", "heap_product",
    "is_standard_heap_tree", "labeled_algebra", "labeled_trees", "monomial_product",
    "ordered_labeled_trees", "ordered_trees", "parse_forest", "parse_permutation",
    "parse_polynomial", "parse_tree", "parse_word", "parse_word_polynomial",
    "permutation_to_tree", "relabel", "rooted_trees", "shift", "shift_labels",
    "shuffle_antipode", "shuffle_product", "strip_root", "subtree_derivation",
    "symmetric_group", "symmetry_factor", "tensor", "tree_to_permutation",
    "vector_covariant_differential", "verify_composition", "verify_forest_algebra",
    "verify_hopf_axioms", "word_count", "word_to_trees",
]


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


# -- the public names ------------------------------------------------------


def test_the_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 74
    assert sorted(hopftrees.__all__) == PUBLIC_NAMES
    # submodules become package attributes once imported (``cli`` only then)
    public = {n for n in dir(hopftrees) if not n.startswith("_")} - set(MODULES) - {"cli"}
    assert public == set(PUBLIC_NAMES)
    namespace: dict = {}
    exec("from hopftrees import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC_NAMES


def test_each_public_name_is_its_modules_object():
    homes = {}
    for module in MODULES:
        submodule = getattr(hopftrees, module)
        assert submodule is sys.modules[f"hopftrees.{module}"]
        homes.update(dict.fromkeys(hopftrees._EXPORTS[module], submodule))
    assert sorted(homes) == PUBLIC_NAMES
    for name, submodule in homes.items():
        value = getattr(hopftrees, name)
        assert value is getattr(submodule, name), name
        if isinstance(value, (type, types.FunctionType)) and name != "graded_antipode":
            assert value.__module__ == submodule.__name__, name


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hopftrees.no_such_name  # noqa: B018
    assert not hasattr(hopftrees, "Trees")


RAN_AFTER = """
import json, sys, types
{statement}
print(json.dumps(sorted(n[10:] for n, m in sys.modules.items()
                        if n.startswith("hopftrees.") and type(m) is types.ModuleType)))
"""


@pytest.mark.parametrize(
    "statement, ran",
    [
        ("import hopftrees", []),
        ("from hopftrees.trees import Tree", ["algebra", "trees"]),
        ("import hopftrees.diff_ops as d; d.Polynomial", ["algebra", "diff_ops", "polynomials", "trees"]),
        ("import hopftrees; hopftrees.Tree", sorted(MODULES)),
        ("from hopftrees import ROOTED", sorted(MODULES)),
        ("import hopftrees.polynomials as p; p.Polynomial", ["algebra", "polynomials"]),
    ],
)
def test_a_submodule_runs_alone_and_a_package_name_runs_the_library(statement, ran):
    assert run_python(RAN_AFTER.format(statement=statement)) == ran


def test_from_the_package_import_cli_imports_the_submodule():
    found = run_python(
        """
        import json, sys
        from hopftrees import cli
        print(json.dumps([cli.__name__, sys.modules["hopftrees.cli"] is cli, callable(cli.main)]))
        """
    )
    assert found == ["hopftrees.cli", True, True]


# -- what each subcommand runs ---------------------------------------------

LOADED = """
import contextlib, io, json, sys, types
from hopftrees.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main({argv!r})
print(json.dumps({{
    "code": code,
    "out": out.getvalue(),
    "ran": sorted(n for n, m in sys.modules.items()
                  if n.startswith("hopftrees.") and type(m) is types.ModuleType),
    "registered": sorted(n for n in sys.modules if n.startswith("hopftrees.")),
    "dataclasses": "dataclasses" in sys.modules,
}}))
"""


@pytest.mark.parametrize(
    "argv, out, ran",
    [
        (["gl", "mul", "(;())", "(;())"], "(;()()) + (;(;()))\n",
         ["algebra", "cli", "grossman_larson", "trees"]),
        (["trees", "count", "--family", "hot", "--degree", "4"], "24\n",
         ["algebra", "cli", "grossman_larson", "trees"]),
        (["shuffle", "mul", "x1", "x2"], "x1.x2 + x2.x1\n",
         ["algebra", "cli", "shuffle", "trees"]),
        (["perm", "mul", "(1)", "(1)"], "(1 2) + (2)(1)\n",
         ["algebra", "cli", "permutations", "trees"]),
        # the forest sweep grafts with trees.attach_all and needs no tree algebra
        (["verify", "--algebra", "ck", "--max-degree", "2"],
         "verification of forest algebra with cut coproduct:\n  commutativity: ok (8 checks)\n"
         "  associativity: ok (13 checks)\n  unit: ok (4 checks)\n  coassociativity: ok (4 checks)\n"
         "  counit: ok (4 checks)\n  grafting-duality: ok (5 checks)\nresult: PASS\n",
         ["algebra", "axioms", "cli", "connes_kreimer", "trees"]),
    ],
)
def test_a_subcommand_runs_only_the_modules_it_uses(argv, out, ran):
    found = run_python(LOADED.format(argv=argv))
    assert (found["code"], found["out"]) == (0, out)
    assert found["ran"] == [f"hopftrees.{m}" for m in ran]
    assert "hopftrees.diff_ops" not in found["ran"]
    assert "hopftrees.polynomials" not in found["ran"]
    assert "hopftrees.connection" not in found["ran"]
    assert found["registered"] == sorted(f"hopftrees.{m}" for m in MODULES + ("cli",))
    assert not found["dataclasses"]


def test_psi_apply_runs_diff_ops(tmp_path):
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"n": 1, "E1": ["x1"]}))
    argv = ["psi", "apply", "--env", str(env), "--tree", "(;(E1))", "--f", "x1^2"]
    found = run_python(LOADED.format(argv=argv))
    assert (found["code"], found["out"]) == (0, "2*x1^2\n")
    assert "hopftrees.diff_ops" in found["ran"]
    assert "hopftrees.polynomials" in found["ran"]
    assert "hopftrees.connection" not in found["ran"]
    assert "hopftrees.grossman_larson" not in found["ran"]
    assert not found["dataclasses"]


@pytest.mark.parametrize(
    "operation, out",
    [
        (["apply", "E1", "E2"], "(2*x1^2 + x1^3)*D1\n"),
        (["check-module", "--max-degree", "2"], "module law: ok (11 trees)\n"),
    ],
    ids=["apply", "check-module"],
)
def test_conn_runs_no_grossman_larson(tmp_path, operation, out):
    # the module law splits the root's children itself, so no tree algebra is needed
    env, conn = tmp_path / "env.json", tmp_path / "conn.json"
    env.write_text(json.dumps({"n": 1, "E1": ["x1"], "E2": ["x1^2"]}))
    conn.write_text(json.dumps({"n": 1, "gamma": {"1,1,1": "1"}}))
    argv = ["conn", *operation, "--connection", str(conn), "--env", str(env)]
    found = run_python(LOADED.format(argv=argv))
    assert (found["code"], found["out"]) == (0, out)
    assert found["ran"] == [f"hopftrees.{m}" for m in ("algebra", "cli", "connection", "diff_ops", "polynomials", "trees")]
    assert not found["dataclasses"]


def test_no_library_module_imports_dataclasses():
    found = run_python(
        """
        import json, sys
        import hopftrees
        for name in hopftrees.__all__:
            getattr(hopftrees, name)
        import hopftrees.cli
        print(json.dumps("dataclasses" in sys.modules))
        """
    )
    assert found is False


# CPython 3.11's parser doubles its token array each time it fills, and with no
# bytecode cache every run compiles each module it loads: one token past 4,096
# costs about 230 KB of peak memory at import.
PARSER_TOKEN_LIMIT = 4096


@pytest.mark.parametrize("path", sorted((SRC / "hopftrees").glob("*.py")), ids=lambda p: p.name)
def test_each_module_stays_under_the_parser_token_limit(path):
    with path.open(encoding="utf-8") as source:
        tokens = [tok for tok in tokenize.generate_tokens(source.readline)
                  if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    assert len(tokens) < PARSER_TOKEN_LIMIT, f"{path.name} has {len(tokens)} parser tokens"


# -- the contract of the benchmark's tracer --------------------------------


def test_import_registers_every_module_without_running_it():
    found = run_python(
        """
        import json, sys, types
        import hopftrees
        print(json.dumps({n: [isinstance(m, types.ModuleType), type(m) is types.ModuleType]
                          for n, m in sys.modules.items() if n.startswith("hopftrees.")}))
        """
    )
    assert found == {f"hopftrees.{m}": [True, False] for m in MODULES}


def test_every_entry_point_the_tracer_wraps_exists():
    # the tracer patches a method through its class's own dict and a function by
    # name; a missing entry is named here, not in a traced subprocess's traceback
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    entries = [entry for group in tracer.SPANS.values() for entry in group] + list(tracer.COUNTERS.values())
    missing = []
    for module, *path in entries:
        found = importlib.import_module("hopftrees." + module)
        for name in path:  # a module's attribute, or a class's and then its own method
            found = vars(found).get(name) if found is not None else None
        if found is None:
            missing.append((module, *path))
    assert entries and not missing, missing


def run_traced(body: str):
    """``body`` run in a fresh interpreter after the benchmark's tracer, loaded
    unedited, is installed and reset as ``probe``; the JSON it prints last."""
    tracer = ROOT / "bench" / "tracer.py"
    prelude = f"""
        import contextlib, importlib.util, io, json
        import hopftrees.cli
        spec = importlib.util.spec_from_file_location("tracer", {str(tracer)!r})
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        probe = tracer.Tracer()
        probe.install()
        probe.reset()
        """
    return run_python(textwrap.dedent(prelude) + textwrap.dedent(body))


def run_traced_cli(argv: list[str]) -> list:
    """``hopftrees.cli.main(argv)`` run in a fresh interpreter under the benchmark's
    tracer: [exit code, standard output, the tracer's counts]."""
    return run_traced(
        f"""
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = hopftrees.cli.main({argv!r})
        print(json.dumps([code, out.getvalue(), probe.snapshot()["counts"]]))
        """
    )


def test_the_tracer_installs_and_counts_a_product_and_a_sweep():
    # the tracer wraps library entry points by name: a renamed one fails here
    # rather than in a traced benchmark round
    counts = run_traced(
        """
        from hopftrees import ROOTED, parse_tree
        ROOTED.product(parse_tree("(;())"), parse_tree("(;()())"))
        ROOTED.verify(2)
        print(json.dumps(probe.snapshot()["counts"]))
        """
    )
    assert counts["trees.attach_all.calls"] > 0
    assert counts["axioms.verify.checks"] > 0


def test_the_tracer_sees_a_traced_cli_call():
    code, out, counts = run_traced_cli(["gl", "mul", "(;())", "(;())"])
    assert (code, out) == (0, "(;()()) + (;(;()))\n")
    assert counts["gl.product.calls"] == 1
    assert counts["trees.attach_all.calls"] == 1
    assert counts["trees.parse.calls"] == 2


def test_the_tracer_counts_the_polynomial_layer_of_a_traced_psi_apply(tmp_path):
    # the tracer counts the public polynomial operators; a tree action works on
    # the raw stores behind them and calls none of the three, so the traced body
    # applies them itself after the psi apply
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"n": 2, "E1": ["x2", "x1"], "E2": ["x1*x2", "1"]}))
    argv = ["psi", "apply", "--env", str(env), "--tree", "(;(E1)(E2))", "--f", "x1^2*x2"]
    code, out, counts = run_traced(
        f"""
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = hopftrees.cli.main({argv!r})
        f = hopftrees.parse_polynomial("x1^2*x2", 2)
        f * f + f.derivative(1)
        print(json.dumps([code, out.getvalue(), probe.snapshot()["counts"]]))
        """
    )
    assert (code, out) == (0, "2*x1*x2 + 2*x1*x2^3 + 2*x1^3*x2\n")  # sum E1^a E2^b d_a d_b f
    assert counts["diff_ops.poly_mul.calls"] > 0
    assert counts["diff_ops.derivative.calls"] > 0
    assert counts["algebra.lc_add.calls"] > 0


def test_the_tracer_counts_a_traced_cut_coproduct():
    # the forest coproduct takes each tree's cuts once: 4 for (;()()) and 1 for ()
    code, out, counts = run_traced_cli(["ck", "coprod", "(;()())*()"])
    assert (code, out) == (0, "2*() (x) ()*(;()) + () (x) (;()()) + ()*() (x) ()*() + 2*()*() (x) (;()) "
                              "+ ()*()*() (x) () + ()*(;()()) (x) 1 + (;()()) (x) () + 1 (x) ()*(;()())\n")
    assert counts["ck.coproduct.calls"] == 1
    assert counts["ck.cuts"] == 5


def test_the_tracer_counts_a_traced_word_expansion(tmp_path):
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"n": 1, "E1": ["x1"], "E2": ["x1^2"]}))
    code, out, counts = run_traced_cli(["psi", "expand", "--env", str(env), "--report", "--word", "E1,E2 - E2,E1"])
    assert (code, out) == (0, "raw_trees: 4, cancelled: 2, surviving: 2\n")
    assert counts["diff_ops.word_to_trees.calls"] == 2
    assert counts["trees.attach_all.calls"] == 4  # one per tree so far and letter: 1 + 1 for each word
