"""Package start-up: the public names, and which modules each subcommand runs.

``import hopftrees`` registers its nine modules in ``sys.modules`` without
running them; a module runs on the first read of one of its attributes.  The
loading checks run in fresh interpreters, because this test process has
already run every module.  A module that has not run is still a
``LazyLoader`` module, so its type is read rather than an attribute, which
would run it.
"""

import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import hopftrees

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = (
    "algebra", "axioms", "connection", "connes_kreimer", "diff_ops",
    "grossman_larson", "permutations", "shuffle", "trees",
)

PUBLIC_NAMES = [
    "CompositionCheck", "Connection", "Cut", "CyclePermutation", "Derivation",
    "DerivationEnv", "EMPTY_WORD", "Forest", "HEAP_ORDERED", "HEAP_PRODUCT_ALGEBRA",
    "LinearCombination", "ORDERED", "OperatorExpansion", "ParseError", "Polynomial",
    "ROOTED", "ShuffleHopfAlgebra", "TensorPair", "Tree", "TreeHopfAlgebra",
    "VerificationReport", "Word", "add_root", "admissible_cuts",
    "apply_connection_operator", "apply_cut", "apply_tree_operator", "attach_all",
    "canonicalize", "check_module_law", "covariant_derivative", "covariant_differential",
    "cycle_coproduct", "deconcatenation", "dual_pairing", "expand_operator",
    "extend_bilinear", "extend_linear", "forest_coproduct", "forest_counit",
    "forest_monomials", "forest_symmetry_factor", "format_fraction", "graded_antipode",
    "heap_ordered_trees", "heap_product", "is_standard_heap_tree", "labeled_algebra",
    "labeled_trees", "monomial_product", "ordered_labeled_trees", "ordered_trees",
    "parse_forest", "parse_permutation", "parse_polynomial", "parse_tree", "parse_word",
    "parse_word_polynomial", "perm_counit", "permutation_to_tree", "relabel",
    "relabel_standard", "rooted_trees", "shift", "shift_labels", "shuffle_antipode",
    "shuffle_product", "standard_order", "strip_root", "subtree_derivation",
    "symmetric_group", "symmetry_factor", "tensor", "tree_edges", "tree_to_permutation",
    "vector_covariant_differential", "verify_composition", "verify_forest_algebra",
    "verify_hopf_axioms", "word_counit", "word_count", "word_to_trees",
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
    assert len(PUBLIC_NAMES) == 82
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
        ("import hopftrees.diff_ops as d; d.Polynomial", ["algebra", "diff_ops", "grossman_larson", "trees"]),
        ("import hopftrees; hopftrees.Tree", sorted(MODULES)),
        ("from hopftrees import ROOTED", sorted(MODULES)),
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
         ["algebra", "cli", "trees"]),
        (["shuffle", "mul", "x1", "x2"], "x1.x2 + x2.x1\n",
         ["algebra", "cli", "shuffle", "trees"]),
        (["perm", "mul", "(1)", "(1)"], "(1 2) + (2)(1)\n",
         ["algebra", "cli", "permutations", "trees"]),
    ],
)
def test_a_subcommand_runs_only_the_modules_it_uses(argv, out, ran):
    found = run_python(LOADED.format(argv=argv))
    assert (found["code"], found["out"]) == (0, out)
    assert found["ran"] == [f"hopftrees.{m}" for m in ran]
    assert "hopftrees.diff_ops" not in found["ran"]
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
    assert "hopftrees.connection" not in found["ran"]
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


def test_the_tracer_sees_a_traced_cli_call():
    tracer = ROOT / "bench" / "tracer.py"
    found = run_python(
        f"""
        import contextlib, importlib.util, io, json
        import hopftrees.cli
        spec = importlib.util.spec_from_file_location("tracer", {str(tracer)!r})
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        probe = tracer.Tracer()
        probe.install()
        probe.reset()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = hopftrees.cli.main(["gl", "mul", "(;())", "(;())"])
        print(json.dumps([code, out.getvalue(), probe.snapshot()["counts"]]))
        """
    )
    code, out, counts = found
    assert (code, out) == (0, "(;()()) + (;(;()))\n")
    assert counts["gl.product.calls"] == 1
    assert counts["trees.attach_all.calls"] == 1
    assert counts["trees.parse.calls"] == 2
