"""Command-line surface: example invocations, JSON round trips, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopftrees.algebra import MAX_TERMS
from hopftrees.cli import main
from hopftrees.trees import MAX_TREE_DEPTH

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def env_file(tmp_path):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"n": 1, "E1": ["x1"], "E2": ["x1^2"], "E3": ["x1^3"]}))
    return str(path)


@pytest.fixture()
def conn_file(tmp_path):
    path = tmp_path / "conn.json"
    path.write_text(json.dumps({"n": 1, "gamma": {"1,1,1": "1"}}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def run_module(*argv, stdin=""):
    """Run ``python -m hopftrees.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "hopftrees.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=120,
    )


def assert_clean_error(result):
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def chain(depth: int) -> str:
    return "(;" * depth + "()" + ")" * depth


def test_gl_mul_worked_example(capsys):
    code, out, _ = run(capsys, "gl", "mul", "(;())", "(;())")
    assert code == 0
    assert out == "(;()()) + (;(;()))"


def test_gl_second_worked_example(capsys):
    code, out, _ = run(capsys, "gl", "mul", "(;())", "(;(;()))")
    assert code == 0
    assert out == "(;()(;())) + (;(;()())) + (;(;(;())))"


def test_gl_antipode(capsys):
    code, out, _ = run(capsys, "gl", "antipode", "(;()())")
    assert code == 0
    assert out == "(;()()) + 2*(;(;()))"


def test_trees_count_hot(capsys):
    code, out, _ = run(capsys, "trees", "count", "--family", "hot", "--degree", "4")
    assert (code, out) == (0, "24")


def test_trees_enum_respects_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("HOPF_MAX_DEGREE", "2")
    code, _, err = run(capsys, "trees", "enum", "--family", "rooted", "--degree", "3")
    assert code == 1
    assert "cap" in err


def test_psi_expand_report(capsys, env_file):
    code, out, _ = run(
        capsys,
        "psi",
        "expand",
        "--word",
        "E3,E2,E1 - E3,E1,E2 - E2,E1,E3 + E1,E2,E3",
        "--env",
        env_file,
        "--report",
    )
    assert code == 0
    assert out == "raw_trees: 24, cancelled: 18, surviving: 6"


def test_psi_apply(capsys, env_file):
    code, out, _ = run(
        capsys, "psi", "apply", "--tree", "(;(E1))", "--env", env_file, "--f", "x1^3"
    )
    assert (code, out) == (0, "3*x1^3")


def test_psi_check_diagram(capsys, env_file):
    code, out, _ = run(
        capsys, "psi", "check-diagram", "--word", "E1,E2", "--env", env_file, "--f", "x1^3"
    )
    assert code == 0
    assert out.startswith("ok")


def test_conn_apply(capsys, env_file, conn_file):
    code, out, _ = run(
        capsys, "conn", "apply", "E1", "E2", "--connection", conn_file, "--env", env_file
    )
    assert (code, out) == (0, "(2*x1^2 + x1^3)*D1")


def test_conn_check_module(capsys, env_file, conn_file):
    code, out, _ = run(
        capsys, "conn", "check-module", "--connection", conn_file, "--env", env_file,
        "--max-degree", "2",
    )
    assert code == 0
    assert out.startswith("module law: ok")


def test_perm_round_trip_commands(capsys):
    code, out, _ = run(capsys, "perm", "to-tree", "(1 3 2)")
    assert (code, out) == (0, "(;(1;(2)(3)))")
    code, out, _ = run(capsys, "perm", "from-tree", "(;(1;(2)(3)))")
    assert (code, out) == (0, "(1 3 2)")


def test_shuffle_mul(capsys):
    code, out, _ = run(capsys, "shuffle", "mul", "x1.x2", "x3")
    assert code == 0
    assert out == "x1.x2.x3 + x1.x3.x2 + x3.x1.x2"


def test_ck_pair(capsys):
    code, out, _ = run(capsys, "ck", "pair", "(;()())", "()*()")
    assert (code, out) == (0, "2")


def test_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "shuffle", "--max-degree", "2")
    assert code == 0
    assert "result: PASS" in out


def test_verify_failure_maps_to_exit_two(capsys):
    from hopftrees.axioms import AxiomCheck, VerificationReport
    from hopftrees.cli import _report_exit

    class Args:
        format = "text"

    failing = VerificationReport("stub", [AxiomCheck("unit", 1, False, "x")])
    assert _report_exit(Args, failing) == 2
    capsys.readouterr()


def test_parse_error_exit_one(capsys):
    code, _, err = run(capsys, "gl", "mul", "(;(", "(;())")
    assert code == 1
    assert "position" in err


def test_stdin_element(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("(;())"))
    code, out, _ = run(capsys, "gl", "coprod", "-")
    assert code == 0
    assert out == "() (x) (;()) + (;()) (x) ()"


def test_json_output_round_trips(capsys, env_file):
    cases = [
        ("gl", "mul", "(;())", "(;())"),
        ("gl", "coprod", "(;()())"),
        ("ck", "coprod", "(;())"),
        ("ck", "pair", "(;()())", "()*()"),
        ("shuffle", "mul", "x1", "x2"),
        ("perm", "mul", "(1)", "(1)"),
        ("perm", "coprod", "(2)(1)"),
        ("trees", "enum", "--family", "rooted", "--degree", "3"),
        ("trees", "count", "--family", "hot", "--degree", "3"),
        ("psi", "apply", "--tree", "(;(E1))", "--env", env_file, "--f", "x1^2"),
        ("verify", "--algebra", "shuffle", "--max-degree", "1"),
    ]
    for argv in cases:
        code = main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0, argv
        payload = json.loads(out)
        assert json.dumps(payload) == out.strip(), argv


def test_json_combination_schema(capsys):
    code = main(["gl", "coprod", "(;()())", "--format", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert set(payload) == {"terms"}
    for term in payload["terms"]:
        assert set(term) == {"coeff", "basis"}
        assert isinstance(term["basis"], list) and len(term["basis"]) == 2


def test_tree_flavors_reject_foreign_labels():
    assert_clean_error(run_module("gl", "mul", "(;(7))", "(;(1))"))
    assert_clean_error(run_module("gl", "--flavor", "ordered", "coprod", "(;(E1))"))
    assert_clean_error(run_module("gl", "--flavor", "labeled", "coprod", "(E1;(E2))"))


def test_forest_algebra_rejects_labeled_trees():
    assert_clean_error(run_module("ck", "pair", "(;(E1))", "(E1)"))
    assert_clean_error(run_module("ck", "coprod", "(E1)*()"))


@pytest.mark.parametrize("operation", ["coprod", "antipode"])
def test_deepest_accepted_chain_runs(operation):
    result = run_module("gl", operation, "-", stdin=chain(MAX_TREE_DEPTH))
    assert result.returncode == 0, result.stderr
    assert chain(MAX_TREE_DEPTH) in result.stdout


@pytest.mark.parametrize("depth", [MAX_TREE_DEPTH + 1, 1200])
def test_too_deep_chain_is_a_parse_error(depth):
    result = run_module("gl", "coprod", "-", stdin=chain(depth))
    assert_clean_error(result)
    position = 2 * (MAX_TREE_DEPTH + 1)
    assert f"nested deeper than {MAX_TREE_DEPTH} levels at position {position}" in result.stderr


def test_cut_coproduct_of_the_deepest_accepted_chain():
    # 301 admissible cuts (the empty cut and one per edge) plus t (x) 1
    result = run_module("ck", "coprod", "--format", "json", "-", stdin=chain(MAX_TREE_DEPTH))
    assert result.returncode == 0, result.stderr
    assert len(json.loads(result.stdout)["terms"]) == MAX_TREE_DEPTH + 2


COROLLA_12 = "(;" + "()" * 12 + ")"


@pytest.mark.parametrize(
    "argv",
    [
        ["gl", "mul", COROLLA_12, COROLLA_12],  # C(24, 12) multiset placements
        ["shuffle", "mul", ".".join("abcdefghijkl"), ".".join("mnopqrstuvwx")],  # C(24, 12)
    ],
)
def test_over_budget_enumeration_is_refused(argv):
    result = run_module(*argv)
    assert_clean_error(result)
    assert f"more than the limit of {MAX_TERMS}" in result.stderr


GOOD_ENV = {"n": 2, "E1": ["x2", "x1"], "E2": ["1", "x1*x2"]}


@pytest.mark.parametrize(
    "command, spec, message",
    [
        ("psi", {"n": 2, "E1": 5}, "derivation E1 needs a list of 2 coefficient polynomials"),
        ("psi", {"n": 2, "E1": "x1"}, "derivation E1 needs a list of 2 coefficient polynomials"),
        ("psi", {"n": None}, "derivation spec: 'n' must be a positive integer, not None"),
        ("conn", {"n": 2, "gamma": 3}, "connection spec: 'gamma' must map 'i,j,k' keys to polynomials"),
        ("conn", {"n": 2, "gamma": ["x"]}, "connection spec: 'gamma' must map 'i,j,k' keys to polynomials"),
    ],
)
def test_malformed_spec_files_are_clean_errors(tmp_path, command, spec, message):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(spec))
    good.write_text(json.dumps(GOOD_ENV))
    if command == "psi":
        result = run_module("psi", "apply", "--env", str(bad), "--tree", "(;(E1))", "--f", "x1")
    else:
        result = run_module("conn", "apply", "E1", "E2", "--connection", str(bad), "--env", str(good))
    assert_clean_error(result)
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("option", ["--env", "--connection"])
def test_a_missing_spec_file_names_the_file(tmp_path, option):
    good, missing = tmp_path / "good.json", tmp_path / "missing.json"
    good.write_text(json.dumps({"n": 2}))
    paths = {"--env": str(good), "--connection": str(good), option: str(missing)}
    result = run_module("conn", "apply", "E1", "E2", *[x for pair in paths.items() for x in pair])
    assert_clean_error(result)
    assert result.stderr == f"error: No such file or directory: {missing}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gl", "mul", "(;())"], "gl mul expects 2 element(s)"),
        (["gl", "coprod", "(;())", "(;())"], "gl coprod expects 1 element(s)"),
        (["ck", "pair", "(;())"], "ck pair expects 2 element(s)"),
        (["shuffle", "coprod", "a", "b"], "shuffle coprod expects 1 element(s)"),
        (["perm", "mul", "(1)"], "perm mul expects 2 element(s)"),
        (["perm", "to-tree", "(1)", "(1)"], "perm to-tree expects 1 element(s)"),
        (["psi", "apply", "--env", "env.json", "--tree", "(;(E1))"], "psi apply needs --tree and --f"),
        (["psi", "check-diagram", "--env", "env.json", "--word", "E1"], "psi check-diagram needs --f"),
        (["conn", "apply", "E1", "--connection", "c.json", "--env", "e.json"], "conn apply needs two derivation symbols"),
    ],
)
def test_arity_errors_exit_one_before_any_work(argv, message):
    result = run_module(*argv)
    assert_clean_error(result)
    assert result.stderr == f"error: {message}\n"


def test_an_undecodable_spec_file_is_a_clean_error(tmp_path):
    path = tmp_path / "env.json"
    path.write_bytes(b"\xff\xfe")
    result = run_module("psi", "apply", "--env", str(path), "--tree", "(;(E1))", "--f", "x1")
    assert_clean_error(result)
    assert result.stderr.startswith("error: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize(
    "word, message, column",
    [
        ("E1,E2 - E2,E1 + 2*E1,E 2", "invalid word 'E1,E 2'", 18),
        ("E1,E2 - E2,E1 + 1/0*E1", "invalid coefficient '1/0'", 16),
    ],
)
def test_word_polynomial_errors_put_the_caret_under_the_bad_term(env_file, word, message, column):
    result = run_module("psi", "expand", "--env", env_file, "--word", word)
    assert_clean_error(result)
    assert result.stdout == ""
    assert result.stderr == f"error: {message} at position {column}\n  {word}\n  {' ' * column}^\n"
