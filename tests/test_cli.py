"""Command-line surface: example invocations, JSON round trips, exit codes."""

import json
import os
import subprocess
import sys
import time
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


def test_a_non_integer_env_cap_is_a_clean_error(capsys, monkeypatch):
    monkeypatch.setenv("HOPF_MAX_DEGREE", "x")
    code, out, err = run(capsys, "trees", "count", "--family", "rooted", "--degree", "2")
    assert (code, out, err) == (1, "", "error: HOPF_MAX_DEGREE must be an integer, not 'x'")


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


def test_psi_expand_numbers_factors_by_preorder_node(capsys, env_file):
    code, out, _ = run(capsys, "psi", "expand", "--word", "E1,E2,E3", "--env", env_file,
                       "--format", "json")
    assert code == 0
    factors = {term["tree"]: term["factors"] for term in json.loads(out)["terms"]}
    assert factors["(;(E2;(E1))(E3))"] == ["(a_E3^i3)", "(a_E1^i2)", "(D_i2 a_E2^i1)", "(D_i1 D_i3 f)"]
    assert factors["(;(E3;(E2;(E1))))"] == ["(a_E1^i3)", "(D_i3 a_E2^i2)", "(D_i2 a_E3^i1)", "(D_i1 f)"]


def test_a_repeated_symbol_adds_no_ordered_labeled_trees(capsys):
    reports = []
    for symbols in ("E1,E1", "E1"):
        code, out, _ = run(capsys, "verify", "--algebra", "gl", "--flavor", "ordered-labeled",
                           "--symbols", symbols, "--max-degree", "2")
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    assert "ordered-labeled/unit: ok (4 checks)" in reports[0]


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


def test_polynomial_errors_put_the_caret_under_the_bad_term(env_file):
    f = "   x1 + x9"
    result = run_module("psi", "apply", "--env", env_file, "--tree", "(;(E1))", "--f", f)
    assert_clean_error(result)
    assert result.stdout == ""
    message = "variable x9 out of range for n=1 at position 8"
    assert result.stderr == f"error: {message}\n  {f}\n  {' ' * 8}^\n"


def test_a_forest_sweep_over_the_cap_is_a_one_line_error():
    result = run_module("verify", "--algebra", "ck", "--max-degree", "9")
    assert_clean_error(result)
    assert result.stdout == ""
    assert result.stderr == "error: degree 9 exceeds enumeration cap 8\n"


@pytest.mark.parametrize(
    "degree, message",
    [
        ("8", f"ordered labeled trees of degree 8 would enumerate 366080 terms, more than the limit of {MAX_TERMS}"),
        ("9", "degree 9 exceeds enumeration cap 8"),
    ],
)
def test_conn_check_module_refuses_an_over_budget_degree_before_any_check(
    capsys, tmp_path, conn_file, degree, message
):
    env = tmp_path / "two.json"
    env.write_text(json.dumps({"n": 1, "E1": ["x1"], "E2": ["x1^2"]}))
    start = time.perf_counter()
    code = main(["conn", "check-module", "--connection", conn_file, "--env", str(env), "--max-degree", degree])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")
    assert elapsed < 0.5  # degrees 0-7 alone hold 64,979 trees to check


def test_a_negative_max_degree_is_refused_like_a_negative_degree(capsys, env_file, conn_file):
    for argv in (
        ["verify", "--algebra", "shuffle", "--max-degree", "-1"],
        ["conn", "check-module", "--connection", conn_file, "--env", env_file, "--max-degree", "-1"],
        ["trees", "count", "--family", "rooted", "--degree", "-1"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", "error: degree must be >= 0, got -1\n"), argv


SIXTY = ",".join(f"E{i}" for i in range(1, 61))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--algebra", "perm", "--max-degree", "12"],
         "symmetric group S_12 would enumerate 479001600 terms"),
        (["verify", "--algebra", "shuffle", "--symbols", "a,b,c,d,e,f,g,h", "--max-degree", "8"],
         "shuffle basis of degree 8 would enumerate 16777216 terms"),
        (["verify", "--algebra", "gl", "--flavor", "labeled", "--symbols", SIXTY, "--max-degree", "3"],
         "labeled trees of degree 3 would enumerate 864000 terms"),  # 4 shapes x 60^3
        (["verify", "--algebra", "gl", "--flavor", "ordered-labeled", "--symbols", SIXTY,
          "--max-degree", "3"],
         "ordered labeled trees of degree 3 would enumerate 1080000 terms"),  # Catalan(3) x 60^3
        (["trees", "count", "--family", "labeled", "--symbols", "E1,E2,E3,E4,E5,E6", "--degree", "8"],
         "labeled trees of degree 8 would enumerate 480370176 terms"),  # 286 shapes x 6^8
        (["trees", "count", "--family", "hot", "--degree", "9", "--cap", "9"],
         "heap-ordered trees of degree 9 would enumerate 362880 terms"),  # 9!
        (["trees", "count", "--family", "rooted", "--degree", "16", "--cap", "16"],
         "rooted trees of degree 16 would enumerate 634847 terms"),  # A000081(17)
        (["trees", "count", "--family", "ordered", "--degree", "13", "--cap", "13"],
         "ordered trees of degree 13 would enumerate 742900 terms"),  # Catalan(13)
    ],
)
def test_an_over_budget_basis_is_refused_before_it_is_listed(argv, message):
    result = run_module(*argv)
    assert_clean_error(result)
    assert result.stdout == ""
    assert result.stderr == f"error: {message}, more than the limit of {MAX_TERMS}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["perm", "coprod", "(20)"], "cycle coproduct would enumerate 1048576 terms"),  # 2^20 subsets
        (["ck", "coprod", "(;" + "()" * 20 + ")"], "cut coproduct would enumerate 1048577 terms"),  # 2^20 + 1
    ],
)
def test_an_over_budget_coproduct_is_refused_at_once(capsys, argv, message):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: {message}, more than the limit of {MAX_TERMS}\n"
    assert elapsed < 0.5


# One row per kind of text argument: the argv with ``{}`` for the argument, a
# valid value with spaces around its separators (around the labels, for a
# tree), the same value unpadded, a malformed value, and the text that starts
# at the bad piece.
TEXT_ARGUMENTS = {
    "tree": (["gl", "coprod", "--flavor", "labeled", "{}"],
             "(;( E1 )( E2 ;( E1 )))", "(;(E1)(E2;(E1)))", "(;(E1)(1x))", "1x"),
    "forest": (["ck", "coprod", "{}"], "  () *  (;()) * (;())  ", "()*(;())*(;())", " () *  (x y)", "x y"),
    "word": (["shuffle", "mul", "{}", "c"], " a . b ", "a.b", "  a.1b", "1b"),
    "permutation": (["perm", "mul", "{}", "(1)"], " ( 1 , 3 ) (2) ", "(1 3)(2)", "  (1 x)", "x"),
    "polynomial": (["psi", "apply", "--env", "ENV", "--tree", "(;(E1))", "--f", "{}"],
                   " x1 * x1 - 2 * x1 + 1 ", "x1*x1-2*x1+1", "x1 + 2*x9", "2*x9"),
    "word polynomial": (["psi", "expand", "--env", "ENV", "--word", "{}"],
                        " E1 , E2 - 2 * E2 , E1 ", "E1,E2-2*E2,E1", "E1,E2 - 2*E2,1", "E2,1"),
    "--symbols": (["trees", "enum", "--family", "labeled", "--degree", "2", "--symbols", "{}"],
                  " E1 , E2 ", "E1,E2", "E1,3", "3"),
    "--word": (["psi", "check-diagram", "--env", "ENV", "--f", "x1^3", "--word", "{}"],
               " E1 , E2 ", "E1,E2", "E1,E 2", "E 2"),
}


def _fill(argv, value, env_file):
    return [value if a == "{}" else env_file if a == "ENV" else a for a in argv]


def assert_caret_under(err: str, text: str, column: int):
    """``err`` is one ``error:`` message that echoes ``text`` as typed with a caret at ``column``."""
    first, echo, caret = err.split("\n")
    assert first.startswith("error: ") and first.endswith(f" at position {column}")
    assert (echo, caret) == ("  " + text, "  " + " " * column + "^")


@pytest.mark.parametrize("kind", TEXT_ARGUMENTS)
def test_spaces_around_separators_change_nothing_and_a_bad_piece_gets_the_caret(capsys, env_file, kind):
    argv, padded, plain, bad, at = TEXT_ARGUMENTS[kind]
    padded_run, plain_run = ((main(_fill(argv, v, env_file)), capsys.readouterr()) for v in (padded, plain))
    assert padded_run == plain_run and plain_run[0] == 0 and plain_run[1].out
    code, out, err = run(capsys, *_fill(argv, bad, env_file))
    assert (code, out) == (1, "")
    assert_caret_under(err, bad, bad.index(at))


@pytest.mark.parametrize(
    "argv, bad, column",
    [
        (["trees", "enum", "--family", "labeled", "--degree", "1", "--symbols"], "E1,", 3),
        (["trees", "enum", "--family", "labeled", "--degree", "1", "--symbols"], "E1,3", 3),
        (["verify", "--algebra", "shuffle", "--symbols"], "a,,b", 2),
        (["verify", "--algebra", "gl", "--flavor", "labeled", "--symbols"], "E1, ,E2", 3),
        (["gl", "mul", "--flavor", "labeled", "(;(E1))", "(;(E1))", "--symbols"], "E1,E 2", 3),
    ],
)
def test_a_symbol_list_refuses_a_piece_that_is_not_an_identifier(capsys, argv, bad, column):
    code, out, err = run(capsys, *argv, bad)
    assert (code, out) == (1, "")
    assert_caret_under(err, bad, column)


@pytest.mark.parametrize(
    "argv, value, same_as",
    [
        (["psi", "expand", "--env", "ENV", "--word", "{}"], "E1,E2 - +E2,E1", "E1,E2 - E2,E1"),
        (["psi", "expand", "--env", "ENV", "--word", "{}"], "E1,E2 - -E2,E1", "E1,E2 + E2,E1"),
        (["psi", "apply", "--env", "ENV", "--tree", "(;(E1))", "--f", "{}"], "x1^2 - +x1", "x1^2 - x1"),
        (["psi", "apply", "--env", "ENV", "--tree", "(;(E1))", "--f", "{}"], "x1^2 - -x1", "x1^2 + x1"),
    ],
)
def test_a_run_of_signs_multiplies_out_in_both_polynomial_grammars(capsys, env_file, argv, value, same_as):
    got, expected = (run(capsys, *_fill(argv, v, env_file)) for v in (value, same_as))
    assert got == expected and got[0] == 0


def test_the_sign_rule_fixes_which_words_cancel(capsys, env_file):
    code, out, _ = run(capsys, "psi", "expand", "--env", env_file, "--report", "--word", "E1,E2 - +E2,E1")
    assert (code, out) == (0, "raw_trees: 4, cancelled: 2, surviving: 2")


def test_a_superscript_digit_is_an_invalid_tree_label(capsys):
    code, out, err = run(capsys, "gl", "coprod", "(;(²))")
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid label '²' at")
    assert_caret_under(err, "(;(²))", 3)


@pytest.mark.parametrize(
    "argv, text, message, column",
    [
        (["perm", "mul", "{}", "(1)"], "  (1 1)", "duplicate entry 1 across cycles", 5),
        (["perm", "mul", "{}", "(1)"], "(1 0)", "entries must be positive, got 0", 3),
        (["perm", "mul", "--n", "2", "{}", "(1)"], "(1 3)", "entry 3 out of range for S_2", 3),
        (["perm", "coprod", "{}"], "(2 4)(1 3 4)", "duplicate entry 4 across cycles", 10),
    ],
)
def test_a_refused_permutation_entry_gets_the_caret(capsys, argv, text, message, column):
    code, out, err = run(capsys, *_fill(argv, text, None))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message} at")
    assert_caret_under(err, text, column)
