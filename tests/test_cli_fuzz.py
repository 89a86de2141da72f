"""Fuzzing the ``perm``, ``gl``, ``ck`` and ``shuffle`` subcommands of the command line, in-process.

``perm`` arguments are built from cycle notation (entries split by spaces or
commas, cycles rotated and listed in any order, the trees of ``perm
from-tree`` from the tree bijection), with ``--n`` values that may be
negative.  ``gl`` arguments are small trees of each of the five flavors (at
times of another flavor than ``--flavor`` names), with ``--symbols`` lists
that may be malformed.  ``ck`` arguments are small forest monomials and trees,
at times labeled; ``shuffle`` arguments are short words.  Any of
them may read an element from stdin as ``-``; a few single-character mutations
go on top.  Every call must end cleanly: exit 0 with nothing on stderr, or
exit 1 with one ``error:`` message at the end of stderr whose caret, if it has
one, lies in the argument it echoes (or just past its end, where the input
stopped early).  ``--format json`` and the text output give the same terms.
"""

import contextlib
import io
import json
import re
import sys

from hypothesis import given, settings, strategies as st

from hopftrees import (CyclePermutation, forest_monomials, heap_ordered_trees, labeled_trees, ordered_labeled_trees,
                       ordered_trees, permutation_to_tree, rooted_trees)
from hopftrees.cli import main
from helpers import cycles_by_walk

ARITY = {"mul": 2, "coprod": 1, "to-tree": 1, "from-tree": 1}
# characters of the two grammars, separators, and a few that belong to neither
ALPHABET = "()0123456789 ,;-\tx²"
POSITIONED = re.compile(r"error: (.*) at position (\d+)\n  (.*)\n  ( *)\^\n\Z", re.S)


@st.composite
def permutation_texts(draw) -> str:
    images = draw(st.permutations(range(1, draw(st.integers(0, 5)) + 1)))
    cycles = [list(c) for c in cycles_by_walk(images)]
    for cycle in cycles:
        turn = draw(st.integers(0, len(cycle) - 1))
        cycle[:] = cycle[turn:] + cycle[:turn]
    cycles = draw(st.permutations(cycles))
    sep = draw(st.sampled_from([" ", ",", ", ", " , ", "  "]))
    pad = draw(st.sampled_from(["", " "]))
    return pad + ("".join(f"({sep.join(map(str, c))})" for c in cycles) or "()") + pad


@st.composite
def mutated(draw, texts, alphabet=ALPHABET):
    """A drawn text with up to two characters inserted, deleted or replaced."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = draw(st.sampled_from(alphabet))
        if kind == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + (char if kind == "replace" else "") + text[at + 1:]
    return text


def _tree_text(text: str) -> str:
    return permutation_to_tree(CyclePermutation.from_cycles(
        [int(x) for x in re.findall(r"\d+", cycle)] for cycle in text.split(")") if cycle.strip())).encode()


@st.composite
def perm_calls(draw):
    """``(argv, stdin, typed)``: an argv of ``perm``, the text on stdin, and the
    element texts as typed and as read from stdin (stripped)."""
    operation = draw(st.sampled_from(sorted(ARITY)))
    texts = permutation_texts()
    if operation == "from-tree":
        texts = texts.map(_tree_text)
    elements = [draw(mutated(texts)) for _ in range(ARITY[operation])]
    argv, stdin = ["perm", operation, *elements], ""
    if draw(st.booleans()):
        slot = 2 + draw(st.integers(0, len(elements) - 1))
        stdin, argv[slot] = argv[slot] + draw(st.sampled_from(["", "\n"])), "-"
    if operation != "from-tree" and draw(st.booleans()):
        argv += ["--n", str(draw(st.integers(-3, 7)))]
    return argv, stdin, elements + [e.strip() for e in elements]


def run(argv, stdin: str = "") -> tuple[int, str, str]:
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _text_terms(text: str) -> list[tuple[str, object]]:
    """The ``(coeff, basis)`` terms of a rendered combination: ``a - 2*b`` gives ``("1", a), ("-2", b)``.
    Only a leading number is a coefficient, so a forest such as ``()*()`` keeps its ``*``."""
    terms = []
    for part in re.split(r" (?=[+-] )", text) if text != "0" else []:
        coeff, basis = re.fullmatch(r"(?:(\d+(?:/\d+)?)\*)?(.*)", part.lstrip("+- ")).groups()
        pair = basis.split(" (x) ")
        terms.append(("-" * part.startswith("-") + (coeff or "1"), pair if len(pair) == 2 else basis))
    return terms


# Hypothesis seeds a derandomized test from its source, so this test keeps its
# own copy of ``_check_call``: the same source draws the same examples.
@settings(derandomize=True, max_examples=120, deadline=2000)
@given(perm_calls())
def test_perm_calls_exit_cleanly_and_both_formats_agree(call):
    argv, stdin, typed = call
    code, out, err = run(argv, stdin)
    if code == 1:
        assert out == "" and err.count("error:") == 1 and err.endswith("\n"), err
        message = err[err.index("error:"):]
        positioned = POSITIONED.match(message)
        if positioned:
            _, position, echoed, pointer = positioned.groups()
            assert echoed in typed and len(pointer) == int(position) <= len(echoed), err
        else:
            assert "\n" not in message.rstrip("\n") and "position" not in message, err
        return
    assert code == 0 and err == "" and out.endswith("\n"), (code, err)
    code, as_json, err = run(argv + ["--format", "json"], stdin)
    assert code == 0 and err == ""
    payload, text = json.loads(as_json), out.rstrip("\n")
    if "terms" in payload:
        assert [(t["coeff"], t["basis"]) for t in payload["terms"]] == _text_terms(text)
    else:
        assert list(payload.values()) == [text]


# ---------------------------------------------------------------------------
# gl: small trees of each flavor, mutated, with --symbols and stdin

GL_ARITY = {"mul": 2, "coprod": 1, "antipode": 1}
GL_TREES = {
    "rooted": [x.encode() for d in range(4) for x in rooted_trees(d)],
    "ordered": [x.encode() for d in range(4) for x in ordered_trees(d)],
    "labeled": [x.encode() for d in range(3) for x in labeled_trees(d, ("E1", "E2"))],
    "ordered-labeled": [x.encode() for d in range(3) for x in ordered_labeled_trees(d, ("E1", "E2"))],
    "hot": [x.encode() for d in range(4) for x in heap_ordered_trees(d)],
}
# characters of the tree grammar, of labels and of symbol lists, and a few that belong to neither
TREE_ALPHABET = "();E123 ,\tx-²"
SYMBOLS = ["E1,E2", "E2,E1", "E1,E2,E3", " E1 , E2 ", "E1,,E2", "1x"]


@st.composite
def gl_calls(draw):
    """``(argv, stdin, typed)`` as for ``perm_calls``, for ``gl`` over the five flavors."""
    operation, flavor = draw(st.sampled_from(sorted(GL_ARITY))), draw(st.sampled_from(sorted(GL_TREES)))
    pool = GL_TREES[flavor] if draw(st.integers(0, 3)) else GL_TREES[draw(st.sampled_from(sorted(GL_TREES)))]
    elements = [draw(mutated(st.sampled_from(pool), TREE_ALPHABET)) for _ in range(GL_ARITY[operation])]
    argv, stdin = ["gl", operation, *elements, "--flavor", flavor], ""
    if draw(st.booleans()):
        slot = 2 + draw(st.integers(0, len(elements) - 1))
        stdin, argv[slot] = argv[slot] + draw(st.sampled_from(["", "\n"])), "-"
    if draw(st.booleans()):
        symbols = draw(mutated(st.sampled_from(SYMBOLS), TREE_ALPHABET))
        argv += [f"--symbols={symbols}"]
        elements.append(symbols)
    return argv, stdin, elements + [e.strip() for e in elements]


@settings(derandomize=True, max_examples=150, deadline=2000)
@given(gl_calls())
def test_gl_calls_exit_cleanly_and_both_formats_agree(call):
    _check_call(*call)


def _check_call(argv, stdin: str, typed: list[str]) -> None:
    """Exit 1 with one well-placed error message, or exit 0 with the same terms in both formats."""
    code, out, err = run(argv, stdin)
    if code == 1:
        assert out == "" and err.count("error:") == 1 and err.endswith("\n"), err
        message = err[err.index("error:"):]
        positioned = POSITIONED.match(message)
        if positioned:
            _, position, echoed, pointer = positioned.groups()
            assert echoed in typed and len(pointer) == int(position) <= len(echoed), err
        else:
            assert "\n" not in message.rstrip("\n") and "position" not in message, err
        return
    assert code == 0 and err == "" and out.endswith("\n"), (code, err)
    code, as_json, err = run(argv + ["--format", "json"], stdin)
    assert code == 0 and err == ""
    payload, text = json.loads(as_json), out.rstrip("\n")
    if "terms" in payload:
        assert [(t["coeff"], t["basis"]) for t in payload["terms"]] == _text_terms(text)
    else:
        assert list(payload.values()) == [text]


def _with_stdin(draw, argv: list[str], count: int) -> tuple[list[str], str]:
    """``argv`` with one of its ``count`` elements, drawn or none, read from stdin instead."""
    if not draw(st.booleans()):
        return argv, ""
    slot = 2 + draw(st.integers(0, count - 1))
    stdin, argv[slot] = argv[slot] + draw(st.sampled_from(["", "\n"])), "-"
    return argv, stdin


# ---------------------------------------------------------------------------
# ck: forest monomials and trees, at times labeled, mutated

FORESTS = [f.encode() for d in range(5) for f in forest_monomials(d)]
CK_TREES = [t.encode() for d in range(5) for t in rooted_trees(d)]
OTHER_TREES = ["(E1)", "(;(E1))", "(1;(2))"]  # labeled: the forest algebra refuses them
FOREST_ALPHABET = "();*1E ,x-²"


@st.composite
def ck_calls(draw):
    """``(argv, stdin, typed)`` as for ``perm_calls``, for ``ck coprod`` and ``ck pair``."""
    operation = draw(st.sampled_from(["coprod", "pair"]))
    pool = FORESTS if draw(st.integers(0, 3)) else FORESTS + OTHER_TREES
    elements = [draw(mutated(st.sampled_from(pool), FOREST_ALPHABET))]
    if operation == "pair":
        elements.insert(0, draw(mutated(st.sampled_from(CK_TREES + OTHER_TREES), FOREST_ALPHABET)))
    argv, stdin = _with_stdin(draw, ["ck", operation, *elements], len(elements))
    return argv, stdin, elements + [e.strip() for e in elements]


@settings(derandomize=True, max_examples=150, deadline=2000)
@given(ck_calls())
def test_ck_calls_exit_cleanly_and_both_formats_agree(call):
    _check_call(*call)


# ---------------------------------------------------------------------------
# shuffle: short words, mutated

WORDS = ["1", "x1", "x2", "x1.x2", "x2.x1", "x1.x1", "a.x1.b", " x1 . x2 ", "x1.x2.x1"]
WORD_ALPHABET = "x12ab. ,;1-()²"


@st.composite
def shuffle_calls(draw):
    """``(argv, stdin, typed)`` as for ``perm_calls``, for ``shuffle mul`` and ``shuffle coprod``."""
    operation = draw(st.sampled_from(["mul", "coprod"]))
    elements = [draw(mutated(st.sampled_from(WORDS), WORD_ALPHABET)) for _ in range(2 if operation == "mul" else 1)]
    argv, stdin = _with_stdin(draw, ["shuffle", operation, *elements], len(elements))
    return argv, stdin, elements + [e.strip() for e in elements]


@settings(derandomize=True, max_examples=150, deadline=2000)
@given(shuffle_calls())
def test_shuffle_calls_exit_cleanly_and_both_formats_agree(call):
    _check_call(*call)
