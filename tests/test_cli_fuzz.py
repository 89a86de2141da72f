"""Fuzzing the ``perm`` subcommands of the command line, in-process.

Arguments are built from cycle notation (entries split by spaces or commas,
cycles rotated and listed in any order, the trees of ``perm from-tree`` from
the tree bijection), with ``--n`` values that may be negative and with an
element read from stdin as ``-``; a few single-character mutations go on top.
Every call must end cleanly: exit 0 with nothing on stderr, or exit 1 with one
``error:`` message at the end of stderr whose caret, if it has one, lies in the
argument it echoes (or just past its end, where the input stopped early).  ``--format json`` and the text output give the same terms.
"""

import contextlib
import io
import json
import re
import sys

from hypothesis import given, settings, strategies as st

from hopftrees import CyclePermutation, permutation_to_tree
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
def mutated(draw, texts):
    """A drawn text with up to two characters inserted, deleted or replaced."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = draw(st.sampled_from(ALPHABET))
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
    terms = []
    for part in text.split(" + "):
        coeff, _, basis = part.rpartition("*")
        pair = basis.split(" (x) ")
        terms.append((coeff or "1", pair if len(pair) == 2 else basis))
    return terms


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
