"""Spans and counters wrapped around the library's public functions.

Installed only in traced rounds.  A span records its duration; a layer's self
time is that duration minus the time its child spans cover.  Spans are
aggregated by name as they close, so memory does not grow with the number of
calls.  Counters count calls of hot inner functions and the work counts that
show waste (raw versus distinct terms).  Wrappers replace every reference to
a function in the ``hopftrees`` modules, so calls through names imported with
``from .x import y`` are seen too.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from collections.abc import Mapping

# span name -> (module, attribute) or (module, class, attribute) entry points
SPANS = {
    "trees.attach_all": [("trees", "attach_all")],
    "trees.parse": [("trees", "parse_tree"), ("trees", "parse_forest")],
    "trees.enumerate": [
        ("trees", name)
        for name in ("rooted_trees", "ordered_trees", "heap_ordered_trees",
                     "labeled_trees", "ordered_labeled_trees")
    ],
    "gl.product": [("grossman_larson", "TreeHopfAlgebra", "product")],
    "gl.coproduct": [("grossman_larson", "TreeHopfAlgebra", "coproduct")],
    "axioms.antipode": [("axioms", "graded_antipode")],
    "axioms.verify": [("axioms", "verify_hopf_axioms"), ("connes_kreimer", "verify_forest_algebra")],
    "algebra.extend": [("algebra", "extend_linear"), ("algebra", "extend_bilinear")],
    "ck.coproduct": [("connes_kreimer", "forest_coproduct")],
    "ck.pairing": [("connes_kreimer", "dual_pairing")],
    "shuffle.product": [("shuffle", "shuffle_product")],
    "perm.product": [("permutations", "heap_product")],
    "perm.coproduct": [("permutations", "cycle_coproduct")],
    "diff_ops.tree_operator": [("diff_ops", "apply_tree_operator")],
    "diff_ops.word_to_trees": [("diff_ops", "word_to_trees")],
    "connection": [
        ("connection", name)
        for name in ("covariant_derivative", "vector_covariant_differential",
                     "subtree_derivation", "covariant_differential",
                     "apply_connection_operator", "check_module_law")
    ],
}

# counter name -> entry point whose calls it counts
COUNTERS = {
    "trees.encode.calls": ("trees", "Tree", "encode"),
    "algebra.lc_add.calls": ("algebra", "LinearCombination", "__add__"),
    "algebra.lc_sort.calls": ("algebra", "LinearCombination", "terms"),
    "diff_ops.poly_mul.calls": ("diff_ops", "Polynomial", "__mul__"),
    "diff_ops.derivative.calls": ("diff_ops", "Polynomial", "derivative"),
    "connection.covariant_derivative.calls": ("connection", "covariant_derivative"),
    "connection.vector_differential.calls": ("connection", "vector_covariant_differential"),
}


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hopftrees" or name.startswith("hopftrees."))]


def _patch(entry, make):
    """Replace an entry point by ``make(original)`` everywhere it is referenced."""
    module = sys.modules["hopftrees." + entry[0]]
    if len(entry) == 3:
        cls = getattr(module, entry[1])
        original = cls.__dict__[entry[2]]
        setattr(cls, entry[2], make(original))
        return original
    original = getattr(module, entry[1])
    wrapper = make(original)
    for mod in _modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
    return original


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.stack: list[list] = []  # [span name, time covered by child spans]
        self._depth: Counter = Counter()
        self._antipode = None

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        stack, self_s, counts, clock = self.stack, self.self_s, self.counts, time.perf_counter
        calls = name + ".calls"

        def span(*args, **kwargs):
            counts[calls] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return span

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _top_level(self, name, fn, on_result):
        """Count only outermost calls of a recursive function, inspecting results."""
        depth, counts = self._depth, self.counts

        def outer(*args, **kwargs):
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[name] -= 1
            if not depth[name]:
                on_result(counts, result)
            return result

        return outer

    def install(self) -> None:
        import hopftrees  # noqa: F401  (loads every module the entry points name)

        for name, entry in COUNTERS.items():
            _patch(entry, lambda fn, name=name: self._counter(name, fn))
        self._install_special()
        for name, entries in SPANS.items():
            for entry in entries:
                original = _patch(entry, lambda fn, name=name: self._span(name, fn))
                if name == "axioms.antipode":
                    self._antipode = original

    def _install_special(self) -> None:
        counts, depth, stack = self.counts, self._depth, self.stack

        def canonicalize(fn):
            def counted(t):
                counts["trees.canonicalize.calls"] += 1
                if not depth["canonicalize"] and stack and stack[-1][0] == "trees.attach_all":
                    counts["trees.graft.canonicalize"] += 1
                depth["canonicalize"] += 1
                try:
                    return fn(t)
                finally:
                    depth["canonicalize"] -= 1
            return counted

        def lc_init(fn):
            def counted(self, terms=()):
                counts["algebra.lc_new.calls"] += 1
                if not isinstance(terms, Mapping):
                    terms = list(terms)
                counts["algebra.terms_in"] += len(terms)
                fn(self, terms)
                counts["algebra.terms_out"] += len(self)
            return counted

        def lc_add(fn):
            def counted(self, other):
                result = fn(self, other)
                if result is not NotImplemented:
                    counts["algebra.terms_in"] += len(self) + len(other)
                    counts["algebra.terms_out"] += len(result)
                return result
            return counted

        def attach_all(fn):
            def counted(f, t):
                result = fn(f, t)
                counts["trees.attach_all.distinct"] += len(result)
                return result
            return counted

        def verify_checks(counts, report):
            counts["axioms.verify.checks"] += sum(c.checked for c in report.checks)

        _patch(("trees", "canonicalize"), canonicalize)
        _patch(("algebra", "LinearCombination", "__init__"), lc_init)
        _patch(("algebra", "LinearCombination", "__add__"), lc_add)
        _patch(("trees", "attach_all"), attach_all)
        _patch(("connes_kreimer", "admissible_cuts"), lambda fn: self._top_level(
            "cuts", fn, lambda counts, cuts: counts.update({"ck.cuts": len(cuts)})))
        for entry in (("axioms", "verify_hopf_axioms"), ("connes_kreimer", "verify_forest_algebra")):
            _patch(entry, lambda fn: self._top_level("verify", fn, verify_checks))

    # -- results -----------------------------------------------------------

    def antipode_cache(self) -> tuple[int, int]:
        info = self._antipode.cache_info()
        return info.hits, info.misses

    def reset(self) -> None:
        self.counts.clear()
        self.self_s.clear()
        self._cache_start = self.antipode_cache()

    def snapshot(self) -> dict:
        hits, misses = self.antipode_cache()
        counts = dict(self.counts)
        counts["axioms.antipode.hits"] = hits - self._cache_start[0]
        counts["axioms.antipode.misses"] = misses - self._cache_start[1]
        return {"counts": counts, "self_s": dict(self.self_s)}
