"""Exact-arithmetic Hopf algebras of trees, forests, words and permutations,
together with their actions on polynomial algebras by symbolic derivations.

Submodules load on first use.  Importing the package runs none of them: each
of the ten library modules is put into ``sys.modules`` and onto the package
as an ``importlib.util.LazyLoader`` module, which is compiled and executed
the first time one of its attributes is read.  So importing a submodule, as
in ``from hopftrees.trees import Tree``, runs that module and the modules it
imports, and the CLI runs only the modules its subcommand touches.

The first public name read from the package itself (``hopftrees.Tree``,
``from hopftrees import Tree``) makes ``__getattr__`` run every module and
keep all public names in the package namespace, as a plain import of the
package did before modules loaded lazily.  A program that uses the package
namespace thus pays for compiling the library once, before its first
computation, and never inside one.

The modules are lazy module objects, not imports inside ``__getattr__``,
because instrumentation such as the benchmark's tracer (``bench/tracer.py``)
reads ``sys.modules["hopftrees.<module>"]`` for every module right after
``import hopftrees``; with ``LazyLoader`` that holds without running them.
"""

import importlib.util as _util
import sys as _sys

_EXPORTS = {
    "algebra": ("LinearCombination", "ParseError", "TensorPair", "extend_bilinear",
                "extend_linear", "format_fraction", "tensor"),
    "axioms": ("VerificationReport", "graded_antipode", "verify_hopf_axioms"),
    "connection": ("Connection", "apply_connection_operator", "check_module_law",
                   "covariant_derivative", "covariant_differential", "subtree_derivation",
                   "vector_covariant_differential"),
    "connes_kreimer": ("admissible_cuts", "dual_pairing", "forest_coproduct", "forest_monomials",
                       "forest_symmetry_factor", "monomial_product", "symmetry_factor",
                       "verify_forest_algebra"),
    "diff_ops": ("CompositionCheck", "Derivation", "DerivationEnv", "OperatorExpansion",
                 "apply_tree_operator", "expand_operator", "parse_word_polynomial",
                 "verify_composition", "word_to_trees"),
    "grossman_larson": ("HEAP_ORDERED", "ORDERED", "ROOTED", "TreeHopfAlgebra",
                        "labeled_algebra", "shift_labels"),
    "permutations": ("HEAP_PRODUCT_ALGEBRA", "CyclePermutation", "cycle_coproduct",
                     "heap_product", "parse_permutation", "permutation_to_tree", "relabel",
                     "shift", "symmetric_group", "tree_to_permutation"),
    "polynomials": ("Polynomial", "parse_polynomial"),
    "shuffle": ("EMPTY_WORD", "ShuffleHopfAlgebra", "Word", "deconcatenation", "parse_word",
                "shuffle_antipode", "shuffle_product", "word_count"),
    "trees": ("Forest", "Tree", "add_root", "attach_all", "canonicalize", "heap_ordered_trees",
              "is_standard_heap_tree", "labeled_trees", "ordered_labeled_trees",
              "ordered_trees", "parse_forest", "parse_tree", "rooted_trees", "strip_root"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def _lazy_module(name: str):
    """The submodule ``name``, registered to run on its first attribute read."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy_module(_name)
del _name


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module, names in _EXPORTS.items():
        namespace.update({n: getattr(namespace[module], n) for n in names})
    return namespace[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
