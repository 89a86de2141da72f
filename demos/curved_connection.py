"""Connections: curving the tree action while keeping the module law.

On flat space the action of an ordered labeled tree is the action of the
same tree with its child order forgotten.  A connection (Christoffel data)
deforms how child subtrees fold into derivations; the coproduct law
t.(ab) = sum (t'.a)(t''.b)  survives the deformation, which is the whole point.
"""

import random

from hopftrees import (
    Connection,
    DerivationEnv,
    apply_connection_operator,
    apply_tree_operator,
    check_module_law,
    covariant_derivative,
    covariant_differential,
    ordered_labeled_trees,
    parse_polynomial,
    parse_tree,
    subtree_derivation,
)

env = DerivationEnv.from_dict({"n": 1, "E1": ["x1"], "E2": ["x1^2"]})
flat = Connection.flat(1)
curved = Connection.from_dict({"n": 1, "gamma": {"1,1,1": "1"}})
cube = parse_polynomial("x1^3", 1)

print("== covariant derivatives in coordinates ==")
print("flat   nabla_E1 E2 =", covariant_derivative(flat, env["E1"], env["E2"]))
print("curved nabla_E1 E2 =", covariant_derivative(curved, env["E1"], env["E2"]))
print()

print("== order-two covariant differential ==")
value = covariant_differential(cube, [env["E1"], env["E2"]], flat)
print("(nabla^2 x1^3)(E1, E2), flat:", value)
print()

print("== a chain acts through the connection ==")
chain = parse_tree("(;(E1;(E2)))", ordered=True)
print("theta(E1 with child E2) =", subtree_derivation(chain.children[0], env, flat))
print("chain action on x1^3    =", apply_connection_operator(chain, env, flat, cube))
print()

print("== flat action agrees with the unordered tree operator ==")
rng = random.Random(0)
env2 = DerivationEnv.from_dict({"n": 2, "E1": ["x2", "x1"], "E2": ["x1*x2", "1"]})
f2 = parse_polynomial("x1^2*x2 - x2", 2)
agree = all(
    apply_connection_operator(tree, env2, Connection.flat(2), f2)
    == apply_tree_operator(parse_tree(tree.encode()), env2, f2)
    for degree in range(4)
    for tree in ordered_labeled_trees(degree, ("E1", "E2"))
)
print("degree <= 3 sweep:", agree)
print()

print("== module law, flat and curved ==")


def random_poly():
    coeffs = [rng.randint(-3, 3) for _ in range(3)]
    return parse_polynomial(f"{coeffs[0]}*x1^2 + {coeffs[1]}*x1 + {coeffs[2]}", 1)


for label, conn in (("flat", flat), ("curved", curved)):
    verdict = all(
        check_module_law(tree, env, conn, random_poly(), random_poly())
        for degree in range(3)
        for tree in ordered_labeled_trees(degree, ("E1", "E2"))
    )
    print(f"  {label}: module law on all trees of degree <= 2 -> {verdict}")
