"""Products of projective spaces: Hodge polynomials, the hard-Lefschetz
sl2 representation, and three independent routes to the same q-integer."""

import itertools

from qfgl import (
    Variety, SL2Rep,
    hodge, euler_specialize, yz_to_q,
    rep_of_variety, cg_tensor, character, qdim_normalized,
    diagram_check, cp_image,
)

print("Hodge polynomials are multiplicative")
print("------------------------------------")
for dims in ((2,), (1, 1), (1, 2)):
    v = Variety(dims)
    print(f"  {v}: {hodge(v)!r}")
print()

print("Euler characteristics from the Hodge table")
for dims in ((), (1,), (2,), (1, 1)):
    v = Variety(dims)
    chi, ok = euler_specialize(hodge(v), v.dimension)
    print(f"  {v}: chi = {chi} (consistency flags: {ok})")
print()

print("The Lefschetz sl2 representation of a product")
print("---------------------------------------------")
v = Variety((1, 1))
r = rep_of_variety(v)
print(f"  {v} carries {r!r}")
print("  its character:", character(r))
print("  normalized to land in Z[q]:", qdim_normalized(r))
print("  Clebsch-Gordan: V1 (x) V2 =", cg_tensor(SL2Rep.irrep(1),
                                                 SL2Rep.irrep(2)))
print()

print("Three routes, one answer")
print("------------------------")
v = Variety((1, 2))
print("  Hodge route:        ", yz_to_q(hodge(v)))
print("  representation route:", qdim_normalized(rep_of_variety(v)))
print("  orientation route:  ", cp_image(1) * cp_image(2))
print(diagram_check(v))
print()

print("The full desk-scale catalog (125 products)")
bad = 0
for dims in itertools.product(range(5), repeat=3):
    if not diagram_check(Variety(dims)).all_passed:
        bad += 1
print("  failures:", bad)
