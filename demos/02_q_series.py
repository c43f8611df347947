"""q-combinatorics: Gaussian binomials, Pochhammer symbols, the Euler
function and the modular discriminant, all in exact arithmetic."""

from qfgl import (
    ONE, Q, membership,
    q_int, q_fact, q_binom,
    poch_finite, poch_inf_product, poch_inf_sum,
    euler_phi, discriminant,
)

print("q-integers and their localization")
print("---------------------------------")
for k in (2, 3, 6):
    print(f"  [{k}]_q = {q_int(k)}")
print("q-factorial [3]! =", q_fact(3))
print("Gaussian binomial (4 choose 2)_q =", q_binom(4, 2))
print()
print("inverting q-integers stays inside the cyclotomic localization:")
print("  1/[6]_q cromulent:", membership(ONE / q_int(6)).in_cromulent)
print("  1/(1-q) cromulent:", membership(ONE / (ONE - Q)).in_cromulent)
print("  q -> 0 and q -> 1 on 1/[4]_q:",
      (ONE / q_int(4)).eval_s(0), "and", (ONE / q_int(4)).eval_s(1))
print()

print("Pochhammer symbols")
print("------------------")
P2 = poch_finite(2, 4)
print("(t;q)_2 rows by t-degree:", [list(r.coeffs) for r in P2])
print()
print("the infinite product against its summation formula, orders (8, 30):")
prod = poch_inf_product(8, 30)
summ = poch_inf_sum(8, 30)
print("  equal:", prod == summ)
print("  t^1 coefficient starts:", list(prod[1].coeffs[:6]))
print()

print("Euler function and the discriminant")
print("-----------------------------------")
phi = euler_phi(30)
support = [(k, c) for k, c in enumerate(phi.coeffs) if c]
print("pentagonal support/signs:", support)
d = discriminant(12)
print("discriminant coefficients 1..12:", list(d.coeffs[1:13]))
print("q times the Euler function to the 24th is the discriminant:",
      (euler_phi(12) ** 24).shift(1) == d)
