"""Walk through the q-deformed formal group law.

Everything here is exact: coefficients are rational functions in s with
q = s**2, and every printed identity is a structural equality.
"""

from qfgl import (
    ONE, Q, Series, compose, reverse,
    q_mobius, q_mobius_inv, mob_mul, mob_det, mob_apply, scalar_matrix,
    log_chi, exp_chi, f_chi_closed, f_chi_from_log, f_chi_derived_closed,
    proposition_check, verify_fgl, drinfeld_form, cp_image, fgl_inverse,
    cartier_check, q_int,
)


def show(rep):
    """Each check of a report, then where the routes of a declared
    discrepancy first differ."""
    for c in rep.checks:
        print(c)
        if c.detail is not None:
            print("   ", c.detail)

print("The basic Moebius pair")
print("----------------------")
m, minv = q_mobius(), q_mobius_inv()
print("matrix entries:", [str(x) for x in (m.a, m.b, m.c, m.d)])
print("product = (1-q) * identity:",
      mob_mul(m, minv) == scalar_matrix(ONE - Q))
print("determinant:", mob_det(m))
print()

print("Its action on T expands to the unit series")
u = mob_apply(m, Series.generator(5))
print("  (1 - qT)/(1 - T) =", repr(u))
print()

print("Logarithm and exponential")
print("-------------------------")
lg, ex = log_chi(8), exp_chi(8)
print("log coefficients are q-integers over k:")
for k in range(1, 5):
    print(f"  [T^{k}] log = {lg[k]}   (k * coeff = {q_int(k)})")
print("compose(exp, log) = T:", compose(ex, lg) == Series.generator(8))
print("exp equals the reversion of log:", ex == reverse(lg))
print()

print("Projective-space images via the logarithm")
for n in range(4):
    print(f"  CP^{n} -> {cp_image(n)}")
print()

print("Two closed forms, one transport")
print("-------------------------------")
print("expanding (X + Y + (1+q)XY)/(1 + qXY):")
F = f_chi_closed(6)
print("  coefficient of XY:", F.series.coeff(1, 1))
print("  axioms:", verify_fgl(F, 6).all_passed)
print("expanding exp(log X + log Y):")
G = f_chi_from_log(6)
print("  coefficient of XY:", G.series.coeff(1, 1))
print("adjudication of which closed form the transport matches:")
show(proposition_check(8))
print("the minus form is itself a law:",
      verify_fgl(f_chi_derived_closed(8), 8).all_passed)
print()

print("Rescaling by half-integer powers of q symmetrizes the law")
D = drinfeld_form(6)
print("  coefficient of XY becomes:", D.series.coeff(1, 1))
print("  still a law:", verify_fgl(D, 6).all_passed)
print()

print("The formal inverse of the law")
iota = fgl_inverse(f_chi_closed(6))
print("  i(T) =", repr(iota))
print()

print("Exponent adjudication in the exponential-character identity")
show(cartier_check(4, 6))
