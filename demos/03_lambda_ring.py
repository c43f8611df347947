"""Lambda-ring structure: Adams operations, the total lambda operation
into Witt elements, and the identities they pin down."""

from qfgl import (
    ONE, Q,
    adams, lambda_t, witt_add,
    newton_adams_from_lambda, lambda_k_closed,
    thom_class, discriminant_limit, euler_phi, QSeries, q_fact,
)


def show(checks):
    """Each check, then where the routes of a declared discrepancy first
    differ."""
    for c in checks:
        print(c)
        if c.detail is not None:
            print("   ", c.detail)

geom = ONE / (ONE - Q)

print("Adams operations substitute q -> q^k")
print("------------------------------------")
for k in (2, 3):
    print(f"  psi^{k}(1/(1-q)) = {adams(geom, k)}")
print()

print("The total lambda operation")
print("--------------------------")
w = lambda_t(Q ** 2, 4, 12)
print("a line  q^2 |-> 1 + t q^2:", repr(w))
w = lambda_t(geom, 6, 20)
print("lambda_t(1/(1-q)) t^2 coefficient starts:",
      list(map(int, w[2].coeffs[:8])))
print()

print("Witt addition is series multiplication; ghosts are additive")
wa, wb = lambda_t(Q, 4, 12), lambda_t(Q ** 2, 4, 12)
ws = witt_add(wa, wb)
print("  lambda(q) + lambda(q^2) = lambda(q + q^2):",
      ws == lambda_t(Q + Q ** 2, 4, 12))
print("  ghost_2 of the sum:", repr(newton_adams_from_lambda(ws)[1]))
print()

print("Newton extraction recovers the Adams operations")
psis = newton_adams_from_lambda(lambda_t(geom, 6, 20))
print("  psi^2 from the log-derivative:",
      psis[1] == QSeries.from_scalar(ONE / (ONE - Q ** 2), 20))
print()

print("Closed form of lambda^k(1/(1-q)): exponent adjudication")
checks = lambda_k_closed(3, 20).checks
for k in (1, 2, 3):
    corrected = Q ** (k * (k - 1) // 2) / (q_fact(k) * (ONE - Q) ** k)
    print(f"  k={k}: corrected closed form = {corrected}")
    show(checks[2 * k - 2: 2 * k])
print()

print("The Thom class is the Euler function")
print("  matches to order 30:", thom_class(30) == euler_phi(30))
print()

print("The discriminant limit, both readings")
show(discriminant_limit(12).checks)
