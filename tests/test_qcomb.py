"""q-combinatorics against independent brute-force oracles.

The oracles below use plain integer coefficient lists and full
polynomial products (no series shortcuts, no truncation until the end);
expected values in the frozen assertions were produced by running these
oracles first.
"""

import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from qfgl import (
    Scalar, ZERO, ONE, Q, membership,
    QSeries, q_int, q_fact, q_binom,
    poch_finite, poch_inf_product, poch_inf_sum,
    euler_phi, discriminant,
)


# -- QSeries products: one packed integer product ----------------------------

def _random_qseries(rng, order):
    kind = rng.randrange(4)
    coeffs = []
    for _ in range(rng.randint(0, order + 1)):
        c = rng.randint(-10 ** rng.randint(0, 30), 10 ** rng.randint(0, 30))
        coeffs.append(Fraction(c, rng.randint(1, 12)) if kind == 0 or
                      (kind == 1 and rng.random() < 0.2) else c)
    return QSeries(order, coeffs)      # the missing top coefficients are zeros


def test_qseries_product_equals_the_per_coefficient_sum():
    rng = random.Random(1729)
    for _ in range(300):
        a = _random_qseries(rng, rng.randint(0, 120))
        b = _random_qseries(rng, rng.choice([a.order, rng.randint(0, 120)]))
        n = min(a.order, b.order)
        want = [sum(map(mul, a.coeffs[: k + 1], b.coeffs[k::-1])) for k in range(n + 1)]
        got = (a * b).coeffs
        assert list(got) == want and (a * b).order == n
        assert [type(c) for c in got] == [int if c == int(c) else Fraction for c in want]


# -- brute-force polynomial oracle --------------------------------------------

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def oracle_euler_product(n_factors):
    """Full product of (1 - q^k), k = 1..n_factors, no truncation."""
    acc = [1]
    for k in range(1, n_factors + 1):
        factor = [1] + [0] * (k - 1) + [-1]
        acc = poly_mul(acc, factor)
    return acc


def oracle_discriminant(n_factors):
    """q times the 24th power of the full Euler product."""
    acc = [1]
    base = oracle_euler_product(n_factors)
    for _ in range(24):
        acc = poly_mul(acc, base)
    return [0] + acc


def oracle_pentagonal_signs(order):
    """Support/sign table of the Euler function from the pentagonal rule."""
    table = {0: 1}
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > order and g2 > order:
            break
        sign = (-1) ** j
        if g1 <= order:
            table[g1] = sign
        if g2 <= order:
            table[g2] = sign
        j += 1
    return table


# -- q-integers, factorials, binomials ------------------------------------------

def test_q_int_values():
    assert q_int(0) == ZERO
    assert q_int(3) == Scalar.from_q_coeffs([1, 1, 1])
    for k in range(1, 31):
        assert q_int(k) == (ONE - Q ** k) / (ONE - Q)


def test_q_int_is_q_adic_unit():
    for k in range(1, 11):
        exp = QSeries.from_scalar(q_int(k), 5).coeffs
        assert exp[0] == 1


def test_q_int_at_one():
    for k in range(31):
        assert q_int(k).eval_s(1) == k


def test_q_fact_base():
    assert q_fact(0) == ONE
    assert q_fact(3) == Scalar.from_q_coeffs([1, 2, 2, 1])


def test_q_binom_frozen_and_integral():
    assert q_binom(4, 2) == Scalar.from_q_coeffs([1, 1, 2, 1, 1])
    for n in range(13):
        for k in range(n + 1):
            assert membership(q_binom(n, k)).in_Z_q


def test_q_binom_symmetry_and_pascal():
    for n in range(1, 13):
        for k in range(n + 1):
            assert q_binom(n, k) == q_binom(n, n - k)
            if 1 <= k:
                pascal = q_binom(n - 1, k - 1) if k - 1 <= n - 1 else ZERO
                if k <= n - 1:
                    pascal = pascal + Q ** k * q_binom(n - 1, k)
                assert q_binom(n, k) == pascal


def test_q_binom_range_check():
    with pytest.raises(ValueError):
        q_binom(3, 5)


@pytest.mark.parametrize("call, error, reason", [
    (lambda: q_fact(-1), ValueError, "index must be >= 0"),
    (lambda: QSeries(5, (1,)).shift(-1), ValueError, "nonnegative power"),
    (lambda: poch_finite(-1, 5), ValueError, "length must be >= 0"),
    (lambda: euler_phi(0), ValueError, "q-order must be >= 1"),
    (lambda: discriminant(0), ValueError, "q-order must be >= 1"),
    (lambda: QSeries.from_scalar(ONE / Q, 5), ZeroDivisionError, "pole at q = 0"),
], ids=["q_fact", "shift", "poch_finite", "euler_phi", "discriminant", "from_scalar"])
def test_guards_refuse_what_has_no_value(call, error, reason):
    with pytest.raises(error, match=reason):
        call()


# -- Pochhammer symbols -----------------------------------------------------------

def test_poch_empty():
    P = poch_finite(0, 4)
    assert P == (QSeries(4, (1,)),)


def test_poch_two_by_hand():
    # (1 - t)(1 - tq) = 1 - t(1+q) + t^2 q
    P = poch_finite(2, 4)
    assert P[0] == QSeries(4, (1,))
    assert P[1] == QSeries(4, (-1, -1))
    assert P[2] == QSeries(4, (0, 1))


def test_poch_recursion():
    # (t;q)_(n+1) = (t;q)_n * (1 - t q^n), the product taken coefficient
    # by coefficient in (t, q) with the brute-force oracle
    for n in range(11):
        lhs = poch_finite(n + 1, 12)
        rows = [[int(c) for c in r.coeffs] for r in poch_finite(n, 12)]
        step = [[1], [0] * n + [-1]]
        rhs = [[0] * 13 for _ in range(n + 2)]
        for i, a in enumerate(rows):
            for j, b in enumerate(step):
                for k, c in enumerate(poly_mul(a, b)[:13]):
                    rhs[i + j][k] += c
        assert lhs == tuple(QSeries(12, r) for r in rhs)


def test_infinite_product_linear_coefficient():
    P = poch_inf_product(2, 4)
    assert P[1] == QSeries(4, (-1, -1, -1, -1, -1))


def test_sum_route_first_terms():
    Ssum = poch_inf_sum(2, 6)
    assert Ssum[0] == QSeries(6, (1,))
    assert Ssum[1] == QSeries(6, (-1,) * 7)


def test_sum_equals_product():
    assert poch_inf_sum(8, 30) == poch_inf_product(8, 30)


def test_infinite_product_rows_past_the_truncation_are_zero():
    # the t^k row starts at q^(k(k-1)/2), so at q-order 1000 the rows
    # t^0 .. t^45 are the nonzero ones (45*44/2 = 990 < 1035 = 46*45/2)
    P = poch_inf_product(128, 1000)
    assert P == poch_inf_product(46, 1000) + (QSeries(1000),) * 82
    assert P[45] != QSeries(1000) and P[45].coeffs[990] == -1
    # the uncut product of the same factors, 1 - t*q^k for k <= q-order
    for nt, nq in ((8, 20), (12, 10), (3, 0)):
        uncut = poch_finite(nq + 1, nq) + (QSeries(nq),) * nt
        assert poch_inf_product(nt, nq) == uncut[:nt + 1]


# -- Euler function and discriminant ------------------------------------------------

def test_euler_phi_frozen_to_15():
    assert euler_phi(15) == QSeries(
        15, (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1))


def test_euler_phi_constant_term():
    assert euler_phi(8)[0] == 1


def test_euler_phi_matches_full_product_oracle():
    full = oracle_euler_product(30)
    assert euler_phi(30) == QSeries(30, full[:31])


def test_euler_phi_pentagonal_pattern():
    phi = euler_phi(30)
    table = oracle_pentagonal_signs(30)
    for k, c in enumerate(phi.coeffs):
        assert c == table.get(k, 0), f"degree {k}"


def test_euler_phi_from_pochhammer_shift():
    # (q; q)_infinity = (t; q)_infinity at t = q
    nq = 30
    nt = 8  # degrees beyond this cannot reach q-order 30 after the shift
    P = poch_inf_product(nt, nq)
    acc = QSeries(nq)
    for k in range(nt + 1):
        acc = acc + P[k].shift(k)
    assert acc == euler_phi(nq)


def test_discriminant_frozen_coefficients():
    d = discriminant(12)
    assert d[1] == 1
    assert [int(d[k]) for k in range(2, 7)] == [-24, 252, -1472, 4830, -6048]


def test_discriminant_matches_brute_force_oracle():
    oracle = oracle_discriminant(12)
    assert discriminant(12) == QSeries(12, oracle[:13])


def test_discriminant_multiplicativity_spot_check():
    d = discriminant(12)
    assert d[6] == d[2] * d[3]
    assert d[10] == d[2] * d[5]


# -- structural oracles for the discriminant at high order ---------------------------

@pytest.fixture(scope="module")
def tau():
    """tau(0..1000), read off discriminant(1000) (the Jacobi route)."""
    return discriminant(1000).coeffs


def primes_up_to(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def test_discriminant_jacobi_route_equals_pentagonal_route():
    # discriminant() squares Jacobi's phi^3 three times; euler_phi is the
    # pentagonal product, raised to the 24th power here
    assert discriminant(300) == QSeries(300, (0,) + (euler_phi(300) ** 24).coeffs)


def test_tau_multiplicative_on_coprime_indices(tau):
    for m in range(2, 1001):
        for n in range(m + 1, 1000 // m + 1):
            if gcd(m, n) == 1:
                assert tau[m * n] == tau[m] * tau[n], (m, n)


def test_tau_hecke_recursion_at_prime_powers(tau):
    # tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1)), every p^(k+1) <= 1000
    checked = 0
    for p in primes_up_to(1000):
        k = 1
        while p ** (k + 1) <= 1000:
            assert tau[p ** (k + 1)] == \
                tau[p] * tau[p ** k] - p ** 11 * tau[p ** (k - 1)], (p, k)
            checked += 1
            k += 1
    assert checked == 25
