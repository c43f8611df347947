"""q-combinatorics against independent brute-force oracles.

The oracles below use plain integer coefficient lists and full
polynomial products (no series shortcuts, no truncation until the end);
expected values in the frozen assertions were produced by running these
oracles first.
"""

import random
from fractions import Fraction
from math import comb, factorial, gcd, log2
from operator import add, mul

import pytest

import qfgl.qcomb
from qfgl import (
    Scalar, ZERO, ONE, Q, membership, Series,
    QSeries, q_int, q_fact, q_binom,
    poch_finite, poch_inf_product, poch_inf_sum,
    euler_phi, discriminant,
)
from qfgl.qcomb import _row_product, _row_width


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


def _schoolbook_quotient(a, d, order):
    """a / d to q^order, one coefficient at a time over every earlier one."""
    a = list(a) + [0] * (order + 1 - len(a))
    d = list(d) + [0] * (order + 1 - len(d))
    out = []
    for k in range(order + 1):
        out.append((a[k] - sum(d[i] * out[k - i] for i in range(1, k + 1))) / Fraction(d[0]))
    return out


@pytest.mark.parametrize("divisor", [
    (1, -3, 0, 0, 0),                   # trailing zeros: the dot stops at q^1
    (3, 0, 2, 0, 0, 0, 0, 0),
    (Fraction(-2, 5),),                 # a constant divides every coefficient alone
    (7,),
    tuple(range(1, 40)),                # longer than the quotient's order
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5),
], ids=["trailing zeros", "even trailing zeros", "fraction constant", "int constant",
        "longer than the order", "last term past the order"])
def test_qseries_quotient_equals_the_schoolbook_loop(divisor):
    rng = random.Random(1729)
    for order in (0, 1, 2, 5, 20):
        a = _random_qseries(rng, order)
        got = a / QSeries(max(order, len(divisor) - 1), divisor)
        assert got.order == order
        assert list(got.coeffs) == _schoolbook_quotient(a.coeffs, divisor[: order + 1], order)


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


def _q_fact_by_products(k: int) -> Scalar:
    """Oracle of ``q_fact``: [k]_q! as the product of the Scalars
    q_int(1) .. q_int(k), each product a full Scalar multiply and
    canonicalisation, with no integer row and no running sum."""
    acc = ONE
    for i in range(1, k + 1):
        acc = acc * q_int(i)
    return acc


def test_q_fact_equals_the_product_of_q_integers():
    for k in range(41):
        assert q_fact(k) == _q_fact_by_products(k), k


def test_q_fact_row_is_integral_palindromic_of_degree_k_choose_2():
    for k in range(41):
        f, deg = q_fact(k), k * (k - 1) // 2
        assert f.den == (1,) and f.num[1] == 1, k
        series = QSeries.from_scalar(f, deg + 2)
        assert series.is_integral(), k
        row = series.coeffs
        assert row[deg] != 0 and row[deg + 1:] == (0, 0), k
        assert row[: deg + 1] == row[deg::-1], k
        assert f.eval_s(1) == factorial(k), k


def test_q_fact_runs_no_scalar_product_and_one_from_q_coeffs(monkeypatch):
    calls = []
    mul_, make = Scalar.__mul__, Scalar.from_q_coeffs
    monkeypatch.setattr(Scalar, "__mul__", lambda a, b: calls.append("*") or mul_(a, b))
    monkeypatch.setattr(Scalar, "from_q_coeffs",
                        staticmethod(lambda c: calls.append("from_q_coeffs") or make(c)))
    f = q_fact(20)
    assert calls == ["from_q_coeffs"]
    assert f == _q_fact_by_products(20)


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


def _euler_term(k: int, n: int) -> QSeries:
    """The t^k row of (t; q)_infinity expanded from the Scalar closed form
    (-1)^k q^(k(k-1)/2) / ([k]_q! (1-q)^k), its factorial built afresh as a
    product of q-integer Scalars (``_q_fact_by_products``).  ``q_fact``
    builds it by a running sum at stride i, the idiom ``poch_inf_sum``
    runs at stride k, so an error in that idiom could appear on both
    sides of the comparison; the products share none of it."""
    term = Scalar.from_int((-1) ** k) * Q ** (k * (k - 1) // 2) / (
        _q_fact_by_products(k) * (ONE - Q) ** k)
    return QSeries.from_scalar(term, n)


def test_sum_rows_match_the_euler_term_built_per_row():
    # Euler's recurrence on integer lists against the per-row closed form
    for n in (0, 1, 2, 7, 40, 200):
        terms = [_euler_term(k, n) for k in range(21)]
        for t in range(21):
            rows = poch_inf_sum(t, n)
            assert rows == tuple(terms[: t + 1]), (t, n)
        for k, row in enumerate(rows):
            assert row.is_integral(), (k, n)
            v = k * (k - 1) // 2
            # the row starts at q^(k(k-1)/2) with (-1)^k, and is zero once that passes n
            assert row.coeffs[:min(v, n + 1)] == (0,) * min(v, n + 1)
            assert row.coeffs[v:v + 1] == (() if v > n else ((-1) ** k,)), (k, n)


def test_sum_route_runs_no_scalar_no_division_and_no_row_kernel(monkeypatch):
    calls = []

    def recorder(owner, name):
        f = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or f(*a, **k))

    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__"):
        recorder(Scalar, name)
    recorder(Series, "__truediv__")
    recorder(qfgl.qcomb, "_row_product")
    recorder(QSeries, "from_scalar")
    rows = poch_inf_sum(12, 80)
    assert calls == []
    assert rows == poch_inf_product(12, 80)


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


# -- (t, q) row products: packed rows against the list kernel -------------------------

def _list_row_product(t_order, q_order, factors):
    """The list kernel the packed rows replaced, kept as their oracle: one
    list of q-coefficients per t-degree, and each factor's t^i term
    binom(m, i) c^i q^(n*i) added to row j from row j - i, j walking down."""
    rows = [[1] + [0] * q_order] + [[0] * (q_order + 1) for _ in range(t_order)]
    for n, c, m in factors:
        terms = [1]
        for i in range(1, t_order + 1):
            b = terms[-1] * (m - i + 1) * c // i
            if not b or n * i > q_order:
                break
            terms.append(b)
        for j in range(t_order, 0, -1):
            for i in range(1, min(j + 1, len(terms))):
                s = n * i
                rows[j][s:] = map(add, rows[j][s:],
                                  [terms[i] * x for x in rows[j - i][: q_order + 1 - s]])
    return tuple(QSeries(q_order, r) for r in rows)


def test_row_product_equals_the_list_kernel():
    rng = random.Random(1729)
    cs = (1, -1, 2, -2, 3, 24, 10 ** 6)
    for _ in range(1500):
        t_order, q_order = rng.randint(0, 9), rng.randint(0, 90)
        factors = []
        for _ in range(rng.randint(0, 6)):
            m = rng.choice((1, -1, 2, 7, 40, -40, 2 ** rng.randint(3, 70), -10 ** 30))
            factors.append((rng.randint(0, q_order + 3), rng.choice(cs), m))
        assert (_row_product(t_order, q_order, factors)
                == _list_row_product(t_order, q_order, factors)), (t_order, q_order, factors)


def _closed_form_bits(t_order, factors):
    big_m = sum(abs(m) for _, _, m in factors)
    big_c = max(abs(c) for _, c, _ in factors)
    return (comb(big_m + t_order, t_order) * big_c ** t_order).bit_length()


def test_row_width_closed_form():
    # at n = 0 the Cauchy bound P(1, r) = 3^(10^30) is useless, and
    # comb(M + T, T) C^T is within one percent of binom(M, T) C^T
    t_order, q_order, factors = 9, 20, [(0, 2, 10 ** 30), (3, -1, 1)]
    w = _row_width(t_order, q_order, factors)
    assert w == (_closed_form_bits(t_order, factors) + 8) & -8
    got = _row_product(t_order, q_order, factors)
    assert got == _list_row_product(t_order, q_order, factors)
    assert max(abs(c) for r in got for c in r.coeffs).bit_length() > w - 9


def test_row_width_cauchy_near_one():
    # (t; q)_infinity: any r <= 1/2 pays r^-q_order >= 2^300, so a width
    # below 300 bits, and below the closed form, comes from r near 1
    t_order, q_order = 24, 300
    factors = [(n, -1, 1) for n in range(q_order + 1)]
    w = _row_width(t_order, q_order, factors)
    assert w < min(300, _closed_form_bits(t_order, factors) // 2)
    assert _row_product(t_order, q_order, factors) == poch_inf_product(t_order, q_order)
    assert poch_inf_product(t_order, q_order) == _list_row_product(t_order, q_order, factors)


def test_row_width_cauchy_below_one_half():
    # lambda_t(1/(1-3q)): every r >= 1/2 has P(1, r) >= P(1, 1/2), so a
    # width below log2 P(1, 1/2) comes from r < 1/2
    t_order, q_order = 10, 60
    factors = [(n, 1, 3 ** n) for n in range(q_order + 1)]
    w = _row_width(t_order, q_order, factors)
    at_half = sum(m * log2(1 + 2.0 ** -n) for n, _, m in factors)
    assert w < min(at_half, _closed_form_bits(t_order, factors) // 4)
    assert _row_product(t_order, q_order, factors) == _list_row_product(t_order, q_order, factors)


def test_row_width_survives_ints_too_large_for_a_float():
    factors = [(1, 10 ** 400, 1), (2, 1, 10 ** 400), (0, 1, -1)]
    assert _row_product(3, 5, factors) == _list_row_product(3, 5, factors)


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
