"""Adams operations, the total lambda operation, Witt elements, and the
closed forms they pin down."""

from fractions import Fraction

import pytest

import qfgl.lambda_ring
from qfgl import (
    Scalar, ZERO, ONE, Q, S, Series,
    QSeries, q_int, q_binom, euler_phi, poch_inf_product,
    poch_inf_sum, adams, lambda_t, negate_t, witt_add,
    newton_adams_from_lambda, lambda_k_closed, elementary_symmetric_oracle,
    thom_class, discriminant_limit,
)

from conftest import _q_fact_by_products, random_scalar, random_virtual_rep


def geom():
    return ONE / (ONE - Q)


# -- Adams operations -----------------------------------------------------------

def test_adams_on_q():
    assert adams(Q, 3) == Q ** 3


def test_adams_identity():
    a = (ONE + Q) / (ONE - Q ** 3)
    assert adams(a, 1) == a


def test_adams_on_geometric_series():
    for k in range(1, 11):
        assert adams(geom(), k) == ONE / (ONE - Q ** k)


def test_adams_requires_q():
    with pytest.raises(ValueError):
        adams(S, 2)


def test_adams_ring_homomorphism(rng):
    for _ in range(50):
        a = random_scalar(rng)
        b = random_scalar(rng)
        k = rng.randint(1, 6)
        assert adams(a * b, k) == adams(a, k) * adams(b, k)
        assert adams(a + b, k) == adams(a, k) + adams(b, k)


def test_adams_compose(rng):
    for _ in range(20):
        a = random_scalar(rng)
        j = rng.randint(1, 6)
        k = rng.randint(1, 6)
        assert adams(adams(a, k), j) == adams(a, j * k)


# -- the total lambda operation ----------------------------------------------------

def test_lambda_of_a_line():
    w = lambda_t(Scalar.q_power(3), 4, 12)
    assert w[0] == QSeries(12, (1,))
    assert w[1] == QSeries(12, (0, 0, 0, 1))
    assert not any(w[2].coeffs)


def test_lambda_of_zero():
    w = lambda_t(ZERO, 4, 8)
    assert w[0] == QSeries(8, (1,))
    assert not any(any(w[k].coeffs) for k in range(1, 5))


def test_lambda_of_a_constant_is_a_binomial_row_by_row():
    # lambda_t(m) = (1 + t)^m: every row is the constant binom(m, k); the
    # rows' nonzero support stays at q-degree 0 however wide the rows are
    for m in (24, 3, -5):
        w = lambda_t(Scalar.from_int(m), 24, 100)
        binom = 1
        for k in range(25):
            assert w[k] == QSeries(100, (binom,)), (m, k)
            binom = binom * (m - k) // (k + 1)


def test_lambda_needs_integral_expansion():
    with pytest.raises(ValueError):
        lambda_t(Scalar.from_fraction(Fraction(1, 2)), 3, 6)


@pytest.mark.parametrize("call", [
    lambda: elementary_symmetric_oracle(-1, 5),
    lambda: lambda_k_closed(0, 5),
], ids=["elementary_symmetric_oracle", "lambda_k_closed"])
def test_indices_out_of_range_are_refused(call):
    with pytest.raises(ValueError, match="index must be >= "):
        call()


def test_lambda_of_geometric_is_pochhammer():
    w = negate_t(lambda_t(geom(), 8, 30))
    P = poch_inf_product(8, 30)
    for k in range(9):
        assert w[k] == P[k]


def test_lambda_route_closes_triangle_with_sum_form():
    w = negate_t(lambda_t(geom(), 8, 30))
    Ssum = poch_inf_sum(8, 30)
    for k in range(9):
        assert w[k] == Ssum[k]


def test_lambda_additive_on_two_lines():
    nq = 12
    wa = lambda_t(Q, 4, nq)
    wb = lambda_t(Q ** 2, 4, nq)
    ws = lambda_t(Q + Q ** 2, 4, nq)
    assert witt_add(wa, wb) == ws
    # ghosts add as well, all four of them
    ghosts = [newton_adams_from_lambda(w) for w in (witt_add(wa, wb), wa, wb)]
    assert len(ghosts[0]) == 4
    for ghost_sum, ghost_a, ghost_b in zip(*ghosts):
        assert ghost_sum == ghost_a + ghost_b


def test_lambda_additivity_random(rng):
    nt, nq = 6, 20
    for _ in range(50):
        a = Scalar.from_q_coeffs(random_virtual_rep(rng))
        b = Scalar.from_q_coeffs(random_virtual_rep(rng))
        lhs = witt_add(lambda_t(a, nt, nq), lambda_t(b, nt, nq))
        rhs = lambda_t(a + b, nt, nq)
        for k in range(nt + 1):
            assert lhs[k] == rhs[k]


def lambda_t_series_oracle(a, t_order, q_order):
    """prod_n (1 + t q^n)^(a_n) as a product of Series over Scalar.

    Shares no code with the integer row kernel of ``lambda_t``: each
    factor is an exact t-series, and a negative a_n takes the series
    inverse 1/(1 + t q^n).  The result is exact, not reduced mod q.
    """
    one = Series.constant(t_order, ONE)
    acc = one
    for n, c in enumerate(QSeries.from_scalar(a, q_order).coeffs):
        m = int(c)
        if m == 0:
            continue
        base = Series(t_order, (ONE, Scalar.q_power(n)))
        if m < 0:
            base, m = one / base, -m
        acc = acc * base ** m
    return acc


def ghost_log_derivative_oracle(body, q_order):
    """psi^1..psi^N of an exact t-series body of order N, as -t u'/u.

    The oracle of the Newton loop behind ``newton_adams_from_lambda``:
    u = body(-t), and u'/u is one ``Series`` division over Scalar, exact
    and not reduced mod q; only the results are expanded to q_order.
    """
    u = Series(body.order, [c if k % 2 == 0 else -c
                            for k, c in enumerate(body.coeffs)])
    g = u.deriv() / u.truncate(max(u.order - 1, 0))
    return [QSeries.from_scalar(-g[k - 1], q_order)
            for k in range(1, body.order + 1)]


def assert_matches_series_oracle(a, nt, nq):
    w = lambda_t(a, nt, nq)
    body = lambda_t_series_oracle(a, nt, nq)
    for k in range(nt + 1):
        assert w[k] == QSeries.from_scalar(body[k], nq), (str(a), nt, nq, k)
    assert newton_adams_from_lambda(w) == ghost_log_derivative_oracle(body, nq)


def test_lambda_row_kernel_matches_series_oracle_random(rng):
    negative = 0
    for _ in range(20):
        rep = random_virtual_rep(rng)
        negative += any(c < 0 for c in rep.values())
        assert_matches_series_oracle(Scalar.from_q_coeffs(rep), 6, 20)
    assert negative > 0  # the division branch was exercised


def test_lambda_row_kernel_matches_series_oracle_cli_elements():
    elements = (geom(), ONE + Q, Scalar.from_int(2) * Q, q_int(3))
    for a in elements:
        for nt in (2, 4, 6):
            for nq in (10, 20, 30):
                assert_matches_series_oracle(a, nt, nq)
        assert_matches_series_oracle(a, 8, 60)


def test_lambda_row_kernel_matches_series_oracle_large_multiplicity():
    # multiplicities beyond the t-order take one binomial pass each
    for rep in ({0: 100000}, {1: -9, 2: 12, 5: -40}, {0: -7, 3: 25}):
        assert_matches_series_oracle(Scalar.from_q_coeffs(rep), 6, 20)


def test_witt_unit_and_negation():
    w = lambda_t(Q + Q ** 3, 5, 15)
    unit = lambda_t(ZERO, 5, 15)
    assert witt_add(w, unit) == w
    assert witt_add(w, lambda_t(-(Q + Q ** 3), 5, 15)) == unit


def test_witt_element_is_its_rows():
    # lambda_t returns what poch_inf_product returns: one (t, q)-truncation
    # type, a tuple of t_order + 1 QSeries at the q-order
    w, P = lambda_t(ONE + Q, 3, 8), poch_inf_product(3, 8)
    assert type(w) is type(P) is tuple
    assert len(w) == len(P) == 4
    assert all(type(r) is QSeries and r.order == 8 for r in w + P)


def test_witt_neg_is_lambda_of_the_negative(rng):
    for _ in range(20):
        a = Scalar.from_q_coeffs(random_virtual_rep(rng))
        total = witt_add(lambda_t(a, 6, 20), lambda_t(-a, 6, 20))
        assert total == lambda_t(ZERO, 6, 20)


# -- Newton extraction of Adams operations ---------------------------------------------

def test_newton_single_line():
    m = 2
    w = lambda_t(Scalar.q_power(m), 6, 20)
    psis = newton_adams_from_lambda(w)
    for k, psi in enumerate(psis, start=1):
        assert psi == QSeries.from_scalar(Scalar.q_power(m * k), 20)


def test_newton_two_lines_by_hand():
    # a = 1 + q: lambda_t = (1+t)(1+tq), psi^2 = 1 + q^2
    w = lambda_t(ONE + Q, 4, 16)
    psis = newton_adams_from_lambda(w)
    assert psis[1] == QSeries.from_scalar(ONE + Q ** 2, 16)


def test_newton_matches_adams_on_geometric():
    w = lambda_t(geom(), 10, 30)
    psis = newton_adams_from_lambda(w)
    for k, psi in enumerate(psis, start=1):
        assert psi == QSeries.from_scalar(ONE / (ONE - Q ** k), 30)


def test_newton_matches_adams_random(rng):
    nt, nq = 6, 20
    for _ in range(50):
        a = Scalar.from_q_coeffs(random_virtual_rep(rng))
        w = lambda_t(a, nt, nq)
        psis = newton_adams_from_lambda(w)
        for k, psi in enumerate(psis, start=1):
            assert psi == QSeries.from_scalar(adams(a, k), nq)


def test_ghost_range_check():
    w = lambda_t(Q, 3, 6)
    assert len(newton_adams_from_lambda(w)) == 3


# -- the closed form of lambda^k of the geometric series ----------------------------------

def test_oracle_is_elementary_symmetric():
    # e_1 = 1 + q + q^2 + ..., e_2 = q * prod of two geometric factors
    e0, e1, e2 = elementary_symmetric_oracle(2, 20)
    assert e0 == QSeries(20, (1,))
    assert e1 == QSeries.from_scalar(geom(), 20)
    expected = Q / ((ONE - Q) * (ONE - Q ** 2))
    assert e2 == QSeries.from_scalar(expected, 20)


def test_oracle_is_a_shifted_gaussian_binomial():
    # e_k(1, q, ..., q^N) = q^(k(k-1)/2) [N+1 choose k]_q, zero for k > N + 1
    for N in (0, 1, 5, 20, 40, 57):
        rows = elementary_symmetric_oracle(9, N)
        assert len(rows) == 10
        for k, row in enumerate(rows):
            expected = Q ** (k * (k - 1) // 2) * q_binom(N + 1, k) if k <= N + 1 else ZERO
            assert row == QSeries.from_scalar(expected, N)


def test_lambda_k_exponent_variants_differ_at_k_1():
    # the corrected form is the Euler term of poch_inf_sum, the printed one
    # that term times q^k
    corrected = negate_t(poch_inf_sum(1, 20))[1]
    assert corrected == QSeries.from_scalar(ONE / (ONE - Q), 20)
    assert corrected.shift(1) == QSeries.from_scalar(Q / (ONE - Q), 20)
    assert elementary_symmetric_oracle(1, 20)[1] == corrected
    selects, disagrees = lambda_k_closed(1, 20).checks
    assert selects.passed
    assert disagrees.passed and disagrees.detail == "first difference at q^0: 0 != 1"


def test_lambda_k_adjudication():
    checks = lambda_k_closed(8, 20).checks
    assert len(checks) == 16
    for k in range(1, 9):
        selects, disagrees = checks[2 * k - 2: 2 * k]
        # the Witt route, the oracle and the corrected closed form agree
        assert selects.name == f"k={k}: all routes select the exponent binom(k,2)"
        assert selects.passed, selects.detail
        # the printed exponent k(k+1)/2 never coincides with binom(k,2): it
        # misses the lowest term q^(k(k-1)/2) of the oracle
        assert disagrees.name == f"k={k}: the k(k+1)/2 exponent variant disagrees"
        assert disagrees.passed
        assert disagrees.detail == f"first difference at q^{k * (k - 1) // 2}: 0 != 1"


def test_lambda_k_printed_variant_is_the_printed_closed_form(monkeypatch):
    # the "disagrees" check passes for any series other than the corrected
    # one, so pin its first route, term by term, to the printed exponent; the
    # closed form's factorial is the product oracle, since q_fact divides by
    # 1 - q through _over_one_minus, as poch_inf_sum's printed variant does
    routes, compare = {}, qfgl.lambda_ring.compare

    def recorder(name, order, *values, **kwargs):
        routes[name] = values
        return compare(name, order, *values, **kwargs)

    monkeypatch.setattr(qfgl.lambda_ring, "compare", recorder)
    assert lambda_k_closed(8, 10).all_passed
    for k in range(1, 9):
        printed = routes[f"k={k}: the k(k+1)/2 exponent variant disagrees"][0]
        closed = Q ** (k * (k + 1) // 2) / (_q_fact_by_products(k) * (ONE - Q) ** k)
        assert printed.order == max(10, k * (k + 1) // 2 + 2)
        assert printed == QSeries.from_scalar(closed, printed.order), k


def test_lambda_k_route_equality_k3():
    w = lambda_t(geom(), 3, 20)
    assert w[3] == elementary_symmetric_oracle(3, 20)[3]


# -- Thom class and the discriminant limit ----------------------------------------------

def test_thom_class_is_euler_function():
    assert thom_class(30) == euler_phi(30)


def test_thom_class_unit():
    t = thom_class(12)
    assert t[0] == 1
    assert t * t ** -1 == QSeries(12, (1,))


def test_discriminant_limit_adjudication():
    rep = discriminant_limit(12)
    assert rep.all_passed
    by_name = {c.name: c.detail for c in rep.checks}
    assert by_name["Moebius step: matrix applied to q equals 24/(1-q)"] is None
    assert by_name["expansion coefficients all equal 24"] is None
    assert by_name["reading (a): direct t = 1 vanishes identically"] is None
    # reading (a) does not match: it vanishes, and the discriminant starts at q
    assert (by_name["reading (a) matches the discriminant (expected not to match)"]
            == "first difference at q^1: 0 != 1")
    assert by_name["reading (b): q * (dropped-factor product at t = 1) "
                   "equals the discriminant"] is None
