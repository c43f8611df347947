"""Truncated series arithmetic, composition, reversion, log/exp, powers."""

from fractions import Fraction
from itertools import product

import pytest

from qfgl import (
    Scalar, ZERO, ONE, Q, S,
    Series, BiSeries, QSeries, compose, reverse, log1, exp0,
)
from qfgl.scalar import _power

from conftest import (
    random_series, random_zero_constant_series, random_reversible_series,
    random_q_poly, random_qseries,
)


def T(order):
    return Series.generator(order)


def one_series(order):
    return Series.constant(order, ONE)


def test_basic_unit_series_expansion():
    # (1 - qT)/(1 - T) = 1 + (1-q)T + (1-q)T^2 + ...
    num = Series(3, (ONE, -Q))
    den = Series(3, (ONE, -ONE))
    f = num / den
    assert f[0] == ONE
    for k in (1, 2, 3):
        assert f[k] == ONE - Q


def test_mul_unit():
    f = Series(5, [Q, ONE, Q + ONE, ZERO, Q ** 2, ONE])
    assert f * one_series(5) == f


# One kernel serves both coefficient rings: Scalars of Q(s) in Series,
# exact rationals (int where integral) in QSeries.
RINGS = {
    "Series": lambda rng: random_series(rng, order=8),
    "QSeries-int": lambda rng: random_qseries(rng, order=8),
    "QSeries-rational": lambda rng: random_qseries(rng, order=8, rational=True),
}
over_rings = pytest.mark.parametrize("make", list(RINGS.values()), ids=list(RINGS))


def no_floats(f):
    return not any(isinstance(c, float) for c in f.coeffs)


@over_rings
def test_ring_axioms_random(rng, make):
    for _ in range(50):
        f, g, h = make(rng), make(rng), make(rng)
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert (f - g) + g == f
        assert f ** 3 == f * f * f
        for r in (f + g, f - g, -f, f * g, f ** 3):
            assert type(r) is type(f) and no_floats(r)


@over_rings
def test_division_round_trip(rng, make):
    for _ in range(50):
        f, g = make(rng), make(rng)
        if not g.constant_term():
            continue
        h = f / g
        assert h * g == f
        assert type(h) is type(f) and no_floats(h)


NON_UNITS = {
    "Series": (one_series(4), T(4)),
    "QSeries": (QSeries(4, (1,)), QSeries(4, (0, 1))),
}


@pytest.mark.parametrize("one, non_unit", list(NON_UNITS.values()), ids=list(NON_UNITS))
def test_division_requires_unit(one, non_unit):
    with pytest.raises(ZeroDivisionError):
        one / non_unit
    with pytest.raises(ZeroDivisionError):
        non_unit ** -1


@pytest.mark.parametrize("call, error", [
    (lambda: Series(-1), ValueError),
    (lambda: Series(3, (ONE,))[4], IndexError),
    (lambda: Series(2, ("x",)), TypeError),
    (lambda: BiSeries(2, -3), ValueError),
    (lambda: BiSeries(0, 3), ValueError),
    (lambda: BiSeries(2, 4, {(-1, 2): ONE}), ValueError),
    (lambda: BiSeries(2, 4, {(1, 0, 0): ONE}), ValueError),
    (lambda: BiSeries(2, 4, {(1, 0): ONE}).coeff(1), ValueError),
], ids=["negative order", "past the order", "foreign coefficient",
        "multivariate negative order", "multivariate no variables", "negative exponent",
        "exponents of another arity", "coefficient of another arity"])
def test_guards_refuse_what_has_no_value(call, error):
    with pytest.raises(error):
        call()


def test_a_fraction_coefficient_becomes_a_scalar():
    assert Series(2, (Fraction(1, 2),))[0] == Scalar.from_fraction(Fraction(1, 2))


@pytest.mark.parametrize("value", [one_series(2), QSeries(2, (1,)), BiSeries.constant(2, 2, ONE)],
                         ids=["Series", "QSeries", "BiSeries"])
def test_comparison_with_an_int_is_false(value):
    assert not value == 3 and value != 3


def test_integral_qseries_keep_int_storage(rng):
    for _ in range(20):
        f, g = random_qseries(rng), random_qseries(rng)
        unit = QSeries(8, (rng.choice((1, -1)),) + g.coeffs[1:])
        results = (f + g, f - g, -f, f * g, f ** 3, unit ** -2, unit ** -1,
                   f / unit, f.scale(-3), f.shift(2), f.truncate(5))
        for r in results:
            assert r.is_integral()


def test_truncate_coerces_only_what_it_keeps(monkeypatch):
    f = Series(300, [Scalar.from_int(k) for k in range(301)])
    seen = []
    monkeypatch.setattr(Series, "_coerce",
                        staticmethod(lambda c: seen.append(c) or c))
    g = f.truncate(3)
    assert len(seen) <= 4
    assert g.order == 3 and g.coeffs == f.coeffs[:4]


def test_qseries_storage_is_exact():
    assert not QSeries(2, (1, Fraction(1, 2))).is_integral()
    assert QSeries(2, (Fraction(4, 2), 1.5)).coeffs == (2, Fraction(3, 2), 0)
    assert type(QSeries(2, (Fraction(4, 2),)).coeffs[0]) is int
    r = QSeries(3, (2, 1)) ** -1
    assert r.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8),
                        Fraction(-1, 16))
    assert all(type(c) is Fraction for c in r.coeffs)
    assert r * QSeries(3, (2, 1)) == QSeries(3, (1,))


def test_zeroth_power_is_one():
    assert Q ** 0 == ONE and ZERO ** 0 == ONE
    assert Series(4, (Q, ONE)) ** 0 == one_series(4)
    assert QSeries(4, (0, 3)) ** 0 == QSeries(4, (1,))
    B = BiSeries(2, 4, {(1, 0): ONE, (0, 1): Q})
    assert B ** 0 == BiSeries.constant(2, 4, ONE)
    assert B ** 2 == B * B
    with pytest.raises(ValueError):
        B ** -1


def test_power_skips_the_unused_square():
    class Counted(int):
        products = 0

        def __mul__(self, other):
            Counted.products += 1
            return Counted(int(self) * int(other))

    assert _power(Counted(3), 3, Counted(1)) == 27
    assert Counted.products == 3            # x, x^2, x^3: no x^4
    assert _power(Counted(2), 10, Counted(1)) == 1024
    assert Scalar.from_int(2) ** -3 == Scalar.from_fraction(Fraction(1, 8))


def test_mismatched_variables_raise():
    # the class fixes the variable (T for Series, q for QSeries), and a
    # BiSeries its number of variables
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        with pytest.raises(ValueError):
            getattr(one_series(4), op)(QSeries(4, (1,)))
        with pytest.raises(ValueError):
            getattr(QSeries(4, (1,)), op)(one_series(4))
    for op in ("__add__", "__sub__", "__mul__"):
        with pytest.raises(ValueError):
            getattr(BiSeries.constant(2, 4, ONE), op)(BiSeries.constant(3, 4, ONE))


# -- composition ---------------------------------------------------------------

def test_compose_identity():
    f = Series(6, [ONE, Q, ZERO, ONE + Q, ZERO, Q ** 3, ONE])
    assert compose(f, T(6)) == f


def test_compose_mobius_pair():
    # T/(1-T) and T/(1+T) are inverse fractional-linear actions
    f = T(8) / Series(8, (ONE, -ONE))
    g = T(8) / Series(8, (ONE, ONE))
    assert compose(f, g) == T(8)
    assert compose(g, f) == T(8)


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError):
        compose(T(4), one_series(4))


def test_exp_log_classical_composition():
    # exp(log(1+T)) - 1 = T to order 10
    one_plus_t = Series(10, (ONE, ONE))
    inner = log1(one_plus_t)
    assert inner.constant_term().is_zero()
    assert compose(exp0(T(10)), inner) - one_series(10) == T(10)


def test_compose_associative_random(rng):
    for _ in range(50):
        f = random_series(rng, order=6)
        g = random_zero_constant_series(rng, order=6)
        h = random_zero_constant_series(rng, order=6)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


# -- reversion -----------------------------------------------------------------

def test_reverse_identity():
    assert reverse(T(8)) == T(8)


def test_reverse_mobius():
    f = T(8) / Series(8, (ONE, -ONE))
    g = T(8) / Series(8, (ONE, ONE))
    assert reverse(f) == g


def test_reverse_round_trip_random(rng):
    for _ in range(50):
        f = random_reversible_series(rng, order=8)
        g = reverse(f)
        assert compose(f, g) == T(8)
        assert compose(g, f) == T(8)


def test_reverse_round_trip_at_every_order(rng):
    # orders 1..17 cover m^2 and m^2 + 1 for the block sizes m = 1..4 of
    # the baby-step giant-step reversion; the linear coefficient is not 1
    for n in range(1, 18):
        f = random_reversible_series(rng, order=n)
        a = Scalar.from_int(rng.choice((-3, -2, 2, 3)))
        f = Series(n, (ZERO, a) + f.coeffs[2:])
        assert compose(f, reverse(f)) == T(n), f"order {n}"


def test_reverse_requires_invertible_linear_term():
    with pytest.raises(ValueError):
        reverse(Series(4, (ZERO, ZERO, ONE)))
    with pytest.raises(ValueError):
        reverse(one_series(4))


# -- log / exp -----------------------------------------------------------------

def test_log_geometric():
    f = one_series(8) / Series(8, (ONE, -ONE))
    lg = log1(f)
    for k in range(1, 9):
        assert lg[k] == Scalar.from_fraction(Fraction(1, k))


def test_exp_of_zero():
    assert exp0(Series(6)) == one_series(6)


def test_log_of_q_ratio():
    # log((1-qT)/(1-T)) = sum (1 - q^k) T^k / k
    num = Series(10, (ONE, -Q))
    den = Series(10, (ONE, -ONE))
    lg = log1(num / den)
    for k in range(1, 11):
        assert lg[k] == (ONE - Q ** k) / Scalar.from_int(k)


def test_exp_log_mutually_inverse_random(rng):
    for _ in range(50):
        u = random_zero_constant_series(rng, order=10)
        assert log1(exp0(u)) == u
        f = u.add_scalar(ONE)
        assert exp0(log1(f)) == f


# -- formal powers ----------------------------------------------------------------

def pow_formal(f, c):
    """f**c for a series with constant term 1 and a scalar c."""
    return exp0(log1(f).scale(c))


def test_pow_integer():
    f = Series(6, (ONE, ONE))
    sq = pow_formal(f, Scalar.from_int(2))
    assert sq == Series(6, (ONE, Scalar.from_int(2), ONE))


def test_pow_zero_exponent():
    f = Series(6, (ONE, Q, ONE))
    assert pow_formal(f, ZERO) == one_series(6)


def test_pow_negative_one_is_geometric():
    f = Series(8, (ONE, -ONE))
    g = pow_formal(f, Scalar.from_int(-1))
    assert g == one_series(8) / f
    assert all(g[k] == ONE for k in range(9))


def test_pow_additivity_random(rng):
    for _ in range(50):
        f = random_zero_constant_series(rng, order=8).add_scalar(ONE)
        a = random_q_poly(rng, 2, 2)
        b = random_q_poly(rng, 2, 2)
        lhs = pow_formal(f, a + b)
        rhs = pow_formal(f, a) * pow_formal(f, b)
        assert lhs == rhs


def test_order_bookkeeping_takes_minimum():
    f = random_series(__import__("random").Random(7), order=9)
    g = random_series(__import__("random").Random(8), order=5)
    assert (f + g).order == 5
    assert (f * g).order == 5


# -- every convolution against a schoolbook over Scalar operators ----------------

def schoolbook_mul(a, b):
    return [sum((a[i] * b[k - i] for i in range(k + 1)), ZERO) for k in range(len(a))]


def schoolbook_div(a, d):
    out = []
    for k in range(len(a)):
        acc = a[k]
        for i in range(1, k + 1):
            acc = acc - d[i] * out[k - i]
        out.append(acc / d[0])
    return out


def schoolbook_exp(f):
    out = [ONE]
    for k in range(1, len(f)):
        acc = sum((Scalar.from_int(i) * f[i] * out[k - i] for i in range(1, k + 1)), ZERO)
        out.append(acc / Scalar.from_int(k))
    return out


def schoolbook_reverse(f):
    """Lagrange inversion k g_k = [w^(k-1)] p^k, p = w / f, powering p one
    multiply at a time."""
    n = len(f) - 1
    p = schoolbook_div([ONE] + [ZERO] * (n - 1), f[1:])
    out = [ZERO] * (n + 1)
    power = [ONE] + [ZERO] * (n - 1)
    for k in range(1, n + 1):
        power = schoolbook_mul(power, p)
        out[k] = power[k - 1] / Scalar.from_int(k)
    return out


def mixed_coefficient(rng) -> Scalar:
    """Polynomials in q and in s, negative valuations, rational content and,
    now and then, a rational function."""
    kind = rng.randrange(6)
    if kind == 0:
        return ZERO
    if kind == 1:
        return Scalar.from_q_coeffs([rng.randint(-2, 2) for _ in range(3)]) / (ONE - Q)
    c = random_q_poly(rng, 2, 2) * S ** rng.randint(-2, 1)
    return c * Scalar.from_fraction(Fraction(rng.randint(1, 5), rng.randint(1, 4)))


@pytest.mark.parametrize("n", range(13))
def test_convolutions_equal_the_schoolbook(rng, n):
    for _ in range(3):
        a = [mixed_coefficient(rng) for _ in range(n + 1)]
        b = [mixed_coefficient(rng) for _ in range(n + 1)]
        assert (Series(n, a) * Series(n, b)).coeffs == tuple(schoolbook_mul(a, b))
        d = [Scalar.from_int(rng.choice((-2, 1, 3)))] + b[1:]
        assert (Series(n, a) / Series(n, d)).coeffs == tuple(schoolbook_div(a, d))
        f = [ZERO] + a[1:]
        assert exp0(Series(n, f)).coeffs == tuple(schoolbook_exp(f))
        if n:
            f = [ZERO, Scalar.from_fraction(Fraction(rng.choice((-2, 1, 3)), 2))] + a[2:]
            assert reverse(Series(n, f)).coeffs == tuple(schoolbook_reverse(f))


# -- BiSeries products against a term-by-term schoolbook -----------------------------

def schoolbook_bimul(a, b):
    n = min(a.order, b.order)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(i + j for i, j in zip(e1, e2))
            if sum(key) <= n:
                out[key] = out.get(key, ZERO) + c1 * c2
    return {k: c for k, c in out.items() if c}


def bi_coefficient(rng) -> Scalar:
    """Integers, polynomials in q or s with negative valuations and rational
    content, drinfeld's s^-1 + s, and rational functions in q and in s."""
    kind = rng.randrange(7)
    if kind == 0:
        return ZERO
    if kind == 1:
        return Scalar.from_int(rng.randint(-3, 3))
    if kind == 2:
        return random_q_poly(rng, 2, 3) / (ONE - Q)
    if kind == 3:
        return (ONE + Scalar.from_int(rng.randint(-2, 2)) * S) / (ONE - S - S ** 3)
    if kind == 4:
        return (ONE / S + S) * Scalar.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 5)))
    return (random_q_poly(rng, 2, 3) * S ** rng.randint(-2, 1)
            * Scalar.from_fraction(Fraction(1, rng.randint(1, 6))))


def random_biseries(rng, nvars, order, density=0.6) -> BiSeries:
    terms = {e: bi_coefficient(rng) for e in product(range(order + 1), repeat=nvars)
             if sum(e) <= order and rng.random() < density}
    return BiSeries(nvars, order, terms)


@pytest.mark.parametrize("nvars, order", [(2, 0), (2, 1), (2, 4), (2, 6), (3, 3), (3, 4)])
def test_biseries_product_and_quotient_equal_the_schoolbook(rng, nvars, order):
    for _ in range(4):
        a = random_biseries(rng, nvars, order)
        b = random_biseries(rng, nvars, order, density=0.4)
        assert (a * b).terms == schoolbook_bimul(a, b)


def test_biseries_sums_that_cancel_drop_their_monomial(rng):
    for c in (Scalar.from_int(3), ONE / S + S, random_q_poly(rng, 2) / (ONE - Q),
              (ONE + S) / (ONE - S - S ** 3)):
        x_plus_y = BiSeries(2, 4, {(1, 0): c, (0, 1): c})
        x_minus_y = BiSeries(2, 4, {(1, 0): ONE / c, (0, 1): -ONE / c})
        prod = x_plus_y * x_minus_y
        # the XY coefficient c/c - c/c cancels
        assert prod.terms == schoolbook_bimul(x_plus_y, x_minus_y)
        assert prod.terms == {(2, 0): ONE, (0, 2): -ONE}
        d = random_biseries(rng, 3, 4) + BiSeries.constant(3, 4, c)
        assert (d - d) * d == BiSeries(3, 4)


# -- the same routines over the ring of a QSeries -------------------------------------

def q(order):
    return QSeries(order, (0, 1))


def test_exp_log_of_a_qseries_stay_in_its_ring(rng):
    e = exp0(q(3))
    assert type(e) is QSeries and e.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6))
    lg = log1(QSeries(3, (1, 1)))
    assert type(lg) is QSeries and lg.coeffs == (0, 1, Fraction(-1, 2), Fraction(1, 3))
    assert compose(QSeries(3, (1, 1)), q(3)) == QSeries(3, (1, 1))
    for rational in (False, True):
        for _ in range(20):
            f = random_qseries(rng, order=9, rational=rational)
            f = QSeries(9, (1,) + f.coeffs[1:])
            assert exp0(log1(f)) == f
            assert no_floats(log1(f)) and no_floats(exp0(log1(f)))


def test_reverse_of_a_qseries_round_trips(rng):
    for n in range(1, 12):
        f = random_qseries(rng, order=n, rational=True)
        f = QSeries(n, (0, rng.choice((-2, Fraction(1, 3), 1))) + f.coeffs[2:])
        g = reverse(f)
        assert type(g) is QSeries and no_floats(g)
        assert compose(f, g) == q(n) and compose(g, f) == q(n)
    assert reverse(q(6) / QSeries(6, (1, -1))) == q(6) / QSeries(6, (1, 1))


def test_qseries_routines_check_their_constant_terms():
    with pytest.raises(ValueError):
        exp0(QSeries(3, (1, 1)))
    with pytest.raises(ValueError):
        log1(QSeries(3, (2, 1)))
    with pytest.raises(ValueError):
        reverse(QSeries(3, (0, 0, 1)))
    with pytest.raises(ValueError):
        compose(q(3), QSeries(3, (1, 1)))
