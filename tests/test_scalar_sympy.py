"""Differential tests of Scalar canonicalisation against sympy.

Each case applies + - * / to two random Laurent rational functions in s
(odd powers, negative valuations, rational coefficients) and compares the
result with ``sympy.cancel`` of the same operation, brought to the form
``scalar.py`` stores.  The stored form is also checked against the
canonical-form invariants directly, and the gcd ``_ip_gcd`` returns is
compared with ``sympy.gcd`` up to content and sign, and with sympy's
primitive pseudo-remainder sequence (``dup_rr_prs_gcd``), an algorithm that
shares nothing with its integer gcds; the quotients it returns must
multiply back to its inputs.  The convolution ``_ip_mul`` is compared
with sympy's dense product ``dup_mul`` on both sides of its packing
crossover.  sympy is an optional dependency: without it the module is
skipped.
"""

import random
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import add, mul, sub, truediv

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.densearith import dup_mul
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_rr_prs_gcd

from qfgl import Scalar, ZERO
from qfgl.scalar import _MUL_SCHOOLBOOK, _ip_gcd, _ip_mul

SEED = 1729
PAIRS = 64          # per operation, so 256 arithmetic cases in all
GCD_CASES = 200

s = sympy.Symbol("s")
OPS = {"+": add, "-": sub, "*": mul, "/": truediv}


def random_laurent(rng):
    """A random Laurent polynomial in s, as a Scalar and as a pair of sympy
    polynomials (numerator, denominator), the denominator a power of s."""
    val = rng.randint(-3, 2)
    a, e = ZERO, sympy.Integer(0)
    for i in range(rng.randint(0, 3) + 1):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        a = a + Scalar.from_fraction(c) * Scalar.s_power(val + i)
        e += sympy.Rational(c.numerator, c.denominator) * s ** (max(val, 0) + i)
    return a, (sympy.Poly(e, s, domain="QQ"), sympy.Poly(s ** max(-val, 0), s, domain="QQ"))


def times(x, y):
    """The product of two operands, each a Scalar with its sympy pair."""
    return x[0] * y[0], (x[1][0] * y[1][0], x[1][1] * y[1][1])


def random_rational(rng, pool):
    """A product of pool factors and fresh Laurent polynomials over another.

    Drawing shared factors from a small pool makes the operations below
    cancel nontrivial common factors, not only contents and powers of s.
    """
    num, den = [random_laurent(rng)], []
    for part in (num, den):
        part += rng.sample(pool, rng.randint(0, 2))
    if not den or rng.random() < 0.5:
        den.append(random_laurent(rng))
    n, d = reduce(times, num), reduce(times, den)
    if d[0].is_zero():
        return n
    return n[0] / d[0], (n[1][0] * d[1][1], n[1][1] * d[1][0])


def as_fraction(op, a, b):
    """``a op b`` on (numerator, denominator) pairs, not cancelled."""
    (na, da), (nb, db) = a, b
    if op in "+-":
        return OPS[op](na * db, nb * da), da * db
    if op == "*":
        return na * nb, da * db
    return na * db, da * nb


def sympy_canonical(num, den):
    """``sympy.cancel`` of num / den, brought to the stored form of a Scalar.

    Returns the numerator as an expression and the denominator as an
    ascending integer tuple: every power of s and every rational factor
    of sympy's denominator moves into the numerator, which leaves the
    denominator primitive, with a positive leading coefficient and a
    nonzero constant term.
    """
    c, num, den = sympy.cancel((num, den))
    coeffs = [Fraction(int(x.p), int(x.q)) for x in reversed(den.all_coeffs())]
    k = next(i for i, x in enumerate(coeffs) if x)
    coeffs = coeffs[k:]
    m = lcm(*(x.denominator for x in coeffs))
    g = gcd(*(int(x * m) for x in coeffs))
    if coeffs[-1] < 0:
        g = -g
    factor = c * sympy.Rational(m, g) / s ** k      # den = s^k * prim * g / m
    return sympy.expand(num.as_expr() * factor), tuple(int(x * m / g) for x in coeffs)


def as_sympy(a: Scalar):
    """The stored numerator of a as an expression, and its denominator tuple."""
    val, d, co = a.num
    num = sum((c * s ** (val + i) for i, c in enumerate(co)), sympy.Integer(0))
    return sympy.expand(num / d), a.den


def assert_canonical(a: Scalar):
    val, d, co = a.num
    if not co:
        assert a.num == (0, 1, ()) and a.den == (1,)
        return
    assert d >= 1 and co[0] != 0 != co[-1]
    assert gcd(reduce(gcd, co), d) == 1
    den = a.den
    assert den[-1] > 0 and den[0] != 0
    assert reduce(gcd, den) == 1
    common = sympy.gcd(sympy.Poly(list(reversed(co)), s),
                       sympy.Poly(list(reversed(den)), s))
    assert common.degree() == 0


def assert_matches_sympy(op, a, ea, b, eb):
    """``a op b`` is canonical and equals sympy's cancelled fraction."""
    got = OPS[op](a, b)
    assert_canonical(got)
    num, den = as_sympy(got)
    want_num, want_den = sympy_canonical(*as_fraction(op, ea, eb))
    assert den == want_den, (op, str(a), str(b))
    assert sympy.expand(num - want_num) == 0, (op, str(a), str(b))


@pytest.mark.parametrize("op", sorted(OPS))
def test_arithmetic_matches_sympy_cancel(op):
    rng = random.Random(SEED)
    pool = [random_laurent(rng) for _ in range(6)]
    pool = [p for p in pool if not p[0].is_zero()]
    for _ in range(PAIRS):
        (a, ea), (b, eb) = random_rational(rng, pool), random_rational(rng, pool)
        if op == "/" and b.is_zero():
            assert eb[0].is_zero
            with pytest.raises(ZeroDivisionError):
                a / b
            continue
        assert_matches_sympy(op, a, ea, b, eb)


def test_sums_over_unequal_polynomial_denominators_match_sympy_cancel():
    # Scalar.__add__ multiplies each numerator by the other denominator
    rng = random.Random(SEED + 1)
    pool = [p for p in (random_laurent(rng) for _ in range(6)) if not p[0].is_zero()]
    cases = 0
    while cases < PAIRS:
        (a, ea), (b, eb) = random_rational(rng, pool), random_rational(rng, pool)
        if a.den == b.den or (1,) in (a.den, b.den):
            continue
        cases += 1
        assert_matches_sympy("+", a, ea, b, eb)
        assert_matches_sympy("-", a, ea, b, eb)


def random_int_poly(rng, deg, bound=5):
    while True:
        p = [rng.randint(-bound, bound) for _ in range(deg + 1)]
        if p[-1]:
            return tuple(p)


def primitive_positive(p):
    """A sympy polynomial over Z without content, leading coefficient > 0."""
    prim = p.primitive()[1]
    return tuple(reversed([int(c) for c in (-prim if prim.LC() < 0 else prim)
                           .all_coeffs()]))


def gcd_of(a, b):
    """The gcd ``_ip_gcd`` returns, once its quotients multiply back to a
    and b."""
    g, qa, qb = _ip_gcd(a, b)
    assert _ip_mul(g, qa) == a and _ip_mul(g, qb) == b, (a, b)
    return g


def test_ip_gcd_matches_sympy_gcd():
    rng = random.Random(SEED)
    for _ in range(GCD_CASES):
        f = random_int_poly(rng, rng.randint(0, 3))
        a = sympy.Poly(list(reversed(f)), s) * sympy.Poly(
            list(reversed(random_int_poly(rng, rng.randint(0, 3)))), s)
        b = sympy.Poly(list(reversed(f)), s) * sympy.Poly(
            list(reversed(random_int_poly(rng, rng.randint(0, 3)))), s)
        ia = tuple(reversed([int(c) for c in a.all_coeffs()]))
        ib = tuple(reversed([int(c) for c in b.all_coeffs()]))
        assert gcd_of(ia, ib) == primitive_positive(sympy.gcd(a, b)), (ia, ib)


def prs_gcd(a, b):
    """sympy's primitive PRS gcd of two ascending integer tuples, without
    content (its leading coefficient is positive)."""
    h = dup_rr_prs_gcd([ZZ(c) for c in reversed(a)], [ZZ(c) for c in reversed(b)], ZZ)[0]
    content = reduce(gcd, h)
    return tuple(int(c) // content for c in reversed(h))


@cache
def cyclotomic(d):
    """sympy's d-th cyclotomic polynomial as an ascending integer tuple."""
    return tuple(reversed([int(c) for c in sympy.Poly(sympy.cyclotomic_poly(d, s), s)
                           .all_coeffs()]))


def cyclotomic_product(rng):
    return reduce(_ip_mul, [cyclotomic(rng.randint(1, 40)) for _ in range(rng.randint(1, 5))])


def test_ip_gcd_matches_the_prs_on_cyclotomic_products():
    rng = random.Random(SEED)
    for _ in range(GCD_CASES):
        a, b = cyclotomic_product(rng), cyclotomic_product(rng)
        assert gcd_of(a, b) == prs_gcd(a, b), (a, b)


def test_ip_gcd_matches_the_prs_on_dense_pairs():
    # a common factor and two cofactors, dense, of total degrees up to 60
    rng = random.Random(SEED)
    for _ in range(40):
        bound = rng.choice([1, 9, 10 ** 6])
        g = random_int_poly(rng, rng.randint(0, 20), bound)
        a = _ip_mul(g, random_int_poly(rng, rng.randint(0, 40), bound))
        b = _ip_mul(g, random_int_poly(rng, rng.randint(0, 40), bound))
        assert gcd_of(a, b) == prs_gcd(a, b), (a, b)


def test_ip_gcd_matches_the_prs_on_the_adversarial_family():
    # a = G*a' and b = G*(a' + M) with a'(1) = 0 and 2**w - 1 dividing M at
    # each of the first n widths tried, so the first n integer gcds mislead
    rng = random.Random(SEED)
    for n in range(1, 6):
        g = random_int_poly(rng, rng.randint(1, 30))
        ap = _ip_mul((-1, 1), random_int_poly(rng, rng.randint(0, 10)))
        a = _ip_mul(g, ap)
        w = (2 * max(map(abs, a)) + 1).bit_length()
        m = reduce(mul, [(1 << (w << i)) - 1 for i in range(n)])
        b = _ip_mul(g, (ap[0] + m,) + ap[1:])
        assert gcd_of(a, b) == prs_gcd(a, b) == prs_gcd(g, g), (a, b)


def test_ip_mul_matches_sympy_dup_mul():
    rng = random.Random(SEED)
    for _ in range(200):
        bits = rng.choice([1, 8, 64, 300])
        a, b = ([rng.randint(-(1 << bits), 1 << bits) for _ in range(rng.choice(
                     [1, _MUL_SCHOOLBOOK, _MUL_SCHOOLBOOK + 1, rng.randint(1, 150)]))]
                for _ in range(2))
        a[-1] = a[-1] or 1
        b[-1] = b[-1] or -1
        want = dup_mul([ZZ(c) for c in reversed(a)], [ZZ(c) for c in reversed(b)], ZZ)
        assert _ip_mul(tuple(a), tuple(b)) == tuple(int(c) for c in reversed(want)), (a, b)
