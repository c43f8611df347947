"""A modular image of the scalar kernel, as its standing oracle.

phi: Q(s) -> F_p sends s to a seeded random residue s0 modulo the prime
p = 2**61 - 1.  It is a ring homomorphism wherever it is defined, so every
operation must commute with it: phi(sum x*y) = sum phi(x)*phi(y), the
image of a series product or reversion is the product or reversion of the
images, in one variable or several, so is the image of a quotient, an
exponential or a logarithm, so is the image of a ``QSeries`` product or
quotient over ``int`` and ``Fraction``, each closed law F = N/D satisfies
phi(F) * phi(D) = phi(N) to its total order, each coefficient of a
power of log((1 - qT)/(1 - T)) maps to its binomial sum, and a
q-factorial maps to the product of its q-integers' images.  A nonzero
difference of degree D survives a random s0 with probability at most D/p
(J. T. Schwartz, J. ACM 27, 1980; R. Zippel, EUROSAM 1979).  The map
reads only a Scalar's ``num`` and ``den`` and runs Horner's rule on Python
integers modulo p; the series are multiplied, divided, reversed and taken to
their exponential and logarithm modulo p by the schoolbook loops below.
None of it shares code with the packing, the gcd or the canonicaliser.

The map cannot see a non-canonical form that has the right value;
``tests/test_scalar_sympy.py`` checks canonical forms.
"""

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import qfgl.qcomb
from qfgl import (
    Scalar, Series, QSeries, BiSeries, ZERO, ONE, Q, S, reverse, exp0, log1,
    f_chi_closed, f_chi_derived_closed, multiplicative_law, drinfeld_form,
    q_fact, q_binom,
)
from qfgl.fgl import _log_u_powers
from qfgl.scalar import _dot, _ip_mul, _MUL_SCHOOLBOOK

P = 2 ** 61 - 1
SEED = 1729  # the suite's one seed (tests/conftest.py)


def image(x: Scalar, s0: int) -> int:
    """phi(x): numerator and denominator evaluated at s0 modulo P."""
    val, d, cs = x.num
    num = 0
    for c in reversed(cs):
        num = (num * s0 + c) % P
    den = 0
    for c in reversed(x.den):
        den = (den * s0 + c) % P
    return num * pow(s0, val, P) * pow(d * den, -1, P) % P


def _q_poly(rng, deg: int, bits: int) -> Scalar:
    """A polynomial in q whose coefficients have up to ``bits`` bits, with
    its extreme coefficients nonzero."""
    cs = [rng.randint(-(1 << bits), 1 << bits) for _ in range(deg + 1)]
    cs[0] = cs[0] or 1
    cs[-1] = cs[-1] or -1
    return Scalar.from_q_coeffs(cs)


def _entry(rng, bits: int, parity: bool) -> Scalar:
    """One factor of a dot: zero, a polynomial in q with a negative
    valuation, one over a factorial up to 24! or a rational content, or a
    rational function whose denominator is not (1,); with ``parity`` now
    and then an odd power of s or a coefficient at an odd offset, which
    force stride 1."""
    kind = rng.randrange(8)
    if kind == 0:
        return ZERO
    x = _q_poly(rng, rng.randint(0, 6), bits) * Q ** rng.randint(-4, 2)
    if kind == 1:
        x = x / Scalar.from_int(factorial(rng.randint(2, 24)))
    elif kind == 2:
        x = x * Scalar.from_int(rng.randint(-9, 9) or 1) / Scalar.from_int(rng.randint(1, 12))
    elif kind == 3:
        x = x / (ONE + _q_poly(rng, rng.randint(1, 2), 3) * Q)
    if parity and rng.randrange(4) == 0:
        x = x * S ** rng.choice((-3, -1, 1)) if rng.randrange(2) else x + S ** 3
    return x


def _slot_keys(xs) -> set:
    """(stride, width) of the last packing of each factor that has one:
    a check that the draw reaches the kernel's branches, not on its
    results."""
    return {x._packing[3:5] for x in xs if x._packing}


def test_dot_commutes_with_the_image():
    rng = random.Random(SEED)
    s0 = rng.randrange(2, P - 1)
    reached, shapes = set(), set()
    for case in range(1500):
        n = rng.choice((0, 1, 1, 2, 3, 4, 6, 9, 14))
        # about 20, 50 and 80 bits per coefficient: widths of 64, 128, 192
        bits = (case % 3) * 30 + 20
        parity = case % 2 == 0
        xs = [_entry(rng, bits, parity) for _ in range(n)]
        ys = [_entry(rng, bits, parity) for _ in range(n)]
        want = sum(image(x, s0) * image(y, s0) for x, y in zip(xs, ys)) % P
        assert image(_dot(xs, ys), s0) == want, (case, xs, ys)
        reached |= _slot_keys(xs + ys)
        live = [x.den == y.den == (1,) for x, y in zip(xs, ys) if x and y]
        shapes.add((min(sum(live), 2), not all(live)))
    assert {(1, 64), (2, 64), (1, 128), (2, 128), (1, 192), (2, 192)} <= reached
    # no packed pair, one (an ``_ip_mul``), or more, each with and without
    # a pair that goes through ``rest``
    assert shapes == {(0, False), (0, True), (1, False), (1, True), (2, False), (2, True)}


def test_dot_digits_at_the_top_of_the_width_commute_with_the_image():
    # 2**i - 1 equal pairs of (2**k - 1) * (1 + s + ... + s**(2**j - 2))
    # stack their middle digits up to 2**(2k + j + i) times
    # (1 - 2**-i) * (1 - 2**-j) > 1/2; where 2k + j + i is 64, 128 or 192,
    # that digit needs the width's sign bit
    rng = random.Random(SEED + 2)
    s0 = rng.randrange(2, P - 1)
    for words in (1, 2, 3):
        for i, j in ((2, 2), (2, 4), (3, 3), (4, 2), (4, 4)):
            k = (64 * words - i - j) // 2
            ones = sum((S ** e for e in range(2 ** j - 1)), ZERO)
            for sign in (1, -1):
                xs = [ones * Scalar.from_int(sign * (2 ** k - 1)) * S ** rng.randint(-3, 3)]
                ys = [ones * Scalar.from_int(2 ** k - 1)]
                xs, ys = xs * (2 ** i - 1), ys * (2 ** i - 1)
                want = sum(image(a, s0) * image(b, s0) for a, b in zip(xs, ys)) % P
                assert image(_dot(xs, ys), s0) == want, (words, i, j, sign)


def _series(rng, order: int, bits: int, parity: bool) -> Series:
    return Series(order, [_entry(rng, bits, parity) for _ in range(order + 1)])


def _monomial(rng, parity: bool) -> Scalar:
    """A monomial unit, whose inverse is a monomial too."""
    return (Scalar.from_int(rng.choice((-3, -1, 1, 2))) / Scalar.from_int(rng.randint(1, 6))
            * S ** rng.choice((-4, -2, 0, 2) + ((-1, 1) if parity else ())))


def _reversible(rng, order: int, bits: int, parity: bool) -> Series:
    """f(0) = 0 and a monomial f'(0): with more terms, the reversion's
    denominators are powers of f'(0), and its gcds on them cost up to half
    a minute a draw.  A divisor's constant term is a monomial for the same
    reason."""
    return Series(order, [ZERO, _monomial(rng, parity)]
                  + [_entry(rng, bits, parity) for _ in range(order - 1)])


def _mod_mullow(a, b, n: int) -> list:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) % P for k in range(n + 1)]


def _mod_compose(a, g, n: int) -> list:
    """a(g) up to T**n by Horner's rule, g(0) = 0."""
    acc = [a[n]] + [0] * n
    for k in range(n - 1, -1, -1):
        acc = _mod_mullow(acc, g, n)
        acc[0] = (acc[0] + a[k]) % P
    return acc


def _mod_reverse(a, n: int) -> list:
    """g with a(g) = T up to T**n, solved degree by degree: with g_m still
    0, [T**m] a(g) + a_1 * g_m must vanish."""
    inv1 = pow(a[1], -1, P)
    g = [0, inv1] + [0] * (n - 1)
    for m in range(2, n + 1):
        g[m] = -_mod_compose(a, g, m)[m] * inv1 % P
    return g


def test_series_product_and_reversion_commute_with_the_image():
    rng = random.Random(SEED + 1)
    s0 = rng.randrange(2, P - 1)
    for case in range(40):
        order = rng.randint(1, 10)
        bits = (case % 3) * 30 + 20
        parity = case % 2 == 0
        f, g = _series(rng, order, bits, parity), _series(rng, order, bits, parity)
        fi, gi = ([image(c, s0) for c in h.coeffs] for h in (f, g))
        assert [image(c, s0) for c in (f * g).coeffs] == _mod_mullow(fi, gi, order)
        # a square pairs each middle coefficient with itself
        assert [image(c, s0) for c in (f * f).coeffs] == _mod_mullow(fi, fi, order)
        r = _reversible(rng, order, bits, parity)
        ri = [image(c, s0) for c in r.coeffs]
        assert [image(c, s0) for c in reverse(r).coeffs] == _mod_reverse(ri, order)


def _mod_div(a, b, n: int) -> list:
    """a / b up to T**n, b(0) invertible: every term of b, zero or not,
    enters each coefficient."""
    inv0 = pow(b[0], -1, P)
    out = []
    for k in range(n + 1):
        out.append((a[k] - sum(b[i] * out[k - i] for i in range(1, k + 1))) * inv0 % P)
    return out


def _mod_exp0(f, n: int) -> list:
    """e = exp(f), f(0) = 0, from k e_k = sum i f_i e_(k-i)."""
    e = [1]
    for k in range(1, n + 1):
        e.append(sum(i * f[i] * e[k - i] for i in range(1, k + 1)) * pow(k, -1, P) % P)
    return e


def _mod_log1(f, n: int) -> list:
    """g = log(f), f(0) = 1, from f g' = f': k g_k = k f_k - sum i g_i f_(k-i)
    over 0 < i < k, with no division by f."""
    g = [0]
    for k in range(1, n + 1):
        g.append((k * f[k] - sum(i * g[i] * f[k - i] for i in range(1, k)))
                 * pow(k, -1, P) % P)
    return g


def test_series_quotient_commutes_with_the_image(monkeypatch):
    rng = random.Random(SEED + 5)
    s0 = rng.randrange(2, P - 1)
    reads = []
    # the divisor's terms that each dot of the quotient reads
    monkeypatch.setattr(Series, "_dot", staticmethod(lambda xs, ys: reads.append(xs) or _dot(xs, ys)))
    lasts = set()
    for case in range(60):
        order = rng.randint(0, 10)
        bits = (case % 3) * 30 + 20
        parity = case % 2 == 0
        f = _series(rng, order + rng.randint(0, 2), bits, parity)
        # the divisor's last nonzero term sits anywhere from T**0 to past the
        # quotient's order, with only zeros after it
        last = rng.randint(0, order + 1)
        g = Series(order + rng.randint(0, 2), [_monomial(rng, parity)] + [
            _entry(rng, bits, parity) for _ in range(last - 1)] + [_monomial(rng, parity)][: last])
        n = min(f.order, g.order)
        fi, gi = ([image(c, s0) for c in h.coeffs] for h in (f, g))
        reads.clear()
        assert [image(c, s0) for c in (f / g).coeffs] == _mod_div(fi, gi, n), case
        # the dots read the divisor's terms 1 .. its last nonzero one, and no
        # further: a term past it changes no value, only these reads show it
        stop = max(i for i, c in enumerate(g.coeffs[: n + 1]) if c)
        assert reads == [g.coeffs[1: stop + 1]] * (n + 1), case
        lasts.add((min(stop, 2), stop < n))
    # a constant divisor, a divisor of one or more terms past T**0, each
    # with zeros before the order and without
    assert lasts == {(0, True), (0, False), (1, True), (1, False), (2, True), (2, False)}


def test_exp_and_log_commute_with_the_image():
    rng = random.Random(SEED + 6)
    s0 = rng.randrange(2, P - 1)
    for case in range(30):
        order = rng.randint(1, 8)
        bits = (case % 3) * 30 + 20
        parity = case % 2 == 0
        f = _series(rng, order, bits, parity)
        f = Series(order, (ZERO,) + f.coeffs[1:])
        fi = [image(c, s0) for c in f.coeffs]
        assert [image(c, s0) for c in exp0(f).coeffs] == _mod_exp0(fi, order), case
        u = f.add_scalar(ONE)
        ui = [image(c, s0) for c in u.coeffs]
        assert [image(c, s0) for c in log1(u).coeffs] == _mod_log1(ui, order), case


def _mod_bimul(a: dict, b: dict, n: int) -> dict:
    """The product of two exponent-keyed images up to total degree n, with
    no key for a zero."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            m = tuple(i + j for i, j in zip(e1, e2))
            if sum(m) <= n:
                out[m] = (out.get(m, 0) + c1 * c2) % P
    return {m: c for m, c in out.items() if c}


def _image_terms(f: BiSeries, s0: int) -> dict:
    return {e: image(c, s0) for e, c in f.terms.items()}


def test_biseries_product_commutes_with_the_image():
    rng = random.Random(SEED + 3)
    s0 = rng.randrange(2, P - 1)
    rest = 0
    for case in range(30):
        nvars = 2 + case % 2
        order = rng.randint(0, 8 if nvars == 2 else 5)
        bits = (case % 3) * 30 + 20
        parity = case % 4 < 2
        f, g = (BiSeries(nvars, order, {
            e: _entry(rng, bits, parity) for e in product(range(order + 1), repeat=nvars)
            if sum(e) <= order and rng.random() < density}) for density in (0.7, 0.5))
        fi, gi = _image_terms(f, s0), _image_terms(g, s0)
        assert _image_terms(f * g, s0) == _mod_bimul(fi, gi, order), case
        assert _image_terms(f * f, s0) == _mod_bimul(fi, fi, order), case
        rest += sum(c.den != (1,) for c in f.terms.values())
    # rational functions reach ``_dot`` as pairs that it does not pack
    assert rest


# each closed law with its a and b in (X + Y + a XY)/(1 + b XY), written out
# here rather than read from the law
CLOSED_LAWS = (
    (f_chi_closed, ONE + Q, Q),
    (f_chi_derived_closed, -(ONE + Q), -Q),
    (multiplicative_law, ONE, ZERO),
    (drinfeld_form, ONE / S + S, ONE),
)


def test_closed_laws_multiply_back_under_the_image():
    rng = random.Random(SEED + 4)
    s0 = rng.randrange(2, P - 1)
    # at an odd order the last term of the geometric series reaches the
    # top degree through X and Y; at an even order it does not
    for order in (21, 24):
        for law, a, b in CLOSED_LAWS:
            F = law(order).series
            assert F.order == order
            num = {(1, 0): 1, (0, 1): 1, (1, 1): image(a, s0)}
            den = {(0, 0): 1, (1, 1): image(b, s0)}
            back = _mod_bimul(_image_terms(F, s0), den, order)
            assert back == {m: c for m, c in num.items() if c}, (law.__name__, order)


def test_log_u_powers_commute_with_the_image():
    # [T^n](log U)^k = sum_j c_j (1 - q)^j / n!, c_j = k! s(j, k) C(n-1, j-1) n!/j!,
    # summed here modulo P with each s(j, k) read off the falling factorial
    # x(x-1)...(x-j+1); a Horner value too narrow for its digits would carry
    # into the next q-coefficient, and the image would differ.  (3, 40) and
    # (12, 60) have the widest values, (8, 24) is the benchmark's shape.
    rng = random.Random(SEED + 7)
    s0 = rng.randrange(2, P - 1)
    y = (1 - s0 * s0) % P
    for t_order, x_order in ((8, 24), (3, 40), (12, 60)):
        falling = [[1]]                     # falling[j][k] = s(j, k)
        for j in range(x_order):
            poly = [0] * (j + 2)
            for k, c in enumerate(falling[j]):
                poly[k + 1] += c
                poly[k] -= j * c
            falling.append(poly)
        powers = _log_u_powers(t_order, x_order)
        for k in range(1, t_order + 1):
            for n in range(x_order + 1):
                total = sum(factorial(k) * falling[j][k] * comb(n - 1, j - 1)
                            * factorial(n) // factorial(j) * pow(y, j, P)
                            for j in range(k, n + 1))
                want = total * pow(factorial(n), -1, P) % P
                assert image(powers[k][n], s0) == want, (t_order, x_order, k, n)


def _q_image(c) -> int:
    """The image of an exact rational coefficient modulo P."""
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, P) % P


def _q_coeff(rng, bits: int, frac: bool):
    """An int of up to ``bits`` bits, with ``frac`` now and then over a
    small denominator."""
    c = rng.randint(-(1 << bits), 1 << bits)
    return Fraction(c, rng.randint(2, 40)) if frac and rng.randrange(3) == 0 else c


def test_qseries_product_and_quotient_commute_with_the_image(monkeypatch):
    rng = random.Random(SEED + 8)
    packed, lasts = set(), set()
    # the side of ``_MUL_SCHOOLBOOK`` that each product's one ``_ip_mul`` takes
    monkeypatch.setattr(qfgl.qcomb, "_ip_mul", lambda a, b, n: packed.add(
        min(len(a), len(b)) > _MUL_SCHOOLBOOK) or _ip_mul(a, b, n))
    for case in range(60):
        order = rng.randint(0, 24)
        # wide coefficients in long factors pack past ``_BYTE_ROUTE_BITS``
        bits = (case % 3) * 100 + 8
        frac = case % 2 == 1
        f, g = (QSeries(order + rng.randint(0, 2), [_q_coeff(rng, bits, frac)
                                                    for _ in range(order + 1)]) for _ in "fg")
        n = min(f.order, g.order)
        fi, gi = ([_q_image(c) for c in h.coeffs] for h in (f, g))
        assert [_q_image(c) for c in (f * g).coeffs] == _mod_mullow(fi, gi, n), case
        # the divisor's last nonzero term sits anywhere from q**0 to past the
        # quotient's order, with only zeros after it
        last = rng.randint(0, order + 1)
        d = QSeries(order + rng.randint(0, 2), [_q_coeff(rng, bits, frac) or 1] + [
            _q_coeff(rng, bits, frac) for _ in range(last - 1)] + [_q_coeff(rng, bits, frac) or 1][:last])
        n = min(f.order, d.order)
        di = [_q_image(c) for c in d.coeffs]
        assert [_q_image(c) for c in (f / d).coeffs] == _mod_div(fi, di, n), case
        stop = max(i for i, c in enumerate(d.coeffs[: n + 1]) if c)
        lasts.add((stop < n, any(d.coeffs[n + 1:])))
    assert packed == {True, False}
    # a divisor that ends before the order, and one with terms past it
    assert {(True, False), (False, True)} <= lasts


def _q_int_images(q0: int, k: int) -> list:
    """phi([i]_q) = 1 + q0 + ... + q0^(i-1) modulo P, for i = 0..k."""
    out, power = [0], 1
    for _ in range(k):
        out.append((out[-1] + power) % P)
        power = power * q0 % P
    return out


def test_q_factorials_and_binomials_commute_with_the_image():
    # q_fact's integer row against the product of the q-integers' images,
    # and q_binom's q-Pascal rows against [n]! / ([k]! [n-k]!) at q0, at two
    # random q0 = s0^2; a running sum at a stride off by one changes the
    # row's values, not only its length
    rng = random.Random(SEED + 9)
    facts = [q_fact(k) for k in range(33)]
    binoms = [[q_binom(n, k) for k in range(n + 1)] for n in range(33)]
    for s0 in (rng.randrange(2, P - 1) for _ in range(2)):
        ints, want = _q_int_images(s0 * s0 % P, 32), [1]
        for i in range(1, 33):
            want.append(want[-1] * ints[i] % P)
        got = [image(f, s0) for f in facts]
        assert got == want, s0
        for n, row in enumerate(binoms):
            for k, b in enumerate(row):
                assert image(b, s0) * got[k] * got[n - k] % P == got[n], (s0, n, k)
