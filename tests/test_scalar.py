"""Exact scalar arithmetic, canonical forms and membership predicates."""

import hashlib
import sys
import threading
import time
from fractions import Fraction
from math import factorial

import pytest

from qfgl import (
    Scalar, ZERO, ONE, Q, S, cyclotomic, adams, membership,
    canonical_str, evaluate, QSeries, Series,
)
from qfgl.qcomb import q_int, q_fact
from qfgl import scalar
from qfgl.scalar import (
    _dot, _ip_divides, _ip_gcd, _ip_mul, _ip_pack, _ip_unpack, _lp_make,
)

from conftest import random_scalar, random_q_poly


def test_inverse_pair():
    assert (ONE / (ONE - Q)) * (ONE - Q) == ONE


def test_polynomial_division_normalizes():
    assert (ONE - Q ** 2) / (ONE - Q) == ONE + Q


@pytest.mark.parametrize("x, y, want", [
    # a negative leading coefficient
    ("(1 + 2*q)/(3 - q^2)", "2 - 3*q", "(1 + 2*q)/(6 - 9*q - 2*q^2 + 3*q^3)"),
    ("q^-2 + 4*s", "2 - 3*q", "(-1*q^-2 - 4*s)/(-2 + 3*q)"),
    # an integer content, with a positive valuation
    ("(1 + 2*q)/(3 - q^2)", "6*q + 4*q^2 - 10*q^3",
     "(q^-1 + 2)/(18 + 12*q - 36*q^2 - 4*q^3 + 10*q^4)"),
    ("s^3 - 5/7", "6*q + 4*q^2 - 10*q^3", "(5*q^-1 - 7*s)/(-42 - 28*q + 70*q^2)"),
    # a rational content
    ("(1 + 2*q)/(3 - q^2)", "(3/4)*q - 1/6", "(-12 - 24*q)/(6 - 27*q - 2*q^2 + 9*q^3)"),
    ("q^-2 + 4*s", "(3/4)*q - 1/6", "(12*q^-2 + 48*s)/(-2 + 9*q)"),
    # a negative valuation, with a polynomial denominator
    ("(1 + 2*q)/(3 - q^2)", "s^-3*(2 - s) / (1 + q)",
     "(s^3 + 3*s^5 + 2*s^7)/(6 - 3*s - 2*q^2 + s^5)"),
    ("s^3 - 5/7", "-5/(q^2*(3 + q))", "(15*q^2 + 5*q^3 - 21*s^7 - 7*s^9)/35"),
    ("q^-2 + 4*s", "(1-q)/(2*q + 7)*(-2/9)*s^-1",
     "(63*s^-3 + 18*s^-1 + 252*q + 72*q^2)/(-2 + 2*q)"),
])
def test_division_by_the_exact_inverse(x, y, want):
    # each want was printed by the division that canonicalised num/den by gcd
    x, y = evaluate(x), evaluate(y)
    assert str(x / y) == want
    assert (x / y) * y == x


def test_q_int_products_do_not_multiply():
    # (1+q)(1+q+q^2) = 1 + 2q + 2q^2 + q^3, not the 6-term q-integer
    prod = q_int(2) * q_int(3)
    assert prod == Scalar.from_q_coeffs([1, 2, 2, 1])
    assert prod != q_int(6)


def test_structural_equality_is_mathematical(rng):
    for _ in range(50):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a


def test_division_and_powers(rng):
    for _ in range(50):
        a = random_scalar(rng)
        if a.is_zero():
            continue
        assert a / a == ONE
        assert a ** 3 == a * a * a
        assert a ** -2 == ONE / (a * a)


def test_inverse_and_negative_powers_run_no_gcd(monkeypatch):
    x = evaluate("(1 + 3*q + q^5)/(1 + 7*q^2)")
    want = [str(evaluate("(1 + 7*q^2)/(1 + 3*q + q^5)")),
            str(evaluate("(1 + 7*q^2)^3/(1 + 3*q + q^5)^3"))]
    calls = []
    monkeypatch.setattr(scalar, "_ip_gcd", lambda a, b: calls.append(1))
    assert [str(ONE / x), str(x ** -3)] == want
    assert calls == []


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_a_product_whose_contents_and_denominators_cancel_normalises():
    frac = Scalar.from_fraction
    x = (frac(Fraction(2, 3)) * Q) * (frac(Fraction(3, 2)) * Q)
    assert x == Q ** 2 and x.num == (4, 1, (1,))
    y = (frac(Fraction(4, 9)) * Q) * frac(Fraction(3, 2))
    assert y == frac(Fraction(2, 3)) * Q and y.num == (2, 3, (2,))
    # the content scan starts from the denominator; at 1 it stops there
    assert _lp_make(0, 6, [4, 10]) == (0, 3, (2, 5))
    assert _lp_make(1, 1, [0, 4, 6, 0]) == (2, 1, (4, 6))


@pytest.mark.parametrize("text, want", [
    ("0", 0), ("-7", -7), ("1/2", None), ("q", None), ("s", None), ("1/(1+q)", None),
])
def test_as_int(text, want):
    x = evaluate(text)
    if want is None:
        with pytest.raises(ValueError):
            x.as_int()
    else:
        assert x.as_int() == want


def test_comparison_with_an_int_is_false():
    assert not Scalar.from_int(3) == 3 and Scalar.from_int(3) != 3


def test_s_squares_to_q():
    assert S * S == Q
    assert S ** 2 == Q
    assert not S.lives_in_q()
    assert (S ** 4).lives_in_q()


# -- cyclotomic polynomials ---------------------------------------------------

def test_cyclotomic_base_cases():
    assert cyclotomic(1) == Q - ONE
    assert cyclotomic(2) == Q + ONE


def test_cyclotomic_6_by_hand_recursion():
    # (q^6 - 1) / (Phi_1 Phi_2 Phi_3), assembled step by step
    q6m1 = Q ** 6 - ONE
    by_hand = q6m1 / (cyclotomic(1) * cyclotomic(2) * cyclotomic(3))
    assert cyclotomic(6) == by_hand
    assert cyclotomic(6) == Scalar.from_q_coeffs([1, -1, 1])


def test_cyclotomic_product_identity():
    for k in range(1, 31):
        prod = ONE
        for d in range(2, k + 1):
            if k % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == q_int(k), f"k = {k}"


def test_cyclotomic_rejects_bad_index():
    with pytest.raises(ValueError):
        cyclotomic(0)


# -- cromulence ---------------------------------------------------------------

def test_cromulent_examples():
    assert membership(ONE / (ONE + Q)).in_cromulent is True
    assert membership(ONE / (ONE - Q)).in_cromulent is False
    assert membership(ONE / q_int(6)).in_cromulent is True


def test_cromulent_needs_q():
    # an element that does not live in q is in no ring of the q tower
    assert membership(S).in_cromulent is False
    assert membership(ONE / (ONE + S)).in_cromulent is False


def test_cromulent_integrality_matters():
    half = Scalar.from_fraction(Fraction(1, 2))
    assert membership(half / (ONE + Q)).in_cromulent is False
    assert membership(Scalar.from_int(7) / (ONE + Q)).in_cromulent is True


def test_cromulent_q_integer_family():
    for k in range(1, 21):
        inv = ONE / q_int(k)
        assert membership(inv).in_cromulent, f"k = {k}"
        assert inv.eval_s(0) == 1
        assert inv.eval_s(1) == Fraction(1, k)


def test_cromulent_factorial_inverses():
    for k in range(1, 9):
        assert membership(ONE / q_fact(k)).in_cromulent


def test_cromulence_closed_under_ring_ops(rng):
    def random_cromulent():
        num = random_q_poly(rng, 3)
        den = ONE
        for _ in range(rng.randint(0, 2)):
            den = den * cyclotomic(rng.randint(2, 8))
        return num / den

    for _ in range(50):
        a = random_cromulent()
        b = random_cromulent()
        assert membership(a + b).in_cromulent
        assert membership(a * b).in_cromulent


def test_cromulent_refuses_a_monic_denominator_with_no_cyclotomic_factor():
    # monic with constant term 1, so only the search over Phi_d refuses it
    assert not membership(evaluate("1/(1 + 3*q + q^2)")).in_cromulent


def test_cromulent_catches_isolated_cyclotomic_factor():
    # 1/Phi_6 divides a q-integer, so it is invertible in the localization
    # even though 6 exceeds the denominator degree plus one
    assert membership(ONE / cyclotomic(6)).in_cromulent is True
    assert membership(ONE / cyclotomic(12)).in_cromulent is True


# -- membership flags ---------------------------------------------------------

def test_membership_tower_examples():
    m = membership(Q ** 2 + ONE)
    assert m.in_Z_q and m.in_Z_q_laurent and m.in_Q_q and m.in_cromulent

    m = membership(Scalar.q_power(-1))
    assert not m.in_Z_q and m.in_Z_q_laurent and m.in_cromulent
    assert not m.in_Q_q

    m = membership((ONE + Q) / Scalar.from_int(2))
    assert not m.in_Z_q and m.in_Q_q and not m.in_cromulent

    m = membership(ONE / (ONE + Q))
    assert not m.in_Z_q_laurent and m.in_cromulent

    m = membership(S)
    assert m.in_Q_s and not m.in_Q_q


def test_membership_chain_random(rng):
    for _ in range(50):
        a = random_scalar(rng)
        shift = rng.randint(-2, 2)
        a = a * Scalar.q_power(shift)
        m = membership(a)
        if m.in_Z_q:
            assert m.in_Z_q_laurent and m.in_Q_q
        if m.in_Z_q_laurent:
            assert m.in_cromulent
        assert m.in_Q_s


# -- evaluation ---------------------------------------------------------------

def test_eval_q0_examples():
    assert q_int(5).eval_s(0) == 1
    assert (ONE / (ONE + Q)).eval_s(0) == 1
    assert (ONE / (ONE - Q)).eval_s(0) == 1


def test_eval_q0_pole():
    with pytest.raises(ZeroDivisionError):
        Scalar.q_power(-1).eval_s(0)


def test_eval_s_at_zero_of_positive_valuation_is_zero():
    for a in (Q, S, Q / (ONE - Q), S ** 3 / (ONE + S), q_int(3) - ONE):
        assert a.eval_s(0) == 0
    assert (ONE + S).eval_s(0) == 1
    assert (Q / (ONE - Q)).eval_s(0) == 0
    for a in (ONE / S, Scalar.q_power(-1), ONE / (Q + Q ** 2)):
        with pytest.raises(ZeroDivisionError):
            a.eval_s(0)


def test_eval_q1_examples():
    for k in range(1, 11):
        assert q_int(k).eval_s(1) == k
    assert (ONE / q_int(3)).eval_s(1) == Fraction(1, 3)


def test_eval_q1_pole():
    with pytest.raises(ZeroDivisionError):
        (ONE / (ONE - Q)).eval_s(1)


def test_q_expansion_geometric():
    geo = ONE / (ONE - Q)
    assert QSeries.from_scalar(geo, 6).coeffs == (1,) * 7


def test_adams_substitute_preserves_canonical_form():
    a = (ONE + Q) / (ONE - Q ** 2)
    assert a == ONE / (ONE - Q)
    assert adams(a, 3) == ONE / (ONE - Q ** 3)


def test_adams_runs_no_gcd_and_no_exact_division(monkeypatch):
    x = evaluate("(1 + 2*q)/(1 - q + 3*q^2)")
    want = [evaluate(f"(1 + 2*q^{k})/(1 - q^{k} + 3*q^{2 * k})") for k in range(1, 7)]
    calls = []
    for name in ("_ip_gcd", "_ip_divides"):
        true = getattr(scalar, name)
        monkeypatch.setattr(scalar, name,
                            lambda a, b, true=true: calls.append(1) or true(a, b))
    got = [adams(x, k) for k in range(1, 7)]
    assert calls == []
    assert got == want
    assert str(got[2]) == "(1 + 2*q^3)/(1 - q^3 + 3*q^6)"


def test_adams_index_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        adams(Q, 0)


# -- printing ----------------------------------------------------------------

def test_canonical_strings():
    assert canonical_str(ZERO) == "0"
    assert canonical_str((ONE + Q + Q ** 2) / (ONE + Q)) == "(1 + q + q^2)/(1 + q)"
    assert canonical_str((ONE + Q) / Scalar.from_int(2)) == "(1 + q)/2"
    assert canonical_str(Scalar.q_power(-1)) == "q^-1"
    assert canonical_str(S + ONE / S) == "s^-1 + s"
    assert canonical_str(ONE / (ONE + Q)) == "1/(1 + q)"


# -- the sum-of-products kernel -----------------------------------------------------

def _random_dot_entry(rng) -> Scalar:
    """A Scalar of one of the shapes the kernel must handle: zero, a
    polynomial in s with a negative valuation or rational content, or a
    rational function whose denominator is not (1,)."""
    kind = rng.randrange(5)
    if kind == 0:
        return ZERO
    if kind == 1:
        return random_q_poly(rng, 3) * S ** rng.randint(-3, 1)
    if kind == 2:
        return random_q_poly(rng, 2) * Scalar.from_fraction(
            Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
    if kind == 3:
        return random_scalar(rng, 2) * S ** rng.randint(-2, 2)
    return Scalar.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def _schoolbook_dot(xs, ys):
    return sum((x * y for x, y in zip(xs, ys)), ZERO)


def _same(a: Scalar, b: Scalar) -> bool:
    return (a.num, a.den) == (b.num, b.den) and str(a) == str(b)


def test_dot_equals_the_schoolbook_sum(rng):
    for _ in range(300):
        n = rng.randint(0, 8)
        xs = [_random_dot_entry(rng) for _ in range(n)]
        ys = [_random_dot_entry(rng) for _ in range(n)]
        assert _same(_dot(xs, ys), _schoolbook_dot(xs, ys))


def test_dot_of_polynomial_pairs_is_reduced_once(rng):
    # every denominator (1,): negative valuations and rational content only
    for _ in range(200):
        n = rng.randint(1, 8)
        xs = [random_q_poly(rng, 3) * S ** rng.randint(-4, 2)
              * Scalar.from_fraction(Fraction(1, rng.randint(1, 9))) for _ in range(n)]
        ys = [random_q_poly(rng, 2) * S ** rng.randint(-2, 3) for _ in range(n)]
        assert _same(_dot(xs, ys), _schoolbook_dot(xs, ys))


def test_dot_mixes_denominators(rng):
    for _ in range(100):
        xs = [random_q_poly(rng, 2), random_scalar(rng, 2),
              Scalar.from_fraction(Fraction(3, 7)) * S ** -1, random_scalar(rng, 1)]
        ys = [random_scalar(rng, 2), random_q_poly(rng, 3),
              random_q_poly(rng, 1), random_q_poly(rng, 2) / Scalar.from_int(5)]
        order = list(range(4))
        rng.shuffle(order)
        xs, ys = [xs[i] for i in order], [ys[i] for i in order]
        assert _same(_dot(xs, ys), _schoolbook_dot(xs, ys))


def test_dot_cancels_to_zero(rng):
    for _ in range(50):
        xs = [_random_dot_entry(rng) for _ in range(4)]
        ys = [_random_dot_entry(rng) for _ in range(4)]
        got = _dot(xs + xs, ys + [-y for y in ys])
        assert got == ZERO and got.is_zero()
        # a polynomial part that cancels beside a rational-function part
        r = random_scalar(rng, 2)
        assert _same(_dot([Q, -Q, r], [S, S, ONE]), r)
    assert _dot([Scalar.from_fraction(Fraction(1, 2)), ONE],
                [Scalar.from_int(2), -ONE]) == ZERO


def test_dot_of_nothing_is_zero():
    assert _dot([], []) is ZERO
    assert _dot([ZERO, Q], [ONE, ZERO]) is ZERO


# -- the packed kernel: every pair with denominator (1,) is one big-integer
#    product, read back as signed base-2^w digits --------------------------

def _poly(coeffs, val=0) -> Scalar:
    """s**val * (c0 + c1*s + ...), built by the public operators."""
    out = ZERO
    for i, c in enumerate(coeffs):
        out = out + Scalar.from_int(c) * S ** (val + i)
    return out


def test_dot_digits_fill_the_packing_width():
    # coefficients ±(2^k - 1) of one sign make every digit reach the width
    # bound up to the rounding of its bit lengths; a narrower width overflows
    for k in (1, 2, 5, 31, 64):
        c = 2 ** k - 1
        for n in (1, 2, 5, 12, 40):
            for pairs in (2, 3, 5, 7, 8):
                for sign in (1, -1):
                    x = Scalar.from_q_coeffs([sign * c] * n)
                    y = Scalar.from_q_coeffs([c] * (n + pairs % 3))
                    xs, ys = [x] * pairs, [y] * pairs
                    assert _same(_dot(xs, ys), _schoolbook_dot(xs, ys)), (k, n, pairs)


def test_dot_packs_over_a_large_lcm_of_denominators():
    # 1/j! entries: the multipliers den // d run up to 24!
    for k in (3, 40):
        c = 2 ** k - 1
        xs = [Scalar.from_q_coeffs([c] * 30) / Scalar.from_int(factorial(j))
              for j in range(1, 25)]
        ys = [Scalar.from_q_coeffs([-c] * (j + 1)) * Q ** (j % 3) for j in range(1, 25)]
        assert _same(_dot(xs, ys), _schoolbook_dot(xs, ys))
        xs = [Scalar.from_fraction(Fraction(1, factorial(j))) for j in range(1, 25)]
        assert _same(_dot(xs, ys), _schoolbook_dot(xs, ys))


def test_dot_of_mixed_parity_packs_in_s(rng):
    # one odd valuation, or one odd-s coefficient, among q-polynomials
    for _ in range(100):
        n = rng.randint(2, 7)
        xs = [random_q_poly(rng, 4, 9) * Q ** rng.randint(-2, 2) for _ in range(n)]
        ys = [random_q_poly(rng, 3, 9) for _ in range(n)]
        i = rng.randrange(n)
        if rng.randrange(2):
            xs[i] = xs[i] * S ** rng.choice((-3, -1, 1, 3))
        else:
            ys[i] = ys[i] + Scalar.from_int(rng.choice((-2, 1, 5))) * S ** rng.choice((1, 3, 5))
        assert _same(_dot(xs, ys), _schoolbook_dot(xs, ys))
    # s times s pairs: odd valuations whose sums are even
    xs = [_poly([1, 0, 2], val=-1), _poly([3], val=1)]
    ys = [_poly([1, 0, -1], val=1), _poly([0, 0, 4], val=-1)]
    assert _same(_dot(xs, ys), _schoolbook_dot(xs, ys))


def test_dot_in_q_with_negative_valuations(rng):
    for _ in range(100):
        n = rng.randint(2, 8)
        xs = [random_q_poly(rng, 5, 20) * Q ** rng.randint(-6, 1)
              * Scalar.from_fraction(Fraction(1, rng.randint(1, 12))) for _ in range(n)]
        ys = [random_q_poly(rng, 4, 20) * Q ** rng.randint(-3, 3) for _ in range(n)]
        assert _same(_dot(xs, ys), _schoolbook_dot(xs, ys))


def test_dot_in_q_cancels_to_zero(rng):
    for _ in range(50):
        n = rng.randint(1, 5)
        xs = [random_q_poly(rng, 4, 50) * Q ** rng.randint(-3, 2) for _ in range(n)]
        ys = [random_q_poly(rng, 3, 50) / Scalar.from_int(rng.randint(1, 7)) for _ in range(n)]
        assert _dot(xs + xs, ys + [-y for y in ys]) is ZERO
        # the leading and trailing digits cancel, the middle one survives
        a, b = _dot(xs, ys), Q ** 5
        xs2, ys2 = xs + [ONE] + xs, ys + [b] + [-y for y in ys]
        assert _same(_dot(xs2, ys2), _schoolbook_dot(xs2, ys2))
        assert _same(_dot(xs2, ys2), b)
        assert _dot(xs + [Q], ys + [-a / Q]) is ZERO


# -- the packing cache: a Scalar keeps its last packing, keyed by stride and
#    width, and every dot it enters reuses it ---------------------------------

def _dot_pool(rng) -> list:
    """Scalars to share between dots: polynomials in q with negative
    valuations and 1/j! content, numerators whose widths lie words apart,
    and factors that force stride 1 by an odd valuation or offset."""
    pool = [random_q_poly(rng, 4, 9) * Q ** rng.randint(-3, 2)
            / Scalar.from_int(factorial(j)) for j in range(1, 15)]
    pool += [Scalar.from_q_coeffs([rng.choice((-1, 1)) * (2 ** k - 1)] * rng.randint(2, 8))
             for k in (70, 150, 300)]
    for _ in range(5):
        pool.append(random_q_poly(rng, 3, 5) * S ** rng.choice((-3, -1, 1)))
        pool.append(random_q_poly(rng, 3, 5) + Scalar.from_int(rng.randint(1, 4)) * S ** 3)
    return pool


def _fresh(x: Scalar) -> Scalar:
    return Scalar(x.num, x.den)


def test_dot_reuses_packings_across_interleaved_dots(rng):
    pool = _dot_pool(rng)
    for _ in range(400):
        n = rng.randint(2, 8)
        xs = [rng.choice(pool) for _ in range(n)]
        ys = [rng.choice(pool) for _ in range(n)]
        assert _same(_dot(xs, ys), _schoolbook_dot([_fresh(x) for x in xs], ys))


def test_dot_packing_is_keyed_by_stride_and_width():
    x, y = Scalar.from_q_coeffs([1, 2, 3]), Scalar.from_q_coeffs([4, -1, 5])
    wide = Scalar.from_q_coeffs([2 ** 100 - 1] * 3)
    # in q, then in s beside 1 + s, at one width; then a word wider, and back
    for xs, ys in [([x, y], [y, x]), ([x, ONE + S], [y, ONE]), ([x, y], [y, x]),
                   ([x, wide], [y, x]), ([x, y], [y, ONE + S]), ([x, y], [y, x])]:
        assert _same(_dot(xs, ys), _schoolbook_dot(xs, ys))


def test_series_product_packs_each_coefficient_once(monkeypatch):
    # the width is rounded up to whole words, so every dot of the product
    # has the same one and no coefficient is packed twice
    widths = []
    monkeypatch.setattr(scalar, "_ip_pack", lambda p, w: widths.append(w) or _ip_pack(p, w))
    n = 24
    a = [Scalar.from_q_coeffs([k + 1, -k, 2]) for k in range(n + 1)]
    b = [Scalar.from_q_coeffs([1, k, k * k]) * Q ** (k % 3) for k in range(n + 1)]
    got = (Series(n, a) * Series(n, b)).coeffs
    assert got == tuple(_schoolbook_dot(a[:k + 1], b[k::-1]) for k in range(n + 1))
    assert len(widths) == 2 * (n + 1) and set(widths) == {64}


def test_packed_scalars_compare_and_hash_as_fresh_ones(rng):
    pool = _dot_pool(rng)
    for x in pool:
        _dot([x, x], [x, ONE + S])
        _dot([x, Q], [x, Q])
    for x in pool:
        y = _fresh(x)
        assert x == y and y == x and hash(x) == hash(y) and {y: 1}[x] == 1
        assert str(x) == str(y) and (x.num, x.den) == (y.num, y.den)
        assert x != y + ONE


def test_dot_on_shared_scalars_in_four_threads(rng):
    pool = _dot_pool(rng)
    cases = []
    for _ in range(40):
        n = rng.randint(2, 6)
        xs = [rng.choice(pool) for _ in range(n)]
        ys = [rng.choice(pool) for _ in range(n)]
        cases.append((xs, ys, _schoolbook_dot(xs, ys)))
    wrong = []

    def work(k):
        # each thread walks the cases in its own order, so widths interleave
        for i in range(4 * len(cases)):
            xs, ys, want = cases[(i * (2 * k + 1) + k) % len(cases)]
            if not _same(_dot(xs, ys), want):
                wrong.append((k, i))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# -- the packed convolution and the byte route of its packing ---------------

def _schoolbook_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return tuple(out)


def _random_int_poly(rng, n, bits):
    """n coefficients of up to ``bits`` bits, both signs, with a run of
    zeros at either end now and then, or all zero."""
    p = [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]
    kind, k = rng.randrange(6), rng.randint(0, n)
    if kind == 0:
        p = [0] * n
    elif kind == 1:
        p[:k] = [0] * k
    elif kind == 2:
        p[n - k:] = [0] * k
    return tuple(p)


def test_ip_mul_equals_the_schoolbook_sum_on_both_sides_of_the_crossover(rng):
    for _ in range(300):
        bits = rng.choice([0, 1, 3, 30, 64, 200, 500])
        la = rng.choice([1, 2, scalar._MUL_SCHOOLBOOK, scalar._MUL_SCHOOLBOOK + 1,
                         rng.randint(1, 200)])
        a = _random_int_poly(rng, la, bits)
        b = _random_int_poly(rng, rng.randint(1, 200), rng.choice([0, 3, bits]))
        want = _schoolbook_mul(a, b)
        assert _ip_mul(a, b) == want == _ip_mul(b, a), (a, b)


@pytest.mark.parametrize("byte_route", [False, True])
def test_ip_mul_cut_at_n_is_the_full_product_cut(rng, monkeypatch, byte_route):
    # at 0 bits every whole-byte packing goes through bytes; at 2**60 none does
    monkeypatch.setattr(scalar, "_BYTE_ROUTE_BITS", 0 if byte_route else 1 << 60)
    for _ in range(150):
        bits = rng.choice([0, 1, 3, 30, 64, 200, 500])
        la = rng.choice([1, 2, scalar._MUL_SCHOOLBOOK, scalar._MUL_SCHOOLBOOK + 1,
                         rng.randint(1, 120)])
        a = _random_int_poly(rng, la, bits)
        b = _random_int_poly(rng, rng.randint(1, 120), rng.choice([0, 3, bits]))
        full = _ip_mul(a, b)
        for n in (0, 1, rng.randint(0, len(full)), len(full) - 1, len(full), len(full) + 2):
            assert _ip_mul(a, b, n) == full[:n], (a, b, n)
    # every digit of c*(1 + x + ... + x**9) times -c*(1 + ... + x**9) is
    # negative, so the residue below the cut carries into the digit at it
    for c in (1, 1 << 600):
        assert _ip_mul((c,) * 10, (-c,) * 10, 5) == tuple(-c * c * k for k in range(1, 6))


def test_pack_and_unpack_round_trip_on_both_routes_at_the_extreme_digits(rng):
    for w in (8, 16, 64, 200, 13):
        half = 1 << (w - 1)
        edge = (-half, half - 1)
        short = scalar._BYTE_ROUTE_BITS // w    # the shift route; one more is bytes
        for n in (1, 2, short, short + 1, short + 40):
            for _ in range(4):
                p = [rng.choice(edge + (0, rng.randint(-half, half - 1))) for _ in range(n)]
                p[-1] = rng.choice(edge)
                x = _ip_pack(p, w)
                assert x == sum(c << (w * i) for i, c in enumerate(p)), (w, n)
                assert _ip_unpack(x, w) == p, (w, n)


def test_byte_unpack_equals_the_mask_loop(rng, monkeypatch):
    cases = []
    for _ in range(300):
        w = rng.choice([8, 16, 24, 64, 200])
        k = rng.randint(1, 3 * scalar._BYTE_ROUTE_BITS // w)
        n = rng.choice([rng.getrandbits(w * k), (1 << (w * k - 1)) - 1,
                        -(1 << (w * k - 1)), rng.getrandbits(w * k) << w])
        cases.append((rng.choice([-1, 1]) * n, w))
    fast = [_ip_unpack(n, w) for n, w in cases]
    monkeypatch.setattr(scalar, "_BYTE_ROUTE_BITS", 1 << 60)
    assert fast == [_ip_unpack(n, w) for n, w in cases]


def test_pack_of_coefficients_past_half_the_base_is_still_p_at_two_to_the_w(rng):
    # the gcd packs its larger input at a width set by the smaller one
    w = 64
    n = scalar._BYTE_ROUTE_BITS // w + 10
    for top in (1 << (w - 1), 1 << w, 1 << (3 * w)):
        p = [rng.randint(-top, top) for _ in range(n)]
        p[rng.randrange(n)] = rng.choice([top, -top - 1])
        assert _ip_pack(p, w) == sum(c << (w * i) for i, c in enumerate(p))


# -- reduction: the exact quotient when the denominator divides ------------

def _reduce_by_gcd(num, den):
    if not num[2]:
        return ZERO
    if den != (1,):
        _, quo, den = _ip_gcd(num[2], den)
        num = _lp_make(num[0], num[1], list(quo))
    return Scalar(num, den)


def test_reduce_equals_the_gcd_route(rng, monkeypatch):
    cases = []
    for _ in range(150):
        cases.append((random_scalar(rng), random_scalar(rng)))
        p = random_q_poly(rng, 4) * S ** rng.randint(-3, 3)
        d = random_q_poly(rng, 3) + Q ** 4
        # d divides the numerator p*d of (p*d) * (1/d) and (p*d) / d
        cases += [(p * d, ONE / d), (p * d, d), (p, d)]
    got = [(x * y, x / y if y else None) for x, y in cases]
    exact = []
    monkeypatch.setattr(scalar, "_reduce", lambda num, den: exact.append(
        den != (1,) and _ip_divides(num[2], den) is not None) or _reduce_by_gcd(num, den))
    want = [(x * y, x / y if y else None) for x, y in cases]
    for g, w in zip(got, want):
        assert all(u is v is None or _same(u, v) for u, v in zip(g, w))
    assert exact.count(True) > 100 and exact.count(False) > 100


def test_a_failing_exact_division_is_refused_at_s_equal_two(rng):
    # den = q + 10**200 has a unit leading coefficient, so the quotient
    # loop of the exact-division test ran to its end before it failed
    x = Scalar.from_q_coeffs([rng.randint(-9, 9) for _ in range(499)] + [rng.randint(1, 9)])
    d = Q + Scalar.from_int(10 ** 200)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        r = x / d
        times.append(time.perf_counter() - start)
    assert min(times) < 0.02
    assert r * d == x and r.den == (10 ** 200, 0, 1)
    # the canonical string the division printed before the test at s = 2
    assert hashlib.sha256(str(r).encode()).hexdigest() == \
        "5dbf1f4c739110c5c2e496ee8ab30e3e2597aa63eb220f9abd8a34fef2a9a113"


def test_exact_division_by_a_denominator_with_a_root_at_two():
    two = Scalar.from_int(2)
    for den in (S - two, Q - two * two, (S - two) * (Q + ONE)):
        for num in (S + two, Q ** 3 - S, ONE):
            assert (num * den) / den == num
            assert (num / den) * den == num


# -- the polynomial gcd: one integer gcd per try -------------------------------

def test_gcd_doubles_the_width_until_its_candidate_divides(monkeypatch):
    # a = G*a' and b = G*(a' + M) with a'(1) = 0, so 2**w - 1 divides a'(2**w);
    # M is divisible by 2**w - 1 at the first two widths, where the integer
    # gcd reads back as (x - 1)*G, which does not divide b
    G = (1, 1, 1)
    ap = _ip_mul((-1, 1), (2, 1))
    a = _ip_mul(G, ap)
    w = (2 * max(map(abs, a)) + 1).bit_length()       # least 2**w >= 2*|a| + 2
    M = ((1 << w) - 1) * ((1 << 2 * w) - 1)
    b = _ip_mul(G, (ap[0] + M,) + ap[1:])
    widths = []
    monkeypatch.setattr(scalar, "_ip_pack", lambda p, w: widths.append(w) or _ip_pack(p, w))
    assert _ip_gcd(a, b)[0] == G
    assert widths == [w, w, 2 * w, 2 * w, 4 * w, 4 * w]


def test_dense_fraction_sum_takes_one_integer_gcd_per_try(rng):
    # dense q-degrees 200 and 300 with one-digit coefficients; a
    # pseudo-remainder sequence took 3.4 s to find their gcds
    A = Scalar.from_q_coeffs([rng.randint(-9, 9) for _ in range(200)] + [1])
    B = Scalar.from_q_coeffs([rng.randint(-9, 9) for _ in range(300)] + [1])
    start = time.perf_counter()
    r = ONE / A + ONE / B
    assert time.perf_counter() - start < 0.5
    assert r * A * B == A + B
