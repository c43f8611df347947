"""q-combinatorics: q-integers, q-factorials, Gaussian binomials, Pochhammer
products, the Euler function and the modular discriminant.  The factorials
and binomials are built on integer rows in q, each made a Scalar once.

Besides Scalar, one data shape is used: ``QSeries``, the ``Series`` of
``series.py`` with exact rational coefficients instead of Scalars; its
class fixes the variable to q, as ``Series`` fixes T.  It holds ``int``
coefficients where they are integral and inherits every kernel
(multiply, unit division, powering) and its constructor from
``Series``.  Its product clears each factor's denominators and makes one
``scalar._ip_mul`` call, which packs above its crossover; its quotient,
exponential and reversion sum ``int`` and ``Fraction`` products.
``QSeries.from_scalar`` expands a Scalar living in q by that unit
division, numerator over denominator; the division's dot products stop
at the divisor's last nonzero term.  A rectangular (t-order, q-order)
truncation, such as the infinite Pochhammer product, is a plain tuple of
QSeries indexed by t-degree, all at one q-order.  It is the one (t, q)
type of the package: ``lambda_ring.lambda_t`` returns its Witt elements
as this tuple, and ``cli`` prints it.  Such a product is computed on
packed rows (``_row_product``): each t-row is one integer holding its
q-coefficients as base-2**w digits, w proven wide enough for the final
coefficients (``_row_width``), and each factor (1 + c*t*q^n)^m adds
shifted multiples of the rows below to each row, modulo 2**(w*(q_order+1)).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, fsum, inf, isqrt, lcm, log, log1p, log2
from operator import add, mul, sub

from .scalar import Scalar, _ip_mul, _ip_unpack
from .series import Series

__all__ = [
    "QSeries",
    "q_int",
    "q_fact",
    "q_binom",
    "poch_finite",
    "poch_inf_product",
    "poch_inf_sum",
    "euler_phi",
    "discriminant",
]


# ---------------------------------------------------------------------------
# q-integers, factorials, binomials (exact Scalars)

def q_int(k: int) -> Scalar:
    """1 + q + ... + q^(k-1), the empty sum for k = 0."""
    if k < 0:
        raise ValueError("q_int index must be >= 0")
    return Scalar.from_q_coeffs([1] * k)


def q_fact(k: int) -> Scalar:
    """[k]_q! = q_int(1) ... q_int(k), q_fact(0) = 1, on one integer row:
    times q_int(i) = (1 - q^i)/(1 - q) is a difference at stride i, then a
    running sum, cut at degree i(i-1)/2, past which it is zero."""
    if k < 0:
        raise ValueError("q_fact index must be >= 0")
    c = [1]
    for i in range(2, k + 1):
        c = list(accumulate(map(sub, c + [0] * (i - 1), [0] * i + c)))
    return Scalar.from_q_coeffs(c)


def q_binom(n: int, k: int) -> Scalar:
    """Gaussian binomial coefficient; always a polynomial in q.

    Built on integer coefficient rows by the q-Pascal rule
    [m choose j] = [m-1 choose j-1] + q^j [m-1 choose j], with no
    division.  With k <= n/2, the degree j(m-j) of each row is at most
    k(n-k), the degree of the result, so rows of that width hold every
    coefficient.
    """
    if not 0 <= k <= n:
        raise ValueError("q_binom needs 0 <= k <= n")
    k = min(k, n - k)
    width = k * (n - k) + 1
    rows = [[1] + [0] * (width - 1)] + [[0] * width for _ in range(k)]  # m = 0
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            lo, hi = rows[j - 1], rows[j]
            rows[j] = lo[:j] + list(map(add, lo[j:], hi))
    return Scalar.from_q_coeffs(rows[k])


# ---------------------------------------------------------------------------
# QSeries: truncated power series in q over exact rationals

def _sum_of_products(xs, ys):
    """The sum of x * y over paired exact rationals, ``QSeries._dot``."""
    return sum(map(mul, xs, ys))


def _packed_mullow(xs, ys, n: int) -> list:
    """The coefficients 0..n of a product of exact rational sequences,
    ``QSeries._mullow``: each side, times the lcm of its denominators, is
    an integer polynomial, and one ``_ip_mul`` returns the lowest n + 1
    coefficients of their product."""
    a, da = _cleared(xs[: n + 1])
    b, db = _cleared(ys[: n + 1])
    out = _ip_mul(a, b, n + 1)
    d = da * db
    return out if d == 1 else [Fraction(c, d) for c in out]


def _cleared(cs) -> tuple:
    """(p, d): the integers p = d * cs, d the lcm of the denominators."""
    d = lcm(*[c.denominator for c in cs])
    return (cs, 1) if d == 1 else ([c.numerator * (d // c.denominator) for c in cs], d)


def _exact(c):
    """An exact rational coefficient: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class QSeries(Series):
    """Dense truncated series in q with exact rational coefficients.

    A ``Series`` in the variable q over Q instead of Q(s); all arithmetic
    is inherited.  A coefficient is stored as an ``int`` when it is
    integral and as a ``Fraction`` only when it is not, so integral
    series run on machine integers and print exactly as their Fraction
    forms would.
    """

    __slots__ = ()
    _coerce = staticmethod(_exact)
    _ZERO = 0
    _ONE = Fraction(1)          # in Q, so that 1 / c is exact, never a float
    _dot = staticmethod(_sum_of_products)
    _mullow = staticmethod(_packed_mullow)
    _VAR = "q"
    _TERM = "{c}*{v}^{k}"

    @staticmethod
    def from_scalar(a: Scalar, order: int) -> "QSeries":
        """The q-expansion of ``a`` at q = 0, degrees 0..order.

        Requires ``a`` to live in q and to have no pole at q = 0.  The
        numerator and the denominator are read as QSeries and divided by
        the one unit division of ``Series``.
        """
        if not a.lives_in_q():
            raise ValueError("element does not live in q")
        nval, nden, nco = a.num
        if nval < 0:
            raise ZeroDivisionError("pole at q = 0")
        lead = (0,) * min(nval // 2, order + 1)
        num = QSeries(order, lead + tuple(Fraction(c, nden) for c in nco[::2]))
        if a.den == (1,):
            return num
        return num / QSeries(order, a.den[::2])

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q**k (k >= 0), truncating at the same order."""
        if k < 0:
            raise ValueError("shift must be by a nonnegative power")
        return QSeries(self.order, (0,) * k + self.coeffs)


# ---------------------------------------------------------------------------
# (t, q) truncations as packed integer rows, one integer per t-degree

def _row_width(t_order: int, q_order: int, factors: list) -> int:
    """A whole-byte w with every coefficient of the product of (1 + c*t*q^n)^m,
    cut at t^t_order and q^q_order, below 2**(w-1) in absolute value.

    Each is at most that of P, the product of (1 + |c| t q^n)^m, m > 0, and
    (1 - |c| t q^n)^m, m < 0: at most comb(M + T, T) C^T, M = sum |m| and
    C = max |c|, and at most Cauchy's P(1, r) / r^q_order, 0 < r < 1, where
    r = 1 / (1 + 2^v) walks from 1/2 by steps of 1, then 1/2, in v while
    that falls (log P(1, e^u) - q_order u is convex in u).  A float term of
    log P is exact to a relative 2^-30 while |c| r^n <= 1 - 2^-20 at m < 0,
    a point past that counting as divergent, so 2^-20 more covers it; an
    int too large for a float leaves the closed form.
    """
    bits = (comb(sum(abs(m) for _, _, m in factors) + t_order, t_order)
            * max((abs(c) for _, c, _ in factors), default=1) ** t_order).bit_length()
    ns, ms = [n for n, _, _ in factors], [m for _, _, m in factors]
    cs = [abs(c) if m > 0 else -abs(c) for _, c, m in factors]

    def cauchy(v: float) -> float:
        r = 1 / (1 + 2.0 ** v)
        xs = list(map(mul, cs, map(pow, repeat(r), ns)))
        if min(xs, default=0) < 2.0 ** -20 - 1:
            return inf
        return fsum(map(mul, ms, map(log1p, xs))) / log(2) - q_order * log2(r)

    try:
        v, best = 0, cauchy(0)
        for step in (-1, 1, -0.5, 0.5):
            while (f := cauchy(v + step)) < best:
                v, best = v + step, f
        bits = min(bits, int(best * (1 + 2.0 ** -20)) + 1)
    except OverflowError:
        pass
    return (bits + 8) & -8


def _row_product(t_order: int, q_order: int, factors) -> tuple:
    """The product of (1 + c*t*q^n)^m over (n, c, m) in ``factors``, as the
    tuple of its t^0 .. t^t_order coefficients, each a QSeries.

    Row j is one integer, its q-coefficients the base-2**w digits: q -> 2**w
    is a ring homomorphism from Z[q]/(q^N), N = q_order + 1, onto the
    integers mod 2**(w*N), so each step runs on residues.  The factor's t^i
    term is binom(m, i) c^i q^(n*i) for every integer m; row j gains it
    times the old row j - i, cut first to the digits the shift keeps.  Only
    the final coefficients need fit in w - 1 bits (``_row_width``): each
    row's signed residue is then p(2**w) itself, unpacked once.
    """
    factors = [f for f in factors if f[0] <= q_order]
    w = _row_width(t_order, q_order, factors)
    size = w * (q_order + 1)
    mask, top = (1 << size) - 1, 1 << (size - 1)
    rows = [1] + [0] * t_order
    for n, c, m in factors:
        old, b = rows[:], 1
        for i in range(1, t_order + 1):
            b = b * (m - i + 1) * c // i    # exact: i divides it
            shift = w * n * i
            if not b or shift >= size:
                break
            low = 0     # made once, if a row has digits the shift drops
            for j in range(i, t_order + 1):
                x = old[j - i]
                if x.bit_length() > size - shift:
                    x &= low or (low := mask >> shift)
                rows[j] += b * x << shift
        rows = [r & mask if r < 0 or r.bit_length() > size else r for r in rows]
    return tuple(QSeries(q_order, _ip_unpack((r ^ top) - top, w)) for r in rows)


def poch_finite(n: int, q_order: int) -> tuple:
    """(t; q)_n, the product of (1 - t*q^k) for 0 <= k < n.

    Returned as the tuple of its t^0 .. t^n coefficients, each a QSeries.
    """
    if n < 0:
        raise ValueError("Pochhammer length must be >= 0")
    return _row_product(n, q_order, ((k, -1, 1) for k in range(n)))


def _top_row(q_order: int) -> int:
    """The largest k with k(k-1)/2 <= q_order."""
    return (1 + isqrt(1 + 8 * q_order)) // 2


def poch_inf_product(t_order: int, q_order: int) -> tuple:
    """(t; q)_infinity via its product, factors cut at index q_order.

    Every omitted factor 1 - t*q^n with n > q_order differs from 1 only
    in q-degrees beyond the truncation, at every positive t-degree, so
    the cut is exact at this precision.  Returned as the tuple of the
    t^0 .. t^t_order coefficients.  The t^k coefficient starts at
    q^(k(k-1)/2), so the rows past the largest k with k(k-1)/2 <= q_order
    are zero and are not computed.
    """
    live = min(t_order, _top_row(q_order))
    factors = ((k, -1, 1) for k in range(q_order + 1))
    return _row_product(live, q_order, factors) + (QSeries(q_order),) * (t_order - live)


def poch_inf_sum(t_order: int, q_order: int) -> tuple:
    """(t; q)_infinity via the summation formula.

    The t^k coefficient is the Euler term (-1)^k q^(k(k-1)/2) / ((1-q)^k [k]_q!).
    By Euler's recurrence, row k is row k - 1 times -q^(k-1) over 1 - q^k:
    on an integer list, one running sum at stride k, c[j] += c[j - k].
    This route shares no code with the row kernel, so it is the
    independent oracle of the product route and of the lambda route.
    """
    rows, c = [QSeries(q_order, (1,))], [1] + [0] * q_order
    for k in range(1, t_order + 1):
        c = ([0] * (k - 1) + [-x for x in c])[: q_order + 1]
        for j in range(k, q_order + 1):
            c[j] += c[j - k]
        rows.append(QSeries(q_order, c))
    return tuple(rows)


# ---------------------------------------------------------------------------
# the Euler function and the discriminant

def euler_phi(q_order: int) -> QSeries:
    """The product of (1 - q^k) for k = 1..q_order, truncated."""
    if q_order < 1:
        raise ValueError("q-order must be >= 1")
    out = [0] * (q_order + 1)
    out[0] = 1
    for k in range(1, q_order + 1):
        # multiply by (1 - q^k) in place
        out[k:] = map(sub, out[k:], out[: q_order + 1 - k])
    return QSeries(q_order, out)


def discriminant(q_order: int) -> QSeries:
    """q times the 24th power of the Euler function, truncated.

    The coefficient of q^n is the n-th coefficient of the discriminant
    cusp form.  Computed from Jacobi's identity
    phi^3 = sum_j (-1)^j (2j+1) q^(j(j+1)/2) as q * (phi^3)^8, by three
    squarings; the pentagonal product ``euler_phi`` is the independent
    route to the same series.
    """
    if q_order < 1:
        raise ValueError("q-order must be >= 1")
    cube = [0] * q_order
    j = 0
    while j * (j + 1) // 2 < q_order:
        cube[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
        j += 1
    p = QSeries(q_order - 1, cube)
    for _ in range(3):
        p = p * p
    return QSeries(q_order, (0,) + p.coeffs)
