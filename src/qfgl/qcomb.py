"""q-combinatorics: q-integers, Gaussian binomials, Pochhammer products,
the Euler function and the modular discriminant.

Besides Scalar, one data shape is used: ``QSeries``, the ``Series`` of
``series.py`` with exact rational coefficients instead of Scalars; its
class fixes the variable to q, as ``Series`` fixes T.  It holds ``int``
coefficients where they are integral and inherits every kernel
(multiply, unit division, powering) and its constructor from
``Series``.  Its product clears each factor's denominators and makes one
``scalar._ip_mul`` call, which packs above its crossover; its quotient,
exponential and reversion sum ``int`` and ``Fraction`` products.
``QSeries.from_scalar`` expands a Scalar living in q by that unit
division, numerator over denominator.  A rectangular (t-order,
q-order) truncation, such as the infinite Pochhammer product, is a plain
tuple of QSeries indexed by t-degree, all at one q-order.  It is the one
(t, q) type of the package: ``lambda_ring.lambda_t`` returns its Witt
elements as this tuple, and ``cli`` prints it.  Such a product is
computed on integer rows, one list of q-coefficients per t-degree, that
each factor (1 + c*t*q^n)^m updates in place (``_row_product``).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import add, mul, sub

from .scalar import Scalar, ONE, Q, _ip_mul
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
    """Product of q_int(1) .. q_int(k); q_fact(0) = 1."""
    if k < 0:
        raise ValueError("q_fact index must be >= 0")
    acc = ONE
    for i in range(1, k + 1):
        acc = acc * q_int(i)
    return acc


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

    def to_scalar(self) -> Scalar:
        """The truncation read back as a polynomial in q."""
        return Scalar.from_q_coeffs(self.coeffs)


# ---------------------------------------------------------------------------
# (t, q) truncations as integer rows, one list of q-coefficients per t-degree

def _times_power(rows: list, tops: list, n: int, c: int, m: int) -> None:
    """Multiply the t-series held in ``rows`` by (1 + c*t*q^n)^m, in place.

    rows[j] is the list of q-coefficients of t^j; all rows have one
    length, the q-truncation.  Entries of rows[j] past q-degree tops[j]
    are zero (tops[j] = -1 for a zero row), so a pass maps only up to
    that bound and raises it.  The t^i coefficient of the factor is
    binom(m, i) c^i q^(n*i) for every integer m, so a negative m divides.
    Walking j downward, rows[j] reads only rows below it, which still
    hold their old values.  One pass costs O(t * q) per nonzero term of
    the factor, whatever the size of m.
    """
    width = len(rows[0])
    terms = [1]
    for i in range(1, len(rows)):
        b = terms[-1] * (m - i + 1) * c // i    # exact: i divides it
        if not b or n * i >= width:
            break
        terms.append(b)
    for j in range(len(rows) - 1, 0, -1):
        dst = rows[j]
        for i in range(1, min(j + 1, len(terms))):
            b, s = terms[i], n * i
            hi = min(tops[j - i] + s + 1, width)
            if hi > s:
                dst[s:hi] = map(add, dst[s:hi], [b * x for x in rows[j - i][: hi - s]])
                tops[j] = max(tops[j], hi - 1)


def _row_product(t_order: int, q_order: int, factors) -> tuple:
    """The product of (1 + c*t*q^n)^m over (n, c, m) in ``factors``.

    Computed on integer rows by ``_times_power``, with the bound of each
    row's nonzero q-degrees, and returned as the tuple of its
    t^0 .. t^t_order coefficients, each a QSeries.
    """
    rows = [[0] * (q_order + 1) for _ in range(t_order + 1)]
    rows[0][0] = 1
    tops = [0] + [-1] * t_order
    for n, c, m in factors:
        _times_power(rows, tops, n, c, m)
    return tuple(QSeries(q_order, r) for r in rows)


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

    The t^k coefficient is (-1)^k q^(k(k-1)/2) / ((1-q)^k [k]_q!), taken
    with the binomial exponent k(k-1)/2; each coefficient is a Scalar
    expanded to the q-truncation.  This closed form shares no code with
    the row kernel, so it is the independent oracle of the product route
    and of the lambda route.
    """
    one_minus_q = ONE - Q
    rows = []
    for k in range(t_order + 1):
        num = Scalar.from_int((-1) ** k) * Scalar.q_power(k * (k - 1) // 2)
        den = q_fact(k) * one_minus_q ** k
        rows.append(QSeries.from_scalar(num / den, q_order))
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
