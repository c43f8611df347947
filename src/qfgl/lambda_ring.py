"""Lambda-ring operations on the circle character ring and its localizations.

Adams operations act on scalars by q -> q^k (``scalar.adams``).  The
total lambda operation is defined on q-expandable virtual elements
a = sum a_n q^n (integer a_n) by the exponential product formula

    lambda_t(a) = prod_n (1 + t q^n)^(a_n),

the unique multiplicative extension of "a line L goes to 1 + t L".  Its
values are Witt elements: unit-constant series in t under multiplication.
A Witt element is its (t, q) truncation, the row tuple of ``qcomb`` that
``poch_inf_product`` also returns: ``w[k]`` is the t^k coefficient, a
QSeries, all rows share one q-order, and the t-order is ``len(w) - 1``.
Its ghost components come from Newton's identities on those rows.  The
stored object is lambda_t; comparisons against alternating-sign
conventions are made through ``negate_t``.
"""

from __future__ import annotations

from operator import add

from .scalar import Scalar, ZERO, ONE, Q
from .mobius import Mobius, mob_apply_scalar
from .qcomb import QSeries, poch_inf_sum, euler_phi, discriminant, _row_product, _top_row
from .report import VerificationReport, compare

__all__ = [
    "lambda_t",
    "negate_t",
    "witt_add",
    "newton_adams_from_lambda",
    "lambda_k_closed",
    "elementary_symmetric_oracle",
    "thom_class",
    "discriminant_limit",
]


# ---------------------------------------------------------------------------
# the total lambda operation into Witt elements

def lambda_t(a: Scalar, t_order: int, q_order: int) -> tuple:
    """Total lambda operation: prod_n (1 + t q^n)^(a_n) truncated.

    The q-expansion coefficients a_n of ``a`` must be integers.  The
    product is cut at factor index q_order, which is exact at this
    q-precision.  It runs on packed rows, one integer per t-degree holding
    its q-coefficients as digits (``qcomb._row_product``), that each factor
    (1 + t q^n)^(a_n) multiplies; a negative a_n divides.  Returned as the
    tuple of the t^0 .. t^t_order coefficients.
    """
    expansion = QSeries.from_scalar(a, q_order)
    if not expansion.is_integral():
        raise ValueError("lambda_t needs integer expansion coefficients")
    factors = ((n, 1, m) for n, m in enumerate(expansion.coeffs) if m)
    return _row_product(t_order, q_order, factors)


def negate_t(w: tuple) -> tuple:
    """t -> -t, moving between lambda_t and the alternating convention."""
    return tuple(r if k % 2 == 0 else -r for k, r in enumerate(w))


def witt_add(a: tuple, b: tuple) -> tuple:
    """Witt-vector sum: the t-convolution of the rows."""
    rows = []
    for k in range(min(len(a), len(b))):
        acc = a[0] * b[k]
        for i in range(1, k + 1):
            acc = acc + a[i] * b[k - i]
        rows.append(acc)
    return tuple(rows)


def newton_adams_from_lambda(w: tuple) -> list:
    """psi^1..psi^K, the ghost components, by Newton's identities, where
    K = len(w) - 1 is the t-order of ``w``.

    With u = lambda_(-t) = prod (1 - t x_j), the power sums p_k = psi^k
    satisfy -t u'/u = sum_k p_k t^k, that is
    p_k = -k u_k - sum_(0<i<k) u_i p_(k-i): the division of -u' by u.
    """
    u = negate_t(w)
    p = []                              # p[k - 1] = p_k
    for k in range(1, len(w)):
        acc = u[k].scale(-k)
        for i in range(1, k):
            acc = acc - u[i] * p[k - i - 1]
        p.append(acc)
    return p


# ---------------------------------------------------------------------------
# closed form of lambda^k applied to 1/(1-q)

def elementary_symmetric_oracle(K: int, q_order: int) -> tuple:
    """e_0 .. e_K of (1, q, q^2, ..., q^q_order), by the variable-by-variable
    recursion, as a tuple indexed by k.

    Independent of the series machinery: it adds integer lists shifted by
    single monomials, and only the results become QSeries.
    """
    if K < 0:
        raise ValueError("index must be >= 0")
    # e[j] after absorbing variables q^0 .. q^m; j walks down, so e[j - 1] is still old
    e = [[1] + [0] * q_order] + [[0] * (q_order + 1) for _ in range(K)]
    for m in range(q_order + 1):
        for j in range(min(K, m + 1), 0, -1):
            e[j][m:] = map(add, e[j][m:], e[j - 1])
    return tuple(QSeries(q_order, row) for row in e)


def lambda_k_closed(K: int, q_order: int) -> VerificationReport:
    """Adjudicate the closed form of lambda^k((1-q)^{-1}), k = 1..K.

    For each k the t^k row of the total lambda operation, the oracle's
    e_k and the Euler term q^(k(k-1)/2) / ((1-q)^k [k]_q!), read off
    ``poch_inf_sum``, agree; that term times q^k, the printed exponent
    k(k+1)/2, is a declared discrepancy.  Each route is computed once, at
    the q-order of k = K; the checks of k compare at
    max(q_order, k(k+1)/2 + 2), where the q-valuations k(k-1)/2 and
    k(k+1)/2 of the two variants both show.
    """
    if K < 1:
        raise ValueError("index must be >= 1")
    top = max(q_order, K * (K + 1) // 2 + 2)
    witt, oracle = lambda_t(ONE / (ONE - Q), K, top), elementary_symmetric_oracle(K, top)
    euler = negate_t(poch_inf_sum(K, top))
    checks = []
    for k in range(1, K + 1):
        p = max(q_order, k * (k + 1) // 2 + 2)
        e, form = oracle[k].truncate(p), euler[k].truncate(p)
        checks += (
            compare(f"k={k}: all routes select the exponent binom(k,2)", None,
                    witt[k].truncate(p), e, form),
            compare(f"k={k}: the k(k+1)/2 exponent variant disagrees", None,
                    form.shift(k), e, differ=True))
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# the Thom class and the discriminant limit

def _at_t_equals_1(w: tuple) -> QSeries:
    """lambda_{-t} at t = 1: the rows summed with alternating signs."""
    return sum(negate_t(w), QSeries(w[0].order))


def thom_class(q_order: int) -> QSeries:
    """lambda_{-t} of the positive-degree part of 1/(1-q), at t = 1.

    The literal substitution t = 1 into the full product vanishes through
    the n = 0 factor (1 - t); the intended value keeps the factors with
    n >= 1, i.e. applies the lambda operation to q/(1-q) = q + q^2 + ...
    Computed through the Witt element and summed with alternating signs
    at t = 1; equals the Euler function.
    """
    # t-degrees k with minimal q-degree k(k+1)/2 beyond q_order cannot
    # contribute; the least such k is the largest with k(k-1)/2 <= q_order
    return _at_t_equals_1(lambda_t(Q / (ONE - Q), _top_row(q_order), q_order))


def discriminant_limit(q_order: int) -> VerificationReport:
    """Evaluate q * lambda_{-t}(M(q)) as t -> 1, M the matrix (0 24 / -1 1).

    The Moebius action sends q to 24/(1-q), a virtual element with all
    expansion coefficients 24, so the lambda operation is the 24th power
    of the Pochhammer product.  It splits as
    lambda_{-t}(24/(1-q)) = lambda_{-t}(24) * lambda_{-t}(24q/(1-q)),
    the first factor being (1-t)^24; the split keeps ``lambda_t`` at
    t-order 24 instead of q_order + 24.  Two limit readings are compared
    against the discriminant: (a) direct substitution t = 1 in both
    factors, through ``lambda_t`` of the constant 24, which vanishes, a
    declared discrepancy, and (b) dropping the first factor, which lands
    exactly on q times the 24th power of the Euler function.

    Reading (b) raises the pentagonal product ``euler_phi`` to the 24th
    power, a route genuinely different from ``discriminant()``, which
    uses Jacobi's identity for phi^3.
    """
    mapped = mob_apply_scalar(Mobius(ZERO, Scalar.from_int(24), -ONE, ONE), Q)
    delta = discriminant(q_order)
    # prod_{n>=1} (1 - q^n)^24: lambda_{-t}(24q/(1-q)) at t = 1
    dropped = euler_phi(q_order) ** 24

    # (a) t = 1 in both factors; the rows of lambda_{-t}(24) = (1-t)^24
    # are constants, so q-order 0 holds all of them
    at_1 = _at_t_equals_1(lambda_t(Scalar.from_int(24), 24, 0))
    candidate_a = dropped.scale(at_1[0]).shift(1)
    return VerificationReport((
        compare("Moebius step: matrix applied to q equals 24/(1-q)", None,
                mapped, Scalar.from_int(24) / (ONE - Q)),
        compare("expansion coefficients all equal 24", q_order,
                QSeries.from_scalar(mapped, q_order), QSeries(q_order, [24] * (q_order + 1))),
        compare("reading (a): direct t = 1 vanishes identically", q_order,
                candidate_a, QSeries(q_order)),
        compare("reading (a) matches the discriminant (expected not to match)", q_order,
                candidate_a, delta, differ=True),
        # (b) drop the (1 - t)^24 factor, then t = 1
        compare("reading (b): q * (dropped-factor product at t = 1) "
                "equals the discriminant", q_order, dropped.shift(1), delta),
    ))
