"""Lambda-ring operations on the circle character ring and its localizations.

Adams operations act on scalars by q -> q^k.  The total lambda operation
is defined on q-expandable virtual elements a = sum a_n q^n (integer a_n)
by the exponential product formula

    lambda_t(a) = prod_n (1 + t q^n)^(a_n),

the unique multiplicative extension of "a line L goes to 1 + t L".  Its
values are Witt elements: unit-constant series in t under multiplication,
with ghost components read off the logarithmic derivative.  The stored
object is lambda_t; comparisons against alternating-sign conventions are
made through ``negate_t``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalar import Scalar, ZERO, ONE, Q
from .series import Series
from .mobius import Mobius, mob_apply_scalar
from .qcomb import QSeries, q_fact, euler_phi, discriminant, _unit_rows, _times_power
from .report import Check, VerificationReport

__all__ = [
    "QExpandable",
    "WittElement",
    "q_expandable",
    "adams",
    "lambda_t",
    "negate_t",
    "witt_add",
    "witt_neg",
    "witt_ghost",
    "newton_adams_from_lambda",
    "lambda_k_closed",
    "LambdaKReport",
    "elementary_symmetric_oracle",
    "thom_class",
    "discriminant_limit",
]


# ---------------------------------------------------------------------------
# q-expandable elements

@dataclass(frozen=True)
class QExpandable:
    """A scalar together with its q-expansion at q = 0 to a stated order."""

    exact: Scalar
    expansion: QSeries
    integral: bool


def q_expandable(a: Scalar, q_order: int) -> QExpandable:
    exp = QSeries.from_scalar(a, q_order)
    return QExpandable(exact=a, expansion=exp, integral=exp.is_integral())


# ---------------------------------------------------------------------------
# Adams operations

def adams(a: Scalar, k: int) -> Scalar:
    """psi^k: substitute q -> q^k; a ring endomorphism, exact on scalars."""
    return a.adams_substitute(k)


# ---------------------------------------------------------------------------
# the total lambda operation into Witt elements

@dataclass(frozen=True)
class WittElement:
    """An element of 1 + t R[[t]]: group under series multiplication.

    ``body`` is a series in t with scalar coefficients; ``q_order``
    records the q-precision the coefficients are trusted to.  The body
    that ``lambda_t`` builds has its coefficients reduced mod
    q^(q_order+1): they are polynomials in q of degree at most q_order.
    """

    body: Series
    q_order: int

    @property
    def t_order(self) -> int:
        return self.body.order

    def coeff(self, k: int) -> QSeries:
        """t^k coefficient, truncated to the trusted q-order."""
        return QSeries.from_scalar(self.body[k], self.q_order)


def lambda_t(a, t_order: int, q_order: int) -> WittElement:
    """Total lambda operation: prod_n (1 + t q^n)^(a_n) truncated.

    ``a`` may be a Scalar (expanded here) or a prepared QExpandable; the
    expansion coefficients must be integers.  The product is cut at
    factor index q_order, which is exact at this q-precision.  It runs
    on integer rows, one per t-degree, that each factor (1 + t q^n)^(a_n)
    multiplies in place; a negative a_n divides.
    """
    if isinstance(a, Scalar):
        a = q_expandable(a, q_order)
    if not a.integral:
        raise ValueError("lambda_t needs integer expansion coefficients")
    rows = _unit_rows(t_order, a.expansion.order)
    for n, m in enumerate(a.expansion.coeffs):
        if m:
            _times_power(rows, n, 1, m)
    body = Series("t", t_order, [Scalar.from_q_coeffs(r) for r in rows])
    return WittElement(body=body, q_order=a.expansion.order)


def negate_t(w: WittElement) -> WittElement:
    """t -> -t, moving between lambda_t and the alternating convention."""
    coeffs = [c if k % 2 == 0 else -c for k, c in enumerate(w.body.coeffs)]
    return WittElement(body=Series("t", w.t_order, coeffs), q_order=w.q_order)


def witt_add(w1: WittElement, w2: WittElement) -> WittElement:
    """Witt-vector sum: multiplication of the underlying series."""
    return WittElement(body=w1.body * w2.body,
                       q_order=min(w1.q_order, w2.q_order))


def witt_neg(w: WittElement) -> WittElement:
    one = Series.constant("t", w.t_order, ONE)
    return WittElement(body=one / w.body, q_order=w.q_order)


def _ghost_series(w: WittElement) -> Series:
    """-t d/dt log of the body at t -> -t; coefficients are psi^k."""
    u = negate_t(w).body
    g = u.deriv() / u.truncate(max(u.order - 1, 0))
    # -t * g: degree k coefficient is -g_(k-1)
    coeffs = [ZERO] + [-g[k - 1] for k in range(1, w.t_order + 1)]
    return Series("t", w.t_order, coeffs)


def witt_ghost(w: WittElement, n: int) -> QSeries:
    """n-th ghost component (power-sum coordinate), as a q-series."""
    if not 1 <= n <= w.t_order:
        raise ValueError("ghost index out of the computed range")
    return QSeries.from_scalar(_ghost_series(w)[n], w.q_order)


def newton_adams_from_lambda(w: WittElement, K: int):
    """psi^1..psi^K extracted from a Witt element by the Newton relation."""
    if K > w.t_order:
        raise ValueError("not enough t-precision for the requested Adams range")
    g = _ghost_series(w)
    return [QSeries.from_scalar(g[k], w.q_order) for k in range(1, K + 1)]


# ---------------------------------------------------------------------------
# closed form of lambda^k applied to 1/(1-q)

def elementary_symmetric_oracle(k: int, q_order: int) -> QSeries:
    """e_k(1, q, q^2, ..., q^q_order), by the variable-by-variable recursion.

    Independent of the series machinery: only polynomial addition and
    multiplication by single monomials are used.
    """
    if k < 0:
        raise ValueError("index must be >= 0")
    # e[j] after absorbing variables q^0 .. q^m
    e = [QSeries.one(q_order)] + [QSeries.zero(q_order) for _ in range(k)]
    for m in range(q_order + 1):
        for j in range(min(k, m + 1), 0, -1):
            e[j] = e[j] + e[j - 1].shift(m) if m else e[j] + e[j - 1]
    return e[k]


@dataclass(frozen=True)
class LambdaKReport:
    """Adjudication of the closed form of lambda^k((1-q)^{-1}).

    ``printed`` carries the exponent k(k+1)/2, ``corrected`` the binomial
    exponent k(k-1)/2; ``witt_route`` is the t^k coefficient of the total
    lambda operation and ``oracle`` the elementary-symmetric value, both
    expanded to ``q_order_used``, which is raised beyond the requested
    order when needed so the two exponent variants stay distinguishable
    (their q-valuations are k(k-1)/2 and k(k+1)/2).  ``selected`` names
    the exponent variant all routes agree on.
    """

    k: int
    printed: Scalar
    corrected: Scalar
    witt_route: QSeries
    oracle: QSeries
    selected: str
    q_order_used: int


def lambda_k_closed(k: int, q_order: int) -> LambdaKReport:
    if k < 1:
        raise ValueError("index must be >= 1")
    p = max(q_order, k * (k + 1) // 2 + 2)
    one_minus_q = ONE - Q
    base = q_fact(k) * one_minus_q ** k
    printed = Scalar.q_power(k * (k + 1) // 2) / base
    corrected = Scalar.q_power(k * (k - 1) // 2) / base
    w = lambda_t(ONE / one_minus_q, k, p)
    witt_route = w.coeff(k)
    oracle = elementary_symmetric_oracle(k, p)
    printed_q = QSeries.from_scalar(printed, p)
    corrected_q = QSeries.from_scalar(corrected, p)
    if witt_route == oracle == corrected_q:
        selected = "binom(k,2)"
    elif witt_route == oracle == printed_q:
        selected = "k(k+1)/2"
    else:
        selected = "none"
    return LambdaKReport(k=k, printed=printed, corrected=corrected,
                         witt_route=witt_route, oracle=oracle,
                         selected=selected, q_order_used=p)


# ---------------------------------------------------------------------------
# the Thom class and the discriminant limit

def thom_class(q_order: int) -> QSeries:
    """lambda_{-t} of the positive-degree part of 1/(1-q), at t = 1.

    The literal substitution t = 1 into the full product vanishes through
    the n = 0 factor (1 - t); the intended value keeps the factors with
    n >= 1, i.e. applies the lambda operation to q/(1-q) = q + q^2 + ...
    Computed through the Witt element and summed with alternating signs
    at t = 1; equals the Euler function.
    """
    # t-degrees k with minimal q-degree k(k+1)/2 beyond q_order cannot
    # contribute
    t_order = 1
    while t_order * (t_order + 1) // 2 <= q_order:
        t_order += 1
    a = Q / (ONE - Q)
    w = lambda_t(a, t_order, q_order)
    acc = QSeries.zero(q_order)
    for k in range(t_order + 1):
        c = w.coeff(k)
        acc = acc + (c if k % 2 == 0 else -c)
    return acc


def discriminant_limit(q_order: int) -> VerificationReport:
    """Evaluate q * lambda_{-t}(M(q)) as t -> 1, M the matrix (0 24 / -1 1).

    The Moebius action sends q to 24/(1-q), a virtual element with all
    expansion coefficients 24, so the lambda operation is the 24th power
    of the Pochhammer product.  Two limit readings are compared against
    the discriminant: (a) direct substitution t = 1, which vanishes
    through the (1-t)^24 factor, and (b) dropping that unit factor first,
    which lands exactly on q times the 24th power of the Euler function.

    Reading (b) raises the pentagonal product ``euler_phi`` to the 24th
    power, a route genuinely different from ``discriminant()``, which
    uses Jacobi's identity for phi^3.  Reading (a) is still hard-coded
    (1 - 1)^24 rather than computed from the lambda ring; routing both
    readings through ``lambda_t`` of 24/(1-q) is left open.
    """
    m = Mobius(ZERO, Scalar.from_int(24), -ONE, ONE)
    mapped = mob_apply_scalar(m, Q)
    target = Scalar.from_int(24) / (ONE - Q)
    checks = [Check("Moebius step: matrix applied to q equals 24/(1-q)",
                    None, mapped == target)]

    exp = QSeries.from_scalar(mapped, q_order)
    all_24 = all(c == 24 for c in exp.coeffs)
    checks.append(Check("expansion coefficients all equal 24", q_order, all_24))

    delta = discriminant(q_order)

    # (a) t = 1 in the factored finite product: the n = 0 factor is 1 - 1
    factors_at_1 = [(1 - 1) ** 24] + [1] * q_order
    candidate_a = QSeries.zero(q_order) if factors_at_1[0] == 0 else None
    is_zero = candidate_a is not None and candidate_a.is_zero()
    checks.append(Check("reading (a): direct t = 1 vanishes identically",
                        q_order, is_zero))
    checks.append(Check("reading (a) matches the discriminant", q_order,
                        candidate_a == delta,
                        None if candidate_a == delta else
                        "identically zero, cannot equal the discriminant"))

    # (b) drop the n = 0 factor, then t = 1: prod_{n>=1} (1 - q^n)^24
    candidate_b = (euler_phi(q_order) ** 24).truncate(q_order)
    q_candidate_b = QSeries(q_order, (0,) + candidate_b.coeffs)
    checks.append(Check("reading (b): q * (dropped-factor product at t = 1) "
                        "equals the discriminant", q_order,
                        q_candidate_b == delta))
    return VerificationReport(tuple(checks))
