"""The q-deformed formal group law and its verification machinery.

The law F(X,Y) = (X + Y - (1+q)XY)/(1 - qXY) over Z[q] is built here by
two independent routes: expansion of the closed rational form, and
exp/log transport, where

    log(T) = det^{-1} * log((1 - q*T)/(1 - T)),   det = 1 - q,
    exp(T) = the companion Moebius action applied to exp((1-q)*T),

so that F(X,Y) = exp(log X + log Y).  Setting q = 0 degenerates the law
to the multiplicative one X + Y - XY.  The printed companion
(X + Y + (1+q)XY)/(1 + qXY) is also a law, degenerating to X + Y + XY,
but its logarithm is not the q-integer series; ``proposition_check``
adjudicates between the two forms.

Associativity of a law given only as a truncated bivariate series is
checked by substituting it into itself as a BiSeries in three variables;
a law that also carries its closed rational form is checked exactly by
cross-multiplying the two association orders, in the same BiSeries
arithmetic at a total degree no product can exceed.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import wraps
from math import comb, factorial

from .scalar import Scalar, ZERO, ONE, Q, S, _dot
# bi_compose has no caller here; perfbench's tracer test checks this by-name copy
from .series import Series, BiSeries, log1, exp0, bi_compose, _powers
from .mobius import q_mobius, q_mobius_inv, mob_apply, mob_det
from .report import Check, VerificationReport

__all__ = [
    "FormalGroupLaw",
    "qmob_series",
    "log_chi",
    "exp_chi",
    "f_chi_closed",
    "f_chi_from_log",
    "f_chi_derived_closed",
    "proposition_check",
    "multiplicative_law",
    "verify_fgl",
    "drinfeld_form",
    "cp_image",
    "fgl_inverse",
    "fgl_eval",
    "cartier_check",
]


# ---------------------------------------------------------------------------
# the logarithm / exponential pair

def qmob_series(order: int) -> Series:
    """(1 - q*T)/(1 - T) as a series: 1 + (1-q)T + (1-q)T^2 + ..."""
    return mob_apply(q_mobius(), Series.generator(order))


# the longest expansion so far of each function under _expanded_once
_EXPANSIONS: dict = {}


def _expanded_once(expand):
    """``expand``, read off the longest expansion made so far by truncation.

    Series operations truncate exactly, so [T^k] of an expansion does not
    depend on its order.  A call for more than is stored expands again, to
    exactly the order asked, and stores the finished series by one
    assignment: threads that miss together both expand, and none reads a
    half-built value.
    """
    @wraps(expand)
    def read(order: int) -> Series:
        stored = _EXPANSIONS.get(expand.__name__)
        if stored is None or stored.order < order:
            stored = _EXPANSIONS[expand.__name__] = expand(order)
        return stored.truncate(order)
    return read


@_expanded_once
def log_chi(order: int) -> Series:
    """det^{-1} * log of the basic unit series; equals sum [k]_q T^k / k.
    Its [T^k] does not depend on ``order``, so it is expanded once."""
    det_inv = ONE / mob_det(q_mobius())
    return log1(qmob_series(order)).scale(det_inv)


@_expanded_once
def exp_chi(order: int) -> Series:
    """Moebius companion applied to exp((1-q) T); inverse of log_chi.
    Its [T^k] does not depend on ``order``, so it is expanded once."""
    det = mob_det(q_mobius())
    inner = Series.generator(order).scale(det)
    return mob_apply(q_mobius_inv(), exp0(inner))


def cp_image(n: int) -> Scalar:
    """Orientation image of complex projective n-space: 1 + q + ... + q^n.

    Extracted from the logarithm the way one reads manifold classes off a
    complex orientation: (n+1) times the T^(n+1) coefficient.
    """
    if n < 0:
        raise ValueError("projective space dimension must be >= 0")
    lg = log_chi(n + 1)
    return Scalar.from_int(n + 1) * lg[n + 1]


# ---------------------------------------------------------------------------
# the law itself

class FormalGroupLaw(namedtuple("FormalGroupLaw", "series closed", defaults=(None,))):
    """A truncated group law, optionally with its closed rational form.

    ``closed`` is a pair of term dictionaries (numerator, denominator)
    over the two variables; when present it is exact (no truncation).
    """

    __slots__ = ()


def _closed_form(a: Scalar, b: Scalar) -> tuple:
    """The terms (numerator, denominator) of (X + Y + a XY)/(1 + b XY), with
    no key for a zero coefficient."""
    return tuple({k: c for k, c in terms.items() if c} for terms in (
        {(1, 0): ONE, (0, 1): ONE, (1, 1): a}, {(0, 0): ONE, (1, 1): b}))


def _closed_law(a: Scalar, b: Scalar, order: int) -> FormalGroupLaw:
    """(X + Y + a XY)/(1 + b XY), expanded by total degree, with its closed form."""
    closed = num, den = _closed_form(a, b)
    return FormalGroupLaw(BiSeries(2, order, num) / BiSeries(2, order, den), closed)


def f_chi_closed(order: int) -> FormalGroupLaw:
    """Expand (X + Y + (1+q)XY)/(1 + qXY) by total degree."""
    return _closed_law(ONE + Q, Q, order)


def f_chi_from_log(order: int) -> FormalGroupLaw:
    """Transport addition through the logarithm: exp(log X + log Y).

    With L = ``log_chi(order)`` and e = ``exp_chi(order)``, the binomial
    theorem expands e(L(X) + L(Y)) = sum_k e_k (L(X) + L(Y))^k as

        F_ij = sum_{a <= i, b <= j} [T^i]L^a * C(a+b, a) e_{a+b} * [T^j]L^b,

    evaluated through H[i][b] = sum_a [T^i]L^a * C(a+b, a) e_{a+b}, each
    sum one ``scalar._dot``, in O(order^3) coefficient products and
    ``order`` univariate multiplies.
    The route reads only the logarithm and the exponential, never a
    closed form or a reversion, so comparing it with the closed forms
    (``proposition_check``) compares two independent computations.
    """
    lg, ex = log_chi(order), exp_chi(order)
    # P[i][a] = [T^i] L^a, zero for a > i
    P = list(zip(*(p.coeffs for p in _powers(lg, order))))
    w = [[Scalar.from_int(comb(k, a)) * ex[k] for a in range(k + 1)]
         for k in range(order + 1)]         # w[a+b][a] = C(a+b, a) e_{a+b}
    H = [[_dot(P[i], [w[a + b][a] for a in range(i + 1)])
          for b in range(order + 1 - i)] for i in range(order + 1)]
    terms = {(i, j): _dot(H[i], P[j])
             for i in range(order + 1) for j in range(order + 1 - i)}
    return FormalGroupLaw(series=BiSeries(2, order, terms))


def f_chi_derived_closed(order: int) -> FormalGroupLaw:
    """The closed form that the exp/log transport actually produces.

    Clearing exp(log X + log Y) through the Moebius pair gives, exactly,
    (X + Y - (1+q)XY)/(1 - qXY).  This is the unique law whose logarithm
    is sum [k]_q T^k / k; it differs from the form in ``f_chi_closed`` by
    more than a variable rescaling (the two laws have different
    logarithms), so the two are kept side by side and compared by
    ``proposition_check``.
    """
    return _closed_law(-(ONE + Q), -Q, order)


def multiplicative_law(order: int) -> FormalGroupLaw:
    """X + Y + XY with its closed form: the fixture of
    ``test_multiplicative_law_passes``, ``test_generic_and_closed_assoc_routes_agree``
    and ``test_inverse_of_multiplicative_law``, called from the tests only."""
    return _closed_law(ONE, ZERO, order)


def proposition_check(order: int) -> VerificationReport:
    """Adjudicate which closed form the exp/log transport yields.

    Expands exp(log X + log Y) as a bivariate series and compares it,
    coefficient by coefficient, against the two candidate closed forms:
    the one with +(1+q)XY over 1 + qXY and the one with -(1+q)XY over
    1 - qXY.  Exactly one candidate matches (the minus form); the plus
    form fails already at the XY coefficient.
    """
    transported = f_chi_from_log(order).series
    checks = []
    for name, law in (("transport = plus form (X+Y+(1+q)XY)/(1+qXY)",
                       f_chi_closed(order)),
                      ("transport = minus form (X+Y-(1+q)XY)/(1-qXY)",
                       f_chi_derived_closed(order))):
        diff_key = _first_difference(transported, law.series)
        checks.append(Check(name, order, diff_key is None,
                            None if diff_key is None else
                            f"first failing coefficient {diff_key}"))
    return VerificationReport(tuple(checks))


def drinfeld_form(order: int) -> FormalGroupLaw:
    """Rescale the law by half-integer powers of q into its symmetric form.

    s * F(X/s, Y/s) with s**2 = q has the closed expression
    (X + Y + (s^-1 + s)XY)/(1 + XY); the series part is computed by
    rescaling the expanded law, the closed part is attached independently
    so the two routes can be compared.
    """
    base = f_chi_closed(order).series
    terms = {}
    for (i, j), c in base.terms.items():
        terms[(i, j)] = c * Scalar.s_power(1 - i - j)
    return FormalGroupLaw(BiSeries(2, order, terms), _closed_form(ONE / S + S, ONE))


# ---------------------------------------------------------------------------
# associativity: both association orders as series in X, Y, Z


def _combine(terms: dict, xs: list, ys: list) -> Series | BiSeries:
    """The sum of c * xs[i] * ys[j] over the bivariate terms c X^i Y^j;
    xs and ys hold Series or BiSeries."""
    acc = xs[0].scale(ZERO)  # zero, of the tables' type and order
    for (i, j), c in terms.items():
        acc = acc + (xs[i] * ys[j]).scale(c)
    return acc


def _first_difference(a: BiSeries, b: BiSeries):
    """The first monomial, by total degree and then exponents, where a and
    b differ; None when they agree."""
    diff = (a - b).terms
    return min(diff, key=lambda k: (sum(k), k)) if diff else None


def _assoc_generic(F: FormalGroupLaw, order: int):
    """Compare F(F(X,Y),Z) with F(X,F(Y,Z)) by truncated substitution."""
    X, Y, Z = (BiSeries.generator(3, order, k) for k in range(3))
    left = fgl_eval(F, fgl_eval(F, X, Y), Z)
    right = fgl_eval(F, X, fgl_eval(F, Y, Z))
    return _first_difference(left, right)


def _assoc_closed(closed):
    """Exact associativity of a closed rational law by cross-multiplying.

    F = P/R.  Clearing denominators writes each association order as
    N/D with polynomials N and D, so associativity is the polynomial
    identity N1*D2 = N2*D1.  With d the largest total degree of a term
    of P or R, every N and D has total degree at most d(d+1), so a
    truncation at 2d(d+1) drops no term and the check is exact.
    """
    P, R = closed
    keys = [*P, *R]
    du = max(i for (i, _) in keys)
    dv = max(j for (_, j) in keys)
    d = max(map(sum, keys))
    order = 2 * d * (d + 1)
    X, Y, Z = (_powers(BiSeries.generator(3, order, k), max(du, dv)) for k in range(3))

    def cleared(xs, ys, deg):
        # A^e B^(deg-e), e = 0..deg: (A/B)^e cleared by B^deg, F = A/B at (xs, ys)
        apow = _powers(_combine(P, xs, ys), deg)
        bpow = _powers(_combine(R, xs, ys), deg)
        return [apow[e] * bpow[deg - e] for e in range(deg + 1)]

    # left: P and R at (F(X,Y), Z), cleared by B^du
    xs, ys = cleared(X, Y, du), Z
    n1, d1 = _combine(P, xs, ys), _combine(R, xs, ys)
    # right: P and R at (X, F(Y,Z)), cleared by B^dv
    xs, ys = X, cleared(Y, Z, dv)
    n2, d2 = _combine(P, xs, ys), _combine(R, xs, ys)
    return _first_difference(n1 * d2, n2 * d1)


# ---------------------------------------------------------------------------
# axiom verification

def verify_fgl(F: FormalGroupLaw, order: int, assoc: str = "auto") -> VerificationReport:
    """Check unit, commutativity and associativity to total degree ``order``.

    ``assoc`` picks the associativity route: "generic" (truncated
    trivariate substitution), "closed" (exact cross-multiplied rational
    identity, requires the closed form) or "auto" (closed when present).
    Failures become report entries; another ``assoc``, a law expanded to less
    than ``order`` or, on the generic route, one with a constant term raises ValueError.
    """
    if assoc not in ("auto", "generic", "closed"):
        raise ValueError(f"assoc must be 'auto', 'generic' or 'closed', not {assoc!r}")
    if F.series.order < order:
        raise ValueError("law not expanded far enough for the requested order")
    Fs = F.series.truncate(order)
    checks = []

    on_x = {(i, j): c for (i, j), c in Fs.terms.items() if j == 0}
    on_y = {(i, j): c for (i, j), c in Fs.terms.items() if i == 0}
    swapped = {(j, i): c for (i, j), c in Fs.terms.items()}
    for name, lhs, rhs in (
            ("unit F(X,0) = X", BiSeries(2, order, on_x), BiSeries.generator(2, order, 0)),
            ("unit F(0,Y) = Y", BiSeries(2, order, on_y), BiSeries.generator(2, order, 1)),
            ("commutativity F(X,Y) = F(Y,X)", Fs, BiSeries(2, order, swapped))):
        bad = _first_difference(lhs, rhs)
        checks.append(Check(name, order, bad is None,
                            None if bad is None else f"first failing coefficient {bad}"))

    use_closed = (assoc == "closed") or (assoc == "auto" and F.closed is not None)
    if use_closed:
        if F.closed is None:
            raise ValueError("no closed form available for the closed route")
        bad = _assoc_closed(F.closed)
        name = "associativity (exact, closed form)"
    else:
        bad = _assoc_generic(F, order)
        name = "associativity (truncated substitution)"
    checks.append(Check(name, order, bad is None,
                        None if bad is None else
                        f"first failing monomial {bad}, total degree {sum(bad)}"))

    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# the formal inverse

def fgl_inverse(F: FormalGroupLaw) -> Series:
    """The series i(T) with F(T, i(T)) = 0, to the order of the law, by
    Newton iteration on Y.

    Starting from i = -(c10/c01) T, each step i <- i - F(T, i)/dF/dY(T, i)
    doubles the number of correct coefficients (Brent-Kung 1978).  F and
    dF/dY are evaluated together by Horner's rule in Y over the Y-slices
    of the law.  Raises ValueError when c01, the coefficient of Y, is
    zero.
    """
    Fs = F.series
    order = Fs.order
    c01 = Fs.terms.get((0, 1), ZERO)
    if c01.is_zero():
        raise ValueError("the formal inverse needs an invertible Y coefficient")
    rows = [[ZERO] * (order + 1) for _ in range(order + 1)]   # rows[j][i] = c_ij
    for (i, j), c in Fs.terms.items():
        rows[j][i] = c
    top = max((j for (i, j) in Fs.terms), default=0)
    iota = Series(order, (ZERO, -Fs.terms.get((1, 0), ZERO) / c01))
    prec = 1                                # iota is exact through T^prec
    while prec < order:
        prec = min(2 * prec + 1, order)
        y = Series(prec, iota.coeffs)
        J = min(top, prec)                  # y^j = O(T^j): higher slices vanish
        f, df = Series(prec, rows[J]), Series(prec)
        for j in range(J - 1, -1, -1):
            df = df * y + f
            f = f * y + Series(prec, rows[j])
        iota = y - f / df
    return iota


def fgl_eval(F: FormalGroupLaw, f: Series | BiSeries, g: Series | BiSeries):
    """The law applied to two Series, or two BiSeries, with zero constant term.

    The result has the least of the orders of the law, f and g: past the
    law's order, its coefficients are not known.  Sums c_ij f^i g^j over
    tables of powers, sharing no code with the Horner evaluation inside
    ``fgl_inverse``, so F(T, i(T)) = 0 checks the inverse by an
    independent route.
    """
    if not (f.constant_term().is_zero() and g.constant_term().is_zero()):
        raise ValueError("substitution needs arguments with zero constant term")
    order = min(F.series.order, f.order, g.order)
    terms = F.series.truncate(order).terms
    max_i = max((i for (i, _) in terms), default=0)
    max_j = max((j for (_, j) in terms), default=0)
    return _combine(terms, _powers(f.truncate(order), max_i),
                    _powers(g.truncate(order), max_j))


# ---------------------------------------------------------------------------
# the exponential-character identity

def _log_u_powers(t_order: int, x_order: int) -> list:
    """[1, log U, ..., (log U)^t_order] for U = (1 - qT)/(1 - T), by the
    binomial series (log U)^k = k! sum_j s(j, k) (U - 1)^j / j!, s the signed
    Stirling numbers of the first kind (Comtet, *Advanced Combinatorics*,
    1974, ch. V).  With y = 1 - q, [T^n](U - 1)^j = y^j C(n-1, j-1), so each
    coefficient is one ``_dot`` of rationals against powers of y.  They match
    (det * log_chi)^k; ``cartier_check`` says why det^k moves no verdict.
    """
    ys = _powers(ONE - Q, x_order)
    stirling = [[1]]                        # stirling[j][k] = s(j, k)
    for j in range(x_order):                # s(j+1, k) = s(j, k-1) - j s(j, k)
        stirling.append([a - j * b for a, b in zip([0] + stirling[-1], stirling[-1] + [0])])
    out = [Series.constant(x_order, ONE)]
    for k in range(1, t_order + 1):
        out.append(Series(x_order, [
            _dot([Scalar.from_fraction(Fraction(
                factorial(k) * stirling[j][k] * comb(n - 1, j - 1), factorial(j)))
                for j in range(k, n + 1)], ys[k:])
            for n in range(x_order + 1)]))
    return out


def cartier_check(t_order: int, x_order: int) -> VerificationReport:
    """Adjudicate the exponent in 1 - U(T)^(-c*t) = 1 - e^(-t*log(T)).

    U(T) = (1 - qT)/(1 - T).  Writing det = 1 - q, the logarithm is
    det^{-1} * log U, which forces e^(t*log) = U^(det^{-1} t}); the check
    expands both sides per t-degree for the two exponent candidates
    c = det and c = det^{-1}, under both readings of the left-hand
    exponential (1 - e^{-u} and e^{u} - 1), and reports which combination
    holds coefficientwise.  The sides share no computation: the left reads
    ``log_chi``, the right only binomials, Stirling numbers and powers of
    1 - q (``_log_u_powers``).  Both sides of the t^k comparison are
    multiplied by k! det^k, and under the minus reading by (-1)^(k+1): a
    nonzero factor on both sides moves neither an equality nor a first
    failure, and leaves polynomials, c * det = det^2 or 1, with no gcd.
    """
    det = mob_det(q_mobius())
    lg_pow = _powers(log_chi(x_order).scale(det), t_order)
    L_pow = _log_u_powers(t_order, x_order)
    checks = []
    for rname, minus_reading in (("1-exp(-u)", True), ("exp(u)-1", False)):
        for cname, c_det in (("c=1-q", det * det), ("c=(1-q)^-1", ONE)):
            detail = None
            for k in range(1, t_order + 1):
                sign = ONE if minus_reading else Scalar.from_int((-1) ** (k + 1))
                diff = lg_pow[k] - L_pow[k].scale(sign * c_det ** k)
                if not diff.is_zero():
                    j = next(i for i, v in enumerate(diff.coeffs) if v)
                    detail = f"first failing coefficient t^{k} T^{j}"
                    break
            checks.append(Check(f"exponential-character identity [{rname}, {cname}]",
                                (t_order, x_order), detail is None, detail))
    return VerificationReport(tuple(checks))
