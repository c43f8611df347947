"""Truncated formal power series: one core for every series type.

``Series`` is a dense series in one variable, stored up to an explicit
order.  Its coefficient ring and its variable are class choices:
``Series`` itself holds Scalars of Q(s) in T, and its subclass
``qcomb.QSeries`` holds exact rationals in q; multiply, unit division and
powering are written once, here, for both.  ``BiSeries`` is a sparse
series in any number of variables, keyed by exponent tuples and
truncated by *total* degree: the group law lives in two variables, X and
Y, its associativity check in three, X, Y and Z.  A value states its
variable and its order once: the class names the variable, and each
routine reads the order off its inputs.  Every arithmetic result carries
order = min of the input orders; no operation ever claims coefficients
it has not computed.

All values are immutable and the operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import add, neg, sub

from .scalar import Scalar, ZERO, ONE, _dot, _power

__all__ = [
    "Series",
    "BiSeries",
    "compose",
    "reverse",
    "log1",
    "exp0",
]


def _as_scalar(c) -> Scalar:
    if isinstance(c, Scalar):
        return c
    if isinstance(c, int):
        return Scalar.from_int(c)
    if isinstance(c, Fraction):
        return Scalar.from_fraction(c)
    raise TypeError(f"cannot use {c!r} as a series coefficient")


def _dot_mullow(xs, ys, n: int) -> list:
    """The coefficients 0..n of a product of Scalar sequences, each one
    ``_dot``, ``Series._mullow``."""
    return [_dot(xs[: k + 1], ys[k::-1]) for k in range(n + 1)]


class Series:
    """Dense truncated power series in one variable.

    The coefficient ring is given by five class attributes: ``_coerce``
    maps an input coefficient into the ring, ``_ZERO`` and ``_ONE`` are
    its identities, ``_dot(xs, ys)`` is its sum of products, which
    computes every coefficient of a quotient, an exponential and a
    reversion, and ``_mullow(xs, ys, n)`` gives the coefficients 0..n of
    a product.  ``_ONE`` lies in a field, so that 1 / c stays exact.
    ``_VAR`` names the variable, for ``repr`` only.  A subclass
    overrides these and inherits all arithmetic.
    """

    __slots__ = ("order", "coeffs")
    _coerce = staticmethod(_as_scalar)
    _ZERO = ZERO
    _ONE = ONE
    _dot = staticmethod(_dot)
    _mullow = staticmethod(_dot_mullow)
    _VAR = "T"
    _TERM = "({c})*{v}^{k}"

    def __init__(self, order: int, coeffs=()):
        if order < 0:
            raise ValueError("series order must be >= 0")
        coerce = self._coerce
        cs = [coerce(c) for c in coeffs][: order + 1]
        cs += [self._ZERO] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    def _new(self, order: int, coeffs) -> "Series":
        """A series of this type."""
        return type(self)(order, coeffs)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(order: int, c) -> "Series":
        return Series(order, (c,))

    @staticmethod
    def generator(order: int) -> "Series":
        return Series(order, (ZERO, ONE))

    # -- access ---------------------------------------------------------------

    def __getitem__(self, k: int):
        if 0 <= k <= self.order:
            return self.coeffs[k]
        raise IndexError(f"degree {k} beyond computed order {self.order}")

    def constant_term(self):
        return self.coeffs[0]

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        return self._new(order, self.coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (type(self) is type(other) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self):
        terms = [self._TERM.format(c=c, v=self._VAR, k=k)
                 for k, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O({self._VAR}^{self.order + 1})>"

    # -- arithmetic ------------------------------------------------------------

    def _common(self, other: "Series") -> int:
        if type(self) is not type(other):
            raise ValueError(f"variable mismatch: {type(self).__name__} "
                             f"vs {type(other).__name__}")
        return min(self.order, other.order)

    def __add__(self, other: "Series") -> "Series":
        n = self._common(other)
        return self._new(n, list(map(add, self.coeffs[: n + 1], other.coeffs)))

    def __sub__(self, other: "Series") -> "Series":
        n = self._common(other)
        return self._new(n, list(map(sub, self.coeffs[: n + 1], other.coeffs)))

    def __neg__(self) -> "Series":
        return self._new(self.order, list(map(neg, self.coeffs)))

    def __mul__(self, other: "Series") -> "Series":
        n = self._common(other)
        return self._new(n, self._mullow(self.coeffs, other.coeffs, n))

    def __truediv__(self, other: "Series") -> "Series":
        n = self._common(other)
        ds = other.coeffs[: n + 1]
        if not ds[0]:
            raise ZeroDivisionError(
                "series division needs an invertible constant term")
        inv0 = self._coerce(self._ONE / ds[0])
        dot = self._dot
        d = max(i for i, c in enumerate(ds) if c)
        out = []
        # coefficient k reads out[k - 1] .. out[k - d], the divisor past
        # its last nonzero term d adding nothing
        for k in range(n + 1):
            out.append((self.coeffs[k] - dot(ds[1 : d + 1], out[: -d - 1 : -1])) * inv0)
        return self._new(n, out)

    def scale(self, c) -> "Series":
        c = self._coerce(c)
        return self._new(self.order, [c * a for a in self.coeffs])

    def add_scalar(self, c) -> "Series":
        c = self._coerce(c)
        return self._new(self.order, (self.coeffs[0] + c,) + self.coeffs[1:])

    def __pow__(self, k: int) -> "Series":
        return _power(self, k, self._new(self.order, (self._ONE,)))

    def deriv(self) -> "Series":
        return self._new(max(self.order - 1, 0),
                         [self._coerce(k) * self.coeffs[k]
                          for k in range(1, self.order + 1)])


# ---------------------------------------------------------------------------
# composition and reversion

def _powers(x, k: int) -> list:
    """[1, x, x^2, ..., x^k] for a Series or a BiSeries."""
    out = [x ** 0]
    for _ in range(k):
        out.append(out[-1] * x)
    return out


def compose(f: Series, g: Series) -> Series:
    """f(g) for g with zero constant term, truncated to the common order."""
    n = f._common(g)
    if g.coeffs[0]:
        raise ValueError("composition needs an inner series with g(0) = 0")
    g = g.truncate(n)
    acc = f._new(n, (f.coeffs[n],))
    for k in range(n - 1, -1, -1):
        acc = acc * g
        acc = acc.add_scalar(f.coeffs[k])
    return acc


def reverse(f: Series) -> Series:
    """Compositional inverse of f with f(0) = 0 and f'(0) invertible.

    Lagrange inversion gives k * [T**k] g = [w**(k-1)] p**k with
    p = w / f(w), and each step reads one coefficient of one power.
    Baby-step giant-step (F. Johansson, "A fast algorithm for reversion
    of power series", Math. Comp. 84 (2015), arXiv:1108.4772): with
    m = isqrt(n - 1) + 1 and k = i*m + j, 1 <= j <= m, the coefficient is
    the dot product of P**i and p**j, P = p**m, so the tables of baby
    powers p**j and giant powers P**i cost about 2*sqrt(n) multiplies,
    where powering p up to p**n costs n.
    """
    if f.coeffs[0]:
        raise ValueError("reversion needs f(0) = 0")
    if f.order < 1 or not f.coeffs[1]:
        raise ValueError("reversion needs an invertible linear coefficient")
    n = f.order
    # u = f/w as a unit series of order n-1, then p = 1/u
    u = f._new(n - 1, f.coeffs[1:])
    p = f._new(n - 1, (f._ONE,)) / u
    m = isqrt(n - 1) + 1
    baby = _powers(p, m)
    giant = _powers(baby[m], (n - 1) // m)
    out = [f._ZERO] * (n + 1)
    for k in range(1, n + 1):
        i, j = divmod(k - 1, m)
        a, b = giant[i].coeffs, baby[j + 1].coeffs
        out[k] = f._dot(a[:k], b[k - 1 :: -1]) * (f._ONE / f._coerce(k))
    return f._new(n, out)


# ---------------------------------------------------------------------------
# formal logarithm / exponential

def log1(f: Series) -> Series:
    """Formal log of a series with constant term 1."""
    if f.coeffs[0] != f._ONE:
        raise ValueError("log needs constant term 1")
    n = f.order
    # integrate f'/f
    g = f.deriv() / f.truncate(max(n - 1, 0))
    out = [f._ZERO] * (n + 1)
    for k in range(1, n + 1):
        out[k] = g.coeffs[k - 1] * (f._ONE / f._coerce(k))
    return f._new(n, out)


def exp0(f: Series) -> Series:
    """Formal exp of a series with constant term 0."""
    if f.coeffs[0]:
        raise ValueError("exp needs constant term 0")
    n = f.order
    df = f.deriv().coeffs           # df[i - 1] = i * f_i
    out = [f._ONE]
    # e' = f' e, solved degree by degree
    for k in range(1, n + 1):
        out.append(f._dot(df[:k], out[::-1]) * (f._ONE / f._coerce(k)))
    return f._new(n, out)


# ---------------------------------------------------------------------------
# multivariate series, truncated by total degree

class BiSeries:
    """Sparse series in several variables, truncated by total degree.

    ``terms`` maps exponent tuples, one entry per variable, to nonzero
    Scalars; ``nvars`` is the number of variables, which ``repr`` names
    X, Y, Z by position.  The group law is a BiSeries in two variables;
    the associativity check in ``fgl`` works in three.
    """

    __slots__ = ("nvars", "order", "terms")

    def __init__(self, nvars: int, order: int, terms=None):
        if nvars < 1 or order < 0:
            raise ValueError("a multivariate series needs nvars >= 1 and order >= 0")
        self.nvars = nvars
        self.order = order
        clean = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars or min(e) < 0:
                    raise ValueError(f"exponents {e} name no monomial in {nvars} variables")
                c = _as_scalar(c)
                if sum(e) <= order and not c.is_zero():
                    clean[e] = c
        self.terms = clean

    @staticmethod
    def _build(nvars: int, order: int, terms: dict) -> "BiSeries":
        """The arithmetic's constructor: ``terms`` holds Scalars, all of
        total degree at most ``order``, so only the terms that cancelled to
        zero are dropped; ``__init__`` checks outside input."""
        out = object.__new__(BiSeries)
        out.nvars = nvars
        out.order = order
        out.terms = {e: c for e, c in terms.items() if not c.is_zero()}
        return out

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def constant(nvars: int, order: int, c) -> "BiSeries":
        return BiSeries(nvars, order, {(0,) * nvars: c})

    @staticmethod
    def generator(nvars: int, order: int, which: int) -> "BiSeries":
        key = (0,) * which + (1,) + (0,) * (nvars - which - 1)
        return BiSeries(nvars, order, {key: ONE})

    # -- access ----------------------------------------------------------------

    def coeff(self, *exps) -> Scalar:
        if len(exps) != self.nvars:
            raise ValueError(f"{len(exps)} exponents for {self.nvars} variables")
        if sum(exps) > self.order:
            raise IndexError(f"degree ({','.join(map(str, exps))}) beyond "
                             f"computed total order {self.order}")
        return self.terms.get(exps, ZERO)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.nvars, ZERO)

    def truncate(self, order: int) -> "BiSeries":
        if order >= self.order:
            return self
        return BiSeries._build(self.nvars, order, {e: c for e, c in self.terms.items()
                                                   if sum(e) <= order})

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (self.nvars == other.nvars and self.order == other.order
                and self.terms == other.terms)

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        terms = ["*".join([f"({c})"] + [f"{v}^{k}" for v, k in zip("XYZ", e)])
                 for e, c in items]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(total degree {self.order + 1})>"

    # -- arithmetic --------------------------------------------------------------

    def _common(self, other: "BiSeries") -> int:
        if self.nvars != other.nvars:
            raise ValueError(f"variable mismatch: {self.nvars} vs {other.nvars} variables")
        return min(self.order, other.order)

    def __add__(self, other: "BiSeries") -> "BiSeries":
        n = self._common(other)
        out = dict(self.truncate(n).terms)
        for k, c in other.truncate(n).terms.items():
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return BiSeries._build(self.nvars, n, out)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + (-other)

    def __neg__(self) -> "BiSeries":
        return BiSeries._build(self.nvars, self.order,
                               {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        n = self._common(other)
        rhs = [(e, sum(e), c) for e, c in other.terms.items()]
        pairs: dict = {}
        for e1, c1 in self.terms.items():
            room = n - sum(e1)
            for e2, d2, c2 in rhs:
                if d2 <= room:
                    xs, ys = pairs.setdefault(tuple(map(add, e1, e2)), ([], []))
                    xs.append(c1)
                    ys.append(c2)
        return BiSeries._build(self.nvars, n, {m: _dot(xs, ys)
                                               for m, (xs, ys) in pairs.items()})

    def scale(self, c) -> "BiSeries":
        c = _as_scalar(c)
        return BiSeries._build(self.nvars, self.order,
                               {k: c * v for k, v in self.terms.items()})

    def __pow__(self, k: int) -> "BiSeries":
        if k < 0:
            raise ValueError("negative multivariate powers are not supported")
        return _power(self, k, BiSeries.constant(self.nvars, self.order, ONE))


def bi_compose(f: Series, g: BiSeries) -> BiSeries:
    """f(g) for a univariate f and a bivariate g with zero constant term."""
    if not g.constant_term().is_zero():
        raise ValueError("composition needs an inner series with g(0,0) = 0")
    n = min(f.order, g.order)
    g = g.truncate(n)
    acc = BiSeries.constant(g.nvars, n, f.coeffs[n])
    for k in range(n - 1, -1, -1):
        acc = acc * g
        acc = acc + BiSeries.constant(g.nvars, n, f.coeffs[k])
    return acc
