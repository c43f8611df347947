"""Exact coefficient arithmetic for q-series computations.

The universal scalar domain is the field Q(s) of rational functions in a
formal square root s of q (so q = s**2).  Working in one field keeps every
quantity exact; *where* an element lives (Z[q], Z[q,q^-1], Q[q], the
cyclotomic localization, ...) is decided by membership predicates instead
of a tower of ring types.

A Scalar is a reduced fraction num/den where

* num is a Laurent polynomial in s with rational coefficients, stored
  densely as ``(valuation, denominator, integer coefficient vector)``,
  i.e. ``s**val * (c0 + c1*s + ...) / d``;
* den is a primitive integer polynomial in s with nonzero constant term
  and positive leading coefficient (any power of s and any rational
  factor of the denominator are absorbed into num).

gcd(num, den) is trivial, so the representation is unique and structural
equality coincides with mathematical equality.  Scalars are immutable and
all operations are pure; they can be shared freely between threads.  A
Scalar has one cache slot, ``_packing``, where ``_dot`` keeps the shape
of its numerator and its last packed integer.  The slot is one immutable
tuple, written by one assignment and read once per use, so a thread
sees a whole old tuple or a whole new one, never one width's integer
under another width; ``==``, ``hash``, ``num`` and ``den`` never read it.

Each polynomial job has one kernel: ``_ip_mul`` is the one convolution,
which packs both factors into one integer product above its crossover
and which every ``qcomb.QSeries`` product reads, ``_ip_stretch`` the one
substitution x -> x**k, which the Adams operation ``adams`` applies, and
``_dot`` the one sum of products of Scalars, which every
``series.Series`` convolution and each coefficient of a
``series.BiSeries`` product reads; it multiplies polynomials
as packed big integers (``_ip_pack``, ``_ip_unpack``, which go through
bytes above theirs), in one walk over its pairs to gather them, one to
size the width and one to pack and sum.  The gcd ``_ip_gcd`` reads the
same kernels, one integer gcd per try, and returns its quotients, so
``_reduce`` is the one canonicaliser after a gcd.  ``adams``, like
``ONE / x``, is canonical as built, with no gcd (``/`` multiplies by
that exact inverse).  ``Scalar.eval_s`` is the one evaluation.  The
q-expansion of a Scalar is ``qcomb.QSeries.from_scalar``, which divides
the numerator by the denominator with the unit division of
``series.Series``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd, lcm

__all__ = [
    "Scalar",
    "RingMembership",
    "ZERO",
    "ONE",
    "Q",
    "S",
    "cyclotomic",
    "adams",
    "membership",
    "canonical_str",
]


# ---------------------------------------------------------------------------
# Laurent polynomials over Q as plain tuples: (val, den, coeffs)
# meaning s**val * (coeffs[0] + coeffs[1]*s + ...) / den with integer coeffs,
# den >= 1, gcd(content(coeffs), den) == 1, and coeffs[0] != 0 != coeffs[-1]
# unless the polynomial is zero, which is stored as (0, 1, ()).

_LP_ZERO = (0, 1, ())
_LP_ONE = (0, 1, (1,))


def _content(coeffs, g: int = 0) -> int:
    """gcd(g, *coeffs), stopping at the first 1."""
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def _lp_make(val: int, den: int, coeffs) -> tuple:
    """Normalize a raw coefficient list into canonical LP form."""
    lo = 0
    hi = len(coeffs)
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    if lo == hi:
        return _LP_ZERO
    coeffs = coeffs[lo:hi]
    val += lo
    g = _content(coeffs, den)
    if g > 1:
        coeffs = [c // g for c in coeffs]
        den //= g
    return (val, den, tuple(coeffs))


def _lp_add(a, b):
    if not a[2]:
        return b
    if not b[2]:
        return a
    av, ad, ac = a
    bv, bd, bc = b
    g = gcd(ad, bd)
    ma = bd // g
    mb = ad // g
    den = ad * ma
    val = min(av, bv)
    out = [0] * (max(av + len(ac), bv + len(bc)) - val)
    for i, c in enumerate(ac):
        out[av - val + i] = c * ma
    for i, c in enumerate(bc):
        out[bv - val + i] += c * mb
    return _lp_make(val, den, out)


def _lp_mul(a, b):
    if not a[2] or not b[2]:
        return _LP_ZERO
    av, ad, ac = a
    bv, bd, bc = b
    return _lp_make(av + bv, ad * bd, _ip_mul(ac, bc))


def _lp_even(a) -> bool:
    av, _, ac = a
    return all(c == 0 or (av + i) % 2 == 0 for i, c in enumerate(ac))


def _lp_eval(a, x: Fraction) -> Fraction:
    av, ad, ac = a
    acc = Fraction(0)
    for c in reversed(ac):
        acc = acc * x + c
    if av:
        if av < 0 and x == 0:
            raise ZeroDivisionError("evaluation at s = 0 with negative valuation")
        acc *= x ** av
    return acc / ad


# ---------------------------------------------------------------------------
# integer polynomials as bare tuples (implicit valuation 0), used for the
# denominator and for gcd extraction

# the measured crossovers: up to this many coefficients in the shorter
# factor ``_ip_mul`` runs the schoolbook loop, and up to this many bits
# ``_ip_pack`` and ``_ip_unpack`` shift instead of going through bytes
_MUL_SCHOOLBOOK = 8
_BYTE_ROUTE_BITS = 4096


def _ip_mul(a, b, n=None):
    """The lowest n coefficients of the product of two integer polynomials,
    lowest first; all len(a) + len(b) - 1 of them when n is None.

    Above ``_MUL_SCHOOLBOOK`` coefficients in the shorter factor it is one
    integer product by Kronecker substitution (A. Schoenhage, EUROCAM 1982;
    D. Harvey, J. Symbolic Comput. 44, 2009): both factors are packed at
    2**w, with |a| the largest absolute coefficient of a and w =
    bits(|a| * |b| * min(len a, len b)) + 1 rounded up to whole bytes, so
    every coefficient of the product lies in [-2**(w-1), 2**(w-1)) and is
    one signed digit of the integer product.  Its residue mod 2**(w*n) has
    the same signed digits below n, and at most a carry digit at n, so
    only that residue is unpacked.
    """
    if a == (1,):
        return b[:n]
    if b == (1,):
        return a[:n]
    full = len(a) + len(b) - 1
    n = full if n is None else min(n, full)
    m = min(len(a), len(b))
    if m > _MUL_SCHOOLBOOK:
        w = ((max(map(abs, a)) * max(map(abs, b)) * m).bit_length() + 8) & -8
        prod = _ip_pack(a, w) * _ip_pack(b, w)
        if n < full:
            prod &= (1 << (w * n)) - 1
        out = _ip_unpack(prod, w)[:n]
        return tuple(out + [0] * (n - len(out)))
    out = [0] * n
    for i, c in enumerate(a[:n]):
        if c:
            for j, d in enumerate(b[:n - i]):
                out[i + j] += c * d
    return tuple(out)


def _ip_stretch(p, k: int):
    """Substitute x -> x**k in an integer polynomial; k = 2 reads a
    polynomial in q as one in s."""
    out = [0] * ((len(p) - 1) * k + 1)
    out[::k] = p
    return tuple(out)


def _ip_pack(p, w: int) -> int:
    """p(2**w): the coefficients of p as the base-2**w digits of one integer.

    Past ``_BYTE_ROUTE_BITS`` bits at a whole-byte w, when every coefficient
    lies in [-2**(w-1), 2**(w-1)), in linear time: each coefficient plus
    2**(w-1) is written as w/8 bytes, and the bytes are read as one integer
    less the biases.  Otherwise, as for the gcd's larger coefficients, by
    Horner's rule, whose shifts grow with the result.
    """
    if len(p) * w > _BYTE_ROUTE_BITS and not w & 7:
        half = 1 << (w - 1)
        if -half <= min(p) and max(p) < half:
            nb = w >> 3
            raw = b"".join([(c + half).to_bytes(nb, "little") for c in p])
            bias = half.to_bytes(nb, "little") * len(p)
            return int.from_bytes(raw, "little") - int.from_bytes(bias, "little")
    out = 0
    for c in reversed(p):
        out = (out << w) + c
    return out


def _ip_unpack(n: int, w: int) -> list:
    """The signed base-2**w digits of n, lowest first, each in
    [-2**(w-1), 2**(w-1)): the coefficients of p when n = p(2**w) and each
    is less than 2**(w-1) in absolute value.

    Past ``_BYTE_ROUTE_BITS`` bits at a whole-byte w, in linear time: over
    k digits, enough for n and a carry, each digit of n + bias, bias =
    2**(w-1) * (1 + 2**w + ...), is the digit of n plus 2**(w-1), and
    flipping its top bit gives the digit's two's complement in w/8 bytes.
    Otherwise the digits are masked off one by one.
    """
    if n.bit_length() > _BYTE_ROUTE_BITS and not w & 7:
        nb = w >> 3
        k = n.bit_length() // w + 2
        bias = int.from_bytes((1 << (w - 1)).to_bytes(nb, "little") * k, "little")
        raw = ((n + bias) ^ bias).to_bytes(k * nb, "little")
        out = [int.from_bytes(raw[i:i + nb], "little", signed=True)
               for i in range(0, k * nb, nb)]
        while not out[-1]:
            out.pop()
        return out
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    out = []
    while n:
        c = n & mask
        n >>= w
        if c >= half:
            c -= mask + 1
            n += 1
        out.append(c)
    return out


def _ip_primitive(a):
    """Strip content and sign; the leading coefficient must be nonzero."""
    c = _content(a)
    if a[-1] < 0:
        c = -c
    return tuple(x // c for x in a)


def _ip_gcd(a, b):
    """``(g, a // g, b // g)`` for two nonzero integer polynomials, g their
    primitive gcd with a positive leading coefficient (GCDHEU: B. W. Char,
    K. O. Geddes and G. H. Gonnet, J. Symbolic Comput. 7, 1989).

    Each try packs both primitive inputs at xi = 2**w >= 2*min(|a|, |b|) + 2,
    |p| the largest absolute coefficient, takes one integer gcd, and reads
    its signed base-2**w digits; by their Theorem 1 the primitive part is
    the gcd as soon as it divides both inputs, and otherwise w doubles.
    A primitive g divides a exactly when it divides a's primitive part, so
    the test divides a and b as given and returns its quotients.
    No input needs another route: write a = G*a' and b = G*b'.  A nonzero
    integer r (their resultant, or 1) lies in the ideal (a', b'), so
    k = gcd(a'(xi), b'(xi)) divides r and the integer gcd is |G(xi)| * k;
    once xi > 2*|r|*|G| its digits are those of +-k*G, and the try succeeds.
    """
    pa = _ip_primitive(a)
    pb = _ip_primitive(b)
    w = (2 * min(max(map(abs, pa)), max(map(abs, pb))) + 1).bit_length()
    while True:
        g = _ip_primitive(_ip_unpack(gcd(_ip_pack(pa, w), _ip_pack(pb, w)), w))
        if g == (1,):
            return g, a, b
        qa = _ip_divides(a, g)
        qb = None if qa is None else _ip_divides(b, g)
        if qb is not None:
            return g, qa, qb
        w *= 2


def _ip_divides(a, b):
    """Return a//b if b divides a exactly, else None."""
    if len(a) < len(b):
        return None
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db]
        if c % lb:
            return None
        c //= lb
        q[k] = c
        if c:
            for i, bc in enumerate(b):
                r[k + i] -= c * bc
    if any(r):
        return None
    return tuple(q)


# ---------------------------------------------------------------------------
# Scalar


class Scalar:
    """An exact rational function in s (q = s**2), kept in canonical form."""

    __slots__ = ("num", "den", "_packing")

    def __init__(self, num, den):
        # private: callers go through the constructors / arithmetic below
        self.num = num
        self.den = den
        self._packing = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Scalar":
        if n == 0:
            return ZERO
        return Scalar((0, 1, (n,)), (1,))

    @staticmethod
    def from_fraction(x) -> "Scalar":
        x = Fraction(x)
        if x == 0:
            return ZERO
        return Scalar((0, x.denominator, (x.numerator,)), (1,))

    @staticmethod
    def s_power(k: int) -> "Scalar":
        return Scalar((k, 1, (1,)), (1,))

    @staticmethod
    def q_power(k: int) -> "Scalar":
        return Scalar((2 * k, 1, (1,)), (1,))

    @staticmethod
    def from_q_coeffs(coeffs) -> "Scalar":
        """Polynomial in q from a mapping degree -> rational coefficient."""
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
        items = [(k, c if type(c) is int else Fraction(c)) for k, c in items]
        items = [(k, c) for k, c in items if c]
        if not items:
            return ZERO
        lo = min(k for k, _ in items)
        hi = max(k for k, _ in items)
        den = lcm(*(c.denominator for _, c in items))
        out = [0] * (hi - lo + 1)
        for k, c in items:
            out[k - lo] = c.numerator * (den // c.denominator)
        return Scalar(_lp_make(2 * lo, den, _ip_stretch(out, 2)), (1,))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num[2]

    def lives_in_q(self) -> bool:
        """True when every s-exponent of num and den is even."""
        return _lp_even(self.num) and _lp_even((0, 1, self.den))

    def as_int(self) -> int:
        val, d, co = self.num
        if self.den != (1,) or d != 1 or len(co) > 1 or co and val:
            raise ValueError("scalar is not an integer")
        return co[0] if co else 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.den == other.den:
            return _reduce(_lp_add(self.num, other.num), self.den)
        num = _lp_add(_lp_mul(self.num, (0, 1, other.den)),
                      _lp_mul(other.num, (0, 1, self.den)))
        return _reduce(num, _ip_mul(self.den, other.den))

    def __neg__(self) -> "Scalar":
        if self.is_zero():
            return self
        val, d, co = self.num
        return Scalar((val, d, tuple(-c for c in co)), self.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return _reduce(_lp_mul(self.num, other.num), _ip_mul(self.den, other.den))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        inverse = _inverse(other)
        return inverse if self == ONE else self * inverse

    def __pow__(self, k: int) -> "Scalar":
        # num and den are coprime, and so are their powers: no gcd to run
        if k < 0:
            return _inverse(self) ** -k
        num = _power(Scalar(self.num, (1,)), k, ONE).num
        den = _power(Scalar((0, 1, self.den), (1,)), k, ONE).num[2]
        return Scalar(num, den)

    # -- structure -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        return canonical_str(self)

    # -- specialization ------------------------------------------------------

    def eval_s(self, x) -> Fraction:
        """Exact evaluation at a rational value of s."""
        x = Fraction(x)
        d = _lp_eval((0, 1, self.den), x)
        if d == 0:
            raise ZeroDivisionError(f"pole at s = {x}")
        return _lp_eval(self.num, x) / d


def _inverse(x: Scalar) -> Scalar:
    """1 / x, canonical as built, with no gcd: x = s**val * c*p / (d*den),
    p primitive with p[-1] > 0, has the inverse s**-val * d*den / (c*p),
    and p and den are coprime, and so are c and d."""
    val, d, co = x.num
    if not co:
        raise ZeroDivisionError("scalar division by zero")
    p = _ip_primitive(co)
    c = co[-1] // p[-1]
    d = d if c > 0 else -d
    return Scalar((-val, abs(c), tuple(d * e for e in x.den)), p)


def _power(x, k: int, one):
    """x**k by square-and-multiply from the multiplicative identity ``one``.

    The one powering loop of the package: Scalar, Series, QSeries and
    BiSeries all call it.  A negative k raises one / x to -k.  The base
    is squared only while a higher bit of k remains, so no square is
    computed that the result never uses.
    """
    if k < 0:
        x, k = one / x, -k
    acc = one
    while k:
        if k & 1:
            acc = acc * x
        if k > 1:
            x = x * x
        k >>= 1
    return acc


def _dot(xs, ys) -> Scalar:
    """sum((x * y for x, y in zip(xs, ys)), ZERO), reduced once.

    Pairs whose denominators are both (1,) are summed over the lcm ``den``
    of their integer denominators d by Kronecker substitution: each
    numerator becomes one integer A = sum a_i * 2**(w*i), the products
    A * B * (den // d), shifted to their valuations, add up in one
    integer, and its signed base-2**w digits are the coefficients of the
    sum.  The numerators are packed in q, at stride 2, when every
    valuation has the parity of the least one and no numerator has a
    coefficient at an odd offset (every coefficient of the law is s**v
    times a polynomial in q), and in s otherwise.  With |A| the largest
    absolute coefficient and len A the length in s, the width w =
    bits(max (den // d) * |A| * |B| * min(len A, len B)) + bits(number of
    pairs) + 1 keeps every digit below 2**(w-1) in absolute value: none
    overflows, and the sum is exact.  w is rounded up to whole 64-bit
    words, so the successive dots of one convolution share it, and each
    Scalar packs itself once for them.  Its slot ``_packing`` holds (a
    coefficient at an odd offset?, |A|, len A), filled in by its first
    packed dot, then the stride, width and integer of its last packing,
    with stride 0 before the first; a new packing replaces it whole.  One
    loop gathers the pairs, one reads their slots for the stride and the
    width, and one packs and sums.  A single such pair is one ``_ip_mul``
    and fills no slot; any other pair is added through ``Scalar.__add__``.
    """
    terms = []
    rest = ZERO
    for x, y in zip(xs, ys):
        xn, yn = x.num, y.num
        if not xn[2] or not yn[2]:
            continue
        if x.den != (1,) or y.den != (1,):
            rest = x * y if rest is ZERO else rest + x * y
            continue
        terms.append((x, y, xn[0] + yn[0], xn[1] * yn[1]))
    if not terms:
        return rest
    if len(terms) == 1:
        num = _lp_mul(terms[0][0].num, terms[0][1].num)
    else:
        v0 = lo = terms[0][2]
        den = lcm(*[t[3] for t in terms])
        step, bound = 2, 0
        for x, y, v, d in terms:
            sx = x._packing
            if sx is None:
                ac = x.num[2]
                sx = x._packing = (any(ac[1::2]), max(map(abs, ac)), len(ac), 0, 0, 0)
            sy = y._packing                 # after x's, in case y is x
            if sy is None:
                ac = y.num[2]
                sy = y._packing = (any(ac[1::2]), max(map(abs, ac)), len(ac), 0, 0, 0)
            if (v - v0) & 1 or sx[0] or sy[0]:
                step = 1
            if v < lo:
                lo = v
            b = den // d * sx[1] * sy[1] * (sx[2] if sx[2] < sy[2] else sy[2])
            if b > bound:
                bound = b
        w = (bound.bit_length() + len(terms).bit_length() + 64) & -64
        acc = 0
        for x, y, v, d in terms:
            sx = x._packing
            if sx[3] != step or sx[4] != w:
                sx = x._packing = sx[:3] + (step, w, _ip_pack(x.num[2][::step], w))
            sy = y._packing
            if sy[3] != step or sy[4] != w:
                sy = y._packing = sy[:3] + (step, w, _ip_pack(y.num[2][::step], w))
            acc += (sx[5] * sy[5] * (den // d)) << (w * ((v - lo) // step))
        num = _lp_make(lo, den, _ip_stretch(_ip_unpack(acc, w), step))
    if not num[2]:
        return rest
    return Scalar(num, (1,)) + rest if rest else Scalar(num, (1,))


def _reduce(num, den) -> Scalar:
    """The Scalar num/den, from an LP numerator and a primitive denominator
    with positive leading coefficient: the one canonicaliser after a gcd.

    When den divides the numerator the gcd is den itself (Gauss's lemma),
    so no gcd runs.  A failing exact division runs its whole quotient
    loop, so it is skipped when den(2) does not divide num(2), which
    den | num needs when den(2) != 0.  Dividing by a primitive factor of
    den keeps the numerator's content and nonzero end coefficients: no
    renormalisation.
    """
    if not num[2]:
        return ZERO
    if den != (1,):
        d2 = _ip_pack(den, 1)
        quo = None if d2 and _ip_pack(num[2], 1) % d2 else _ip_divides(num[2], den)
        if quo is not None:
            den = (1,)
        else:
            _, quo, den = _ip_gcd(num[2], den)
        num = (num[0], num[1], quo)
    return Scalar(num, den)


ZERO = Scalar(_LP_ZERO, (1,))
ONE = Scalar(_LP_ONE, (1,))
Q = Scalar.q_power(1)
S = Scalar.s_power(1)


# ---------------------------------------------------------------------------
# printing

def _fmt_term(c: int, e: int, lead: bool) -> str:
    """One term c*s**e, printed in q when e is even, in s when odd."""
    if e % 2 == 0:
        var, k = "q", e // 2
    else:
        var, k = "s", e
    if k == 0:
        body = str(abs(c))
    else:
        v = var if k == 1 else f"{var}^{k}"
        if abs(c) == 1:
            body = v
        else:
            body = f"{abs(c)}*{v}"
    if not lead:
        return body
    if c >= 0:
        return body
    # a leading negative power would parse as (-q)^k, so spell the -1 out
    if abs(c) == 1 and k not in (0, 1):
        return f"-1*{var}^{k}"
    return "-" + body


def _fmt_int_laurent(val: int, coeffs) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        e = val + i
        if not parts:
            parts.append(_fmt_term(c, e, lead=True))
        else:
            parts.append(" + " if c > 0 else " - ")
            parts.append(_fmt_term(c, e, lead=False))
    return "".join(parts) if parts else "0"


def canonical_str(a: Scalar) -> str:
    """Canonical string form, ascending exponents, q for even powers of s."""
    if a.is_zero():
        return "0"
    nval, nden, nco = a.num
    num_s = _fmt_int_laurent(nval, nco)
    den_poly = a.den if nden == 1 else tuple(nden * c for c in a.den)
    if den_poly == (1,):
        return num_s
    den_s = _fmt_int_laurent(0, den_poly)
    nterms = sum(1 for c in nco if c)
    dterms = sum(1 for c in den_poly if c)
    if nterms > 1:
        num_s = f"({num_s})"
    if dterms > 1:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the cromulent localization

@cache
def _cyclotomic_q_vec(d: int):
    """Phi_d as an integer coefficient tuple in q."""
    if d == 1:
        return (-1, 1)
    rem = (-1,) + (0,) * (d - 1) + (1,)           # q**d - 1
    for e in range(1, d):
        if d % e == 0:
            rem = _ip_divides(rem, _cyclotomic_q_vec(e))
    return rem


def cyclotomic(d: int) -> Scalar:
    """The d-th cyclotomic polynomial in q, by the product recursion."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return Scalar.from_q_coeffs(_cyclotomic_q_vec(d))


def _totients_up_to(n: int):
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:                 # p prime
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


def _den_is_cyclotomic(den_q) -> bool:
    """Whether an integer q-polynomial is a product of Phi_d with d >= 2.

    A candidate index d can only divide when phi(d) <= deg, and
    phi(d) >= sqrt(d/2) bounds the search.
    """
    rem = den_q
    deg = len(rem) - 1
    if rem[-1] != 1 or rem[0] != 1:
        # products of Phi_d, d >= 2 are monic with constant term 1
        return False
    limit = 2 * deg * deg + 2
    phi = _totients_up_to(limit)
    for d in range(2, limit + 1):
        if phi[d] > len(rem) - 1:
            continue
        f = _cyclotomic_q_vec(d)
        while True:
            quo = _ip_divides(rem, f)
            if quo is None:
                break
            rem = quo
            if rem == (1,):
                return True
    return rem == (1,)


class RingMembership(namedtuple(
        "RingMembership", "in_Z_q in_Z_q_laurent in_Q_q in_cromulent in_Q_s",
        defaults=(True,))):
    """Flags for the subring tower Z[q] c Z[q,q^-1] c Z[q]_cr c Q(s).

    ``in_cromulent`` holds iff a = p(q) / prod Phi_d(q) with p an integer
    Laurent polynomial in q and every d >= 2: inverting the q-integers
    inverts exactly these cyclotomic polynomials.
    """

    __slots__ = ()


def membership(a: Scalar) -> RingMembership:
    lives = a.lives_in_q()
    den_one = a.den == (1,)
    integral = a.num[1] == 1
    poly = a.is_zero() or a.num[0] >= 0
    in_Q_q = lives and den_one and poly
    in_Z_q_laurent = lives and den_one and integral
    in_Z_q = in_Q_q and integral
    in_crom = lives and integral and (
        den_one or _den_is_cyclotomic(a.den[::2]))
    return RingMembership(in_Z_q=in_Z_q, in_Z_q_laurent=in_Z_q_laurent,
                          in_Q_q=in_Q_q, in_cromulent=in_crom)


# ---------------------------------------------------------------------------
# Adams operations

def adams(a: Scalar, k: int) -> Scalar:
    """psi^k: substitute q -> q**k (s -> s**k on even exponents); a ring
    endomorphism, exact on scalars, and canonical as built: a common root
    r of the stretched num and den would make r**k a common root of num
    and den, and stretching keeps den primitive, with a positive leading
    and a nonzero constant coefficient, and keeps num's content."""
    if not a.lives_in_q():
        raise ValueError("Adams substitution requires an element living in q")
    if k < 1:
        raise ValueError("Adams index must be a positive integer")
    nval, nden, nco = a.num
    return Scalar((nval * k, nden, _ip_stretch(nco, k)), _ip_stretch(a.den, k))
