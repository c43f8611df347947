"""Products of complex projective spaces: Hodge polynomials, the
hard-Lefschetz representation of sl2 on their cohomology, and the
commutativity checks tying both to the q-integer orientation images.

The catalog is deliberately restricted to finite products of projective
spaces; these are the varieties whose Hodge and Lefschetz data are fully
explicit.  A product carries the diagonal sl2 action, so its
representation is the tensor product of one irreducible string per
factor, decomposed by the Clebsch-Gordan rule.  A character is
decomposed back by first differences of its weight multiplicities.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod

from .scalar import Scalar, ZERO, ONE
from .fgl import cp_image
from .report import VerificationReport, compare

__all__ = [
    "Variety",
    "HodgePoly",
    "SL2Rep",
    "hodge",
    "euler_specialize",
    "yz_to_q",
    "rep_of_variety",
    "cg_tensor",
    "character",
    "decompose_character",
    "qdim_normalized",
    "diagram_routes",
    "diagram_check",
    "load_catalog",
]


# ---------------------------------------------------------------------------
# varieties and Hodge polynomials

class Variety(namedtuple("Variety", "factors")):
    """A product of projective spaces, one entry per factor dimension."""

    __slots__ = ()

    def __new__(cls, factors=()):
        factors = tuple(int(n) for n in factors)
        if any(n < 0 for n in factors):
            raise ValueError("factor dimensions must be >= 0")
        return super().__new__(cls, factors)

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace checks the factors as well
        return cls(*iterable)

    @property
    def dimension(self) -> int:
        return sum(self.factors)

    def __str__(self):
        if not self.factors:
            return "pt"
        return " x ".join(f"CP{n}" for n in self.factors)


class HodgePoly:
    """Bivariate integer polynomial of Hodge numbers, coefficient of
    Y^i Z^j the (i, j) Hodge number."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, c in (terms or {}).items():
            if c:
                clean[key] = int(c)
        self.terms = clean

    def __eq__(self, other) -> bool:
        if not isinstance(other, HodgePoly):
            return NotImplemented
        return self.terms == other.terms

    def __mul__(self, other: "HodgePoly") -> "HodgePoly":
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return HodgePoly(out)

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        body = " + ".join(f"{c}*Y^{i}*Z^{j}" for (i, j), c in items) or "0"
        return f"HodgePoly({body})"


def hodge(v: Variety) -> HodgePoly:
    """Hodge polynomial: product over factors of 1 + YZ + ... + (YZ)^n."""
    acc = HodgePoly({(0, 0): 1})
    for n in v.factors:
        acc = acc * HodgePoly({(k, k): 1 for k in range(n + 1)})
    return acc


def euler_specialize(h: HodgePoly, dim: int):
    """Euler characteristic from the Hodge numbers, with sanity flags.

    The alternating sum over (-1)^(i+j) h^(i,j) is the convention forced
    by chi(CP^1) = 2; a literal substitution Y, Z -> iY instead weights
    the diagonal by (-1)^k and does not produce chi * Y^dim, so it is not
    used (only its reality constraint is kept).  Returns (chi, ok) where
    ok certifies the checks that do hold on this catalog: no odd-total-
    degree terms (the substitution stays real), diagonal support, and top
    degree equal to twice the dimension.
    """
    chi = sum(((-1) ** (i + j)) * c for (i, j), c in h.terms.items())
    no_odd = all((i + j) % 2 == 0 for (i, j) in h.terms)
    diagonal = all(i == j for (i, j) in h.terms)
    top = max((i + j for (i, j) in h.terms), default=0)
    ok = no_odd and diagonal and top == 2 * dim
    return chi, ok


def yz_to_q(h: HodgePoly) -> Scalar:
    """Substitute YZ -> q on a diagonal Hodge polynomial."""
    for (i, j) in h.terms:
        if i != j:
            raise ValueError(f"off-diagonal Hodge number at {(i, j)}")
    return Scalar.from_q_coeffs({i: c for (i, _), c in h.terms.items()})


# ---------------------------------------------------------------------------
# the sl2 representation ring

class SL2Rep:
    """Finitely supported map highest weight -> multiplicity."""

    __slots__ = ("mult",)

    def __init__(self, mult=None):
        clean = {}
        for n, c in (mult or {}).items():
            if c:
                if n < 0:
                    raise ValueError("highest weights must be >= 0")
                clean[int(n)] = int(c)
        self.mult = clean

    @staticmethod
    def irrep(n: int) -> "SL2Rep":
        return SL2Rep({n: 1})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SL2Rep):
            return NotImplemented
        return self.mult == other.mult

    def __repr__(self):
        items = sorted(self.mult.items())
        body = " + ".join(f"{c}*V{n}" if c != 1 else f"V{n}"
                          for n, c in items) or "0"
        return f"SL2Rep({body})"


def cg_tensor(r1: SL2Rep, r2: SL2Rep) -> SL2Rep:
    """Clebsch-Gordan product, extended bilinearly."""
    out: dict = {}
    for m, c1 in r1.mult.items():
        for n, c2 in r2.mult.items():
            for k in range(abs(m - n), m + n + 1, 2):
                out[k] = out.get(k, 0) + c1 * c2
    return SL2Rep(out)


def character(r: SL2Rep) -> Scalar:
    """Sum of weight monomials: V_n contributes s^n + s^(n-2) + ... + s^-n,
    that is s^-n (1 + q + ... + q^n)."""
    acc = ZERO
    for n, c in r.mult.items():
        acc = acc + Scalar.s_power(-n) * Scalar.from_q_coeffs([c] * (n + 1))
    return acc


def decompose_character(p: Scalar) -> SL2Rep:
    """Invert ``character`` by first differences of weight multiplicities.

    With m_w the coefficient of s^w, V_w has multiplicity m_w - m_(w+2).
    Any Laurent polynomial in s with integer coefficients that is
    symmetric under s -> 1/s is a virtual character; other inputs raise.
    The result is effective exactly when m_w >= m_(w+2) for every w >= 0:
    the coefficients never increase going outward from the middle.
    """
    if p.den != (1,) or p.num[1] != 1:
        raise ValueError("not a character: needs integer Laurent coefficients")
    val, _, coeffs = p.num
    mult = {val + i: c for i, c in enumerate(coeffs) if c}
    if any(mult.get(-w) != c for w, c in mult.items()):
        raise ValueError("not symmetric under s -> 1/s")
    return SL2Rep({w: mult.get(w, 0) - mult.get(w + 2, 0)
                   for w in range(max(mult, default=-1) + 1)})


def qdim_normalized(r: SL2Rep) -> Scalar:
    """Top-weight normalized character: s^w * character, landing in Z[q].

    For a single string V_n this gives 1 + q + ... + q^n; the top-weight
    normalization is the unique shift making the projective-space diagram
    commute on products.
    """
    if not all(c > 0 for c in r.mult.values()):
        raise ValueError("normalization needs an effective element")
    if not r.mult:
        raise ValueError("the zero representation has no top weight")
    return Scalar.s_power(max(r.mult)) * character(r)


def rep_of_variety(v: Variety) -> SL2Rep:
    """Hard-Lefschetz representation: tensor product of one string per factor."""
    acc = SL2Rep.irrep(0)
    for n in v.factors:
        acc = cg_tensor(acc, SL2Rep.irrep(n))
    return acc


# ---------------------------------------------------------------------------
# the commutative-diagram check

def diagram_routes(v: Variety) -> list:
    """Three independent routes to the same element of Z[q], by name.

    (1) Hodge polynomial with YZ -> q, (2) top-weight normalized
    character of the Lefschetz representation, (3) product of the
    orientation images of the factors read off the group-law logarithm.
    """
    return [("Hodge", yz_to_q(hodge(v))),
            ("representation", qdim_normalized(rep_of_variety(v))),
            ("orientation", prod(map(cp_image, v.factors), start=ONE))]


def diagram_check(v: Variety) -> VerificationReport:
    """Each route of ``diagram_routes`` against the next, the last against the first."""
    routes = diagram_routes(v)
    return VerificationReport(tuple(
        compare(f"{v}: {a} route equals {b} route", None, x, y)
        for (a, x), (b, y) in zip(routes, routes[1:] + routes[:1])))


def load_catalog(path) -> list:
    """Parse a line-oriented catalog: ``name n1 n2 ... nr`` per line.

    Blank lines and lines starting with ``#`` are skipped; a catalog with
    no entries is an error, since it would check nothing and pass.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            name = fields[0]
            try:
                dims = [int(x) for x in fields[1:]]
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: factor dimensions must be integers") from exc
            out.append((name, Variety(dims)))
    if not out:
        raise ValueError(f"{path}: the catalog has no entries")
    return out
