"""Fractional-linear transformations over the exact scalar field.

A 2x2 matrix (a b / c d) with nonzero determinant acts on series by
T -> (a*T + b)/(c*T + d).  Composition of actions is matrix product; the
projective action only sees the matrix up to a scalar, which is why the
basic q-deformation pair below composing to (1-q) times the identity is
an honest inverse pair on series.
"""

from __future__ import annotations

from collections import namedtuple

from .scalar import Scalar, ZERO, ONE, Q
from .series import Series

__all__ = [
    "Mobius",
    "mob_mul",
    "mob_det",
    "mob_apply",
    "mob_apply_scalar",
    "scalar_matrix",
    "q_mobius",
    "q_mobius_inv",
]


class Mobius(namedtuple("Mobius", "a b c d")):
    __slots__ = ()

    def __new__(cls, a: Scalar, b: Scalar, c: Scalar, d: Scalar):
        self = super().__new__(cls, a, b, c, d)
        if mob_det(self).is_zero():
            raise ValueError("Moebius matrix must have nonzero determinant")
        return self

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace checks the determinant as well
        return cls(*iterable)


def mob_det(m: Mobius) -> Scalar:
    return m.a * m.d - m.b * m.c


def mob_mul(m1: Mobius, m2: Mobius) -> Mobius:
    return Mobius(
        a=m1.a * m2.a + m1.b * m2.c,
        b=m1.a * m2.b + m1.b * m2.d,
        c=m1.c * m2.a + m1.d * m2.c,
        d=m1.c * m2.b + m1.d * m2.d,
    )


def scalar_matrix(lam: Scalar) -> Mobius:
    return Mobius(lam, ZERO, ZERO, lam)


def q_mobius() -> Mobius:
    """The transformation T -> (1 - q*T)/(1 - T), with determinant 1 - q."""
    return Mobius(-Q, ONE, -ONE, ONE)


def q_mobius_inv() -> Mobius:
    """The companion T -> (T - 1)/(T - q); the pair composes to (1-q)*id."""
    return Mobius(ONE, -ONE, ONE, -Q)


def mob_apply(m: Mobius, f: Series) -> Series:
    """(a*f + b)/(c*f + d) as a truncated series.

    The denominator must have an invertible constant term; for f with
    f(0) = 0 this amounts to d being invertible.
    """
    num = f.scale(m.a).add_scalar(m.b)
    den = f.scale(m.c).add_scalar(m.d)
    if den.constant_term().is_zero():
        raise ZeroDivisionError(
            "Moebius action needs an invertible denominator constant term")
    return num / den


def mob_apply_scalar(m: Mobius, x: Scalar) -> Scalar:
    """The same fractional-linear action on a scalar argument."""
    den = m.c * x + m.d
    if den.is_zero():
        raise ZeroDivisionError("Moebius action hits a pole")
    return (m.a * x + m.b) / den
