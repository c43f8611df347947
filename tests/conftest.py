"""Shared randomized-instance factories for the property suites.

Every randomized test draws from ``random.Random(SEED)`` so failures are
reproducible; the seed below is the single documented source of
randomness for the whole suite.
"""

import random
from fractions import Fraction

import pytest

import qfgl.fgl
from qfgl import Scalar, ZERO, ONE, Series, QSeries, Mobius

SEED = 1729


@pytest.fixture(autouse=True)
def empty_expansions():
    """Each test expands log_chi and exp_chi afresh: a test that patches
    what they call must not read a series that an earlier test stored."""
    qfgl.fgl._EXPANSIONS.clear()


@pytest.fixture
def rng():
    return random.Random(SEED)


def random_q_poly(rng, deg=3, bound=3) -> Scalar:
    """Random polynomial in q with small integer coefficients."""
    return Scalar.from_q_coeffs([rng.randint(-bound, bound)
                                 for _ in range(deg + 1)])


def random_scalar(rng, deg=3) -> Scalar:
    """Random rational function in q (denominator forced nonzero)."""
    num = random_q_poly(rng, deg)
    while True:
        den = random_q_poly(rng, max(deg - 1, 1))
        if not den.is_zero():
            return num / den


def random_series(rng, order=8, coeff_deg=2) -> Series:
    return Series(order, [random_q_poly(rng, coeff_deg, 2) for _ in range(order + 1)])


def random_qseries(rng, order=8, rational=False) -> QSeries:
    """Random q-series with small integer or, if asked, rational coefficients."""
    def coeff():
        c = rng.randint(-3, 3)
        return Fraction(c, rng.randint(1, 4)) if rational else c
    return QSeries(order, [coeff() for _ in range(order + 1)])


def random_zero_constant_series(rng, order=8) -> Series:
    f = random_series(rng, order)
    return Series(order, (ZERO,) + f.coeffs[1:])


def random_reversible_series(rng, order=8) -> Series:
    f = random_series(rng, order)
    return Series(order, (ZERO, ONE) + f.coeffs[2:])


def random_mobius(rng, deg=1) -> Mobius:
    while True:
        entries = [random_q_poly(rng, deg, 2) for _ in range(4)]
        try:
            return Mobius(*entries)
        except ValueError:
            continue


def random_virtual_rep(rng, max_n=6, bound=3) -> dict:
    """Integer q-expansion coefficients of a virtual circle representation."""
    return {n: rng.randint(-bound, bound) for n in range(max_n + 1)}
