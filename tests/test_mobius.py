"""Fractional-linear transformations and the basic q-deformation pair."""

import pytest

from qfgl import (
    Scalar, ZERO, ONE, Q,
    Mobius, mob_mul, mob_det, mob_apply, mob_apply_scalar,
    scalar_matrix, q_mobius, q_mobius_inv,
    Series,
)

from conftest import random_mobius, random_zero_constant_series


def test_pair_entries():
    m = q_mobius()
    assert (m.a, m.b, m.c, m.d) == (-Q, ONE, -ONE, ONE)
    n = q_mobius_inv()
    assert (n.a, n.b, n.c, n.d) == (ONE, -ONE, ONE, -Q)


def test_pair_composes_to_scalar_matrix():
    target = scalar_matrix(ONE - Q)
    assert mob_mul(q_mobius(), q_mobius_inv()) == target
    assert mob_mul(q_mobius_inv(), q_mobius()) == target


def test_determinants():
    assert mob_det(q_mobius()) == ONE - Q
    assert mob_det(q_mobius_inv()) == ONE - Q


def test_mul_identity():
    m = random_mobius(__import__("random").Random(3))
    assert mob_mul(m, scalar_matrix(ONE)) == m
    assert mob_mul(scalar_matrix(ONE), m) == m


def test_degenerate_matrix_rejected():
    with pytest.raises(ValueError):
        Mobius(ONE, ONE, ONE, ONE)


def test_make_checks_the_determinant():
    with pytest.raises(ValueError, match="nonzero determinant"):
        Mobius._make((ZERO,) * 4)
    assert Mobius._make((-Q, ONE, -ONE, ONE)) == q_mobius()


def test_replace_checks_the_determinant():
    with pytest.raises(ValueError, match="nonzero determinant"):
        q_mobius()._replace(a=ZERO, c=ZERO)
    assert q_mobius()._replace(a=ONE) == Mobius(ONE, ONE, -ONE, ONE)


def test_apply_to_generator():
    f = mob_apply(q_mobius(), Series.generator(2))
    assert f[0] == ONE
    assert f[1] == ONE - Q
    assert f[2] == ONE - Q


def test_identity_acts_trivially():
    g = random_zero_constant_series(__import__("random").Random(5), order=6)
    assert mob_apply(scalar_matrix(ONE), g) == g


def test_scalar_matrices_act_trivially(rng):
    for _ in range(20):
        g = random_zero_constant_series(rng, order=6)
        lam = ONE + Q ** 2
        assert mob_apply(scalar_matrix(lam), g) == g


def test_projective_inverse_action():
    t = Series.generator(8)
    back = mob_apply(q_mobius_inv(), mob_apply(q_mobius(), t))
    assert back == t


def test_action_is_homomorphism(rng):
    for _ in range(50):
        m1 = random_mobius(rng)
        m2 = random_mobius(rng)
        f = random_zero_constant_series(rng, order=6)
        try:
            rhs = mob_apply(m1, mob_apply(m2, f))
            lhs = mob_apply(mob_mul(m1, m2), f)
        except ZeroDivisionError:
            continue
        assert lhs == rhs


def test_det_multiplicative(rng):
    for _ in range(50):
        m1 = random_mobius(rng)
        m2 = random_mobius(rng)
        assert mob_det(mob_mul(m1, m2)) == mob_det(m1) * mob_det(m2)


def test_scalar_action():
    m = Mobius(ZERO, Scalar.from_int(24), -ONE, ONE)
    assert mob_apply_scalar(m, Q) == Scalar.from_int(24) / (ONE - Q)
    with pytest.raises(ZeroDivisionError):
        mob_apply_scalar(m, ONE)
