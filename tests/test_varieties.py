"""Hodge polynomials, the Lefschetz sl2 ring, and the diagram checks."""

import itertools

import pytest

from qfgl import (
    Scalar, ONE, Q, S,
    Variety, HodgePoly, SL2Rep,
    hodge, euler_specialize, yz_to_q, rep_of_variety, cg_tensor,
    character, decompose_character, qdim_normalized,
    diagram_check, load_catalog, cp_image,
)


def V(*dims):
    return Variety(dims)


# -- Hodge polynomials -------------------------------------------------------

def test_hodge_projective_plane():
    assert hodge(V(2)) == HodgePoly({(0, 0): 1, (1, 1): 1, (2, 2): 1})


def test_hodge_point():
    assert hodge(V()) == HodgePoly({(0, 0): 1})


def test_hodge_product_of_lines():
    assert hodge(V(1, 1)) == HodgePoly({(0, 0): 1, (1, 1): 2, (2, 2): 1})


def test_hodge_multiplicative(rng):
    for _ in range(30):
        f1 = [rng.randint(0, 4) for _ in range(rng.randint(0, 3))]
        f2 = [rng.randint(0, 4) for _ in range(rng.randint(0, 3))]
        assert hodge(V(*f1, *f2)) == hodge(V(*f1)) * hodge(V(*f2))


def test_hodge_symmetry():
    h = hodge(V(3, 2))
    assert all(h.terms.get((j, i), 0) == c for (i, j), c in h.terms.items())


# -- Euler characteristics ------------------------------------------------------

def test_euler_projective_plane():
    chi, ok = euler_specialize(hodge(V(2)), 2)
    assert (chi, ok) == (3, True)


def test_euler_point():
    chi, ok = euler_specialize(hodge(V()), 0)
    assert (chi, ok) == (1, True)


def test_euler_product_of_lines():
    chi, ok = euler_specialize(hodge(V(1, 1)), 2)
    assert (chi, ok) == (4, True)


def test_euler_forced_convention_on_line():
    # the convention is pinned by chi(CP^1) = 2
    chi, ok = euler_specialize(hodge(V(1)), 1)
    assert (chi, ok) == (2, True)


def test_euler_flags_wrong_dimension():
    _, ok = euler_specialize(hodge(V(2)), 3)
    assert not ok


# -- the YZ -> q substitution ------------------------------------------------------

def test_yz_to_q_on_projective_spaces():
    for n in range(6):
        assert yz_to_q(hodge(V(n))) == Scalar.from_q_coeffs([1] * (n + 1))


def test_yz_to_q_unit():
    assert yz_to_q(hodge(V())) == ONE


def test_yz_to_q_product_of_lines():
    assert yz_to_q(hodge(V(1, 1))) == Scalar.from_q_coeffs([1, 2, 1])


def test_yz_to_q_rejects_off_diagonal():
    with pytest.raises(ValueError):
        yz_to_q(HodgePoly({(1, 0): 1, (0, 1): 1}))


# -- the sl2 ring ---------------------------------------------------------------------

def test_cg_basic():
    assert cg_tensor(SL2Rep.irrep(1), SL2Rep.irrep(1)) == SL2Rep({2: 1, 0: 1})
    assert cg_tensor(SL2Rep.irrep(2), SL2Rep.irrep(1)) == SL2Rep({3: 1, 1: 1})


def test_cg_unit():
    r = SL2Rep({4: 2, 1: 1})
    assert cg_tensor(SL2Rep.irrep(0), r) == r


def test_negative_highest_weights_are_refused():
    with pytest.raises(ValueError, match=">= 0"):
        SL2Rep({-1: 1})


@pytest.mark.parametrize("value", [HodgePoly({(0, 0): 3}), SL2Rep({0: 3})],
                         ids=["HodgePoly", "SL2Rep"])
def test_comparison_with_an_int_is_false(value):
    assert not value == 3 and value != 3


def test_characters():
    assert character(SL2Rep.irrep(1)) == S + ONE / S
    assert character(SL2Rep({2: 1, 0: 1})) \
        == Scalar.s_power(2) + Scalar.from_int(2) + Scalar.s_power(-2)


def test_character_is_ring_homomorphism():
    r1 = SL2Rep.irrep(1)
    prod = cg_tensor(r1, r1)
    assert character(prod) == character(r1) * character(r1)


def test_character_homomorphism_random(rng):
    for _ in range(30):
        r1 = SL2Rep({rng.randint(0, 5): rng.randint(1, 3) for _ in range(2)})
        r2 = SL2Rep({rng.randint(0, 5): rng.randint(1, 3) for _ in range(2)})
        assert character(cg_tensor(r1, r2)) == character(r1) * character(r2)


def dimension(r: SL2Rep) -> int:
    """The dimension of a representation: V_n has dimension n + 1."""
    return sum(c * (n + 1) for n, c in r.mult.items())


def test_dimension_count_random(rng):
    checked = 0
    while checked < 30:
        r1 = SL2Rep({rng.randint(0, 4): rng.randint(1, 2) for _ in range(2)})
        r2 = SL2Rep({rng.randint(0, 4): rng.randint(1, 2) for _ in range(2)})
        prod = cg_tensor(r1, r2)
        if dimension(prod) > 40:
            continue
        checked += 1
        assert dimension(prod) == dimension(r1) * dimension(r2)
        assert character(prod).eval_s(1) == dimension(prod)


def test_character_injective_round_trip(rng):
    for _ in range(50):
        r = SL2Rep({rng.randint(0, 6): rng.randint(1, 3) for _ in range(3)})
        assert decompose_character(character(r)) == r
    # virtual representations: zero and negative multiplicities, both parities
    for _ in range(50):
        r = SL2Rep({rng.randint(0, 9): rng.randint(-3, 3)
                    for _ in range(rng.randint(1, 4))})
        assert decompose_character(character(r)) == r
    assert decompose_character(character(SL2Rep())) == SL2Rep()


def test_decompose_character_rejects_non_characters():
    with pytest.raises(ValueError, match="not symmetric"):
        decompose_character(S)
    with pytest.raises(ValueError, match="integer Laurent"):
        decompose_character(ONE / (ONE - Q))
    # the top pair is symmetric, the middle is not
    with pytest.raises(ValueError, match="not symmetric"):
        decompose_character(S ** 2 + S + S ** -2)
    with pytest.raises(ValueError, match="not symmetric"):
        decompose_character(ONE / S)


def test_qdim_normalized_strings():
    for n in range(6):
        assert qdim_normalized(SL2Rep.irrep(n)) \
            == Scalar.from_q_coeffs([1] * (n + 1))
    assert qdim_normalized(SL2Rep.irrep(0)) == ONE


def test_qdim_normalized_product_example():
    r = SL2Rep({2: 1, 0: 1})
    assert qdim_normalized(r) == Scalar.from_q_coeffs([1, 2, 1])
    assert qdim_normalized(r) == yz_to_q(hodge(V(1, 1)))


def test_qdim_rejects_virtual():
    with pytest.raises(ValueError, match="no top weight"):
        qdim_normalized(SL2Rep())
    with pytest.raises(ValueError, match="effective"):
        qdim_normalized(SL2Rep({2: 1, 0: -1}))


def test_rep_of_variety():
    assert rep_of_variety(V(3)) == SL2Rep.irrep(3)
    assert rep_of_variety(V()) == SL2Rep.irrep(0)
    assert rep_of_variety(V(1, 1)) == SL2Rep({2: 1, 0: 1})


# -- the diagram ---------------------------------------------------------------------

def test_diagram_examples():
    for dims, value in [((2,), [1, 1, 1]), ((), [1])]:
        rep = diagram_check(V(*dims))
        assert rep.all_passed
    rep = diagram_check(V(1, 2))
    assert rep.all_passed
    assert yz_to_q(hodge(V(1, 2))) == q_mul_image((1, 2))


def q_mul_image(dims):
    acc = ONE
    for n in dims:
        acc = acc * cp_image(n)
    return acc


def test_diagram_full_catalog():
    for dims in itertools.product(range(5), repeat=3):
        assert diagram_check(Variety(dims)).all_passed, f"factors {dims}"


def test_euler_consistency_on_catalog():
    for dims in itertools.product(range(5), repeat=2):
        v = Variety(dims)
        h = hodge(v)
        chi, ok = euler_specialize(h, v.dimension)
        assert ok
        assert yz_to_q(h).eval_s(1) == chi


def test_catalog_file(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text(
        "# comment line\n"
        "\n"
        "plane 2\n"
        "lines 1 1\n"
        "mixed 1 2 3\n",
        encoding="utf-8")
    entries = load_catalog(path)
    assert [name for name, _ in entries] == ["plane", "lines", "mixed"]
    assert entries[2][1] == V(1, 2, 3)
    for _, v in entries:
        assert diagram_check(v).all_passed


def test_catalog_file_rejects_no_entries(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# comment line\n\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no entries") as exc:
        load_catalog(path)
    assert str(path) in str(exc.value)


def test_catalog_file_rejects_bad_dims(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("oops one two\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_catalog(path)


def test_make_checks_the_factors():
    with pytest.raises(ValueError, match=">= 0"):
        Variety._make(((-1,),))
    assert Variety._make(((1, 2),)) == V(1, 2)
    assert str(V(1, 2)._replace(factors=(3,))) == "CP3"
