"""The q-deformed group law: log/exp, closed forms, axioms, adjudications."""

import sys
import threading

import pytest

from qfgl import (
    Scalar, ZERO, ONE, Q, S, membership,
    Series, BiSeries, compose, reverse,
    FormalGroupLaw, log_chi, exp_chi, mob_apply, q_mobius,
    f_chi_closed, f_chi_from_log, f_chi_derived_closed, proposition_check,
    multiplicative_law, verify_fgl, drinfeld_form, cp_image,
    fgl_inverse, fgl_eval, cartier_check,
    q_int, log1,
)
import qfgl.fgl
from qfgl.cli import main
from qfgl.fgl import _log_u_powers
from qfgl.series import _powers


def T(order):
    return Series.generator(order)


# -- logarithm and exponential ---------------------------------------------------

def test_log_coefficients():
    lg = log_chi(6)
    assert lg[1] == ONE
    assert lg[2] == (ONE + Q) / Scalar.from_int(2)
    assert lg[5] == Scalar.from_q_coeffs([1, 1, 1, 1, 1]) / Scalar.from_int(5)


def test_log_equals_q_integer_sum():
    lg = log_chi(20)
    for k in range(1, 21):
        assert Scalar.from_int(k) * lg[k] == q_int(k)


def test_log_coefficients_at_q_equal_one():
    lg = log_chi(12)
    for k in range(1, 13):
        assert (Scalar.from_int(k) * lg[k]).eval_s(1) == k


def test_exp_linear_coefficient():
    assert exp_chi(6)[1] == ONE
    assert exp_chi(6)[0] == ZERO


def test_exp_log_compose_to_identity():
    n = 12
    assert compose(exp_chi(n), log_chi(n)) == T(n)
    assert compose(log_chi(n), exp_chi(n)) == T(n)


def test_exp_equals_reversed_log():
    # the baby-step giant-step block size isqrt(n - 1) + 1 steps up at
    # n = m^2 + 1: orders 1..26 cover m^2 and m^2 + 1 for m = 1..5
    for n in (*range(1, 27), 32):
        assert exp_chi(n) == reverse(log_chi(n)), f"order {n}"


def test_stored_expansions_read_as_fresh_ones():
    # [T^k] does not depend on the order, so a truncated read is exact
    log_chi(30), exp_chi(30)
    stored = [(log_chi(n), exp_chi(n)) for n in range(1, 31)]
    for n, pair in enumerate(stored, start=1):
        qfgl.fgl._EXPANSIONS.clear()
        assert pair == (log_chi(n), exp_chi(n)), f"order {n}"
        assert pair[0].order == pair[1].order == n
    # a larger order asked after a smaller one expands again and is stored
    qfgl.fgl._EXPANSIONS.clear()
    small, large = log_chi(8), log_chi(24)
    assert qfgl.fgl._EXPANSIONS["log_chi"] is large
    qfgl.fgl._EXPANSIONS.clear()
    assert (small, large) == (log_chi(8), log_chi(24))


def test_stored_expansions_in_four_threads():
    fresh = {}
    for n in range(1, 17):
        qfgl.fgl._EXPANSIONS.clear()
        fresh[n] = (log_chi(n), exp_chi(n))
    qfgl.fgl._EXPANSIONS.clear()
    wrong = []

    def work(k):
        # each thread asks the orders in its own sequence, so misses interleave
        for i in range(48):
            n = (i * (2 * k + 1) + k) % 16 + 1
            if (log_chi(n), exp_chi(n)) != fresh[n]:
                wrong.append((k, n))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    # whichever thread stored last, the store holds a whole expansion
    for i, name in enumerate(("log_chi", "exp_chi")):
        stored = qfgl.fgl._EXPANSIONS[name]
        assert stored == fresh[stored.order][i]


def test_one_logarithm_serves_the_images_and_mishchenko(monkeypatch, capsys, tmp_path):
    calls = []
    true_log1 = qfgl.fgl.log1
    monkeypatch.setattr(qfgl.fgl, "log1", lambda f: calls.append(f.order) or true_log1(f))
    images = [cp_image(n) for n in range(20, -1, -1)]
    assert main(["verify", "mishchenko", "--order", "19"]) == 0
    assert calls == [21]
    assert images[::-1] == [q_int(n + 1) for n in range(21)]
    assert "0 failing" in capsys.readouterr().out
    # cold, each call expands the logarithm once, at the largest order it
    # reads, whatever the order of its factors or catalog entries
    catalog = tmp_path / "ascending.txt"
    catalog.write_text("e1 1\ne2 2\ne3 3\n")
    for argv, order in ((["verify", "mishchenko", "--order", "19"], 20),
                        (["table", "cp_image", "--max", "20"], 21),
                        (["diagram", "1", "3", "2"], 4),
                        (["diagram", "--catalog", str(catalog)], 4),
                        (["verify", "diagram"], 5)):
        qfgl.fgl._EXPANSIONS.clear()
        calls.clear()
        assert main(argv) == 0
        assert calls == [order], argv
    # and none when any entry is refused, wherever it stands
    catalog.write_text("e1 1\ne2 464\ne3 2\n")
    qfgl.fgl._EXPANSIONS.clear()
    calls.clear()
    assert main(["diagram", "--catalog", str(catalog)]) == 2
    assert calls == []


# -- orientation images ------------------------------------------------------------

def test_cp_image_point():
    assert cp_image(0) == ONE
    with pytest.raises(ValueError, match="dimension must be >= 0"):
        cp_image(-1)


def test_cp_image_plane():
    assert cp_image(2) == Scalar.from_q_coeffs([1, 1, 1])


def test_cp_image_family():
    for n in range(11):
        img = cp_image(n)
        assert img == q_int(n + 1)
        assert img.eval_s(1) == n + 1


# -- the closed law -----------------------------------------------------------------

def test_closed_law_low_coefficients():
    F = f_chi_closed(6).series
    assert F.coeff(0, 0) == ZERO
    assert F.coeff(1, 0) == ONE
    assert F.coeff(0, 1) == ONE
    assert F.coeff(1, 1) == ONE + Q


def test_closed_law_coeff_2_1_by_multiplying_back():
    # expansion * (1 + qXY) must reproduce the numerator X + Y + (1+q)XY
    F = f_chi_closed(8).series
    den = BiSeries(2, 8, {(0, 0): ONE, (1, 1): Q})
    num = BiSeries(2, 8,
                   {(1, 0): ONE, (0, 1): ONE, (1, 1): ONE + Q})
    assert F * den == num
    assert F.coeff(2, 1) == -Q


def test_closed_law_coefficients_integral():
    F = f_chi_closed(12).series
    for (i, j), c in F.terms.items():
        assert membership(c).in_Z_q, f"coefficient at {(i, j)}"


def test_closed_forms_pinned():
    assert f_chi_closed(2).closed == ({(1, 0): ONE, (0, 1): ONE, (1, 1): ONE + Q},
                                      {(0, 0): ONE, (1, 1): Q})
    assert f_chi_derived_closed(2).closed == (
        {(1, 0): ONE, (0, 1): ONE, (1, 1): -(ONE + Q)}, {(0, 0): ONE, (1, 1): -Q})
    assert multiplicative_law(2).closed == ({(1, 0): ONE, (0, 1): ONE, (1, 1): ONE},
                                            {(0, 0): ONE})
    assert drinfeld_form(2).closed == ({(1, 0): ONE, (0, 1): ONE, (1, 1): ONE / S + S},
                                       {(0, 0): ONE, (1, 1): ONE})


def test_closed_law_axioms():
    assert verify_fgl(f_chi_closed(10), 10).all_passed


def test_closed_law_q0_is_multiplicative():
    # closed rational form comparison: exact at all orders
    num, den = f_chi_closed(2).closed
    num0 = {k: c.eval_s(0) for k, c in num.items() if c.eval_s(0)}
    den0 = {k: c.eval_s(0) for k, c in den.items() if c.eval_s(0)}
    assert num0 == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert den0 == {(0, 0): 1}


# -- the transported law and the sign adjudication -----------------------------------

def test_transport_equals_minus_closed_form():
    # the small orders reach the edges of the binomial expansion's indexing
    for n in (1, 2, 3, 12, 20):
        assert f_chi_from_log(n).series == f_chi_derived_closed(n).series


def test_transport_differs_from_plus_closed_form():
    F_log = f_chi_from_log(4).series
    F_plus = f_chi_closed(4).series
    assert F_log != F_plus
    assert F_log.coeff(1, 1) == -(ONE + Q)
    assert F_plus.coeff(1, 1) == ONE + Q


def test_proposition_adjudication_pattern():
    # the transport matches the minus form and differs from the plus form,
    # first at XY: the declared discrepancy passes and records where
    rep = proposition_check(10)
    outcomes = {c.name: (c.passed, c.detail) for c in rep.checks}
    assert outcomes == {
        "exp/log transport matches the minus closed form": (True, None),
        "exp/log transport differs from the plus closed form (recorded discrepancy)":
            (True, "first difference at XY: -1 - q != 1 + q"),
    }


def test_minus_law_is_a_law_with_q_integer_logarithm():
    F = f_chi_derived_closed(10)
    assert verify_fgl(F, 10).all_passed
    for (i, j), c in F.series.terms.items():
        assert membership(c).in_Z_q


def test_transport_q0_is_the_other_multiplicative_law():
    F = f_chi_from_log(6).series
    c11 = F.coeff(1, 1)
    assert c11.eval_s(0) == -1


# -- axiom checking on other laws ------------------------------------------------------

def test_multiplicative_law_passes():
    assert verify_fgl(multiplicative_law(8), 8).all_passed
    assert verify_fgl(multiplicative_law(8), 8, assoc="generic").all_passed


def test_non_law_fails_associativity_at_degree_four():
    bad = FormalGroupLaw(series=BiSeries(
        2, 6, {(1, 0): ONE, (0, 1): ONE, (2, 2): ONE}))
    rep = verify_fgl(bad, 6)
    by_name = {c.name: c for c in rep.checks}
    assoc = by_name["associativity (truncated substitution)"]
    assert not assoc.passed
    assert assoc.detail == "first difference at XYZ^2: 2 != 0"   # total degree 4
    assert by_name["unit F(X,0) = X"].passed
    assert by_name["commutativity F(X,Y) = F(Y,X)"].passed


@pytest.mark.parametrize("assoc, name", [
    ("generic", "associativity (truncated substitution)"),
    ("auto", "associativity (exact, closed form)"),
])
def test_non_law_closed_form_fails_on_both_routes(assoc, name):
    # X + Y + X^2 Y^2 over 1: both routes name the same first failure
    closed = ({(1, 0): ONE, (0, 1): ONE, (2, 2): ONE}, {(0, 0): ONE})
    bad = FormalGroupLaw(series=BiSeries(2, 6, closed[0]), closed=closed)
    by_name = {c.name: c for c in verify_fgl(bad, 6, assoc=assoc).checks}
    assert not by_name[name].passed
    assert by_name[name].detail == "first difference at XYZ^2: 2 != 0"
    assert by_name["commutativity F(X,Y) = F(Y,X)"].passed


def test_verify_fgl_refuses_an_order_above_the_expansion():
    # the closed law is associative; at order 8 a law expanded to 4 would be
    # checked on coefficients that were never computed
    with pytest.raises(ValueError, match="not expanded far enough"):
        verify_fgl(f_chi_closed(4), 8, assoc="generic")
    assert verify_fgl(f_chi_closed(8), 4, assoc="generic").all_passed


def test_generic_associativity_refuses_a_constant_term():
    # the truncation of a law does not determine its substitution into a
    # series with a constant term
    F = FormalGroupLaw(series=BiSeries(2, 4,
                                       {(0, 0): ONE, (1, 0): ONE, (0, 1): ONE}))
    with pytest.raises(ValueError, match="zero constant term"):
        verify_fgl(F, 4, assoc="generic")


def test_verify_fgl_rejects_an_unknown_assoc():
    # a misspelt route must not fall back to the truncated substitution
    for assoc in ("closed", "Closed", "exact", ""):
        with pytest.raises(ValueError, match="'auto' or 'generic'"):
            verify_fgl(f_chi_closed(4), 4, assoc=assoc)


@pytest.mark.parametrize("terms, failing, detail", [
    ({(0, 1): ONE}, "unit F(X,0) = X", "first difference at X: 0 != 1"),
    ({(1, 0): ONE}, "unit F(0,Y) = Y", "first difference at Y: 0 != 1"),
    ({(1, 0): ONE, (0, 1): ONE, (3, 0): Q}, "unit F(X,0) = X",
     "first difference at X^3: q != 0"),
    ({(1, 0): Q, (0, 1): ONE, (2, 0): ONE}, "unit F(X,0) = X",
     "first difference at X: q != 1"),
    ({(0, 1): ONE, (2, 0): ONE}, "unit F(X,0) = X",
     "first difference at X: 0 != 1"),
], ids=["F=Y", "F=X", "extra-X^3", "wrong-X", "missing-X"])
def test_unit_check_names_the_first_failing_coefficient(terms, failing, detail):
    F = FormalGroupLaw(series=BiSeries(2, 4, terms))
    by_name = {c.name: c for c in verify_fgl(F, 4, assoc="generic").checks}
    assert not by_name[failing].passed
    assert by_name[failing].detail == detail


@pytest.mark.parametrize("extra, detail", [
    ({(2, 1): ONE, (1, 2): Q, (3, 1): ONE}, "first difference at XY^2: q != 1"),
    # only one of (3, 1) and (1, 3) present: the smaller key is named
    ({(3, 1): ONE}, "first difference at XY^3: 0 != 1"),
], ids=["both-present", "one-present"])
def test_commutativity_check_names_the_first_failing_coefficient(extra, detail):
    F = FormalGroupLaw(series=BiSeries(2, 5, {(1, 0): ONE, (0, 1): ONE, **extra}))
    by_name = {c.name: c for c in verify_fgl(F, 5, assoc="generic").checks}
    assert by_name["commutativity F(X,Y) = F(Y,X)"].detail == detail
    assert by_name["unit F(X,0) = X"].passed and by_name["unit F(0,Y) = Y"].passed


def test_generic_and_closed_assoc_routes_agree():
    for make in (f_chi_closed, f_chi_derived_closed, multiplicative_law):
        F = make(8)
        closed = verify_fgl(F, 8)
        assert "associativity (exact, closed form)" in {c.name for c in closed.checks}
        assert closed.all_passed
        assert verify_fgl(F, 8, assoc="generic").all_passed


# -- rescaled symmetric form ------------------------------------------------------------

def test_drinfeld_coefficients():
    D = drinfeld_form(8).series
    assert D.coeff(1, 0) == ONE
    assert D.coeff(0, 1) == ONE
    assert D.coeff(1, 1) == ONE / S + S


def test_drinfeld_two_routes_agree():
    D = drinfeld_form(10)
    num, den = D.closed
    # the divisor has constant term 1: the product equals the numerator
    # exactly when the series is the quotient to total degree 10
    assert D.series * BiSeries(2, 10, den) == BiSeries(2, 10, num)


def test_drinfeld_is_a_law():
    assert verify_fgl(drinfeld_form(10), 10).all_passed


# -- the formal inverse ---------------------------------------------------------------

def test_inverse_of_multiplicative_law():
    iota = fgl_inverse(multiplicative_law(8))
    # -T/(1+T) = -T + T^2 - T^3 + ...
    for k in range(1, 9):
        assert iota[k] == Scalar.from_int((-1) ** k)
    assert iota[0] == ZERO


def test_inverse_of_q_law_closed_form():
    # -T/(1 +- (1+q)T), solved from the closed numerators.  Every order ends
    # the Newton doubling at another last step, one of them adding a single
    # coefficient, whose derivative is read to order 0 (orders 2, 4, 8, 16
    # and 32); a law expanded past the wanted order gives the same inverse
    for n, law_order in [(n, n) for n in range(1, 41)] + [(20, 24)]:
        for make, sign in ((f_chi_closed, ONE), (f_chi_derived_closed, -ONE)):
            expected = (-T(n)) / Series(n, (ONE, sign * (ONE + Q)))
            assert fgl_inverse(make(law_order)).truncate(n) == expected


def test_inverse_composes_to_zero():
    for n in (10, 20):
        for make in (f_chi_closed, multiplicative_law, f_chi_derived_closed,
                     drinfeld_form, f_chi_from_log):
            F = make(n)
            iota = fgl_inverse(F)
            assert not any(fgl_eval(F, T(n), iota).coeffs)
    # a law with no closed form, and an odd order past the last doubling
    for F in (f_chi_from_log(14), drinfeld_form(33)):
        assert not any(fgl_eval(F, T(F.series.order), fgl_inverse(F)).coeffs)


def test_eval_stops_at_the_order_of_the_law():
    # the law to order 4 knows nothing of T^5 and beyond, so neither does
    # its value; at order 10 the T^5 coefficient of F(T, T) is 2q^2
    short = fgl_eval(f_chi_closed(4), T(10), T(10))
    full = fgl_eval(f_chi_closed(10), T(10), T(10))
    assert short.order == 4
    assert short == full.truncate(4)
    assert full[5] == Scalar.from_int(2) * Q ** 2


def test_inverse_input_errors():
    no_y = FormalGroupLaw(series=BiSeries(2, 6, {(1, 0): ONE, (1, 1): ONE}))
    with pytest.raises(ValueError, match="invertible Y coefficient"):
        fgl_inverse(no_y)


# -- the exponential-character identity ---------------------------------------------------

def test_cartier_adjudication_pinned():
    # only [1-exp(-u), c=(1-q)^-1] holds; the other three are declared to
    # fail, and do
    rep = cartier_check(6, 8)
    assert rep.all_passed
    assert [c.name for c in rep.checks] == [
        "exponential-character identity [1-exp(-u), c=1-q] fails as expected",
        "exponential-character identity [1-exp(-u), c=(1-q)^-1] holds",
        "exponential-character identity [exp(u)-1, c=1-q] fails as expected",
        "exponential-character identity [exp(u)-1, c=(1-q)^-1] fails as expected",
    ]


# The CLI prints no detail for a passing check, so where each declared
# discrepancy first shows is pinned here only.
@pytest.mark.parametrize("t_order, x_order", [(2, 2), (4, 6), (6, 8)],
                         ids=["2-2", "4-6", "6-8"])
@pytest.mark.parametrize("combination, where", [
    ("1-exp(-u), c=1-q", "t^1 T^1"),
    ("exp(u)-1, c=1-q", "t^1 T^1"),
    ("exp(u)-1, c=(1-q)^-1", "t^2 T^2"),
], ids=["minus-det", "plus-det", "plus-inverse"])
def test_cartier_printed_variant_fails_immediately(combination, where,
                                                   t_order, x_order):
    rep = cartier_check(t_order, x_order)
    by_name = {c.name: c for c in rep.checks}
    declared = by_name[f"exponential-character identity [{combination}] fails as expected"]
    assert declared.passed
    assert declared.detail.startswith(f"first difference at {where}: ")


def test_cartier_sides_share_no_computation(monkeypatch):
    # a wrong logarithm moves only the left side, so no candidate survives:
    # the routes of every combination differ
    true_log1 = qfgl.fgl.log1
    monkeypatch.setattr(qfgl.fgl, "log1", lambda f: true_log1(f).scale(2))
    rep = cartier_check(4, 6)
    assert not rep.all_passed
    assert all(c.detail.startswith("first difference at ") for c in rep.checks)


def test_cartier_reads_the_right_side(monkeypatch):
    # a wrong (log U)^3 moves only the right side: the true combination fails there
    true_log_u_powers = qfgl.fgl._log_u_powers

    def wrong(t_order, x_order):
        out = true_log_u_powers(t_order, x_order)
        coeffs = list(out[3].coeffs)
        coeffs[5] += ONE
        out[3] = Series(x_order, coeffs)
        return out
    monkeypatch.setattr(qfgl.fgl, "_log_u_powers", wrong)
    rep = cartier_check(4, 6)
    failing = {c.name: c.detail for c in rep.checks if not c.passed}
    assert failing["exponential-character identity [1-exp(-u), c=(1-q)^-1] holds"].startswith(
        "first difference at t^3 T^5: ")


def test_cartier_builds_no_right_row_past_the_first_difference(monkeypatch):
    # one scaling for the left side, then one per right-side row compared:
    # t^1 for each c = 1-q, t^1..t^6 for the combination that holds, and
    # t^1, t^2 for [exp(u)-1, c=(1-q)^-1], whose t^2 row first differs
    lg = log_chi(10)
    monkeypatch.setattr(qfgl.fgl, "log_chi", lambda order: lg)
    calls = []
    true_scale = Series.scale
    monkeypatch.setattr(Series, "scale", lambda f, c: calls.append(1) or true_scale(f, c))
    assert cartier_check(6, 10).all_passed
    assert len(calls) == 1 + 1 + 6 + 1 + 2


def test_cartier_check_runs_no_gcd(monkeypatch):
    # both sides are polynomials once scaled by det^k; only log_chi divides
    lg = log_chi(24)
    monkeypatch.setattr(qfgl.fgl, "log_chi", lambda order: lg)
    calls = []
    true_gcd = qfgl.scalar._ip_gcd
    monkeypatch.setattr(qfgl.scalar, "_ip_gcd", lambda a, b: calls.append(1) or true_gcd(a, b))
    assert cartier_check(8, 24).checks[1].passed
    assert len(calls) == 0


def test_log_chi_runs_no_gcd(monkeypatch):
    # (1 - q^k)/k is divisible by 1 - q, and ONE / det is the exact inverse
    calls = []
    true_gcd = qfgl.scalar._ip_gcd
    monkeypatch.setattr(qfgl.scalar, "_ip_gcd", lambda a, b: calls.append(1) or true_gcd(a, b))
    lg = log_chi(40)
    assert len(calls) == 0
    assert lg.coeffs[40] == q_int(40) / Scalar.from_int(40)


def test_log_u_powers_match_the_logarithm():
    # (8, 24) is the benchmark's shape, (0, 4) has no power past the
    # constant, (10, 3) powers that vanish to the order, and (3, 40) the
    # widest Horner values
    for t_order, x_order in ((1, 1), (3, 5), (6, 8), (8, 12), (8, 24), (0, 4), (10, 3),
                             (3, 40)):
        u = mob_apply(q_mobius(), Series.generator(x_order))   # (1 - qT)/(1 - T)
        assert _log_u_powers(t_order, x_order) == _powers(log1(u), t_order)
