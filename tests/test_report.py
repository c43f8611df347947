"""``report.compare``, the one builder of every check, and a mutation of one
route of every check of the multi-route suites."""

import json
import re

import pytest

import qfgl.cli
import qfgl.fgl
import qfgl.lambda_ring
import qfgl.varieties
from qfgl import (
    ZERO, ONE, Q, Series, BiSeries, QSeries, Mobius, FormalGroupLaw,
    Check, compare, f_chi_closed, f_chi_derived_closed, log_chi,
)
from qfgl.cli import main


# -- compare on each kind of value ------------------------------------------------

def test_equal_routes_pass_without_a_detail():
    for x in (Q, QSeries(4, (1, 2)), Series(3, (ONE, Q)), f_chi_closed(4).series,
              (QSeries(2, (1,)), QSeries(2, (0, 1))), Mobius(ONE, ZERO, ZERO, ONE)):
        assert compare("same", None, x, x) == Check("same", None, True)


def test_scalars_give_both_canonical_strings():
    c = compare("scalar", None, ONE - Q, ONE + Q)
    assert (c.passed, c.detail) == (False, "1 - q != 1 + q")


def test_series_name_the_first_differing_degree():
    c = compare("series", 3, Series(3, (ONE, Q, Q)), Series(3, (ONE, Q, ONE)))
    assert c.detail == "first difference at T^2: q != 1"
    c = compare("qseries", 5, QSeries(5, (1, 2, 3, 4)), QSeries(5, (1, 2, 3, 5)))
    assert c.detail == "first difference at q^3: 4 != 5"


def test_series_of_different_orders_say_so():
    c = compare("orders", None, QSeries(4, (1,)), QSeries(6, (1,)))
    assert (c.passed, c.detail) == (False, "orders differ: q^4 != q^6")
    c = compare("orders", None, f_chi_closed(4).series, f_chi_closed(5).series)
    assert c.detail == "orders differ: total degree 4 != total degree 5"


def test_biseries_name_the_first_monomial_by_total_degree_then_exponents():
    base = {(1, 0): ONE, (0, 1): ONE}
    x = BiSeries(2, 4, {**base, (3, 0): Q})
    y = BiSeries(2, 4, {**base, (1, 1): ONE, (0, 2): Q})
    assert compare("bi", 4, x, y).detail == "first difference at Y^2: 0 != q"
    assert compare("bi", 4, BiSeries(2, 4, {(0, 0): Q}), BiSeries(2, 4)).detail \
        == "first difference at 1: q != 0"
    z = BiSeries(3, 6, {(1, 1, 2): ONE})
    assert compare("bi", 6, z, BiSeries(3, 6)).detail == "first difference at XYZ^2: 1 != 0"


def test_rows_name_the_t_degree_and_the_coefficient():
    x = (QSeries(3, (1,)), QSeries(3, (0, 1, 1)))
    y = (QSeries(3, (1,)), QSeries(3, (0, 1, 2)))
    assert compare("rows", (1, 3), x, y).detail == "first difference at t^1 q^2: 1 != 2"
    c = compare("rows", (1, 3), x, x + (QSeries(3),))
    assert c.detail == "first difference at t^2: present in one route only"


def test_moebius_matrices_name_the_entry():
    c = compare("matrix", None, Mobius(ONE, ZERO, ZERO, ONE), Mobius(ONE, ZERO, Q, ONE))
    assert c.detail == "first difference at entry c: 0 != q"


def test_more_than_two_routes_name_the_pair_compared():
    c = compare("three", None, Q, Q, ONE)
    assert (c.passed, c.detail) == (False, "routes 1 and 3: q != 1")


def test_a_lazy_route_is_read_to_its_first_difference_only():
    rows = [QSeries(2, (k,)) for k in range(6)]
    read = []

    def lazy():
        for k, r in enumerate(rows):
            read.append(k)
            yield r if k != 2 else r + QSeries(2, (0, 0, 1))
    c = compare("lazy", None, rows, lazy())
    assert c.detail == "first difference at t^2 q^2: 0 != 1"
    assert read == [0, 1, 2]


def test_a_declared_discrepancy_passes_when_its_routes_differ_and_records_where():
    c = compare("declared", 4, QSeries(4, (1, 1)), QSeries(4, (1, 2)), differ=True)
    assert (c.passed, c.detail) == (True, "first difference at q^1: 1 != 2")
    # a passing check prints no detail
    assert str(c) == "PASS declared (order 4)"


def test_a_declared_discrepancy_whose_routes_agree_fails_with_a_detail():
    c = compare("declared", 4, QSeries(4, (1, 1)), QSeries(4, (1, 1)), differ=True)
    assert (c.passed, c.detail) == (False, "the routes agree through q^4")
    assert str(c) == "FAIL declared (order 4): the routes agree through q^4"
    rows = (Series(3, (ONE,)), Series(3, (ONE, Q)))
    assert compare("rows", None, rows, rows, differ=True).detail \
        == "the routes agree through t^1 T^3"
    law = f_chi_closed(3).series
    assert compare("law", 3, law, law, differ=True).detail \
        == "the routes agree through total degree 3"
    assert compare("scalar", None, Q, Q, differ=True).detail == "both routes equal q"


def test_a_passing_compare_on_biseries_runs_no_subtraction(monkeypatch):
    law = f_chi_closed(12).series
    same = BiSeries(2, 12, dict(law.terms))
    calls = []
    for op in ("__sub__", "__neg__", "__add__"):
        true_op = getattr(BiSeries, op)
        monkeypatch.setattr(BiSeries, op, lambda *a, _op=true_op: calls.append(1) or _op(*a))
    assert compare("law", 12, law, same).passed
    assert calls == []


# -- one route of every check, perturbed -------------------------------------------

def _plus_term(series_of, term):
    """A copy of a function returning a Series whose value gains ``term``."""
    def patched(*args):
        f = series_of(*args)
        return f + type(f)(f.order, term)
    return patched


def _row_bumped(k, term):
    def make(rows_of):
        def patched(*args):
            rows = list(rows_of(*args))
            rows[k] = rows[k] + QSeries(rows[k].order, term)
            return tuple(rows)
        return patched
    return make


def _law_with(extra=None, closed_extra=None):
    def make(law_of):
        def patched(order):
            F = law_of(order)
            num, den = F.closed
            return FormalGroupLaw(F.series + BiSeries(2, order, extra or {}),
                                  ({**num, **(closed_extra or {})}, den))
        return patched
    return make


def _cartier_agreeing(alternating, det_power):
    """Right-side rows that make one combination hold: lg^k divided by the
    factor sign * c^k that cartier_check scales row k by."""
    def make(log_u_powers):
        def patched(t_order, x_order):
            lg = log_chi(x_order).scale(ONE - Q)
            return [lg ** 0] + [
                (lg ** k).scale((-ONE if alternating and k % 2 == 0 else ONE)
                                / (ONE - Q) ** (det_power * k))
                for k in range(1, t_order + 1)]
        return patched
    return make


def _cartier_row_bumped(log_u_powers):
    def patched(t_order, x_order):
        rows = log_u_powers(t_order, x_order)
        rows[3] = rows[3] + Series(x_order, (ZERO,) * 5 + (ONE,))
        return rows
    return patched


# the detail of a Scalar check: both canonical strings
SCALARS = r"\S.* != \S"

# suite, (module, name) of the route's function, its replacement made from
# the original, the checks that must fail, and the pattern of their detail
MUTATIONS = [
    ("lemma21", (qfgl.cli, "scalar_matrix"), lambda f: lambda lam: Mobius(lam, ONE, ZERO, lam),
     r"composition", r"first difference at entry b: 0 != 1"),
    ("lemma21", (qfgl.cli, "mob_det"), lambda f: lambda m: f(m) * Q,
     r"determinant", r"q - q\^2 != 1 - q"),
    ("mishchenko", (qfgl.cli, "q_int"), lambda f: lambda n: f(n) + Q ** n,
     r"q-integer", SCALARS),
    ("mishchenko", (qfgl.cli, "cp_image"), lambda f: lambda n: f(n) + ONE,
     r"at q = 1", r"\d+ != \d+"),
    ("adams", (qfgl.cli, "adams"), lambda f: lambda x, k: f(x, k) + Q,
     r"^psi", SCALARS),
    ("adams", (qfgl.cli, "newton_adams_from_lambda"),
     lambda f: lambda w: [p + QSeries(p.order, (0, 0, 0, 1)) for p in f(w)],
     r"Newton", r"first difference at q\^3: "),
    ("pochhammer-identity", (qfgl.cli, "poch_inf_sum"), _row_bumped(2, (0,) * 5 + (1,)),
     r"summation", r"first difference at t\^2 q\^5: "),
    ("pochhammer-identity", (qfgl.cli, "lambda_t"), _row_bumped(3, (0,) * 4 + (1,)),
     r"lambda route", r"first difference at t\^3 q\^4: "),
    ("lambda-k", (qfgl.lambda_ring, "elementary_symmetric_oracle"),
     lambda f: lambda K, n: tuple(r + QSeries(n, (0,) * 10 + (1,)) if k else r
                                  for k, r in enumerate(f(K, n))),
     r"all routes select", r"routes 1 and 2: first difference at q\^10: "),
    # the printed variant is the corrected Euler term times q^k
    ("lambda-k", (QSeries, "shift"), lambda f: lambda self, k: self,
     r"disagrees", r"the routes agree through q\^\d+"),
    ("cartier", (qfgl.fgl, "_log_u_powers"), _cartier_row_bumped,
     r"holds", r"first difference at t\^3 T\^5: "),
    ("cartier", (qfgl.fgl, "_log_u_powers"), _cartier_agreeing(False, 2),
     r"\[1-exp\(-u\), c=1-q\]", r"the routes agree through t\^6 T\^10"),
    ("cartier", (qfgl.fgl, "_log_u_powers"), _cartier_agreeing(True, 2),
     r"\[exp\(u\)-1, c=1-q\]", r"the routes agree through t\^6 T\^10"),
    ("cartier", (qfgl.fgl, "_log_u_powers"), _cartier_agreeing(True, 0),
     r"\[exp\(u\)-1, c=\(1-q\)\^-1\]", r"the routes agree through t\^6 T\^10"),
    ("exercise32", (qfgl.lambda_ring, "mob_apply_scalar"), lambda f: lambda m, x: f(m, x) + Q,
     r"Moebius step", SCALARS),
    ("exercise32", (qfgl.lambda_ring, "mob_apply_scalar"), lambda f: lambda m, x: f(m, x) + Q,
     r"all equal 24", r"first difference at q\^1: 25 != 24"),
    ("exercise32", (qfgl.lambda_ring, "_at_t_equals_1"),
     lambda f: lambda w: QSeries(w[0].order, (1,)),
     r"vanishes", r"first difference at q\^1: 1 != 0"),
    ("exercise32", (qfgl.lambda_ring, "_at_t_equals_1"),
     lambda f: lambda w: QSeries(w[0].order, (1,)),
     r"expected not to match", r"the routes agree through q\^30"),
    ("exercise32", (qfgl.lambda_ring, "discriminant"),
     lambda f: _plus_term(f, (0,) * 7 + (1,)),
     r"reading \(b\)", r"first difference at q\^7: "),
    ("proposition", (qfgl.fgl, "f_chi_derived_closed"), lambda f: f_chi_closed,
     r"minus", r"first difference at XY: -1 - q != 1 \+ q"),
    ("proposition", (qfgl.fgl, "f_chi_closed"), lambda f: f_chi_derived_closed,
     r"plus", r"the routes agree through total degree 10"),
    ("fgl-axioms", (qfgl.cli, "f_chi_closed"), _law_with({(3, 0): Q}),
     r"F\(X,0\)", r"first difference at X\^3: "),
    ("fgl-axioms", (qfgl.cli, "f_chi_closed"), _law_with({(0, 3): Q}),
     r"F\(0,Y\)", r"first difference at Y\^3: "),
    ("fgl-axioms", (qfgl.cli, "f_chi_closed"), _law_with({(2, 1): Q}),
     r"commutativity", r"first difference at XY\^2: "),
    ("fgl-axioms", (qfgl.cli, "f_chi_closed"), _law_with(closed_extra={(2, 2): ONE}),
     r"associativity", r"first difference at (X|Y|Z|\^\d)+: "),
    ("diagram", (qfgl.varieties, "cp_image"), lambda f: lambda n: f(n) + ONE,
     r"commutes", r"routes 1 and 3: " + SCALARS),
]


def _run_json(capsys, suite):
    code = main(["verify", suite, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)["checks"]


@pytest.mark.parametrize("suite, target, make, fails, detail", MUTATIONS,
                         ids=[f"{m[0]}-{m[3]}" for m in MUTATIONS])
def test_a_perturbed_route_fails_its_check_with_a_detail(capsys, monkeypatch, suite, target,
                                                         make, fails, detail):
    owner, name = target
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    code, checks = _run_json(capsys, suite)
    assert code == 1
    hit = [c for c in checks if re.search(fails, c["name"])]
    assert hit
    for c in hit:
        assert not c["pass"], c["name"]
        assert c["detail"] is not None and re.match(detail, c["detail"]), (c["name"], c["detail"])


def test_every_check_of_the_multi_route_suites_is_perturbed(capsys):
    suites = {m[0] for m in MUTATIONS}
    assert len(suites) == 10
    for suite in sorted(suites):
        code, checks = _run_json(capsys, suite)
        assert code == 0
        patterns = [m[3] for m in MUTATIONS if m[0] == suite]
        missed = [c["name"] for c in checks
                  if not any(re.search(p, c["name"]) for p in patterns)]
        assert missed == [], suite
