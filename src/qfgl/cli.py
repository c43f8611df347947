"""Command-line front end.

Verbs:

* ``expand <target>``: print a coefficient table for a named expansion.
* ``verify <suite>``: run a verification suite; exit 0 iff all checks pass.
* ``eval "<expr>"``: evaluate a scalar expression to canonical form.
* ``diagram n1 n2 ...``: commutativity check for one product of
  projective spaces (or a catalog of them via ``--catalog``).
* ``table <name>``: tabulate a named family of exact quantities.

Output is plain text or JSON (``--format``); diagnostics go to stderr.
Exit codes: 0 success / all checks pass, 1 any failing check, 2 usage,
evaluation or internal error.  Orders, --max and the sizes an expression
asks for are held to ``expr.MAX_SIZE``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .scalar import ONE, Q, cyclotomic, canonical_str
from .series import Series
from .mobius import q_mobius, q_mobius_inv, mob_mul, mob_det, scalar_matrix
from .fgl import (
    log_chi, exp_chi, f_chi_closed, drinfeld_form, fgl_inverse, cp_image,
    cartier_check, proposition_check, verify_fgl,
)
from .qcomb import (
    QSeries, q_int, q_fact, euler_phi, discriminant, poch_inf_product,
    poch_inf_sum,
)
from .lambda_ring import (
    adams, lambda_t, negate_t, newton_adams_from_lambda, lambda_k_closed,
    thom_class, discriminant_limit,
)
from .varieties import Variety, diagram_check, load_catalog
from .report import Check, VerificationReport
from .expr import MAX_SIZE, evaluate

DEFAULT_ORDER = 10
DEFAULT_T_ORDER = 6
DEFAULT_Q_ORDER = 30


# ---------------------------------------------------------------------------
# expand targets

def _table_univariate(f: Series):
    return [(k, canonical_str(f[k])) for k in range(f.order + 1)]


def _table_bivariate(law):
    F = law.series
    rows = []
    for d in range(F.order + 1):
        for i in range(d + 1):
            j = d - i
            rows.append(([i, j], canonical_str(F.coeff(i, j))))
    return rows


def _table_qseries(f: QSeries):
    return [(k, str(f[k])) for k in range(f.order + 1)]


def _table_tq(rows_by_t):
    return [(k, canonical_str(row.to_scalar())) for k, row in enumerate(rows_by_t)]


def _expand_lambda_element(args):
    try:
        value = evaluate(args.element)
    except ValueError as exc:
        raise ValueError(f"bad --element expression: {exc}")
    try:
        w = lambda_t(value, args.t_order, args.q_order)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"lambda_t: {exc}")
    return w.rows


# target -> (the orders it reads, its (degree, value) rows)
_EXPANDS = {
    "log_chi": (("order",), lambda a: _table_univariate(log_chi(a.order))),
    "exp_chi": (("order",), lambda a: _table_univariate(exp_chi(a.order))),
    "f_chi": (("order",), lambda a: _table_bivariate(f_chi_closed(a.order))),
    "drinfeld": (("order",), lambda a: _table_bivariate(drinfeld_form(a.order))),
    "fgl_inverse": (("order",), lambda a: _table_univariate(
        fgl_inverse(f_chi_closed(a.order), a.order))),
    "euler_phi": (("q_order",), lambda a: _table_qseries(euler_phi(a.q_order))),
    "discriminant": (("q_order",), lambda a: _table_qseries(discriminant(a.q_order))),
    "pochhammer": (("t_order", "q_order"),
                   lambda a: _table_tq(poch_inf_product(a.t_order, a.q_order))),
    "lambda_t": (("t_order", "q_order"), lambda a: _table_tq(_expand_lambda_element(a))),
    "thom_class": (("q_order",), lambda a: _table_qseries(thom_class(a.q_order))),
}


def _emit_coefficients(args, name, orders, header, rows) -> int:
    """Print (degree, value) rows: the README's JSON schema, or plain text."""
    if args.format == "json":
        coeffs = [{"degree": deg, "value": value} for deg, value in rows]
        print(json.dumps({"target": name, "orders": orders,
                          "coefficients": coeffs}, indent=2))
    else:
        print(f"# {header}")
        for deg, value in rows:
            deg_s = ",".join(map(str, deg)) if isinstance(deg, list) else str(deg)
            print(f"{deg_s}\t{value}")
    return 0


def _run_expand(args) -> int:
    names, rows = _EXPANDS[args.target]
    orders = {k: getattr(args, k) for k in names}
    header = f"{args.target}  " + "  ".join(f"{k}={v}" for k, v in orders.items())
    return _emit_coefficients(args, args.target, orders, header, rows(args))


# ---------------------------------------------------------------------------
# verify suites

def _suite_lemma21(args) -> VerificationReport:
    m1, m2 = q_mobius(), q_mobius_inv()
    target = scalar_matrix(ONE - Q)
    checks = [
        Check("forward composition equals (1-q) times the identity", None,
              mob_mul(m1, m2) == target),
        Check("reverse composition equals (1-q) times the identity", None,
              mob_mul(m2, m1) == target),
        Check("determinant of the q-Moebius matrix equals 1-q", None,
              mob_det(m1) == ONE - Q),
        Check("determinant of the companion matrix equals 1-q", None,
              mob_det(m2) == ONE - Q),
    ]
    return VerificationReport(tuple(checks))


def _suite_fgl_axioms(args) -> VerificationReport:
    return verify_fgl(f_chi_closed(args.order), args.order)


def _suite_mishchenko(args) -> VerificationReport:
    checks = []
    for n in range(args.order + 1):
        img = cp_image(n)
        ok = img == q_int(n + 1)
        ok2 = img.eval_s(1) == n + 1
        checks.append(Check(f"CP^{n} image equals the (n+1)-st q-integer",
                            None, ok))
        checks.append(Check(f"CP^{n} image at q = 1 equals {n + 1}", None, ok2))
    return VerificationReport(tuple(checks))


def _suite_adams(args) -> VerificationReport:
    checks = []
    geom = ONE / (ONE - Q)
    for k in range(1, 11):
        checks.append(Check(f"psi^{k} of 1/(1-q) equals 1/(1-q^{k})", None,
                            adams(geom, k) == ONE / (ONE - Q ** k)))
    w = lambda_t(geom, 8, args.q_order)
    psis = newton_adams_from_lambda(w, 8)
    for k, psi in enumerate(psis, start=1):
        expected = QSeries.from_scalar(ONE / (ONE - Q ** k), args.q_order)
        checks.append(Check(
            f"Newton-extracted psi^{k} matches the Adams substitution",
            args.q_order, psi == expected))
    return VerificationReport(tuple(checks))


def _suite_pochhammer(args) -> VerificationReport:
    """(t;q)_infinity by product, by summation and by the lambda operation.

    The product route and the lambda route share the integer row kernel
    of ``qcomb``, so their agreement alone proves little.  The summation
    route, ``poch_inf_sum`` on the Scalar closed form, shares no code
    with that kernel: it is the independent oracle of both routes.
    """
    P = poch_inf_product(args.t_order, args.q_order)
    Ssum = poch_inf_sum(args.t_order, args.q_order)
    checks = [Check("product route equals summation route",
                    (args.t_order, args.q_order), P == Ssum)]
    w = lambda_t(ONE / (ONE - Q), args.t_order, args.q_order)
    checks.append(Check("lambda route matches the product route",
                        (args.t_order, args.q_order), negate_t(w).rows == P))
    return VerificationReport(tuple(checks))


def _suite_lambda_k(args) -> VerificationReport:
    checks = []
    for k in range(1, 9):
        rep = lambda_k_closed(k, max(args.q_order, 20))
        checks.append(Check(
            f"k={k}: all routes select the exponent binom(k,2)", None,
            rep.selected == "binom(k,2)"))
        printed_q = QSeries.from_scalar(rep.printed, max(args.q_order, 20))
        checks.append(Check(
            f"k={k}: the k(k+1)/2 exponent variant disagrees", None,
            printed_q != rep.oracle))
    return VerificationReport(tuple(checks))


def _suite_cartier(args) -> VerificationReport:
    # the failures these checks expect first show at t^2 T^2
    rep = cartier_check(max(args.t_order, 2), max(args.order, 2))
    by_name = {c.name: c for c in rep.checks}
    expected_pass = "exponential-character identity [1-exp(-u), c=(1-q)^-1]"
    checks = []
    for name, c in by_name.items():
        should_pass = name == expected_pass
        ok = c.passed == should_pass
        verdict = "holds" if should_pass else "fails as expected"
        checks.append(Check(f"{name} {verdict}", c.order, ok, c.detail if not ok else None))
    return VerificationReport(tuple(checks))


def _suite_exercise32(args) -> VerificationReport:
    rep = discriminant_limit(max(args.q_order, 12))
    expected = {
        "Moebius step: matrix applied to q equals 24/(1-q)": True,
        "expansion coefficients all equal 24": True,
        "reading (a): direct t = 1 vanishes identically": True,
        "reading (a) matches the discriminant": False,
        "reading (b): q * (dropped-factor product at t = 1) equals the "
        "discriminant": True,
    }
    checks = []
    for c in rep.checks:
        want = expected.get(c.name)
        ok = (c.passed == want) if want is not None else c.passed
        suffix = "" if want in (True, None) else " (expected not to match)"
        checks.append(Check(c.name + suffix, c.order, ok))
    return VerificationReport(tuple(checks))


def _suite_diagram(args) -> VerificationReport:
    checks = []
    if args.catalog:
        entries = load_catalog(args.catalog)
        for name, v in entries:
            rep = diagram_check(v)
            checks.append(Check(f"{name}: diagram commutes on {v}", None,
                                rep.all_passed))
    else:
        for dims in itertools.product(range(5), repeat=3):
            rep = diagram_check(Variety(dims))
            checks.append(Check(f"diagram commutes on {Variety(dims)}", None,
                                rep.all_passed))
    return VerificationReport(tuple(checks))


def _suite_proposition(args) -> VerificationReport:
    # the plus form first differs at total degree 2
    order = max(args.order, 2)
    plus, minus = proposition_check(order).checks
    checks = [
        Check("exp/log transport matches the minus closed form", order,
              minus.passed),
        Check("exp/log transport differs from the plus closed form "
              "(recorded discrepancy)", order, not plus.passed),
    ]
    return VerificationReport(tuple(checks))


def _suite_selftest_fail(args) -> VerificationReport:
    """Exit-code self test: contains one intentionally failing check."""
    return VerificationReport((
        Check("intentionally failing fixture (exit-code self test)", None,
              False, "this suite exists to exercise the failure path"),
    ))


_SUITES = {
    "lemma21": _suite_lemma21,
    "fgl-axioms": _suite_fgl_axioms,
    "mishchenko": _suite_mishchenko,
    "adams": _suite_adams,
    "pochhammer-identity": _suite_pochhammer,
    "lambda-k": _suite_lambda_k,
    "cartier": _suite_cartier,
    "exercise32": _suite_exercise32,
    "diagram": _suite_diagram,
    "proposition": _suite_proposition,
    "selftest-fail": _suite_selftest_fail,
}


def _emit_report(rep: VerificationReport, name: str, args) -> int:
    if args.format == "json":
        payload = {
            "suite": name,
            "orders": {"order": args.order, "t_order": args.t_order,
                       "q_order": args.q_order},
            "checks": [{"name": c.name,
                        "order": list(c.order) if isinstance(c.order, tuple)
                        else c.order,
                        "pass": c.passed,
                        "detail": c.detail} for c in rep.checks],
            "passed": rep.all_passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(rep)
        n_fail = sum(1 for c in rep.checks if not c.passed)
        print(f"# {name}: {len(rep.checks)} checks, {n_fail} failing")
    return 0 if rep.all_passed else 1


def _run_verify(args) -> int:
    suite = _SUITES[args.suite]
    return _emit_report(suite(args), args.suite, args)


# ---------------------------------------------------------------------------
# eval / diagram / table

def _run_eval(args) -> int:
    value = evaluate(args.expression)
    if args.format == "json":
        print(json.dumps({"expression": args.expression,
                          "value": canonical_str(value)}))
    else:
        print(canonical_str(value))
    return 0


def _run_diagram(args) -> int:
    if args.catalog:
        return _emit_report(_suite_diagram(args), "diagram", args)
    if not args.factors:
        raise ValueError("diagram needs factor dimensions or --catalog")
    v = Variety(args.factors)
    rep = diagram_check(v)
    return _emit_report(rep, f"diagram {v}", args)


def _table_family(fn, first=0):
    """The rows k, fn(k) for k from ``first`` to --max."""
    return lambda m: [(k, canonical_str(fn(k))) for k in range(first, m + 1)]


# name -> its (index, value) rows up to --max
_TABLES = {
    "qint": _table_family(q_int),
    "qfact": _table_family(q_fact),
    "cyclotomic": _table_family(cyclotomic, first=1),
    "cp_image": _table_family(cp_image),
    "tau": lambda m: _table_qseries(discriminant(max(m, 1)))[1:m + 1],
}


def _run_table(args) -> int:
    if args.maximum < 0:
        raise ValueError("--max must be >= 0")
    return _emit_coefficients(args, args.name, {"max": args.maximum},
                              f"{args.name} up to {args.maximum}",
                              _TABLES[args.name](args.maximum))


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(p, fn):
    p.set_defaults(fn=fn)
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.add_argument("--order", "-N", type=int, default=DEFAULT_ORDER,
                   help="series / total-degree truncation order")
    p.add_argument("--t-order", dest="t_order", type=int,
                   default=DEFAULT_T_ORDER)
    p.add_argument("--q-order", dest="q_order", type=int,
                   default=DEFAULT_Q_ORDER)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qfgl",
        description="exact q-series and formal-group-law computations")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("expand", help="print a coefficient table")
    p.add_argument("target", choices=tuple(_EXPANDS))
    p.add_argument("--element", default="1/(1-q)",
                   help="scalar expression for lambda_t (default 1/(1-q))")
    _add_common(p, _run_expand)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--catalog", default=None,
                   help="catalog file for the diagram suite")
    _add_common(p, _run_verify)

    p = sub.add_parser("eval", help="evaluate a scalar expression")
    p.add_argument("expression")
    _add_common(p, _run_eval)

    p = sub.add_parser("diagram", help="check one product of projective spaces")
    p.add_argument("factors", nargs="*", type=int)
    p.add_argument("--catalog", default=None)
    _add_common(p, _run_diagram)

    p = sub.add_parser("table", help="tabulate a named exact family")
    p.add_argument("name", choices=tuple(_TABLES))
    p.add_argument("--max", dest="maximum", type=int, default=10)
    _add_common(p, _run_table)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        orders = (args.order, args.t_order, args.q_order)
        if min(orders) <= 0:
            raise ValueError("orders must be positive")
        if max(orders + (getattr(args, "maximum", 0),)) > MAX_SIZE:
            raise ValueError(f"orders and --max must be at most {MAX_SIZE}")
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means a failing check, so an unforeseen fault is an error
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
