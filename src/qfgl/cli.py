"""Command-line front end.

Verbs:

* ``expand <target>``: print a coefficient table for a named expansion.
* ``verify <suite>``: run a verification suite; exit 0 iff all checks pass.
* ``eval "<expr>"``: evaluate a scalar expression to canonical form.
* ``diagram n1 n2 ...``: commutativity check for one product of
  projective spaces (or a catalog of them via ``--catalog``).
* ``table <name>``: tabulate a named family of exact quantities.

A call is parsed by the parser of its verb alone.  Only a call that names
no verb, or passes an argument that its verb does not take, builds the
parser of every verb (``build_parser``), whose usage line names them all.
Output is plain text or JSON (``--format``); diagnostics go to stderr.
Exit codes: 0 success / all checks pass, 1 any failing check, 2 usage,
evaluation or internal error.  Orders (of ``expand``, ``verify`` and
``diagram`` only), --max, diagram dimensions and expression sizes are held
to ``expr.MAX_SIZE``, each ``expand`` target and ``verify`` suite to a
cost in the orders it reads, and the readers of the logarithm to that of
expanding ``log_chi`` once, at the largest order they read (``MAX_ORDER_COST``).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import sys

from .scalar import ONE, Q, Scalar, adams, canonical_str
from .series import Series
from .mobius import q_mobius, q_mobius_inv, mob_mul, mob_det, scalar_matrix
from .fgl import (
    log_chi, exp_chi, f_chi_closed, drinfeld_form, fgl_inverse, cp_image,
    cartier_check, proposition_check, verify_fgl,
)
from .qcomb import (
    QSeries, q_int, euler_phi, discriminant, poch_inf_product, poch_inf_sum,
)
from .lambda_ring import (
    lambda_t, negate_t, newton_adams_from_lambda, lambda_k_closed,
    thom_class, discriminant_limit,
)
from .varieties import Variety, diagram_routes, diagram_check, load_catalog
from .report import Check, VerificationReport, compare
from .expr import MAX_SIZE, evaluate, _check_digits, _check_size, _BUILTINS

DEFAULT_ORDER = 10
DEFAULT_T_ORDER = 6
DEFAULT_Q_ORDER = 30

# an expand target or verify suite runs in time about n ** e, n the largest
# --order or --t-order it reads; its exponent e in _EXPANDS or _SUITES is
# the one measured by doubling n up to its admitted maximum, rounded, and
# raised while that maximum ran for more than about 3 s.  A target reading
# --t-order and --q-order is also held to (t * q) ** 2: about t q^2 measured,
# t raised so that every q-order stays admitted at the default t-order
MAX_ORDER_COST = 10 ** 8


def _check_cost(what: str, n: int, exponent: int) -> None:
    _check_size(f"the cost n^{exponent} of {what} at n = {n}", n ** exponent, MAX_ORDER_COST)


def _check_order_cost(what: str, args, orders, exponent: int) -> None:
    n = max([getattr(args, k) for k in orders if k != "q_order"], default=0)
    _check_cost(what, n, exponent)
    if "t_order" in orders and "q_order" in orders:
        tq = args.t_order * args.q_order
        _check_size(f"the cost (t*q)^2 of {what} at t*q = {tq}", tq ** 2, MAX_ORDER_COST)


# ---------------------------------------------------------------------------
# expand targets

def _table_univariate(f: Series):
    """(degree, value) rows of a Series or a QSeries; str of a Scalar is canonical."""
    return [(k, str(c)) for k, c in enumerate(f.coeffs)]


def _table_bivariate(law):
    F = law.series
    rows = []
    for d in range(F.order + 1):
        for i in range(d + 1):
            j = d - i
            rows.append(([i, j], canonical_str(F.coeff(i, j))))
    return rows


def _table_tq(rows_by_t):
    return [(k, canonical_str(_check_digits(f"the t^{k} row",
                                            Scalar.from_q_coeffs(row.coeffs))))
            for k, row in enumerate(rows_by_t)]


def _expand_lambda_element(args):
    """lambda_t of --element, held to (t*q)^2 * w <= MAX_ORDER_COST, w the 64-bit words
    of the longest coefficient of its q-expansion, read to orders 1, 3, 7, ... up to
    --q-order: an element whose digits outgrow the budget is not expanded in full."""
    tq, order = args.t_order * args.q_order, 0
    try:
        a = evaluate(args.element)
        while order < args.q_order:
            order = min(2 * order + 1, args.q_order)
            words = 1 + max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                            for c in QSeries.from_scalar(a, order).coeffs) // 64
            _check_size(f"the cost (t*q)^2 * w of expand lambda_t at t*q = {tq}, w = {words}",
                        tq ** 2 * words, MAX_ORDER_COST)
        return lambda_t(a, args.t_order, args.q_order)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"--element {args.element!r}: {exc}")


# target -> (the orders it reads, its cost exponent, its (degree, value) rows)
_EXPANDS = {
    "log_chi": (("order",), 3, lambda a: _table_univariate(log_chi(a.order))),
    "exp_chi": (("order",), 4, lambda a: _table_univariate(exp_chi(a.order))),
    "f_chi": (("order",), 2, lambda a: _table_bivariate(f_chi_closed(a.order))),
    "drinfeld": (("order",), 2, lambda a: _table_bivariate(drinfeld_form(a.order))),
    "fgl_inverse": (("order",), 4, lambda a: _table_univariate(
        fgl_inverse(f_chi_closed(a.order)))),
    "euler_phi": (("q_order",), 0, lambda a: _table_univariate(euler_phi(a.q_order))),
    "discriminant": (("q_order",), 0, lambda a: _table_univariate(discriminant(a.q_order))),
    "pochhammer": (("t_order", "q_order"), 1,
                   lambda a: _table_tq(poch_inf_product(a.t_order, a.q_order))),
    "lambda_t": (("t_order", "q_order"), 1, lambda a: _table_tq(_expand_lambda_element(a))),
    "thom_class": (("q_order",), 0, lambda a: _table_univariate(thom_class(a.q_order))),
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
    names, exponent, rows = _EXPANDS[args.target]
    _check_order_cost(f"expand {args.target}", args, names, exponent)
    orders = {k: getattr(args, k) for k in names}
    header = f"{args.target}  " + "  ".join(f"{k}={v}" for k, v in orders.items())
    return _emit_coefficients(args, args.target, orders, header, rows(args))


# ---------------------------------------------------------------------------
# verify suites

def _suite_lemma21(args) -> VerificationReport:
    m1, m2 = q_mobius(), q_mobius_inv()
    target = scalar_matrix(ONE - Q)
    return VerificationReport((
        compare("forward composition equals (1-q) times the identity", None,
                mob_mul(m1, m2), target),
        compare("reverse composition equals (1-q) times the identity", None,
                mob_mul(m2, m1), target),
        compare("determinant of the q-Moebius matrix equals 1-q", None, mob_det(m1), ONE - Q),
        compare("determinant of the companion matrix equals 1-q", None, mob_det(m2), ONE - Q),
    ))


def _suite_fgl_axioms(args) -> VerificationReport:
    return verify_fgl(f_chi_closed(args.order), args.order)


def _hold_log(what: str, n: int) -> None:
    """Hold ``what``, a reader of log_chi to order n, to the cost of ``expand
    log_chi --order n``, then expand it once there: every later read of the
    call, at order n or less, truncates that expansion."""
    _check_cost(what, n, _EXPANDS["log_chi"][1])
    log_chi(n)


def _cp_images(what: str, m: int) -> list:
    """cp_image(0) .. cp_image(m), read off one logarithm of order m + 1."""
    _hold_log(what, m + 1)
    return [cp_image(n) for n in range(m + 1)]


def _suite_mishchenko(args) -> VerificationReport:
    return VerificationReport(tuple(
        c for n, img in enumerate(_cp_images("verify mishchenko", args.order)) for c in (
            compare(f"CP^{n} image equals the (n+1)-st q-integer", None, img, q_int(n + 1)),
            compare(f"CP^{n} image at q = 1 equals {n + 1}", None, img.eval_s(1), n + 1))))


def _suite_adams(args) -> VerificationReport:
    geom, n = ONE / (ONE - Q), args.q_order
    psis = newton_adams_from_lambda(lambda_t(geom, 8, n))
    return VerificationReport(tuple(
        [compare(f"psi^{k} of 1/(1-q) equals 1/(1-q^{k})", None,
                 adams(geom, k), ONE / (ONE - Q ** k)) for k in range(1, 11)]
        # 1/(1-q^k) is 1 at the multiples of k: no series division, which lambda_t runs
        + [compare(f"Newton-extracted psi^{k} matches the Adams substitution", n,
                   psi, QSeries(n, [int(i % k == 0) for i in range(n + 1)]))
           for k, psi in enumerate(psis, start=1)]))


def _suite_pochhammer(args) -> VerificationReport:
    """(t;q)_infinity by product, by summation and by the lambda operation.

    The product route and the lambda route share the integer row kernel
    of ``qcomb``, so their agreement alone proves little.  The summation
    route, ``poch_inf_sum`` by Euler's recurrence on integer lists, shares
    no code with that kernel: it is the independent oracle of both routes.
    """
    t, n = args.t_order, args.q_order
    P = poch_inf_product(t, n)
    return VerificationReport((
        compare("product route equals summation route", (t, n), P, poch_inf_sum(t, n)),
        compare("lambda route matches the product route", (t, n),
                negate_t(lambda_t(ONE / (ONE - Q), t, n)), P),
    ))


def _suite_lambda_k(args) -> VerificationReport:
    return lambda_k_closed(8, args.q_order)


def _suite_cartier(args) -> VerificationReport:
    # the declared discrepancies first show at t^2 T^2
    return cartier_check(max(args.t_order, 2), max(args.order, 2))


def _suite_exercise32(args) -> VerificationReport:
    return discriminant_limit(max(args.q_order, 12))


def _hold_diagrams(varieties) -> None:
    """Hold each product to its dimension, for the Hodge and Clebsch-Gordan
    routes, then the logarithm once, to the order n + 1 that the largest
    factor CP^n of them all reads it to."""
    for v in varieties:
        _check_size(f"diagram {v}", v.dimension)
    n, top = max(((max(v.factors, default=0), v) for v in varieties), key=lambda e: e[0])
    _hold_log(f"diagram {top}", n + 1)


def _suite_diagram(args, entries=None) -> VerificationReport:
    """One check per (label prefix, Variety) of ``entries``, by default the 125
    products of ``verify diagram``, once every product is in budget."""
    if entries is None:
        entries = [("", Variety(dims)) for dims in itertools.product(range(5), repeat=3)]
    _hold_diagrams([v for _, v in entries])
    return VerificationReport(tuple(
        compare(f"{prefix}diagram commutes on {v}", None, *(x for _, x in diagram_routes(v)))
        for prefix, v in entries))


def _suite_proposition(args) -> VerificationReport:
    # the declared discrepancy first shows at total degree 2
    return proposition_check(max(args.order, 2))


def _suite_selftest_fail(args) -> VerificationReport:
    """Exit-code self test: contains one intentionally failing check."""
    return VerificationReport((
        Check("intentionally failing fixture (exit-code self test)", None,
              False, "this suite exists to exercise the failure path"),
    ))


# suite -> (the orders it reads, its cost exponent (0: it holds itself), its report)
_SUITES = {
    "lemma21": ((), 0, _suite_lemma21),
    "fgl-axioms": (("order",), 2, _suite_fgl_axioms),
    "mishchenko": (("order",), 0, _suite_mishchenko),
    "adams": (("q_order",), 0, _suite_adams),
    "pochhammer-identity": (("t_order", "q_order"), 5, _suite_pochhammer),
    "lambda-k": (("q_order",), 0, _suite_lambda_k),
    "cartier": (("t_order", "order"), 5, _suite_cartier),
    "exercise32": (("q_order",), 0, _suite_exercise32),
    "diagram": ((), 0, _suite_diagram),
    "proposition": (("order",), 5, _suite_proposition),
    "selftest-fail": ((), 0, _suite_selftest_fail),
}


def _emit_report(rep: VerificationReport, name: str, args) -> int:
    if args.format == "json":
        payload = {
            "suite": name,
            "orders": {"order": args.order, "t_order": args.t_order,
                       "q_order": args.q_order},
            "checks": [{"name": c.name,
                        "order": c.order,
                        "pass": c.passed,
                        "detail": None if c.passed else c.detail} for c in rep.checks],
            "passed": rep.all_passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(rep)
        n_fail = sum(1 for c in rep.checks if not c.passed)
        print(f"# {name}: {len(rep.checks)} checks, {n_fail} failing")
    return 0 if rep.all_passed else 1


def _run_verify(args) -> int:
    orders, exponent, suite = _SUITES[args.suite]
    _check_order_cost(f"verify {args.suite}", args, orders, exponent)
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
        entries = [(f"{name}: ", v) for name, v in load_catalog(args.catalog)]
        return _emit_report(_suite_diagram(args, entries), "diagram", args)
    if not args.factors:
        raise ValueError("diagram needs factor dimensions or --catalog")
    v = Variety(args.factors)
    _hold_diagrams([v])
    return _emit_report(diagram_check(v), f"diagram {v}", args)


def _table_family(name, first=0):
    """The rows k, name(k) for k from ``first`` to --max of an eval builtin,
    once its value at --max is within the budget that eval holds it to."""
    fn, _, size, _ = _BUILTINS[name]
    def rows(m):
        _check_size(f"{name}({m})", size(m))
        return [(k, canonical_str(fn(k))) for k in range(first, m + 1)]
    return rows


# name -> its (index, value) rows up to --max
_TABLES = {
    "qint": _table_family("qint"),
    "qfact": _table_family("qfact"),
    "cyclotomic": _table_family("cyclotomic", first=1),
    "cp_image": lambda m: [(k, canonical_str(c))
                           for k, c in enumerate(_cp_images("table cp_image", m))],
    "tau": lambda m: _table_univariate(discriminant(max(m, 1)))[1:m + 1],
}


def _run_table(args) -> int:
    if not 0 <= args.maximum <= MAX_SIZE:
        raise ValueError(f"--max must be >= 0 and at most {MAX_SIZE}")
    return _emit_coefficients(args, args.name, {"max": args.maximum},
                              f"{args.name} up to {args.maximum}",
                              _TABLES[args.name](args.maximum))


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(p, fn, orders):
    p.set_defaults(fn=fn)
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    if orders:
        p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                       help="series / total-degree truncation order")
        p.add_argument("--t-order", dest="t_order", type=int, default=DEFAULT_T_ORDER)
        p.add_argument("--q-order", dest="q_order", type=int, default=DEFAULT_Q_ORDER)


def _expand_args(p):
    p.add_argument("target", choices=tuple(_EXPANDS))
    p.add_argument("--element", default="1/(1-q)",
                   help="scalar expression for lambda_t (default 1/(1-q))")


def _diagram_args(p):
    p.add_argument("factors", nargs="*", type=int)
    p.add_argument("--catalog", default=None)


def _table_args(p):
    p.add_argument("name", choices=tuple(_TABLES))
    p.add_argument("--max", dest="maximum", type=int, default=10)


# verb -> (its help, its run function, the filler of its own arguments)
_VERBS = {
    "expand": ("print a coefficient table", _run_expand, _expand_args),
    "verify": ("run a verification suite", _run_verify,
               lambda p: p.add_argument("suite", choices=sorted(_SUITES))),
    "eval": ("evaluate a scalar expression", _run_eval,
             lambda p: p.add_argument("expression")),
    "diagram": ("check one product of projective spaces", _run_diagram, _diagram_args),
    "table": ("tabulate a named exact family", _run_table, _table_args),
}


def _fill(p, name: str) -> argparse.ArgumentParser:
    """Give ``p`` the arguments of the verb ``name``."""
    _, run, fill = _VERBS[name]
    fill(p)
    _add_common(p, run, name in ("expand", "verify", "diagram"))
    return p


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb: ``main`` parses with it only a call that
    names no verb, or passes an argument that its verb does not take."""
    ap = argparse.ArgumentParser(
        prog="qfgl",
        description="exact q-series and formal-group-law computations")
    sub = ap.add_subparsers(dest="verb", required=True)
    for name, (help_, _, _) in _VERBS.items():
        _fill(sub.add_parser(name, help=help_), name)
    return ap


def _parse(argv: list) -> argparse.Namespace:
    """The arguments of ``argv``, parsed by the parser that ``build_parser``
    adds for its verb, built alone; an argument that it leaves over goes on
    to the full parser, which refuses it under the usage line of all verbs."""
    if argv and argv[0] in _VERBS:
        p = _fill(argparse.ArgumentParser(prog=f"qfgl {argv[0]}"), argv[0])
        args, extras = p.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    # a parser is a web of reference cycles: free the one just dropped while
    # it is young, lest a process calling main often keep every discarded
    # parser until its next full collection
    gc.collect(1)
    try:
        if any(not 0 < getattr(args, k) <= MAX_SIZE
               for k in ("order", "t_order", "q_order") if k in args):
            raise ValueError(f"orders must be positive and at most {MAX_SIZE}")
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
