"""Expression grammar, canonical-string round trips, CLI contracts."""

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qfgl

from qfgl import (
    Scalar, ZERO, ONE, Q, S, canonical_str, cyclotomic,
    QSeries, q_int, q_fact, q_binom,
    evaluate, ParseError, EvalError,
)
from qfgl import expr
from qfgl.cli import main, build_parser, _EXPANDS, _SUITES, _TABLES

from conftest import random_scalar


# -- parsing -------------------------------------------------------------------

def test_parse_call():
    assert evaluate("qint(3)") == q_int(3)
    assert evaluate("qfact(3)") == Scalar.from_q_coeffs([1, 2, 2, 1])
    assert evaluate("qbinom(4, 2)") == q_binom(4, 2)
    assert evaluate("cyclotomic(6)") == cyclotomic(6)
    assert evaluate("adams(1/(1-q), 3)") == ONE / (ONE - Q ** 3)


def test_parse_division():
    assert evaluate("1/(1-q)") == ONE / (ONE - Q)


def test_precedence_and_unary_minus():
    assert evaluate("1 - 2*q") == ONE - Scalar.from_int(2) * Q
    assert evaluate("-q + q") == ZERO
    assert evaluate("2^3") == Scalar.from_int(8)
    assert evaluate("q^-1") == Scalar.q_power(-1)
    assert evaluate("(1+q)^2") == (ONE + Q) ** 2
    # unary minus binds tighter than the exponent: (-q)^2 = q^2
    assert evaluate("-q^2") == Q ** 2
    assert evaluate("-1*q^2") == -(Q ** 2)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        evaluate("1 + $")
    assert err.value.pos == 4


def test_integer_literals_keep_their_source_length():
    # leading zeros: the parser must skip the literal's text, not str(value)
    assert evaluate("007") == Scalar.from_int(7)
    assert evaluate("q^02") == Q ** 2
    assert evaluate("qint(03)") == q_int(3)


def test_non_ascii_digit_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        evaluate("\u00b2")
    assert err.value.pos == 0


def test_long_integer_literal_is_a_parse_error():
    assert evaluate("9" * 4300) == Scalar.from_int(10 ** 4300 - 1)
    with pytest.raises(ParseError) as err:
        evaluate("q + " + "9" * 4301)
    assert err.value.pos == 4


def test_unknown_identifier():
    with pytest.raises(ParseError):
        evaluate("mystery(3)")


def test_arity_mismatch():
    with pytest.raises(ParseError):
        evaluate("qbinom(3)")


def test_trailing_garbage():
    with pytest.raises(ParseError):
        evaluate("1 + q q")


def test_eval_division_by_zero():
    with pytest.raises(EvalError):
        evaluate("1/(q - q)")


def test_eval_is_one_pass(monkeypatch):
    # an evaluation error to the left of a syntax error is the one reported
    with pytest.raises(EvalError, match="division by zero"):
        evaluate("(1/0")
    with pytest.raises(ParseError) as err:
        evaluate("qint(3) + (q")
    assert err.value.pos == 12
    # a character outside the grammar is refused before anything is computed
    calls = []
    fn, kinds, span, domain = expr._BUILTINS["qfact"]
    monkeypatch.setitem(expr._BUILTINS, "qfact",
                        (lambda k: calls.append(k) or fn(k), kinds, span, domain))
    with pytest.raises(ParseError) as err:
        evaluate("qfact(32)*$")
    assert err.value.pos == 10 and calls == []
    assert evaluate("qfact(32)") == q_fact(32) and calls == [32]


def test_eval_adams_needs_q():
    with pytest.raises(EvalError):
        evaluate("adams(s, 2)")


def test_print_parse_round_trip(rng):
    for _ in range(50):
        a = random_scalar(rng)
        a = a * Scalar.q_power(rng.randint(-2, 2))
        if rng.random() < 0.3:
            a = a * S
        assert evaluate(canonical_str(a)) == a, canonical_str(a)


# -- CLI ------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "qint(2)*qint(2)")
    assert code == 0
    assert out.strip() == "1 + 2*q + q^2"


def test_cli_eval_bad_expression(capsys):
    for text in ("qint(", "qint(q)", "q^q", "0^-1"):
        code, _, err = run_cli(capsys, "eval", text)
        assert code == 2, text
        assert "error" in err


@pytest.mark.parametrize("argv, reason", [
    # the span of 2 is 0, so only the digit bound of the power refuses it
    (("eval", "2^20000"), "longer than 4300 digits"),
    (("eval", "qint(1/2)"), "qint needs an integer argument"),
    (("eval", "adams(q, 0)"), "adams(x, k) needs x living in q and k >= 1"),
    (("expand", "lambda_t", "--element", "1/q"), "pole at q = 0"),
    (("eval", "qint(-3)"), "qint(k) needs k >= 0"),
    (("eval", "qfact(-1)"), "qfact(k) needs k >= 0"),
    (("eval", "qbinom(2, 5)"), "qbinom(n, k) needs 0 <= k <= n"),
    (("eval", "cyclotomic(0)"), "cyclotomic(d) needs d >= 1"),
    (("eval", "adams(s, 2)"), "adams(x, k) needs x living in q and k >= 1"),
    # a negative argument is refused by its domain before its size is weighed
    (("eval", "qfact(-40)"), "qfact(k) needs k >= 0"),
    (("eval", "qbinom(-40, 2)"), "qbinom(n, k) needs 0 <= k <= n"),
    (("eval", "adams(1+q, -1000000000)"), "adams(x, k) needs x living in q and k >= 1"),
])
def test_cli_refusals_name_their_reason(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and reason in err


def test_cli_expand_json_schema(capsys):
    code, out, _ = run_cli(capsys, "expand", "log_chi", "--order", "5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == "log_chi"
    assert payload["orders"] == {"order": 5}
    rows = payload["coefficients"]
    assert rows[2] == {"degree": 2, "value": "(1 + q)/2"}
    assert all(set(r) == {"degree", "value"} for r in rows)


def test_cli_expand_bivariate_json(capsys):
    code, out, _ = run_cli(capsys, "expand", "f_chi", "--order", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = {tuple(r["degree"]): r["value"] for r in payload["coefficients"]}
    assert rows[(1, 1)] == "1 + q"
    assert rows[(1, 0)] == "1"
    # ordering: by total degree, then lexicographic
    degrees = [tuple(r["degree"]) for r in payload["coefficients"]]
    assert degrees == sorted(degrees, key=lambda d: (sum(d), d))


def test_cli_expand_lambda_element(capsys):
    code, out, _ = run_cli(capsys, "expand", "lambda_t", "--element", "q",
                           "--t-order", "3", "--q-order", "6")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].split("\t") == ["0", "1"]
    assert lines[1].split("\t") == ["1", "q"]
    assert lines[2].split("\t") == ["2", "0"]


def test_cli_expand_lambda_element_refusals(capsys):
    reasons = {"s": "does not live in q", "q/2": "lambda_t needs integer",
               "q+": "expected a value"}
    for element, reason in reasons.items():
        code, out, err = run_cli(capsys, "expand", "lambda_t", "--element", element)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --element {element!r}: ")
        assert reason in err and err.count("lambda_t") <= 1


def test_cli_expand_lambda_refuses_rows_past_the_digits_str_prints(capsys):
    for argv in (("--element", "10^4000*q", "--t-order", "10", "--q-order", "60"),
                 ("--element", "1/(1-10^10*q)", "--t-order", "1", "--q-order", "570")):
        code, out, err = run_cli(capsys, "expand", "lambda_t", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: the t^") and "longer than 4300 digits" in err
    code, _, _ = run_cli(capsys, "expand", "lambda_t", "--element", "1/(1-10^10*q)",
                         "--t-order", "1", "--q-order", "400")
    assert code == 0


def test_cli_verify_suites_pass(capsys):
    for suite in ("lemma21", "mishchenko", "cartier", "lambda-k",
                  "exercise32", "proposition"):
        code, out, _ = run_cli(capsys, "verify", suite)
        assert code == 0, f"{suite}: {out}"
    # every suite also passes at the smallest orders
    smallest = ("--order", "1", "--t-order", "1", "--q-order", "1")
    for suite in sorted(set(_SUITES) - {"selftest-fail"}):
        code, out, _ = run_cli(capsys, "verify", suite, *smallest)
        assert code == 0, f"{suite} at the smallest orders: {out}"


def test_cli_lambda_k_compares_at_the_order_it_used(capsys, monkeypatch):
    # with the printed variant made the corrected one (the shift by q^k
    # returns its input), every
    # "disagrees" check must fail: two series of different orders are
    # unequal whatever their coefficients, so both variants must be compared
    # at the order lambda_k_closed used, which exceeds 10 for k = 4..8
    monkeypatch.setattr(QSeries, "shift", lambda self, k: self)
    code, out, _ = run_cli(capsys, "verify", "lambda-k", "--q-order", "10",
                           "--format", "json")
    assert code == 1
    disagree = [c for c in json.loads(out)["checks"] if "disagrees" in c["name"]]
    assert len(disagree) == 8
    assert not any(c["pass"] for c in disagree)
    assert [c["detail"] for c in disagree] == [
        f"the routes agree through q^{max(10, k * (k + 1) // 2 + 2)}" for k in range(1, 9)]


def test_cli_lambda_k_computes_each_route_once(capsys, monkeypatch):
    # the eight values of k read one Witt element and one oracle table
    calls = []
    for name in ("lambda_t", "elementary_symmetric_oracle"):
        def counted(*args, _f=getattr(qfgl.lambda_ring, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(qfgl.lambda_ring, name, counted)
    code, out, _ = run_cli(capsys, "verify", "lambda-k")
    assert code == 0, out
    assert sorted(calls) == ["elementary_symmetric_oracle", "lambda_t"]


def test_cli_verify_fgl_axioms(capsys):
    code, out, _ = run_cli(capsys, "verify", "fgl-axioms", "--order", "8")
    assert code == 0
    assert "0 failing" in out


def test_cli_verify_failure_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "selftest-fail")
    assert code == 1
    assert "FAIL" in out


def test_cli_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma21", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(c["pass"] for c in payload["checks"])


def test_cli_eval_deep_nesting_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "(" * 3000 + "q" + ")" * 3000)
    assert code == 2
    assert err.startswith("error: expression nested deeper than")
    with pytest.raises(ParseError):
        evaluate("(-" * 3000 + "q" + ")" * 3000)
    # below the limit the nesting parses; a long flat chain costs no depth
    assert evaluate("(" * 90 + "-q" + ")" * 90) == -Q
    assert evaluate("q" + "+q" * 3000) == Scalar.from_int(3001) * Q


def test_cli_usage_error_exit_code(capsys):
    assert main(["verify", "no-such-suite"]) == 2
    capsys.readouterr()
    assert main(["expand", "log_chi", "--order", "0"]) == 2
    capsys.readouterr()


def test_cli_diagram_single(capsys):
    code, out, _ = run_cli(capsys, "diagram", "1", "2")
    assert code == 0
    assert "CP1 x CP2" in out


def test_cli_diagram_catalog(tmp_path, capsys):
    path = tmp_path / "catalog.txt"
    path.write_text("plane 2\npair 1 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "diagram", "--catalog", str(path))
    assert code == 0
    assert "plane" in out and "pair" in out


def test_cli_diagram_catalog_without_entries_exits_2(tmp_path, capsys):
    # a catalog that checks nothing must not pass
    path = tmp_path / "empty.txt"
    path.write_text("# only a comment\n\n", encoding="utf-8")
    for fmt in ("plain", "json"):
        code, out, err = run_cli(capsys, "diagram", "--catalog", str(path), "--format", fmt)
        assert code == 2
        assert out == "" and str(path) in err


def test_cli_verify_has_no_catalog_option(tmp_path, capsys):
    path = tmp_path / "catalog.txt"
    path.write_text("plane 2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", "diagram", "--catalog", str(path))
    assert code == 2
    assert "--catalog" in err


def test_cli_diagram_needs_input(capsys):
    code, _, err = run_cli(capsys, "diagram")
    assert code == 2


def test_cli_table(capsys):
    code, out, _ = run_cli(capsys, "table", "qint", "--max", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[3].split("\t")[1] == "1 + q + q^2"
    code, out, _ = run_cli(capsys, "table", "tau", "--max", "6")
    assert code == 0
    assert out.splitlines()[-1].split("\t") == ["6", "-6048"]


def test_cli_table_negative_max_is_a_usage_error(capsys):
    for name in ("qint", "tau"):
        code, out, err = run_cli(capsys, "table", name, "--max", "-3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --max must be >= 0")
    # --max 0 stays valid: qint lists index 0, tau lists nothing
    code, out, _ = run_cli(capsys, "table", "qint", "--max", "0")
    assert code == 0
    assert out.splitlines() == ["# qint up to 0", "0\t0"]
    code, out, _ = run_cli(capsys, "table", "tau", "--max", "0")
    assert code == 0
    assert out.splitlines() == ["# tau up to 0"]


@pytest.mark.parametrize("name, largest", [
    ("qfact", 32), ("qint", 501), ("cyclotomic", 501), ("cp_image", 463)])
def test_cli_table_budget_admits_its_boundary(capsys, name, largest):
    # the eval budget of the value at --max, or for cp_image the cost of
    # expanding log_chi to --max + 1, admits this --max and refuses one more
    code, out, _ = run_cli(capsys, "table", name, "--max", str(largest))
    assert code == 0
    assert out.splitlines()[-1].startswith(f"{largest}\t")


@pytest.mark.parametrize("argv", [
    ("verify", "proposition", "--order", "39"),
    ("verify", "cartier", "--t-order", "39", "--order", "39"),
    ("verify", "pochhammer-identity", "--t-order", "39"),
    ("expand", "pochhammer", "--t-order", "10", "--q-order", "1000"),
])
def test_cli_order_budget_admits_its_boundary(capsys, argv):
    # n^5 <= MAX_ORDER_COST = 10^8 up to n = 39, and (t*q)^2 up to
    # t*q = 10^4; one more is refused
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0, out


@pytest.mark.parametrize("argv", [
    ("verify", "mishchenko", "--order", "463"),
    ("diagram", "463"),
    ("expand", "lambda_t", "--element", "1/(1-2*q)", "--t-order", "10", "--q-order", "382"),
])
def test_cli_logarithm_and_element_budgets_admit_their_boundary(capsys, argv):
    # a reader of the logarithm is held as expand log_chi at the order it
    # expands, and lambda_t to (t*q)^2 times the 64-bit words of --element's
    # longest coefficient: 464^3 and 3820^2 * 6 are in budget; one more is not
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv[:-1], str(int(argv[-1]) + 1))[0] == 2


@pytest.mark.parametrize("target", ["log_chi", "exp_chi"])
def test_cli_expand_after_a_larger_order_prints_as_a_fresh_process(capsys, target):
    env = dict(os.environ, PYTHONPATH=str(Path(qfgl.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "qfgl", "expand", target, "--order", "5"],
                           env=env, capture_output=True, text=True, timeout=60)
    assert run_cli(capsys, "expand", target, "--order", "10")[0] == 0
    assert run_cli(capsys, "expand", target, "--order", "5") == (0, fresh.stdout, "")
    assert fresh.returncode == 0


def test_cli_expand_plain_table(capsys):
    # q-order 1 is the smallest euler_phi admits: 1 - q
    for q_order, want in (("7", {0: ["0", "1"], 5: ["5", "1"]}),
                          ("1", {0: ["0", "1"], 1: ["1", "-1"]})):
        code, out, _ = run_cli(capsys, "expand", "euler_phi", "--q-order", q_order)
        assert code == 0
        rows = [l.split("\t") for l in out.splitlines() if not l.startswith("#")]
        assert len(rows) == int(q_order) + 1
        assert {i: rows[i] for i in want} == want, q_order


def test_cli_expand_pochhammer_prints_the_rows_past_the_truncation(capsys):
    # the t^7 and t^8 rows start at q^21 and q^28, past q-order 20
    code, out, _ = run_cli(capsys, "expand", "pochhammer", "--t-order", "8",
                           "--q-order", "20")
    assert code == 0
    rows = [l.split("\t") for l in out.splitlines() if not l.startswith("#")]
    assert len(rows) == 9 and rows[6][1] != "0"
    assert rows[7:] == [["7", "0"], ["8", "0"]]


@pytest.mark.parametrize("argv", [
    ("expand", target, "--order", "3", "--t-order", "2", "--q-order", "4")
    for target in _EXPANDS] + [("table", name, "--max", "4") for name in _TABLES])
def test_cli_coefficient_output_schema(capsys, argv):
    verb, name = argv[:2]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"target", "orders", "coefficients"}
    assert payload["target"] == name
    if verb == "expand":
        small = {"order": 3, "t_order": 2, "q_order": 4}
        assert payload["orders"] == {k: small[k] for k in _EXPANDS[name][0]}
    else:
        assert payload["orders"] == {"max": 4}
    rows = payload["coefficients"]
    assert rows and all(set(r) == {"degree", "value"} for r in rows)
    # the plain format carries the same degrees and values
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    header, *lines = out.splitlines()
    assert header.startswith(f"# {name}")

    def degree(d):
        return ",".join(map(str, d)) if isinstance(d, list) else str(d)
    assert [line.split("\t") for line in lines] == [
        [degree(r["degree"]), r["value"]] for r in rows]


def test_cli_unexpected_exception_exits_2(capsys, monkeypatch):
    def broken(args):
        raise ArithmeticError("not a usage error")
    monkeypatch.setitem(_SUITES, "lemma21", ((), 0, broken))
    code, out, err = run_cli(capsys, "verify", "lemma21")
    assert code == 2
    assert out == ""
    assert err.startswith("error: internal ArithmeticError")


# (verb, a bad choice, a bad int, a missing positional or option argument,
# a passing call); diagram has no choice but --format's, and eval takes no
# int, so an order option that it does not take stands in
_VERB_ARGVS = (
    ("expand", ("expand", "nope"), ("expand", "log_chi", "--order", "x"), ("expand",),
     ("expand", "log_chi", "--order", "3")),
    ("verify", ("verify", "nope"), ("verify", "lemma21", "--t-order", "x"), ("verify",),
     ("verify", "lemma21")),
    ("eval", ("eval", "q", "--format", "xml"), ("eval", "q", "--order", "3"), ("eval",),
     ("eval", "qint(3)", "--format", "json")),
    ("diagram", ("diagram", "1", "--format", "xml"), ("diagram", "1", "x"),
     ("diagram", "--catalog"), ("diagram", "1", "2")),
    ("table", ("table", "nope"), ("table", "qint", "--max", "y"), ("table",),
     ("table", "qint", "--max", "3")),
)
_PARSER_ARGVS = [(verb, "-h") for verb, *_ in _VERB_ARGVS] + [
    argv for _, *argvs in _VERB_ARGVS for argv in argvs] + [
    (), ("-h",), ("--help",), ("bogus",), ("ev", "1"), ("--format", "json", "eval", "q"),
    ("eval", "1", "--bogus"), ("verify", "diagram", "--catalog", "x"),
    # arguments that the verb's parser leaves over, so that the full parser
    # refuses them, and refusals and help of the verb's parser itself
    ("table", "qint", "--t-order", "0"), ("expand", "log_chi", "-N", "3"),
    ("expand", "log_chi", "extra"), ("eval", "1", "2"), ("table", "--bogus"),
    ("expand", "--help"), ("eval", "--", "-1"), ("eval", "q", "--fo", "json"),
    ("table", "qint", "--max=-1")]


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=lambda a: " ".join(a) or "none")
def test_cli_parser_of_one_verb_prints_as_the_parser_of_all(capsys, monkeypatch, argv):
    """``main`` parses a call with its verb's parser alone: its exit code,
    stdout and stderr are those of the parser of every verb run over the
    whole argv, whatever the terminal width that argparse wraps its help
    and usage lines to."""
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        got = run_cli(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(qfgl.cli, "_parse", lambda argv: build_parser().parse_args(argv))
            assert got == run_cli(capsys, *argv), columns


@pytest.mark.parametrize("argv", [("eval", "q", "--order", "3"),
                                  ("table", "qint", "--t-order", "1")])
def test_cli_eval_and_table_take_no_orders(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: qfgl [-h] {expand,verify,eval,diagram,table} ...\n")
    assert err.endswith(f"unrecognized arguments: {' '.join(argv[2:])}\n")


def test_cli_builds_one_parser_per_call(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli(capsys, "eval", "q") == (0, "q\n", "")
    assert built == ["qfgl eval"]
    built.clear()
    code, out, err = run_cli(capsys, "table", "nope")
    assert (code, out, built) == (2, "", ["qfgl table"])
    assert "qfgl table: error: argument name: invalid choice" in err
    built.clear()
    # an argument that no verb takes: the verb's parser leaves it over, and
    # the full parser refuses it
    code, out, err = run_cli(capsys, "eval", "1", "--bogus")
    assert (code, out) == (2, "")
    assert built == ["qfgl eval", "qfgl"] + [f"qfgl {verb}" for verb in qfgl.cli._VERBS]
    assert err.endswith("unrecognized arguments: --bogus\n")


def test_cli_main_called_again_prints_as_a_fresh_process(capsys, monkeypatch):
    """One process runs ``main`` on different verbs, options and usage
    errors in turn; each call prints what ``python -m qfgl`` prints."""
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(qfgl.__file__).resolve().parents[1]))
    for argv in (("eval", "qint(3)", "--format", "json"), ("table", "qint", "--max", "3"),
                 ("eval", "q", "--bogus"), ("expand", "log_chi", "--order", "4"),
                 ("table", "nope"), ("diagram", "1", "2", "--format", "json"),
                 ("eval", "q")):
        fresh = subprocess.run([sys.executable, "-m", "qfgl", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_cli_options_have_one_name_each(capsys):
    # one spelling per option: only argparse's own -h/--help has two
    sub = build_parser()._subparsers._group_actions[0]
    for verb, p in sub.choices.items():
        for action in p._actions:
            assert len(action.option_strings) <= 1 or action.dest == "help", (verb, action)
    code, _, err = run_cli(capsys, "expand", "log_chi", "-N", "3")
    assert code == 2 and "unrecognized arguments: -N 3" in err


def test_cli_frees_its_parser_before_the_verb_runs(capsys):
    # a full collection first, so that no collection can promote the new
    # parser to the oldest generation while main builds it
    gc.collect()
    assert run_cli(capsys, "eval", "q") == (0, "q\n", "")
    assert not [o for o in gc.get_objects()
                if isinstance(o, argparse.ArgumentParser) and o.prog.startswith("qfgl")]


# Each of these would allocate gigabytes without the size budget.  The
# child caps its address space, so a missing budget fails the test
# instead of exhausting the machine's memory.
_CHILD = """\
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from qfgl.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - t0)
"""


@pytest.mark.parametrize("argv", [
    ("eval", "qint(10^9)"),
    ("eval", "adams(1+q, 10^9)"),
    ("eval", "(1+q)^(10^6)"),
    ("eval", "(1+q)^1000000"),
    ("eval", "adams(adams(adams(1+q, 1000), 1000), 1000)"),
    ("expand", "log_chi", "--order", "1000000"),
    ("table", "tau", "--max", "1000000"),
    ("eval", "q^500000000 + 1"),
    ("eval", "2^99999999999"),
    ("diagram", "100000000"),
    ("eval", "qfact(1000)"),
    ("eval", "qbinom(1000, 500)"),
    ("eval", "qint(1000)"),
    ("eval", "(1+q)^500*(1+q)^500"),
    ("eval", "(1+q)^500/(1+2*q)^500"),
    # integers past the 4300 digits that str() prints
    ("eval", "10^4000*10^4000"),
    ("eval", "1/(10^4000+1) + 1/(10^4000+3)"),
    ("eval", "1/10^4000/(1 + 10^4000*q)"),
    ("eval", "9" * 4300 + "+1"),
    ("eval", "qfact(10^4200)"),
    ("eval", "*".join(["10^4000"] * 1000)),
    # the gcd behind a sum, s-span 500 times 402 digits: one past the gcd
    # budget, whose boundary test_cli_size_budget_admits_the_gcd_boundary
    # runs; with 2001-digit integers it took about 8 s
    ("eval", "1/(10^200*q^100 + 7*q^3 + 10^200) + 1/(q^150 + 10^200*q + 3)"),
    ("eval", "1/(10^2000*q^100 + 7*q^3 + 10^2000) + 1/(q^150 + 10^2000*q + 3)"),
    # the logarithm that the largest factor CP^n expands to order n + 1:
    # one past the order that expand log_chi stops at
    ("diagram", "464"),
    ("diagram", "464", "1"),
    # one past the largest table test_cli_table_budget_admits_its_boundary runs
    ("table", "qfact", "--max", "33"),
    ("table", "qint", "--max", "502"),
    ("table", "cyclotomic", "--max", "502"),
    ("table", "cp_image", "--max", "464"),
    # one past the largest order the per-target cost budget admits: the
    # first two ran about 7 s and 4 s, and cartier at order 100 about 3 s
    ("expand", "log_chi", "--order", "1000"),
    ("verify", "proposition", "--order", "64"),
    ("verify", "cartier", "--t-order", "8", "--order", "100"),
    ("expand", "log_chi", "--order", "465"),
    ("expand", "exp_chi", "--order", "101"),
    ("expand", "fgl_inverse", "--order", "101"),
    ("verify", "mishchenko", "--order", "464"),
    ("verify", "proposition", "--order", "40"),
    ("verify", "cartier", "--t-order", "40", "--order", "2"),
    ("verify", "pochhammer-identity", "--t-order", "40"),
    # the cost in --t-order times --q-order: these ran about 17 s and 5 s
    ("expand", "pochhammer", "--t-order", "1000", "--q-order", "1000"),
    ("verify", "pochhammer-identity", "--t-order", "32", "--q-order", "1000"),
    ("expand", "lambda_t", "--t-order", "11", "--q-order", "1000"),
    # and in the digits of --element's expansion: this ran about 14 s
    ("expand", "lambda_t", "--element", "1/(1-9*q)", "--t-order", "10", "--q-order", "1000"),
    ("expand", "lambda_t", "--element", "1/(1-10^4000*q)", "--t-order", "1", "--q-order", "1000"),
])
def test_cli_size_budget_refuses_before_allocating(argv):
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=str(Path(qfgl.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    code, elapsed = proc.stdout.split()
    assert code == "2", proc.stderr
    assert float(elapsed) < 1.0
    assert proc.stderr.startswith("error: ")
    # a MemoryError under the cap is reported as internal, not refused
    assert "internal" not in proc.stderr
    # nor is an integer that str() refuses to print
    assert "integer string conversion" not in proc.stderr


def test_cli_size_budget_admits_monomials_and_the_benchmark_orders(capsys):
    code, out, _ = run_cli(capsys, "eval", "q^99999")
    assert (code, out.strip()) == (0, "q^99999")
    # an exponent too long for a float still prints
    assert evaluate("s^1" + "0" * 400) == Scalar.s_power(10 ** 400)
    assert evaluate("(1+q)^500") == (ONE + Q) ** 500
    # the gcd that reduces a reciprocal is trivial, so it is not budgeted
    den = Scalar.from_q_coeffs({150: 1, 1: 10 ** 20, 0: 3})
    assert evaluate("1/(q^150 + 10^20*q + 3)") == ONE / den
    # the largest arguments whose values span at most MAX_SIZE s-degrees
    assert evaluate("qfact(32)") == q_fact(32)
    assert evaluate("qbinom(32, 16)") == q_binom(32, 16)
    for text in ("qfact(33)", "qbinom(33, 16)"):
        with pytest.raises(EvalError, match="above the budget"):
            evaluate(text)
    code, out, _ = run_cli(capsys, "table", "tau", "--max", "300")
    assert code == 0
    # the orders of the benchmark's law and qseries jobs
    for argv in (("verify", "proposition", "--order", "16"),
                 ("expand", "fgl_inverse", "--order", "20"),
                 ("verify", "cartier", "--t-order", "8", "--order", "24"),
                 ("verify", "fgl-axioms", "--order", "16"),
                 ("expand", "exp_chi", "--order", "40"),
                 ("expand", "log_chi", "--order", "40"),
                 ("expand", "f_chi", "--order", "24"),
                 ("expand", "drinfeld", "--order", "20"),
                 ("verify", "pochhammer-identity", "--t-order", "8", "--q-order", "80"),
                 ("expand", "lambda_t", "--t-order", "8", "--q-order", "60")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
    # the elements of the benchmark's lambda_t requests, at their largest orders
    for element in ("1/(1-q)", "1 + q", "2*q", "qint(3)"):
        argv = ("expand", "lambda_t", "--element", element, "--t-order", "6", "--q-order", "30")
        assert run_cli(capsys, *argv)[0] == 0, element


def test_cli_size_budget_admits_the_gcd_boundary():
    # s-span 500 times 2 * (D + 1) digits: D = 199 is the largest the gcd
    # budget admits; D = 20 was refused when the budget was fitted to a
    # pseudo-remainder sequence, and takes milliseconds
    for d in (20, 199):
        text = f"1/(10^{d}*q^100 + 7*q^3 + 10^{d}) + 1/(q^150 + 10^{d}*q + 3)"
        a = Scalar.from_q_coeffs({100: 10 ** d, 3: 7, 0: 10 ** d})
        b = Scalar.from_q_coeffs({150: 1, 1: 10 ** d, 0: 3})
        start = time.perf_counter()
        r = evaluate(text)
        assert time.perf_counter() - start < 0.5
        assert r * a * b == a + b
    with pytest.raises(EvalError, match="s-span 500 times 402 digits"):
        evaluate(text.replace("10^199", "10^200"))
