"""Expression grammar, canonical-string round trips, CLI contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfgl

from qfgl import (
    Scalar, ZERO, ONE, Q, S, canonical_str, cyclotomic,
    q_int, q_fact, q_binom, adams,
    parse_expr, eval_expr, evaluate, ParseError, EvalError,
)
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
        parse_expr("1 + $")
    assert err.value.pos == 4


def test_integer_literals_keep_their_source_length():
    # leading zeros: the parser must skip the literal's text, not str(value)
    assert evaluate("007") == Scalar.from_int(7)
    assert evaluate("q^02") == Q ** 2
    assert evaluate("qint(03)") == q_int(3)


def test_non_ascii_digit_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_expr("\u00b2")
    assert err.value.pos == 0


def test_long_integer_literal_is_a_parse_error():
    assert evaluate("9" * 4300) == Scalar.from_int(10 ** 4300 - 1)
    with pytest.raises(ParseError) as err:
        parse_expr("q + " + "9" * 4301)
    assert err.value.pos == 4


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse_expr("mystery(3)")


def test_arity_mismatch():
    with pytest.raises(ParseError):
        parse_expr("qbinom(3)")


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_expr("1 + q q")


def test_eval_division_by_zero():
    with pytest.raises(EvalError):
        evaluate("1/(q - q)")


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
    code, _, err = run_cli(capsys, "eval", "qint(")
    assert code == 2
    assert "error" in err


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
        parse_expr("(-" * 3000 + "q" + ")" * 3000)
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


def test_cli_expand_plain_table(capsys):
    code, out, _ = run_cli(capsys, "expand", "euler_phi", "--q-order", "7")
    assert code == 0
    rows = [l.split("\t") for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == ["0", "1"]
    assert rows[5] == ["5", "1"]


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
    monkeypatch.setitem(_SUITES, "lemma21", broken)
    code, out, err = run_cli(capsys, "verify", "lemma21")
    assert code == 2
    assert out == ""
    assert err.startswith("error: internal ArithmeticError")


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


def test_cli_size_budget_admits_monomials_and_the_benchmark_orders(capsys):
    code, out, _ = run_cli(capsys, "eval", "q^99999")
    assert (code, out.strip()) == (0, "q^99999")
    assert evaluate("(1+q)^500") == (ONE + Q) ** 500
    code, out, _ = run_cli(capsys, "table", "tau", "--max", "300")
    assert code == 0
