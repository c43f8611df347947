"""A small expression language for exact scalars.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' integer)?
    atom   := integer | 'q' | 's' | call | '(' expr ')' | '-' atom

Builtin calls: qint(k), qfact(k), qbinom(n, k), cyclotomic(d),
adams(e, k).  Exponents are integer literals, optionally negative.
``evaluate`` reads and evaluates an expression in one pass, with no syntax
tree: each grammar rule returns the value of the text it read.  The text
is split into tokens first, so a character outside the grammar is refused
before anything is computed; any other syntax error is raised where it is
read, after the values to its left, so an evaluation error to the left of
it is the one reported.  Syntax errors carry the character offset of the
offending token.  Atoms nest at most ``MAX_NESTING`` deep (parentheses,
unary minus, call arguments), which keeps evaluation well inside Python's
recursion limit.  Before anything is allocated, ``MAX_SIZE`` bounds the
s-degree span of a value: that of a builtin, which each ``_BUILTINS``
entry states from the arguments; that of a power, its exponent times the
span of its base (so ``q^99999`` stays allowed); that of a product or
quotient, the sum of its operands' spans; and the s-degrees a sum or
difference covers.  No value may hold or print an integer longer than an
integer literal may be (``MAX_DIGITS``); a power is refused before it is computed.
``MAX_GCD_WORK`` bounds the s-span times the digits of the operands of a
gcd that reduces a fraction, which bounds the bits of the packed integers
whose integer gcd the heuristic gcd takes, and the length times the digits
of the polynomials it divides; both costs grow with that product, so
``1/(10^20*q^100 + 7*q^3 + 10^20) + 1/(q^150 + 10^20*q + 3)`` is admitted
and runs in milliseconds, while its 2001-digit variant, which takes
seconds, is refused.
"""

from __future__ import annotations

import operator
import re
from math import log10

from .scalar import Scalar, Q, S, cyclotomic, adams
from .qcomb import q_int, q_fact, q_binom

__all__ = ["ParseError", "EvalError", "evaluate"]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class EvalError(ValueError):
    pass


# name -> (function, argument kinds, s-degree span of its value, domain):
# a kind is "s" for a scalar or "i" for an integer; the span, a function of
# the arguments, bounds the value's size before it is computed; the domain
# is what a refusal by the function says the builtin needs
_BUILTINS = {"qint": (q_int, "i", lambda k: 2 * (k - 1), "qint(k) needs k >= 0"),
             "qfact": (q_fact, "i", lambda k: k * (k - 1), "qfact(k) needs k >= 0"),
             # the span of the q_fact(n) it divides
             "qbinom": (q_binom, "ii", lambda n, k: n * (n - 1),
                        "qbinom(n, k) needs 0 <= k <= n"),
             # 2*phi(d) at most
             "cyclotomic": (cyclotomic, "i", lambda d: 2 * (d - 1),
                            "cyclotomic(d) needs d >= 1"),
             "adams": (adams, "si", lambda e, k: abs(k) * _s_span(e),
                       "adams(x, k) needs x living in q and k >= 1")}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}

MAX_NESTING = 100

# the budget on every size the command line reads: orders, --max and the
# s-degree spans of builtin values, powers, sums and products
MAX_SIZE = 1000

MAX_DIGITS = 4300  # Python 3.11+ refuses int() and str() of longer integers
_DIGIT_LIMIT = 10 ** MAX_DIGITS

# bounds s-span * digits of a gcd's operands; the largest admitted gcd
# runs in about 0.2 s
MAX_GCD_WORK = 2 * 10 ** 5

# one token per match; whitespace matches no group and is skipped
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/^(),])|(?P<bad>\S)")


def _tokenize(text: str) -> list:
    """``(kind, value, offset)`` for each token, ending with an eof token."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "int":
            if len(value) > MAX_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", pos)
            value = int(value)
        elif kind == "op":
            kind = value
        tokens.append((kind, value, pos))
    tokens.append(("eof", None, len(text)))
    return tokens


class _Parser:
    """Evaluates while it parses: each grammar rule returns the value of the
    text it read, so a budget is checked as soon as its operands are read."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        # a consumed eof token is always followed by a ParseError
        self.i += 1
        return self.tokens[self.i - 1]

    def parse(self) -> Scalar:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input starting with {tok[1]!r}", tok[2])
        return value

    def _chain(self, ops, operand) -> Scalar:
        """operand (op operand)*, each op applied as its right operand is
        read, so a long chain costs no recursion depth."""
        acc = operand()
        while self.peek()[0] in ops:
            op = self.next()[0]
            acc = _binary(op, acc, operand())
        return acc

    def expr(self) -> Scalar:
        return self._chain(("+", "-"), self.term)

    def term(self) -> Scalar:
        return self._chain(("*", "/"), self.factor)

    def factor(self) -> Scalar:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.next()
        return _power(base, self._integer())

    def _integer(self) -> int:
        tok = self.peek()
        sign = 1
        if tok[0] == "-":
            self.next()
            sign = -1
            tok = self.peek()
        if tok[0] != "int":
            raise ParseError("exponent must be an integer literal", tok[2])
        self.next()
        return sign * tok[1]

    def atom(self) -> Scalar:
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             self.peek()[2])
        self.depth += 1
        value = self._atom()
        self.depth -= 1
        return value

    def _atom(self) -> Scalar:
        kind, value, pos = self.next()
        if kind == "int":
            return Scalar.from_int(value)
        if kind == "-":
            return -self.atom()
        if kind == "(":
            inner = self.expr()
            self._expect(")", "expected ')'")
            return inner
        if kind == "ident":
            if value in ("q", "s"):
                return Q if value == "q" else S
            if value not in _BUILTINS:
                raise ParseError(f"unknown identifier {value!r}", pos)
            self._expect("(", f"{value} expects arguments")
            args = [self.expr()]
            while self.peek()[0] == ",":
                self.next()
                args.append(self.expr())
            self._expect(")", "expected ',' or ')'")
            arity = len(_BUILTINS[value][1])
            if len(args) != arity:
                raise ParseError(
                    f"{value} takes {arity} argument(s), got {len(args)}", pos)
            return _call(value, args)
        raise ParseError("expected a value", pos)

    def _expect(self, kind: str, message: str) -> None:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(message, tok[2])


def _s_span(value: Scalar) -> int:
    """Degree span in s of the numerator plus that of the denominator."""
    return len(value.num[2]) + len(value.den) - 2


def _check_size(what: str, size: int, budget: int = MAX_SIZE) -> None:
    if size > budget:
        shown = size if size < _DIGIT_LIMIT else f"> 10^{MAX_DIGITS}"
        raise EvalError(f"{what} has size {shown}, above the budget {budget}")


def _check_digits(what: str, value: Scalar) -> Scalar:
    """``value``, unless its s-degrees reach 10^MAX_DIGITS or an integer it
    holds or prints (``canonical_str`` prints num[1] times den) is longer."""
    val, den, coeffs = value.num
    if max(abs(val) + len(coeffs) + len(value.den), max(map(abs, coeffs), default=0),
           den * max(map(abs, value.den))) >= _DIGIT_LIMIT:
        raise EvalError(f"{what} has an integer longer than {MAX_DIGITS} digits")
    return value


def _digits(value: Scalar) -> int:
    """Decimal digits of the longest integer a value holds."""
    _, den, coeffs = value.num
    return len(str(max(den, *map(abs, coeffs), *map(abs, value.den))))


def _int_arg(name: str, value: Scalar) -> int:
    try:
        return value.as_int()
    except ValueError:
        raise EvalError(f"{name} needs an integer argument") from None


def _binary(op: str, a: Scalar, b: Scalar) -> Scalar:
    """``a op b`` for op in ``+-*/``, within the budgets."""
    if op == "/" and b.is_zero():
        raise EvalError("division by zero")
    if op in "+-" and not (a.is_zero() or b.is_zero()):
        # one vector from the lower valuation to the higher top degree
        lo = min(a.num[0], b.num[0])
        hi = max(a.num[0] + _s_span(a), b.num[0] + _s_span(b))
        _check_size(f"{op!r} over s-degrees {lo}..{hi}", hi - lo)
    if op in "*/":
        _check_size(f"{op!r} of s-spans {_s_span(a)} and {_s_span(b)}",
                    _s_span(a) + _s_span(b))
    # the gcd that reduces the result is trivial unless its numerator
    # and denominator, before reduction, both have two terms or more
    n, d = (b.den, b.num[2]) if op == "/" else (b.num[2], b.den)
    if max(len(a.den), len(d)) > 1 and (op in "+-" or max(len(a.num[2]), len(n)) > 1):
        span, digits = _s_span(a) + _s_span(b), _digits(a) + _digits(b)
        _check_size(f"the gcd behind {op!r} (s-span {span} times {digits} digits)",
                    span * digits, MAX_GCD_WORK)
    return _check_digits(f"the result of {op!r}", _BINARY[op](a, b))


def _power(base: Scalar, k: int) -> Scalar:
    """``base ** k``, within the budgets."""
    if base.is_zero() and k < 0:
        raise EvalError("zero cannot be raised to a negative power")
    _check_size(f"power {k}", abs(k) * _s_span(base))
    # no integer of the result may outgrow the literals _tokenize admits:
    # each is at most h^|k|, h the largest 1-norm of the base's integers
    h = max(sum(map(abs, base.num[2])), base.num[1], sum(map(abs, base.den)))
    if h > 1 and abs(k) >= MAX_DIGITS / log10(h):  # no float of a long exponent
        raise EvalError(f"power {k} has integers longer than {MAX_DIGITS} digits")
    return _check_digits(f"power {k}", base ** k)


def _call(name: str, args: list) -> Scalar:
    """The builtin ``name`` at ``args``, within the budgets."""
    fn, kinds, span, domain = _BUILTINS[name]
    vals = [v if k == "s" else _int_arg(name, v) for v, k in zip(args, kinds)]
    # no builtin takes a negative integer, whose span may exceed the budget
    if any(k == "i" and v < 0 for v, k in zip(vals, kinds)):
        raise EvalError(domain)
    _check_size(f"the value of {name}", span(*vals))
    try:
        value = fn(*vals)
    except ValueError:
        raise EvalError(domain) from None
    return _check_digits(f"the value of {name}", value)


def evaluate(text: str) -> Scalar:
    """The value of ``text``, read and evaluated in one pass."""
    return _Parser(text).parse()
