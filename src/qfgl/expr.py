"""A small expression language for exact scalars.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' integer)?
    atom   := integer | 'q' | 's' | call | '(' expr ')' | '-' atom

Builtin calls: qint(k), qfact(k), qbinom(n, k), cyclotomic(d),
adams(e, k).  Exponents are integer literals, optionally negative.
Syntax errors carry the character offset of the offending token.  Atoms
nest at most ``MAX_NESTING`` deep (parentheses, unary minus, call
arguments), which keeps parsing and evaluation well inside Python's
recursion limit.  Before anything is allocated, ``MAX_SIZE`` bounds an
integer argument of a builtin and the exponent of a power, each times the
s-degree span of the scalar it grows (so ``q^99999`` stays allowed).
"""

from __future__ import annotations

import operator
import re

from .scalar import Scalar, Q, S, cyclotomic
from .qcomb import q_int, q_fact, q_binom
from .lambda_ring import adams

__all__ = ["Expr", "ParseError", "EvalError", "parse_expr", "eval_expr", "evaluate"]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class EvalError(ValueError):
    pass


# AST nodes are plain tuples:
#   ("int", n) ("var", "q"|"s") ("neg", e) ("pow", e, k)
#   ("bin", op, left, right) ("call", name, [args])
Expr = tuple


# name -> (function, argument kinds): "s" a scalar, "i" an integer
_BUILTINS = {"qint": (q_int, "i"), "qfact": (q_fact, "i"), "qbinom": (q_binom, "ii"),
             "cyclotomic": (cyclotomic, "i"), "adams": (adams, "si")}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}

MAX_NESTING = 100

# the budget on every size the command line reads: orders, --max, integer
# arguments of builtins and s-degree spans of powers
MAX_SIZE = 1000

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
            if len(value) > 4300:  # Python 3.11+ refuses longer int() strings
                raise ParseError("integer literal longer than 4300 digits", pos)
            value = int(value)
        elif kind == "op":
            kind = value
        tokens.append((kind, value, pos))
    tokens.append(("eof", None, len(text)))
    return tokens


class _Parser:
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

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input starting with {tok[1]!r}", tok[2])
        return e

    def _chain(self, ops, operand) -> Expr:
        """operand (op operand)*, nested to the left."""
        e = operand()
        while self.peek()[0] in ops:
            op = self.next()[0]
            e = ("bin", op, e, operand())
        return e

    def expr(self) -> Expr:
        return self._chain(("+", "-"), self.term)

    def term(self) -> Expr:
        return self._chain(("*", "/"), self.factor)

    def factor(self) -> Expr:
        e = self.atom()
        tok = self.peek()
        if tok[0] == "^":
            self.next()
            e = ("pow", e, self._integer())
        return e

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

    def atom(self) -> Expr:
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             self.peek()[2])
        self.depth += 1
        e = self._atom()
        self.depth -= 1
        return e

    def _atom(self) -> Expr:
        kind, value, pos = self.next()
        if kind == "int":
            return ("int", value)
        if kind == "-":
            return ("neg", self.atom())
        if kind == "(":
            e = self.expr()
            self._expect(")", "expected ')'")
            return e
        if kind == "ident":
            if value in ("q", "s"):
                return ("var", value)
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
            return ("call", value, args)
        raise ParseError("expected a value", pos)

    def _expect(self, kind: str, message: str) -> None:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(message, tok[2])


def parse_expr(text: str) -> Expr:
    return _Parser(text).parse()


def _s_span(value: Scalar) -> int:
    """Degree span in s of the numerator plus that of the denominator."""
    return len(value.num[2]) + len(value.den) - 2


def _check_size(what: str, size: int) -> None:
    if size > MAX_SIZE:
        raise EvalError(f"{what} has size {size}, above the budget {MAX_SIZE}")


def _int_arg(name: str, value: Scalar, span: int) -> int:
    try:
        k = value.as_int()
    except ValueError:
        raise EvalError(f"{name} needs an integer argument") from None
    _check_size(f"{name} argument {k}", abs(k) * max(span, 1))
    return k


def eval_expr(e: Expr) -> Scalar:
    kind = e[0]
    if kind == "int":
        return Scalar.from_int(e[1])
    if kind == "var":
        return Q if e[1] == "q" else S
    if kind == "neg":
        return -eval_expr(e[1])
    if kind == "pow":
        base = eval_expr(e[1])
        if base.is_zero() and e[2] < 0:
            raise EvalError("zero cannot be raised to a negative power")
        _check_size(f"power {e[2]}", abs(e[2]) * _s_span(base))
        return base ** e[2]
    if kind == "bin":
        # a chain a op b op c ... nests to the left; walk it in a loop so
        # that its length costs no recursion depth
        chain = []
        while e[0] == "bin":
            chain.append(e)
            e = e[2]
        acc = eval_expr(e)
        for _, op, _, r in reversed(chain):
            b = eval_expr(r)
            if op == "/" and b.is_zero():
                raise EvalError("division by zero")
            acc = _BINARY[op](acc, b)
        return acc
    if kind == "call":
        _, name, args = e
        fn, kinds = _BUILTINS[name]
        vals = [eval_expr(a) for a in args]
        # an integer argument scales the span of the scalar ones (adams)
        span = max((_s_span(v) for v, k in zip(vals, kinds) if k == "s"), default=0)
        try:
            vals = [v if k == "s" else _int_arg(name, v, span)
                    for v, k in zip(vals, kinds)]
            return fn(*vals)
        except (ValueError, ZeroDivisionError) as exc:
            raise EvalError(str(exc)) from None
    raise EvalError(f"malformed expression node {e!r}")


def evaluate(text: str) -> Scalar:
    """Parse and evaluate in one step."""
    return eval_expr(parse_expr(text))
