"""A small expression language for exact scalars.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' integer)?
    atom   := integer | 'q' | 's' | call | '(' expr ')' | '-' atom

Builtin calls: qint(k), qfact(k), qbinom(n, k), cyclotomic(d),
adams(e, k).  Exponents are integer literals, optionally negative.
Syntax errors carry the byte offset of the offending token.  Atoms nest
at most ``MAX_NESTING`` deep (parentheses, unary minus, call arguments),
which keeps parsing and evaluation well inside Python's recursion limit.
"""

from __future__ import annotations

import operator

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


_ARITIES = {"qint": 1, "qfact": 1, "qbinom": 2, "cyclotomic": 1, "adams": 2}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}

MAX_NESTING = 100


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("eof", None, self.pos)
        ch = self.text[self.pos]
        start = self.pos
        if ch.isdigit():
            end = start
            while end < len(self.text) and self.text[end].isdigit():
                end += 1
            return ("int", int(self.text[start:end]), start)
        if ch.isalpha() or ch == "_":
            end = start
            while end < len(self.text) and (self.text[end].isalnum()
                                            or self.text[end] == "_"):
                end += 1
            return ("ident", self.text[start:end], start)
        if ch in "+-*/^(),":
            return (ch, ch, start)
        raise ParseError(f"unexpected character {ch!r}", start)

    def next(self):
        tok = self.peek()
        if tok[0] == "int":
            self.pos = tok[2] + len(str(tok[1]))
        elif tok[0] == "ident":
            self.pos = tok[2] + len(tok[1])
        elif tok[0] != "eof":
            self.pos = tok[2] + 1
        return tok


class _Parser:
    def __init__(self, text: str):
        self.lex = _Lexer(text)
        self.depth = 0

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.lex.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input starting with {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            tok = self.lex.peek()
            if tok[0] in ("+", "-"):
                self.lex.next()
                rhs = self.term()
                e = ("bin", tok[0], e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            tok = self.lex.peek()
            if tok[0] in ("*", "/"):
                self.lex.next()
                rhs = self.factor()
                e = ("bin", tok[0], e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        e = self.atom()
        tok = self.lex.peek()
        if tok[0] == "^":
            self.lex.next()
            e = ("pow", e, self._integer())
        return e

    def _integer(self) -> int:
        tok = self.lex.peek()
        sign = 1
        if tok[0] == "-":
            self.lex.next()
            sign = -1
            tok = self.lex.peek()
        if tok[0] != "int":
            raise ParseError("exponent must be an integer literal", tok[2])
        self.lex.next()
        return sign * tok[1]

    def atom(self) -> Expr:
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             self.lex.peek()[2])
        self.depth += 1
        e = self._atom()
        self.depth -= 1
        return e

    def _atom(self) -> Expr:
        tok = self.lex.peek()
        kind, value, pos = tok
        if kind == "int":
            self.lex.next()
            return ("int", value)
        if kind == "-":
            self.lex.next()
            return ("neg", self.atom())
        if kind == "(":
            self.lex.next()
            e = self.expr()
            closing = self.lex.next()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            return e
        if kind == "ident":
            self.lex.next()
            if value in ("q", "s"):
                return ("var", value)
            if value not in _ARITIES:
                raise ParseError(f"unknown identifier {value!r}", pos)
            opening = self.lex.next()
            if opening[0] != "(":
                raise ParseError(f"{value} expects arguments", opening[2])
            args = [self.expr()]
            while True:
                nxt = self.lex.next()
                if nxt[0] == ")":
                    break
                if nxt[0] != ",":
                    raise ParseError("expected ',' or ')'", nxt[2])
                args.append(self.expr())
            if len(args) != _ARITIES[value]:
                raise ParseError(
                    f"{value} takes {_ARITIES[value]} argument(s), got {len(args)}",
                    pos)
            return ("call", value, args)
        raise ParseError("expected a value", pos)


def parse_expr(text: str) -> Expr:
    return _Parser(text).parse()


def _int_arg(name: str, value: Scalar) -> int:
    try:
        return value.as_int()
    except ValueError:
        raise EvalError(f"{name} needs an integer argument") from None


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
        vals = [eval_expr(a) for a in args]
        try:
            if name == "qint":
                return q_int(_int_arg(name, vals[0]))
            if name == "qfact":
                return q_fact(_int_arg(name, vals[0]))
            if name == "qbinom":
                return q_binom(_int_arg(name, vals[0]), _int_arg(name, vals[1]))
            if name == "cyclotomic":
                return cyclotomic(_int_arg(name, vals[0]))
            if name == "adams":
                return adams(vals[0], _int_arg(name, vals[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise EvalError(str(exc)) from None
    raise EvalError(f"malformed expression node {e!r}")


def evaluate(text: str) -> Scalar:
    """Parse and evaluate in one step."""
    return eval_expr(parse_expr(text))
