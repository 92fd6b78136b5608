"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insignificant)::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' INT]
    atom   := INT ['/' INT] | NAME | '(' expr ')'

Coefficients are integer or rational literals like ``3`` or ``3/2``;
exponents are nonnegative integer literals. Example: ``x^2*y - 3/2*y^3 + 1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import IdealSyntaxError
from .polynomials import Polynomial

_TOKEN_RE = re.compile(r"\d+|[A-Za-z][A-Za-z0-9_]*|[+\-*^/()]")
VARIABLE_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name" or the operator character itself
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, column = 1, 1
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            column = 1
            pos += 1
            continue
        if ch.isspace():
            column += 1
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if not match or match.start() != pos:
            raise IdealSyntaxError(f"unexpected character {ch!r}", line, column)
        lexeme = match.group()
        if lexeme[0].isdigit():
            kind = "int"
        elif lexeme[0].isalpha():
            kind = "name"
        else:
            kind = lexeme
        tokens.append(_Token(kind, lexeme, line, column))
        column += len(lexeme)
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = list(variables)
        self.var_index = {name: i for i, name in enumerate(variables)}
        self.dim = len(self.variables)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> _Token:
        token = self.peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            column = last.column + len(last.text) if last else 1
            raise IdealSyntaxError("unexpected end of expression", line, column)
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.advance()
        if token.kind != kind:
            raise IdealSyntaxError(
                f"expected {kind!r}, found {token.text!r}", token.line, token.column
            )
        return token

    def parse(self) -> Polynomial:
        value = self.expr()
        trailing = self.peek()
        if trailing is not None:
            raise IdealSyntaxError(
                f"unexpected trailing {trailing.text!r}", trailing.line, trailing.column
            )
        return value

    def expr(self) -> Polynomial:
        negate = False
        token = self.peek()
        if token is not None and token.kind == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while True:
            token = self.peek()
            if token is None or token.kind not in ("+", "-"):
                return value
            self.advance()
            rhs = self.term()
            value = value + rhs if token.kind == "+" else value - rhs

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            token = self.peek()
            if token is None or token.kind != "*":
                return value
            self.advance()
            value = value * self.factor()

    def factor(self) -> Polynomial:
        value = self.atom()
        token = self.peek()
        if token is not None and token.kind == "^":
            self.advance()
            exponent = self.expect("int")
            value = value ** int(exponent.text)
        return value

    def atom(self) -> Polynomial:
        token = self.advance()
        if token.kind == "int":
            numerator = int(token.text)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "/":
                self.advance()
                denom_token = self.expect("int")
                denominator = int(denom_token.text)
                if denominator == 0:
                    raise IdealSyntaxError(
                        "zero denominator", denom_token.line, denom_token.column
                    )
                return Polynomial.constant(self.dim, Fraction(numerator, denominator))
            return Polynomial.constant(self.dim, numerator)
        if token.kind == "name":
            index = self.var_index.get(token.text)
            if index is None:
                raise IdealSyntaxError(
                    f"unknown variable {token.text!r}", token.line, token.column
                )
            return Polynomial.variable(self.dim, index)
        if token.kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise IdealSyntaxError(
            f"unexpected {token.text!r}", token.line, token.column
        )


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression over the declared variables into a Polynomial."""
    if not variables:
        raise IdealSyntaxError("no variables declared")
    tokens = _tokenize(text)
    if not tokens:
        raise IdealSyntaxError("empty expression", 1, 1)
    try:
        return _Parser(tokens, variables).parse()
    except RecursionError as exc:
        raise IdealSyntaxError("expression is nested too deeply") from exc
