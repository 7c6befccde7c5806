"""Boolean expressions over named atoms.

Grammar (precedence low to high): `|`, `&`, `!`, with parentheses and the
constants `true` / `false`.  Atom names are C-style identifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ExpressionError


class Expr:
    """Base class for expression nodes."""

    def evaluate(self, valuation: dict[str, bool]) -> bool:
        raise NotImplementedError

    def atoms(self) -> frozenset[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: bool

    def evaluate(self, valuation):
        return self.value

    def atoms(self):
        return frozenset()

    def __str__(self):
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Atom(Expr):
    name: str

    def evaluate(self, valuation):
        try:
            return valuation[self.name]
        except KeyError:
            raise ExpressionError(f"atom {self.name!r} not in valuation") from None

    def atoms(self):
        return frozenset({self.name})

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr

    def evaluate(self, valuation):
        return not self.arg.evaluate(valuation)

    def atoms(self):
        return self.arg.atoms()

    def __str__(self):
        return f"!{_wrap(self.arg)}"


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def evaluate(self, valuation):
        return self.left.evaluate(valuation) and self.right.evaluate(valuation)

    def atoms(self):
        return self.left.atoms() | self.right.atoms()

    def __str__(self):
        return f"{_wrap(self.left, in_and=True)} & {_wrap(self.right, in_and=True)}"


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def evaluate(self, valuation):
        return self.left.evaluate(valuation) or self.right.evaluate(valuation)

    def atoms(self):
        return self.left.atoms() | self.right.atoms()

    def __str__(self):
        return f"{self.left} | {self.right}"


def _wrap(e: Expr, in_and: bool = False) -> str:
    # Parenthesize only where precedence requires it.
    if isinstance(e, Or):
        return f"({e})"
    if isinstance(e, And) and not in_and:
        return f"({e})"
    return str(e)


_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[()&|!]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExpressionError(f"unexpected end of expression: {self.text!r}")
        self.i += 1
        return tok

    def parse_or(self) -> Expr:
        node = self.parse_and()
        while self.peek() is not None and self.peek()[1] == "|":
            self.take()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Expr:
        node = self.parse_unary()
        while self.peek() is not None and self.peek()[1] == "&":
            self.take()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        tok = self.take()
        kind, value, pos = tok
        if value == "!":
            return Not(self.parse_unary())
        if value == "(":
            node = self.parse_or()
            closing = self.take()
            if closing[1] != ")":
                raise ExpressionError(f"expected ')' at position {closing[2]}")
            return node
        if kind == "name":
            if value == "true":
                return Const(True)
            if value == "false":
                return Const(False)
            return Atom(value)
        raise ExpressionError(f"unexpected token {value!r} at position {pos}")


def parse_expr(text: str) -> Expr:
    """Parse a boolean expression string into an :class:`Expr` tree."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    parser = _Parser(tokens, text)
    node = parser.parse_or()
    trailing = parser.peek()
    if trailing is not None:
        raise ExpressionError(f"trailing input at position {trailing[2]}: {trailing[1]!r}")
    return node


def as_expr(value) -> Expr:
    """Accept either an Expr or an expression string."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse_expr(value)
    raise ExpressionError(f"cannot interpret {value!r} as a boolean expression")
