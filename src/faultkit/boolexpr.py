"""Boolean expressions over named atoms.

Grammar (precedence low to high): `|`, `&`, `!`, with parentheses and the
constants `true` / `false`.  Atom names are C-style identifiers.
An expression is evaluated over many valuations at once, int masks in
which atom a is true when its bit `bits[a]` is set, one list per node.
"""

from __future__ import annotations

import re
from .errors import ExpressionError
from .records import Frozen


class Expr(Frozen):
    """Base class for expression nodes."""

    __slots__ = ()

    def over(self, masks: list[int], bits: dict[str, int]) -> list[bool]:
        """Whether the expression holds in each of the valuations `masks`."""
        raise NotImplementedError

    def atoms(self) -> frozenset[str]:
        raise NotImplementedError

    def _parts(self) -> tuple:
        """The node's text: strings, and subexpressions to render in place."""
        raise NotImplementedError

    def __str__(self):
        # iterative, so a long condition renders whatever its depth
        out: list[str] = []
        stack: list = [self]
        while stack:
            part = stack.pop()
            if type(part) is str:
                out.append(part)
            else:
                stack.extend(reversed(part._parts()))
        return "".join(out)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self._set(value)

    def over(self, masks, bits):
        return [self.value] * len(masks)

    def atoms(self):
        return frozenset()

    def _parts(self):
        return ("true" if self.value else "false",)


class Atom(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self._set(name)

    def over(self, masks, bits):
        bit = bits.get(self.name)
        if bit is None:
            raise ExpressionError(f"atom {self.name!r} not in valuation")
        return [x & bit != 0 for x in masks]

    def atoms(self):
        return frozenset({self.name})

    def _parts(self):
        return (self.name,)


class Not(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self._set(arg)

    def over(self, masks, bits):
        return [not v for v in self.arg.over(masks, bits)]

    def atoms(self):
        return self.arg.atoms()

    def _parts(self):
        return ("!", *_wrap(self.arg))


class And(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self._set(left, right)

    def over(self, masks, bits):
        return [a and b for a, b in zip(self.left.over(masks, bits), self.right.over(masks, bits))]

    def atoms(self):
        return self.left.atoms() | self.right.atoms()

    def _parts(self):
        return (*_wrap(self.left, in_and=True), " & ", *_wrap(self.right, in_and=True))


class Or(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self._set(left, right)

    def over(self, masks, bits):
        return [a or b for a, b in zip(self.left.over(masks, bits), self.right.over(masks, bits))]

    def atoms(self):
        return self.left.atoms() | self.right.atoms()

    def _parts(self):
        return (self.left, " | ", self.right)


def _wrap(e: Expr, in_and: bool = False) -> tuple:
    # Parenthesize only where precedence requires it.
    if isinstance(e, Or) or isinstance(e, And) and not in_and:
        return ("(", e, ")")
    return (e,)


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
