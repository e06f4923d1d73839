"""Infix parser for the expression language.

Accepts standard math syntax with ``^`` or ``**`` for powers and the
function names of the signature F (exp, log, sin, cos, tan, tanh, sqrt,
abs, sigmoid, min, max).  Used by the SBML-lite reader and by tests;
models in :mod:`repro.models` are built with the Python DSL directly.

Grammar (precedence climbing)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom (('^' | '**') unary)?      # right associative
    atom    := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'
"""

from __future__ import annotations

import re

from .ast import Binary, Const, Expr, Unary, Var

__all__ = ["parse_expr", "ParseError"]


class ParseError(ValueError):
    """Raised on malformed expression text."""


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[+\-*/^(),])"
    r")"
)

_UNARY_FUNCS = {
    "exp", "log", "sin", "cos", "tan", "tanh", "sqrt", "abs", "sigmoid", "neg",
}
_BINARY_FUNCS = {"min", "max", "pow"}
_CONSTANTS = {"pi": 3.141592653589793, "e": 2.718281828459045}


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character at {text[pos:pos + 10]!r}")
        tokens.append(m.group("num") or m.group("name") or m.group("op"))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser over a token list, one method per rule
    of the grammar in the module docstring."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        """The next token without consuming it (None at the end)."""
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        """Consume and return the next token."""
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        """Consume the next token, which must be ``tok``."""
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> Expr:
        """The whole token list as one ``expr``; trailing tokens are an error."""
        e = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens: {self.tokens[self.pos:]}")
        return e

    def expr(self) -> Expr:
        """``term (('+' | '-') term)*``, left associative."""
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            e = Binary("add" if op == "+" else "sub", e, rhs)
        return e

    def term(self) -> Expr:
        """``unary (('*' | '/') unary)*``, left associative."""
        e = self.unary()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.unary()
            e = Binary("mul" if op == "*" else "div", e, rhs)
        return e

    def unary(self) -> Expr:
        """``'-' unary | power`` (a leading ``'+'`` is dropped)."""
        if self.peek() == "-":
            self.next()
            return Unary("neg", self.unary())
        if self.peek() == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        """``atom (('^' | '**') unary)?``, right associative."""
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.next()
            exponent = self.unary()  # right associative, allows -x exponents
            return Binary("pow", base, exponent)
        return base

    def atom(self) -> Expr:
        """A number, a name, a function call or a parenthesized ``expr``."""
        tok = self.next()
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if re.fullmatch(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?", tok):
            return Const(float(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            if self.peek() == "(":
                self.next()
                args = [self.expr()]
                while self.peek() == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                return self._apply(tok, args)
            if tok in _CONSTANTS:
                return Const(_CONSTANTS[tok])
            return Var(tok)
        raise ParseError(f"unexpected token {tok!r}")

    @staticmethod
    def _apply(name: str, args: list[Expr]) -> Expr:
        if name in _UNARY_FUNCS:
            if len(args) != 1:
                raise ParseError(f"{name}() takes 1 argument, got {len(args)}")
            return Unary(name, args[0])
        if name in _BINARY_FUNCS:
            if len(args) != 2:
                raise ParseError(f"{name}() takes 2 arguments, got {len(args)}")
            if name == "pow":
                return Binary("pow", args[0], args[1])
            return Binary(name, args[0], args[1])
        raise ParseError(f"unknown function {name!r}")


def parse_expr(text: str) -> Expr:
    """Parse infix ``text`` into an :class:`~repro.expr.Expr`."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens).parse()
