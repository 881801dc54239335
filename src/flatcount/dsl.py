"""A small expression language over species, parsed to an AST and evaluated
to counting sequences.

Grammar (whitespace insignificant, `∘` accepted wherever `o` appears):

    expr  ::= power { BINARY power }
    power ::= atom { "^o" INT }
    atom  ::= "E" | "E+" | "E_" INT | "L" | "L+" | "C" | "C+" | "X" | "(" expr ")"

The binary operators are, loosest first, `+`, `*` and `o` (composition),
all associating to the left; `^o` (iterated self-composition) binds more
tightly than any of them. `E+`, `L+`, `C+` and `E_k` are single tokens with
no interior whitespace; `X` is the singleton species, the identity for
composition. One regular expression scans the text in one pass and the
parser climbs the precedence table _BINARY, so parsing takes linear time.

Parentheses, and operators on any path from the root to an atom, may nest at
most MAX_DEPTH deep (a sum of MAX_DEPTH + 2 terms is too deep).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .species import (
    CompositionConstantTerm,
    CountSeq,
    seq_cycles_nonempty,
    seq_k_set,
    seq_lists,
    seq_lists_nonempty,
    seq_sets,
    seq_sets_nonempty,
)
from .triangles import DEFAULT_ORDER


# Parsing recurses two frames per parenthesis, evaluation one per operator;
# this bound keeps both well inside Python's recursion limit.
MAX_DEPTH = 100
_TOO_DEEP = "expression nested too deeply"


class ParseError(Exception):
    """Syntax error in a species expression, carrying the byte offset, or
    None for an expression nested too deeply."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (byte offset {position})")
        self.position = position


@dataclass(frozen=True)
class Atom:
    name: str  # one of E, E+, L, L+, C, C+, X


@dataclass(frozen=True)
class KSet:
    k: int  # the species E_k


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Product:
    left: object
    right: object


@dataclass(frozen=True)
class Compose:
    left: object
    right: object


@dataclass(frozen=True)
class Iterate:
    base: object
    times: int


_ATOM_SEQUENCES = {
    "E": seq_sets,
    "E+": seq_sets_nonempty,
    "L": seq_lists,
    "L+": seq_lists_nonempty,
    "C": seq_cycles_nonempty,
    "C+": seq_cycles_nonempty,
    "X": lambda order: seq_k_set(order, 1),
}

_COMPOSE = "o∘"  # the spellings of `o`, alone and in `^o`
# The binary operators, loosest first: (token spellings, AST class, rendered text).
_BINARY = (
    ("+", Sum, " + "),
    ("*", Product, " * "),
    (_COMPOSE, Compose, " o "),
)
_LEVEL = {char: level for level, (spellings, _, _) in enumerate(_BINARY) for char in spellings}

# One token per match, tried in this order; `unknown` takes any other
# character, so the matches tile the text. `\s` and `\d` are exactly
# str.isspace and str.isdecimal. A symbol (an operator or a parenthesis) is
# its own kind.
_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<int>\d+)|(?P<ksubscript>E_\d*)"
    f"|(?P<atom>{'|'.join(map(re.escape, sorted(_ATOM_SEQUENCES, key=len, reverse=True)))})"
    f"|(?P<iterate>\\^[{_COMPOSE}]?)|(?P<symbol>[(){re.escape(''.join(_LEVEL))}])|(?P<unknown>.)"
)


def _tokenize(text: str):
    """(kind, value, byte offset) triples in one pass, ending with an end token."""
    tokens, offset = [], 0
    for match in _TOKEN.finditer(text):
        kind, value, pos = match.lastgroup, match.group(), offset
        if kind == "unknown":  # before encoding: a lone surrogate has no UTF-8
            raise ParseError(f"unknown token {value!r}", pos)
        offset += len(value.encode("utf-8"))
        if kind == "space":
            continue
        if value == "^":
            raise ParseError("'^' must be followed by 'o'", pos)
        if kind == "ksubscript":
            value = value[2:]
            if not value:
                raise ParseError("'E_' must be followed by an integer", pos)
        tokens.append((value if kind == "symbol" else kind, value, pos))
    tokens.append(("end", "", offset))
    return tokens


def _integer(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on int() digits, if set
        raise ParseError(f"integer of {len(digits)} digits is too long", pos) from None


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # open parentheses

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expr(self, loosest=0):
        """An atom with its `^o` exponents, then, by precedence climbing, the
        chain of _BINARY operators of level `loosest` or tighter after it."""
        node = self.atom()
        while self.peek()[0] == "iterate":
            self.advance()
            kind, value, pos = self.advance()
            if kind != "int":
                raise ParseError("'^o' needs an integer exponent", pos)
            node = Iterate(node, _integer(value, pos))
        while (level := _LEVEL.get(self.peek()[0], -1)) >= loosest:
            self.advance()
            node = _BINARY[level][1](node, self.expr(level + 1))
        return node

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "atom":
            return Atom(value)
        if kind == "ksubscript":
            return KSet(_integer(value, pos))
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(_TOO_DEEP)
            node = self.expr()
            closing_kind, _, closing_pos = self.advance()
            if closing_kind != ")":
                raise ParseError("unmatched '('", closing_pos)
            self.depth -= 1
            return node
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse(text: str):
    """Parse an expression to its AST, raising ParseError with a byte offset."""
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r}", pos)
    if _operator_depth(node) > MAX_DEPTH:
        raise ParseError(_TOO_DEEP)
    return node


# Each binary AST class's (precedence, rendered text); Iterate binds tightest.
_RENDERED = {cls: (level, text) for level, (_, cls, text) in enumerate(_BINARY, start=1)}


def _operator_depth(expr) -> int:
    """Most operators on a path from expr to an atom, found without recursion."""
    deepest, stack = 0, [(expr, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Iterate):
            stack.append((node.base, depth + 1))
        elif type(node) in _RENDERED:
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return deepest


def render(expr) -> str:
    """Canonical text that parses back to an equal AST."""

    def walk(node, parent_prec, is_right):
        if isinstance(node, Atom):
            return node.name
        if isinstance(node, KSet):
            return f"E_{node.k}"
        if isinstance(node, Iterate):
            prec = len(_BINARY) + 1
            text = f"{walk(node.base, prec, False)}^o{node.times}"
        else:
            prec, op = _RENDERED[type(node)]
            text = walk(node.left, prec, False) + op + walk(node.right, prec, True)
        if prec < parent_prec or (prec == parent_prec and is_right):
            return f"({text})"
        return text

    return walk(expr, 0, False)


def evaluate(expr, order: int = DEFAULT_ORDER) -> CountSeq:
    """Exact coefficients a_0..a_order of the expression."""
    if isinstance(expr, Atom):
        return _ATOM_SEQUENCES[expr.name](order)
    if isinstance(expr, KSet):
        return seq_k_set(order, expr.k)
    if isinstance(expr, Sum):
        return evaluate(expr.left, order) + evaluate(expr.right, order)
    if isinstance(expr, Product):
        return evaluate(expr.left, order) * evaluate(expr.right, order)
    if isinstance(expr, Compose):
        inner = evaluate(expr.right, order)
        if inner[0] != 0:
            raise CompositionConstantTerm(
                f"cannot compose: '{render(expr.right)}' has a nonzero constant term"
            )
        return evaluate(expr.left, order).compose(inner)
    if isinstance(expr, Iterate):
        base = evaluate(expr.base, order)
        if base[0] != 0:
            raise CompositionConstantTerm(
                f"cannot iterate: '{render(expr.base)}' has a nonzero constant term"
            )
        return base.iterate(expr.times)
    raise TypeError(f"not a species expression: {expr!r}")


def evaluate_text(text: str, order: int = DEFAULT_ORDER) -> CountSeq:
    """Parse and evaluate in one step."""
    return evaluate(parse(text), order)
