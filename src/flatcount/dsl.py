"""A small expression language over species, parsed to an AST and evaluated
to counting sequences.

Grammar (whitespace insignificant, `∘` accepted wherever `o` appears):

    expr   ::= term { "+" term }
    term   ::= factor { "*" factor }
    factor ::= power { "o" power }
    power  ::= atom { "^o" INT }
    atom   ::= "E" | "E+" | "E_" INT | "L" | "L+" | "C" | "C+" | "X"
             | "(" expr ")"

`o` is composition and `^o` iterated self-composition; both bind more
tightly than `*`, which binds more tightly than `+`. `o` and `*` associate
to the left. `E+`, `L+`, `C+` and `E_k` are single tokens with no interior
whitespace; `X` is the singleton species, the identity for composition.

Parentheses, and operators on any path from the root to an atom, may nest at
most MAX_DEPTH deep (a sum of MAX_DEPTH + 2 terms is too deep).
"""

from __future__ import annotations

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


# Parsing recurses once per parenthesis and evaluation once per operator;
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


_ATOM_NAMES = ("E", "L", "C", "X")


def _tokenize(text: str):
    tokens = []
    i = 0

    def byte_offset(pos):
        return len(text[:pos].encode("utf-8"))

    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pos = byte_offset(i)
        if ch in "()+*":
            kind = {"(": "lparen", ")": "rparen", "+": "plus", "*": "star"}[ch]
            tokens.append((kind, ch, pos))
            i += 1
            continue
        if ch in ("o", "∘"):
            tokens.append(("compose", ch, pos))
            i += 1
            continue
        if ch == "^":
            if i + 1 >= len(text) or text[i + 1] not in ("o", "∘"):
                raise ParseError("'^' must be followed by 'o'", pos)
            tokens.append(("iterate", text[i : i + 2], pos))
            i += 2
            continue
        if ch.isdecimal():
            start = i
            while i < len(text) and text[i].isdecimal():
                i += 1
            tokens.append(("int", text[start:i], pos))
            continue
        if ch in _ATOM_NAMES:
            if ch != "X" and i + 1 < len(text) and text[i + 1] == "+":
                tokens.append(("atom", ch + "+", pos))
                i += 2
                continue
            if ch == "E" and i + 1 < len(text) and text[i + 1] == "_":
                i += 2
                start = i
                while i < len(text) and text[i].isdecimal():
                    i += 1
                if start == i:
                    raise ParseError("'E_' must be followed by an integer", pos)
                tokens.append(("ksubscript", text[start:i], pos))
                continue
            tokens.append(("atom", ch, pos))
            i += 1
            continue
        raise ParseError(f"unknown token {ch!r}", pos)
    tokens.append(("end", "", byte_offset(len(text))))
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

    def expr(self):
        node = self.term()
        while self.peek()[0] == "plus":
            self.advance()
            node = Sum(node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "star":
            self.advance()
            node = Product(node, self.factor())
        return node

    def factor(self):
        node = self.power()
        while self.peek()[0] == "compose":
            self.advance()
            node = Compose(node, self.power())
        return node

    def power(self):
        node = self.atom()
        while self.peek()[0] == "iterate":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                raise ParseError("'^o' needs an integer exponent", pos)
            self.advance()
            node = Iterate(node, _integer(value, pos))
        return node

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "atom":
            return Atom(value)
        if kind == "ksubscript":
            return KSet(_integer(value, pos))
        if kind == "lparen":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(_TOO_DEEP)
            node = self.expr()
            closing_kind, _, closing_pos = self.advance()
            if closing_kind != "rparen":
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


def _operator_depth(expr) -> int:
    """Most operators on a path from expr to an atom, found without recursion."""
    deepest, stack = 0, [(expr, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Iterate):
            stack.append((node.base, depth + 1))
        elif isinstance(node, (Sum, Product, Compose)):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return deepest


_PREC = {Sum: 1, Product: 2, Compose: 3, Iterate: 4}


def render(expr) -> str:
    """Canonical text that parses back to an equal AST."""

    def walk(node, parent_prec, is_right):
        if isinstance(node, Atom):
            return node.name
        if isinstance(node, KSet):
            return f"E_{node.k}"
        prec = _PREC[type(node)]
        if isinstance(node, Iterate):
            text = f"{walk(node.base, prec, False)}^o{node.times}"
        else:
            op = {Sum: " + ", Product: " * ", Compose: " o "}[type(node)]
            text = walk(node.left, prec, False) + op + walk(node.right, prec, True)
        if prec < parent_prec or (prec == parent_prec and is_right):
            return f"({text})"
        return text

    return walk(expr, 0, False)


_ATOM_SEQUENCES = {
    "E": seq_sets,
    "E+": seq_sets_nonempty,
    "L": seq_lists,
    "L+": seq_lists_nonempty,
    "C": seq_cycles_nonempty,
    "C+": seq_cycles_nonempty,
    "X": lambda order: seq_k_set(order, 1),
}


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
