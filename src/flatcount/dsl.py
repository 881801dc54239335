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

from .record import Record
from .species import (
    CompositionConstantTerm,
    CountSeq,
    compose_cycles,
    compose_k_set,
    compose_lists,
    compose_lists_nonempty,
    compose_sets,
    compose_sets_nonempty,
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


class Atom(Record):
    __slots__ = ("name",)
    name: str  # one of E, E+, L, L+, C, C+, X


class KSet(Record):
    __slots__ = ("k",)
    k: int  # the species E_k


class Sum(Record):
    __slots__ = ("left", "right")
    left: object
    right: object


class Product(Record):
    __slots__ = ("left", "right")
    left: object
    right: object


class Compose(Record):
    __slots__ = ("left", "right")
    left: object
    right: object


class Iterate(Record):
    __slots__ = ("base", "times")
    base: object
    times: int


# Each atom's counting sequence at an order, and the atom composed onto a
# sequence with a_0 = 0.
_ATOM_SEQUENCES = {
    "E": (seq_sets, compose_sets),
    "E+": (seq_sets_nonempty, compose_sets_nonempty),
    "L": (seq_lists, compose_lists),
    "L+": (seq_lists_nonempty, compose_lists_nonempty),
    "C": (seq_cycles_nonempty, compose_cycles),
    "C+": (seq_cycles_nonempty, compose_cycles),
    "X": (lambda order: seq_k_set(order, 1), lambda inner: inner),
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
    """Exact coefficients a_0..a_order of the expression.

    Composition distributes over sum, product and composition, so the
    expression is evaluated as expr o X from the top down, pushing the
    inner sequence to the atoms, each of which composes onto it by an
    O(order^2) recurrence (see flatcount.species). A composition's inner
    operand F o G has the constant term of F, since g_0 = 0, so each
    constant-term check runs on the pushed-down sequence.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _compose_onto(expr, None, order)


def _compose_onto(expr, inner, order) -> CountSeq:
    """expr o inner, where inner has a_0 = 0 and None stands for X."""
    if isinstance(expr, Atom):
        sequence, compose = _ATOM_SEQUENCES[expr.name]
        return sequence(order) if inner is None else compose(inner)
    if isinstance(expr, KSet):
        return seq_k_set(order, expr.k) if inner is None else compose_k_set(expr.k, inner)
    if isinstance(expr, Sum):
        return _compose_onto(expr.left, inner, order) + _compose_onto(expr.right, inner, order)
    if isinstance(expr, Product):
        return _compose_onto(expr.left, inner, order) * _compose_onto(expr.right, inner, order)
    if isinstance(expr, Compose):
        right = _compose_onto(expr.right, inner, order)
        if right[0] != 0:
            raise CompositionConstantTerm(
                f"cannot compose: '{render(expr.right)}' has a nonzero constant term"
            )
        return _compose_onto(expr.left, right, order)
    if isinstance(expr, Iterate):
        times = expr.times
        repeat = times > 0 and times * _passes(expr.base, order) <= _powering_passes(times, order)
        seq = _compose_onto(expr.base, inner if repeat else None, order)
        if seq[0] != 0:
            raise CompositionConstantTerm(
                f"cannot iterate: '{render(expr.base)}' has a nonzero constant term"
            )
        if repeat:
            for _ in range(times - 1):
                seq = _compose_onto(expr.base, seq, order)
            return seq
        seq = seq.iterate(times)
        if inner is None:
            return seq
        return inner if times == 0 else seq.compose(inner)
    raise TypeError(f"not a species expression: {expr!r}")


# Measured with L+ composed onto sequences of flat counts: a partial-Bell
# table of order N costs about N / 6 + 1 passes of an atom's recurrence, and
# binary powering builds one table per bit of the exponent, plus one to
# compose the power onto the inner sequence. Repeating the base is cheaper
# up to about times = N at order 30 and times = 1.3 N at order 100.
def _powering_passes(times: int, order: int) -> int:
    """Estimated cost of CountSeq.iterate(times) composed onto a sequence,
    in recurrence passes."""
    return (times.bit_length() + 1) * (order // 6 + 1)


def _passes(expr, order: int) -> int:
    """Estimated cost of one expr o G in recurrence passes: one per node,
    and the cheaper route for an iterate."""
    if isinstance(expr, Iterate):
        return min(expr.times * _passes(expr.base, order), _powering_passes(expr.times, order))
    if isinstance(expr, (Sum, Product, Compose)):
        return 1 + _passes(expr.left, order) + _passes(expr.right, order)
    return 1


def evaluate_text(text: str, order: int = DEFAULT_ORDER) -> CountSeq:
    """Parse and evaluate in one step."""
    return evaluate(parse(text), order)
