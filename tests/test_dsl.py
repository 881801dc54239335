import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcount.dsl import (
    MAX_DEPTH,
    MAX_EXPONENT_BITS,
    Atom,
    Compose,
    Iterate,
    KSet,
    ParseError,
    Product,
    Sum,
    evaluate,
    evaluate_text,
    parse,
    render,
)
from flatcount.species import CompositionConstantTerm, seq_k_set
import reference_evaluator
from reference_counts import BELL


def test_parse_catalan_expression():
    assert parse("E o L+^o2 o E+") == Compose(
        Compose(Atom("E"), Iterate(Atom("L+"), 2)), Atom("E+")
    )


def test_parse_subscript():
    assert parse("E_3 o E+") == Compose(KSet(3), Atom("E+"))


def test_parse_grouping_matches_left_association():
    grouped = evaluate(parse("E o (L+ o E+)"), 6)
    flat = evaluate(parse("E o L+ o E+"), 6)
    assert grouped == flat


def test_parse_precedence():
    assert parse("E + L * X o E+") == Sum(
        Atom("E"), Product(Atom("L"), Compose(Atom("X"), Atom("E+")))
    )
    assert parse("L+^o2^o3") == Iterate(Iterate(Atom("L+"), 2), 3)


def test_unicode_compose():
    assert parse("E ∘ E+") == parse("E o E+")
    assert parse("L+^∘2") == parse("L+^o2")


def test_whitespace_insensitive():
    assert parse("EoL+^o2oE+") == parse("E o L+^o2 o E+")
    # Unicode whitespace, multibyte or not, is whitespace like a space
    for space in ("\u3000", "\u2003", "\x1c"):
        assert parse(f"{space}E{space}o(L+^o{space}2)*X{space}+E+{space}") == parse(
            "E o (L+^o2) * X + E+"
        )


@pytest.mark.parametrize(
    "text, message",
    [
        ("E ∘ Q", "unknown token 'Q' (byte offset 6)"),
        ("E ∘ L+^ o", "'^' must be followed by 'o' (byte offset 8)"),
        ("E ∘ E_o", "'E_' must be followed by an integer (byte offset 6)"),
        ("E ∘ L+^o X", "'^o' needs an integer exponent (byte offset 11)"),
        ("(E ∘ E+ E", "unmatched '(' (byte offset 10)"),
        ("E ∘ )", "unexpected token ')' (byte offset 6)"),
        ("E ∘ E+ E", "unexpected token 'E' (byte offset 9)"),
        ("E ∘ ∘ E", "unexpected token '∘' (byte offset 6)"),
        ("∘E", "unexpected token '∘' (byte offset 0)"),
        ("E ∘ ^∘2", "unexpected token '^∘' (byte offset 6)"),
        ("E ∘", "unexpected end of input (byte offset 5)"),
    ],
)
def test_error_offsets_count_bytes(text, message):
    # `∘` is three bytes of UTF-8, so each offset after it is two past its index
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_eval_atoms():
    assert evaluate_text("E", 3).coeffs == (1, 1, 1, 1)
    assert evaluate_text("E+", 3).coeffs == (0, 1, 1, 1)
    assert evaluate_text("L", 4).coeffs == (1, 1, 2, 6, 24)
    assert evaluate_text("L+", 3).coeffs == (0, 1, 2, 6)
    assert evaluate_text("X", 3).coeffs == (0, 1, 0, 0)
    assert evaluate_text("E_2", 3).coeffs == (0, 0, 1, 0)
    assert evaluate_text("C+", 4) == evaluate_text("C", 4)


def test_eval_values():
    assert evaluate_text("E o L+^o2", 4).coeffs == (1, 1, 5, 37, 361)
    assert evaluate_text("E o L+ o E+", 4).coeffs == (1, 1, 4, 23, 173)
    assert evaluate_text("X o L+", 3).coeffs == (0, 1, 2, 6)
    assert evaluate_text("E_2 o E+", 5).coeffs == (0, 0, 1, 3, 7, 15)
    assert evaluate_text("C", 4).coeffs == (0, 1, 1, 2, 6)


def test_eval_bell_numbers():
    seq = evaluate_text("E o E+", 10)
    assert seq.coeffs == BELL


def test_eval_canonical_decomposition():
    total = evaluate_text("E o E+", 8)
    parts = seq_k_set(8, 0)
    for k in range(1, 9):
        parts = parts + evaluate_text(f"E_{k} o E+", 8)
    assert parts == total


def test_eval_rejects_constant_term():
    with pytest.raises(CompositionConstantTerm) as err:
        evaluate_text("E o L")
    assert "'L'" in str(err.value)
    with pytest.raises(CompositionConstantTerm) as err:
        evaluate_text("L^o2")
    assert "'L'" in str(err.value)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("E o Q")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("(E o E+")
    with pytest.raises(ParseError) as err:
        parse("L+^o")
    assert "exponent" in str(err.value)
    with pytest.raises(ParseError):
        parse("E_")
    # str.isdigit() accepts superscripts, which int() rejects
    with pytest.raises(ParseError) as err:
        parse("E_²")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse("L+^o³")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("E o E+ )")
    with pytest.raises(ParseError):
        parse("")
    # Integers past the interpreter's default limit on int() digits, where it
    # has one: the bit bound refuses them before any conversion.
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for text, position in (("E_" + "1" * 5000, 0), ("L+^o" + "1" * 5000, 4)):
                with pytest.raises(ParseError) as err:
                    parse(text)
                assert err.value.position == position
        finally:
            sys.set_int_max_str_digits(limit)


def test_render_canonical():
    assert render(Compose(Compose(Atom("E"), Iterate(Atom("L+"), 1)), Atom("E+"))) == (
        "E o L+^o1 o E+"
    )
    assert render(KSet(3)) == "E_3"
    assert render(Compose(Atom("E"), Compose(Atom("L+"), Atom("E+")))) == "E o (L+ o E+)"
    assert render(Iterate(Sum(Atom("E+"), Atom("X")), 2)) == "(E+ + X)^o2"


atoms = st.sampled_from(
    [Atom(n) for n in ("E", "E+", "L", "L+", "C", "C+", "X")]
) | st.builds(KSet, st.integers(min_value=0, max_value=9))


def expressions(depth):
    if depth == 0:
        return atoms
    sub = expressions(depth - 1)
    return (
        atoms
        | st.builds(Sum, sub, sub)
        | st.builds(Product, sub, sub)
        | st.builds(Compose, sub, sub)
        | st.builds(Iterate, sub, st.integers(min_value=0, max_value=9))
    )


def test_iterate_exponent_bound():
    top = 2**MAX_EXPONENT_BITS - 1
    assert parse(f"L+^o{top}") == Iterate(Atom("L+"), top)
    # Leading zeros, ASCII or not, do not count against the bound.
    assert parse(f"L+^o{'0' * 5000}{top}") == Iterate(Atom("L+"), top)
    assert parse("L+^o" + "٠" * 500 + "٣") == Iterate(Atom("L+"), 3)
    for text in (f"L+^o{top + 1}", f"E o L+^o{'9' * 1_000_000}", "L+^o" + "٣" * 400):
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse(text)
        assert time.perf_counter() - start < 1
        assert err.value.position == text.index("^o") + 2
        assert f"more than {MAX_EXPONENT_BITS} bits" in str(err.value)


def test_set_subscript_bound():
    # E_k shares the ^o exponent's bound and its linear-time check.
    top = 2**MAX_EXPONENT_BITS - 1
    assert parse(f"E_{'0' * 5000}{top}") == KSet(top)
    for text in (f"E o E_{top + 1}", f"E o E_{'9' * 1_000_000}"):
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse(text)
        assert time.perf_counter() - start < 1
        assert err.value.position == text.index("E_")
        assert f"'E_' subscript has more than {MAX_EXPONENT_BITS} bits" in str(err.value)


@given(expressions(6))
@settings(max_examples=200, deadline=None)
def test_parse_render_round_trip(expr):
    assert parse(render(expr)) == expr


# Grammar tokens, a lone '^', Unicode whitespace (U+3000, U+001C), digits int()
# rejects (² ³) and one it accepts (٣).
_TOKENS = ["E", "E+", "E_", "L", "L+", "C", "C+", "X", "o", "∘", "^o", "+", "*",
           "(", ")", " ", "0", "7", "12", "²", "³", "٣", "^", "\u3000", "\x1c"]


@given(st.text() | st.lists(st.sampled_from(_TOKENS)).map("".join))
@settings(max_examples=500, deadline=None)
def test_parse_returns_ast_or_parse_error(text):
    try:
        expr = parse(text)
    except ParseError:
        return
    assert parse(render(expr)) == expr


def test_nesting_limit():
    assert parse("(" * MAX_DEPTH + "E" + ")" * MAX_DEPTH) == Atom("E")
    assert evaluate_text(" + ".join(["X"] * (MAX_DEPTH + 1)), 2).coeffs == (0, MAX_DEPTH + 1, 0)
    assert evaluate_text("L+" + "^o1" * MAX_DEPTH, 3).coeffs == (0, 1, 2, 6)
    right_nested = "(X + " * MAX_DEPTH + "X" + ")" * MAX_DEPTH
    assert evaluate_text(right_nested, 1).coeffs == (0, MAX_DEPTH + 1)
    for text in (
        "(" * (MAX_DEPTH + 1) + "E" + ")" * (MAX_DEPTH + 1),
        " + ".join(["X"] * (MAX_DEPTH + 2)),
        " * ".join(["X"] * (MAX_DEPTH + 2)),
        "L+" + "^o1" * (MAX_DEPTH + 1),
        "X + " + right_nested,
    ):
        with pytest.raises(ParseError, match="^expression nested too deeply$"):
            parse(text)


def test_long_input_fails_fast():
    # Scanning and parsing take time linear in the length of the text
    text = "X ∘ " * 50_000 + "X"
    start = time.perf_counter()
    with pytest.raises(ParseError, match="^expression nested too deeply$"):
        parse(text)
    assert time.perf_counter() - start < 3


_ATOM_NAMES = ("E", "E+", "L", "L+", "C", "C+", "X")
# ^o0, small counts that repeat the base, and counts that only binary
# powering reaches in time
_TIMES = (0, 0, 1, 2, 3, 5, 9, 40, 100_000_000)


def _random_expression(rng, depth):
    """A random AST: every atom, E_k with k past the orders tested, and
    inner operands with a nonzero constant term, so errors occur too."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return KSet(rng.randrange(14))
        return Atom(rng.choice(_ATOM_NAMES))
    kind = rng.choice((Sum, Product, Compose, Compose, Iterate))
    if kind is Iterate:
        return Iterate(_random_expression(rng, depth - 1), rng.choice(_TIMES))
    return kind(_random_expression(rng, depth - 1), _random_expression(rng, depth - 1))


def _outcome(evaluate_fn, expr, order):
    try:
        return "coefficients", evaluate_fn(expr, order).coeffs
    except Exception as err:  # the error is the outcome compared
        return type(err), str(err)


def test_evaluate_matches_bell_table_reference():
    # The pushed-down evaluator against the one that builds a Bell table per
    # composition: equal coefficients, or the same exception and message.
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(600):
        expr = _random_expression(rng, rng.randrange(1, 5))
        order = rng.randrange(11)
        got = _outcome(evaluate, expr, order)
        assert got == _outcome(reference_evaluator.evaluate, expr, order), (render(expr), order)
        outcomes.add(got[0])
    assert outcomes == {CompositionConstantTerm, "coefficients"}


@pytest.mark.parametrize(
    "expr",
    [
        Iterate(Atom("L+"), -1),  # counts no parse can produce
        Iterate(Compose(Atom("E"), Atom("L")), -1),
        Compose(Atom("E"), KSet(-1)),
        Compose(Atom("Q"), Atom("E+")),
        Sum(Atom("E"), "E+"),
        Compose(Sum(Atom("X"), Compose(Atom("E"), Atom("E"))), Compose(Atom("L"), Atom("C"))),
        Iterate(Atom("X"), 10**30),
        Compose(KSet(10**30), Iterate(Sum(Atom("X"), Atom("L+")), 7)),
    ],
)
@pytest.mark.parametrize("order", [0, 1, 6])
def test_evaluate_errors_match_reference(expr, order):
    assert _outcome(evaluate, expr, order) == _outcome(reference_evaluator.evaluate, expr, order)


def test_evaluate_rejects_negative_order():
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        evaluate(Atom("E+"), -1)
