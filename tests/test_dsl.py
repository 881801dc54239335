import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcount.dsl import (
    MAX_DEPTH,
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
from flatcount.species import CompositionConstantTerm, complete_bell, seq_k_set
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
    for n in range(1, 11):
        assert seq[n] == complete_bell(n, [1] * n)


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
    with pytest.raises(ParseError):
        parse("E o E+ )")
    with pytest.raises(ParseError):
        parse("")


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


@given(expressions(6))
@settings(max_examples=200, deadline=None)
def test_parse_render_round_trip(expr):
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
