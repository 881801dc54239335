"""The expression evaluator that composes through partial-Bell tables.

Each composition and iterate in the expression builds the Bell table of its
inner sequence (CountSeq.compose and CountSeq.iterate), O(order^3) each.
flatcount.dsl.evaluate pushes compositions down to the atoms' O(order^2)
recurrences instead; the tests compare the two, coefficients and errors
alike.
"""

from flatcount.dsl import Atom, Compose, Iterate, KSet, Product, Sum, render
from flatcount.species import (
    CompositionConstantTerm,
    seq_cycles_nonempty,
    seq_k_set,
    seq_lists,
    seq_lists_nonempty,
    seq_sets,
    seq_sets_nonempty,
)

ATOM_SEQUENCES = {
    "E": seq_sets,
    "E+": seq_sets_nonempty,
    "L": seq_lists,
    "L+": seq_lists_nonempty,
    "C": seq_cycles_nonempty,
    "C+": seq_cycles_nonempty,
    "X": lambda order: seq_k_set(order, 1),
}


def evaluate(expr, order):
    """Exact coefficients a_0..a_order of the expression."""
    if isinstance(expr, Atom):
        return ATOM_SEQUENCES[expr.name](order)
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
