"""Counting sequences of species and their algebra.

A species is represented here only through its counting sequence
a_0, ..., a_N (the number of structures on each label-set size, truncated
at order N). Sum and product act on sequences the way they act on
exponential generating functions. CountSeq.compose computes F o G for any
F through partial Bell polynomials,

    (F o G)_n = sum_k f_k * B_{n,k}(g_1, g_2, ...),

which also gives the Bell transform of a sequence as a Triangle. Its
table of B_{n,k} costs O(N^3) multiplications. It is the general route and
the reference for the faster one below.

When F is one of the atoms of the expression language, F o G has a
recurrence of O(N^2) multiplications, so each atom's sequence below has a
compose_* function beside it (g_0 = 0 throughout):

    E o G   = exp G          h_n = sum_k C(n-1, k-1) g_k h_{n-k},  h_0 = 1
    L o G   = 1 / (1 - G)    h_n = sum_k C(n, k) g_k h_{n-k},      h_0 = 1
    C o G   = -log(1 - G)    H' = G' (L o G),                      h_0 = 0
    E_k o G = G^k / k!       zero when k > N

E+ and L+ are E and L with h_0 = 0, and X o G = G. The expression
evaluator (flatcount.dsl) distributes composition over sum, product and
composition until every composition is an atom composed onto a sequence,
and uses these. All values are exact integers.
"""

from __future__ import annotations

from math import factorial
from operator import add, mul

from .record import Record
from .triangles import DEFAULT_ORDER, Triangle


class CompositionConstantTerm(ValueError):
    """Composition inner operand has a nonzero constant term."""


class CountSeq(Record):
    """Exact counting sequence a_0..a_N of a species, truncated at order N."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a counting sequence needs at least the order-0 coefficient")
        for a in self.coeffs:
            if not isinstance(a, int) or a < 0:
                raise ValueError(f"coefficients must be nonnegative integers, got {a!r}")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def truncate(self, order: int) -> "CountSeq":
        """Restriction to a lower order."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        return CountSeq(self.coeffs[: order + 1])

    def __add__(self, other: "CountSeq") -> "CountSeq":
        _same_order(self, other)
        return CountSeq(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "CountSeq") -> "CountSeq":
        # EGF product: h_n = sum_i C(n, i) f_i g_{n-i}
        _same_order(self, other)
        return CountSeq(tuple(_product(self.coeffs, other.coeffs)))

    def compose(self, inner: "CountSeq") -> "CountSeq":
        """Counting sequence of the substitution self o inner.

        The inner sequence must have a_0 = 0; the order-0 coefficient of the
        result is the outer a_0 (the unique structure on the empty set, when
        the outer species has one).
        """
        _same_order(self, inner)
        if inner.coeffs[0] != 0:
            raise CompositionConstantTerm("inner sequence of a composition must have a_0 = 0")
        return CountSeq(_substitute(self.coeffs, _bell_table(self.order, inner.coeffs)))

    def iterate(self, times: int) -> "CountSeq":
        """times-fold self-composition; 0 gives the singleton species.

        Uses binary powering of composition: the Bell table of the current
        power self^(o 2^bit) is built at most once per bit of times and
        serves both to square that power and to compose it onto the running
        result, so the cost grows with log(times).
        """
        if times < 0:
            raise ValueError("iteration count must be nonnegative")
        if self.coeffs[0] != 0:
            raise CompositionConstantTerm("iterated sequence must have a_0 = 0")
        if times == 0:
            return seq_k_set(self.order, 1)
        power, result = self.coeffs, None
        while True:
            table = None
            if times & 1:
                if result is None:
                    result = power
                else:
                    table = _bell_table(self.order, power)
                    result = _substitute(result, table)
            times >>= 1
            if not times:
                return CountSeq(result)
            if table is None:
                table = _bell_table(self.order, power)
            power = _substitute(power, table)


def _same_order(a: CountSeq, b: CountSeq):
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")


def seq_sets(order: int = DEFAULT_ORDER) -> CountSeq:
    """Sets: one structure on every label set."""
    return CountSeq((1,) * (order + 1))


def seq_sets_nonempty(order: int = DEFAULT_ORDER) -> CountSeq:
    """Nonempty sets: a_0 = 0, otherwise 1."""
    return CountSeq((0,) + (1,) * order)


def seq_k_set(order: int, k: int) -> CountSeq:
    """Sets of size exactly k: a_k = 1 and nothing else. k = 1 is the singleton
    species, the identity for composition."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return CountSeq(tuple(1 if n == k else 0 for n in range(order + 1)))


def seq_lists(order: int = DEFAULT_ORDER) -> CountSeq:
    """Linear orders: a_n = n!."""
    return CountSeq(tuple(factorial(n) for n in range(order + 1)))


def seq_lists_nonempty(order: int = DEFAULT_ORDER) -> CountSeq:
    """Nonempty linear orders: a_0 = 0, a_n = n! otherwise."""
    return CountSeq((0,) + tuple(factorial(n) for n in range(1, order + 1)))


def seq_cycles_nonempty(order: int = DEFAULT_ORDER) -> CountSeq:
    """Nonempty cyclic orders: a_n = (n-1)!."""
    return CountSeq((0,) + tuple(factorial(n - 1) for n in range(1, order + 1)))


def _inner_coeffs(inner: CountSeq):
    if inner.coeffs[0] != 0:
        raise CompositionConstantTerm("inner sequence of a composition must have a_0 = 0")
    return inner.coeffs


def _pascal_rows(count):
    """Rows C(n, 0..n) of Pascal's triangle for n = 0..count-1."""
    row = [1]
    for _ in range(count):
        yield row
        row = [1, *map(add, row, row[1:]), 1]


def _product(a, b):
    """EGF product h_n = sum_i C(n, i) a_i b_{n-i}, as long as a."""
    return [
        sum(map(mul, map(mul, row, a[: n + 1]), reversed(b[: n + 1])))
        for n, row in enumerate(_pascal_rows(len(a)))
    ]


def _unit_recurrence(g, shift):
    """h_0 = 1 and h_n = sum_{k=1..n} C(n - shift, k - shift) g_k h_{n-k}:
    exp G for shift 1, 1 / (1 - G) for shift 0."""
    h = [1]
    rows = _pascal_rows(len(g) + 1)
    if not shift:
        next(rows)
    for n, row in zip(range(1, len(g)), rows):  # row n - shift
        h.append(sum(map(mul, map(mul, row[1 - shift :], g[1 : n + 1]), reversed(h))))
    return h


def compose_sets(inner: CountSeq) -> CountSeq:
    """E o inner = exp(inner), by h_n = sum_k C(n-1, k-1) g_k h_{n-k}."""
    return CountSeq(tuple(_unit_recurrence(_inner_coeffs(inner), 1)))


def compose_sets_nonempty(inner: CountSeq) -> CountSeq:
    """E+ o inner: compose_sets with h_0 = 0."""
    return CountSeq((0,) + tuple(_unit_recurrence(_inner_coeffs(inner), 1)[1:]))


def compose_lists(inner: CountSeq) -> CountSeq:
    """L o inner = 1 / (1 - inner), by h_n = sum_k C(n, k) g_k h_{n-k}."""
    return CountSeq(tuple(_unit_recurrence(_inner_coeffs(inner), 0)))


def compose_lists_nonempty(inner: CountSeq) -> CountSeq:
    """L+ o inner: compose_lists with h_0 = 0."""
    return CountSeq((0,) + tuple(_unit_recurrence(_inner_coeffs(inner), 0)[1:]))


def compose_cycles(inner: CountSeq) -> CountSeq:
    """C o inner = log(1 / (1 - inner)), from H' = G' (L o G) and h_0 = 0."""
    g = _inner_coeffs(inner)
    return CountSeq((0,) + tuple(_product(g[1:], _unit_recurrence(g[:-1], 0))))


def compose_k_set(k: int, inner: CountSeq) -> CountSeq:
    """E_k o inner = inner^k / k!, by binary powering of the EGF product;
    zero at once when k exceeds the order."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    g = _inner_coeffs(inner)
    if k > inner.order:
        return CountSeq((0,) * len(g))
    if k == 0:
        return seq_k_set(inner.order, 0)
    power, result, times = g, None, k
    while True:
        if times & 1:
            result = power if result is None else _product(result, power)
        times >>= 1
        if not times:
            break
        power = _product(power, power)
    scale = factorial(k)
    return CountSeq(tuple(c // scale for c in result))


def _bell_table(order, z):
    """Partial Bell values by column: table[k][n] = B_{n,k} for
    0 <= k, n <= order (zero when k > n), with arguments z_1, z_2, ...
    read from z[1:].

    Written as B_{n,k} = sum_{j=k-1}^{n-1} C(n-1, j) z_{n-j} B_{j,k-1}, the
    weights C(n-1, j) z_{n-j} do not depend on k, so they are built once per
    n (the binomials from the previous Pascal row) and each entry is one
    product of a weight slice with a slice of column k-1.
    """
    table = [[0] * (order + 1) for _ in range(order + 1)]
    table[0][0] = 1
    pascal = [1]  # C(n-1, j) for j = 0..n-1
    for n in range(1, order + 1):
        weights = [c * z[n - j] for j, c in enumerate(pascal)]
        for k in range(1, n + 1):
            table[k][n] = sum(map(mul, weights[k - 1 :], table[k - 1][k - 1 : n]))
        pascal = [1] + [a + b for a, b in zip(pascal, pascal[1:])] + [1]
    return table


def _substitute(outer, table):
    """Coefficients of outer o inner, given the Bell table of inner:
    (outer o inner)_n = sum_k outer_k B_{n,k}; the order-0 term is outer_0."""
    order = len(outer) - 1
    return (outer[0],) + tuple(
        sum(outer[k] * table[k][n] for k in range(1, n + 1)) for n in range(1, order + 1)
    )


def partial_bell(n: int, k: int, z) -> int:
    """Partial Bell polynomial B_{n,k}(z_1, ..., z_{n-k+1}).

    z is indexed from z_1, so z[0] holds z_1. Read from the Bell table with
    zeros past z_{n-k+1}: a partition of n labels into k blocks has no block
    larger than n-k+1, so B_{n,k} does not depend on the padded values.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k == 0 or k > n:
        return 1 if n == k else 0
    if len(z) < n - k + 1:
        raise ValueError(f"need z_1..z_{n - k + 1}, got only {len(z)} arguments")
    padded = (0,) + tuple(z[: n - k + 1]) + (0,) * (k - 1)
    return _bell_table(n, padded)[k][n]


def complete_bell(n: int, z) -> int:
    """Complete Bell polynomial: the sum of B_{n,k} over k = 1..n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    if len(z) < n:
        raise ValueError(f"need z_1..z_{n}, got only {len(z)} arguments")
    table = _bell_table(n, (0,) + tuple(z))
    return sum(table[k][n] for k in range(1, n + 1))


def bell_transform(seq: CountSeq) -> Triangle:
    """Triangle T(k, n) = B_{n,k}(a_1, a_2, ...) of a sequence with a_0 = 0.

    Row k is the counting sequence of k-block set partitions decorated with
    the given structures, i.e. of the composition E_k o F.
    """
    if seq.coeffs[0] != 0:
        raise CompositionConstantTerm("Bell transform needs a_0 = 0")
    size = seq.order
    table = _bell_table(size, seq.coeffs)
    return Triangle(tuple(tuple(table[k][1:]) for k in range(1, size + 1)))
