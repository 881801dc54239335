"""Triangular count matrices and the flat-count formulas built from them.

All matrices here are square truncations of infinite unitriangular
matrices, stored with rows indexed by flat dimension k and columns by
ambient dimension n. That is the transpose of the familiar lower-triangular
number-triangle layout, so the matrices are upper triangular; truncation at
any size is exact because no discarded entry can reach a kept one.

The two generators are the Stirling matrices: entry (k, n) of
stirling2_matrix is S(n, k) and of stirling1_matrix is c(n, k), unsigned.
Their product lah_matrix holds the Lah numbers, and the flat counts of the
extended arrangements are matrix words in these:

    shi_triangle(m)     = lah_matrix ** m
    catalan_triangle(m) = lah_matrix ** m  @  stirling2_matrix

so entry (k, n) counts the k-dimensional flats of the n-dimensional
arrangement with parameter m.

Those two functions multiply the words out and serve as the reference.
The command line reads each word column by column from a recurrence of its
entries instead, O(size^2) for every m: column n of the word is the
n-dimensional arrangement's flat counts by dimension. Both words are
exponential Riordan arrays [1, F] whose F' is (1 + p F)(1 + q F) for two
integers p and q. With u = e^x - 1:

    (S c)^m    F = x / (1 - m x)   F' = (1 + m F)^2              (p, q) = (m, m)
    (S c)^m S  F = u / (1 - m u)   F' = (1 + m F)(1 + (m+1) F)   (p, q) = (m, m+1)

For Shi, 1 + m F = 1 / (1 - m x) and F' = 1 / (1 - m x)^2. For Catalan,
F' = (1 + u) / (1 - m u)^2, where 1 + m F = 1 / (1 - m u) and
1 + (m+1) F = (1 + u) / (1 - m u); braid is Catalan at m = 0. With F' a
quadratic in F, the production matrix of [1, F] is tridiagonal (Deutsch,
Ferrari and Rinaldi, "Production matrices and Riordan arrays", Ann. Comb.
13 (2009)), and riordan_columns(p, q) yields the array's columns in order,
each from the one before by the three-term recurrence

    T(n, k) = T(n-1, k-1) + (p+q) k T(n-1, k) + pq k(k+1) T(n-1, k+1).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat
from math import factorial
from operator import mul

from .record import Record

# Default truncation order for sequences and triangles; covers every shipped
# reference table with headroom.
DEFAULT_ORDER = 12


class Triangle(Record):
    """Upper-triangular matrix of counts T(k, n), 1 <= k, n <= size."""

    __slots__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        size = len(self.rows)
        for k, row in enumerate(self.rows, start=1):
            if len(row) != size:
                raise ValueError(f"row {k} has length {len(row)}, expected {size}")
            if not all(map(isinstance, row, repeat(int))) or min(row) < 0:
                raise ValueError(f"row {k}: entries must be nonnegative integers")
            if any(row[: k - 1]):
                raise ValueError(f"row {k}: entries below the diagonal must be 0")

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, k: int, n: int) -> int:
        """T(k, n) with 1-based indices."""
        if not (1 <= k <= self.size and 1 <= n <= self.size):
            raise ValueError(f"indices ({k}, {n}) outside 1..{self.size}")
        return self.rows[k - 1][n - 1]

    def column(self, n: int) -> tuple[int, ...]:
        """Counts by dimension k = 1..n for the n-dimensional arrangement."""
        if not 1 <= n <= self.size:
            raise ValueError(f"column {n} outside 1..{self.size}")
        return tuple(self.rows[k - 1][n - 1] for k in range(1, n + 1))


def _build(size, entry_fn) -> Triangle:
    return Triangle(
        tuple(
            tuple(entry_fn(k, n) if k <= n else 0 for n in range(1, size + 1))
            for k in range(1, size + 1)
        )
    )


def identity_triangle(size: int) -> Triangle:
    return _build(size, lambda k, n: 1 if k == n else 0)


def _stirling_recurrence(size, weight) -> Triangle:
    """Entry (k, n) = T(n, k), where T(0, 0) = 1, T(n, 0) = 0 for n > 0 and
    T(n, k) = T(n-1, k-1) + weight(n, k) * T(n-1, k)."""
    if size < 1:
        raise ValueError("size must be at least 1")
    table = [[0] * (size + 1) for _ in range(size + 1)]
    table[0][0] = 1
    for n in range(1, size + 1):
        for k in range(1, n + 1):
            table[n][k] = table[n - 1][k - 1] + weight(n, k) * table[n - 1][k]
    return Triangle(tuple(col[1:] for col in zip(*table))[1:])  # transposed, index 0 dropped


def stirling2_matrix(size: int = DEFAULT_ORDER) -> Triangle:
    """Entry (k, n) = S(n, k), the number of partitions of [n] into k blocks."""
    return _stirling_recurrence(size, lambda n, k: k)


def stirling1_matrix(size: int = DEFAULT_ORDER) -> Triangle:
    """Entry (k, n) = c(n, k), the number of permutations of [n] with k cycles."""
    return _stirling_recurrence(size, lambda n, k: n - 1)


def riordan_columns(p: int, q: int, size: int = DEFAULT_ORDER) -> Iterator[tuple[int, ...]]:
    """Columns (T(n, 1), ..., T(n, n)) for n = 1..size of the array with
    F' = (1 + p F)(1 + q F), each from the one before by the three-term
    recurrence above, starting from T(0, 0) = 1: (S c)^m for (p, q) = (m, m),
    (S c)^m S for (m, m + 1). O(size^2) for every p and q; (0, 0) gives the
    identity, (0, 1) the Stirling numbers of the second kind.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    a = [(p + q) * k for k in range(size + 1)]
    b = [p * q * k * (k + 1) for k in range(size + 1)]
    column = [1, 0]  # T(n, k) for k = 0..n+1, here n = 0
    for n in range(1, size + 1):
        column = [0] + [
            column[k - 1] + a[k] * column[k] + b[k] * column[k + 1] for k in range(1, n)
        ] + [1, 0]  # T(n, n) = 1
        yield tuple(column[1:-1])


def mat_mul(a: Triangle, b: Triangle) -> Triangle:
    """Product in the (k, n) orientation: (AB)(k, n) = sum_j A(k, j) B(j, n).

    Both factors are upper triangular, so only the band k <= j <= n
    contributes; b is transposed once so each entry is one slice product.
    """
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    columns = tuple(zip(*b.rows))
    rows = []
    for k0, row in enumerate(a.rows):
        band = row[k0:]  # map() stops at the end of the shorter column slice
        entries = (
            sum(map(mul, band, column[k0 : n0 + 1]))
            for n0, column in enumerate(columns[k0:], k0)
        )
        rows.append((0,) * k0 + tuple(entries))
    return Triangle(tuple(rows))


def mat_pow(a: Triangle, exponent: int) -> Triangle:
    """exponent-fold product of a with itself; exponent 0 gives the identity.

    Uses binary powering: exponent.bit_length() - 1 squarings and one product
    for each set bit after the first, so the cost grows with log(exponent).
    The running result starts at the power of a for the lowest set bit, not
    at the identity, which would hold one more triangle in memory.
    """
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    if exponent == 0:
        return identity_triangle(a.size)
    power, result = a, None  # power is a ** (2 ** bit)
    while True:
        if exponent & 1:
            result = power if result is None else mat_mul(result, power)
        exponent >>= 1
        if not exponent:
            return result
        power = mat_mul(power, power)


def lah_matrix(size: int = DEFAULT_ORDER) -> Triangle:
    """Entry (k, n) = Lah(n, k), via the Stirling factorization S * c."""
    return mat_mul(stirling2_matrix(size), stirling1_matrix(size))


def shi_triangle(m: int, size: int = DEFAULT_ORDER) -> Triangle:
    """Flat counts of the extended Shi arrangements: the m-th power of the Lah matrix.

    m = 0 is the empty arrangement, whose only flat is the ambient space;
    that extension returns the identity matrix.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return mat_pow(lah_matrix(size), m)


def catalan_triangle(m: int, size: int = DEFAULT_ORDER) -> Triangle:
    """Flat counts of the extended Catalan arrangements: (S c)^m S.

    m = 0 gives the braid arrangement, i.e. the Stirling-2 matrix.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return mat_mul(mat_pow(lah_matrix(size), m), stirling2_matrix(size))


def shi_count_closed(m: int, n: int, k: int) -> int:
    """Closed form for the k-dimensional flat count of the n-dimensional
    m-extended Shi arrangement: m^(n-k) * n! (n-1)! / (k! (k-1)! (n-k)!)."""
    if m < 1:
        raise ValueError("m must be positive")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    lah = (factorial(n) * factorial(n - 1)) // (
        factorial(k) * factorial(k - 1) * factorial(n - k)
    )
    return m ** (n - k) * lah


def lah_power_closed(m: int, size: int = DEFAULT_ORDER) -> Triangle:
    """Entry (k, n) = m^(n-k) * Lah(n, k): the closed form of the m-th Lah-matrix power."""
    if m < 1:
        raise ValueError("m must be positive")
    return _build(size, lambda k, n: shi_count_closed(m, n, k))


def total_flats(triangle: Triangle, n: int) -> int:
    """Total number of flats of the n-dimensional arrangement: the n-th column sum."""
    return sum(triangle.column(n))
