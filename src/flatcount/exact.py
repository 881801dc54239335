"""Exact arithmetic base layer.

Counts are plain Python ints (arbitrary precision, never rounded).
Rendering a count for output is just str(value): decimal digits, no
separators.
"""

from __future__ import annotations

import math

# Default truncation order for sequences and triangles; covers every shipped
# reference table with headroom.
DEFAULT_ORDER = 12


def factorial(n: int) -> int:
    """n! as an exact integer; n must be a nonnegative integer."""
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; zero when k > n."""
    return math.comb(n, k)
