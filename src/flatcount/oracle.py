"""Brute-force oracles for flats of integer-interval gain arrangements.

The arrangements handled here have hyperplanes x_i - x_j = a for i < j and a
ranging over an integer interval [lo, hi]. Two independent enumerations of
the flats are provided:

* the gain-graph route: a flat is a partition of the labels into blocks,
  each block carrying a height function (normalized so its minimum is 0)
  whose induced graph on the block is connected, where i < j are adjacent
  exactly when height(j) - height(i) lies in [lo, hi];

* the linear-algebra route: close the set of hyperplanes under intersection
  with exact integer row reduction and count the distinct nonempty affine
  subspaces by dimension.

Both enumerate every flat, so their cost grows with the number of flats;
they exist to check the matrix formulas, and the README gives measured
times. The gain-graph route builds the connected blocks of each size from
the cached blocks one size smaller, inserting one position adjacent to a
placed one, so it only visits connected height vectors, and it counts each
partition from per-size block counts. The linear route reduces over the
integers, which is exact because every pivot of these graphic systems is +1
or -1. Both are practical up to about n = 7 and n = 5 respectively.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import lru_cache
from itertools import repeat

from .enumeration import set_partitions
from .record import Record


class GainInterval(Record):
    """Integer gain set [lo, hi] of an arrangement x_i - x_j = a, a in [lo, hi]."""

    __slots__ = ("lo", "hi")
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def catalan(cls, m: int) -> "GainInterval":
        if m < 0:
            raise ValueError("m must be nonnegative")
        return cls(-m, m)

    @classmethod
    def shi(cls, m: int) -> "GainInterval":
        if m < 1:
            raise ValueError("m must be positive")
        return cls(1 - m, m)

    def __str__(self):
        return f"[{self.lo},{self.hi}]"


class HeightFunction(Record):
    """Map from a finite label set to nonnegative integers with minimum 0.

    Stored as (label, height) pairs sorted by label. A height function on a
    block describes a candidate flat fragment x_u + h(u) = x_v + h(v); it is
    one flat of the arrangement restricted to the block exactly when the
    induced gain graph is connected (see is_connected_block).
    """

    __slots__ = ("items",)
    items: tuple[tuple[int, int], ...]

    # Built once per connected block and per bijection image, often 10^5
    # times in a process: the generic Record constructor takes 0.5 us more.
    def __init__(self, items):
        object.__setattr__(self, "items", items)
        self.__post_init__()

    def __post_init__(self):
        if not self.items:
            raise ValueError("height function needs a nonempty domain")
        labels = []
        heights = []
        for v, h in self.items:
            labels.append(v)
            heights.append(h)
        if labels != sorted(set(labels)):
            raise ValueError("labels must be distinct and sorted")
        # Once every height is an int, a minimum of 0 also rules out negatives.
        if not all(map(isinstance, heights, repeat(int))) or min(heights) != 0:
            raise ValueError("heights must be nonnegative integers with minimum 0")

    @classmethod
    def from_dict(cls, mapping) -> "HeightFunction":
        return cls(tuple(sorted(mapping.items())))

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.items)


def is_connected_block(block: HeightFunction, interval: GainInterval) -> bool:
    """Whether the gain graph induced by the heights on the block is connected.

    Labels u < v are adjacent exactly when height(v) - height(u) lies in the
    interval; for asymmetric intervals (the Shi case) the label order matters.
    """
    # Breadth-first reachability over the positions in label order.
    heights = [h for _, h in block.items]
    r = len(heights)
    lo, hi = interval.lo, interval.hi
    seen = [False] * r
    seen[0] = True
    queue = [0]
    count = 1
    while queue:
        i = queue.pop()
        hi_i = heights[i]
        for j in range(r):
            if not seen[j]:
                diff = heights[j] - hi_i if i < j else hi_i - heights[j]
                if lo <= diff <= hi:
                    seen[j] = True
                    count += 1
                    queue.append(j)
    return count == r


@lru_cache(maxsize=None)
def _connected_blocks(size: int, interval: GainInterval) -> tuple[tuple[int, ...], ...]:
    """Height vectors of the connected blocks on `size` ordered labels.

    Adjacency depends only on the order of the labels, so the vectors serve
    every label set of this size. A block of size r > 1 is a block of size
    r - 1 with one position inserted at some index j, at a height adjacent
    to a placed position i: h_i + a when i < j and h_i - a otherwise, for a
    gain a in the interval. Every connected block is reached, because
    removing a non-cut vertex, which every connected graph has, leaves a
    connected block one size smaller. Every block reached is connected,
    because a vertex adjacent to a connected block keeps the block connected.
    The result is normalized to minimum 0 and in lexicographic order.
    """
    if size == 1:
        return ((0,),)
    lo, hi = interval.lo, interval.hi
    grown = set()
    for heights in _connected_blocks(size - 1, interval):
        for j in range(size):
            reach = set()
            for i, h in enumerate(heights):
                if i < j:
                    reach.update(range(h + lo, h + hi + 1))
                else:
                    reach.update(range(h - hi, h - lo + 1))
            head, tail = heights[:j], heights[j:]
            for x in reach:
                if x < 0:  # the new position is the lowest: renormalize
                    grown.add(tuple(h - x for h in head) + (0,) + tuple(h - x for h in tail))
                else:
                    grown.add(head + (x,) + tail)
    return tuple(sorted(grown))


@lru_cache(maxsize=None)
def _labelled_blocks(members: tuple[int, ...], interval: GainInterval):
    """The blocks of _connected_blocks on these sorted labels, built once per
    label tuple so that repeated requests share one result."""
    return tuple(
        HeightFunction(tuple(zip(members, heights)))
        for heights in _connected_blocks(len(members), interval)
    )


def sorted_labels(labels) -> tuple[int, ...]:
    """The labels of a block or structure, ascending; ValueError when there
    are none or one repeats."""
    key = tuple(sorted(labels))
    if not key:
        raise ValueError("the label set must be nonempty")
    if len(set(key)) != len(key):
        raise ValueError(f"labels must be distinct, got {key}")
    return key


def enumerate_connected_blocks(members, interval: GainInterval) -> tuple[HeightFunction, ...]:
    """All normalized height functions on the given labels whose induced gain
    graph is connected, in lexicographic order of the height vectors."""
    return _labelled_blocks(sorted_labels(members), interval)


def _checked_labels(n: int, labels):
    """The labels of an n-dimensional arrangement: [n], or n distinct given values."""
    if n < 1:
        raise ValueError("n must be positive")
    if labels is None:
        return range(1, n + 1)
    labels = sorted_labels(labels)
    if len(labels) != n:
        raise ValueError(f"labels must be {n} distinct values")
    return labels


def enumerate_flats_gain(n: int, interval: GainInterval, labels=None) -> dict[int, int]:
    """Count flats of the interval arrangement by dimension.

    Runs over all set partitions of the labels (default [n], else n distinct
    values) and multiplies the per-block numbers of connected height classes,
    which depend only on the block sizes; the dimension of a flat is its
    number of blocks. The ambient space appears as the all-singletons
    partition, so the top count is always 1.
    """
    counts = Counter()
    for part in set_partitions(_checked_labels(n, labels)):
        ways = 1
        for block in part:
            ways *= len(_connected_blocks(len(block), interval))
        counts[len(part)] += ways
    return dict(sorted(counts.items()))


def _pivot(row, ncoords):
    """Column of the first nonzero coordinate of a row, or None."""
    for col in range(ncoords):
        if row[col]:
            return col
    return None


def _add_row(echelon, pivots, row, ncoords):
    """Reduced row echelon form of `echelon` (with pivot columns `pivots`)
    plus one more row, or None when the system becomes inconsistent.

    The row is reduced against the echelon rows; a new pivot must be +1 or
    -1 (a -1 pivot negates the row), and is then cleared from the rows above.
    Anything else raises ValueError: this integer elimination is exact only
    for totally unimodular systems, which graphic rows x_i - x_j = a form.
    """
    for base, col in zip(echelon, pivots):
        factor = row[col]
        if factor:
            row = [a - factor * b for a, b in zip(row, base)]
    col = _pivot(row, ncoords)
    if col is None:
        return echelon if row[ncoords] == 0 else None
    if row[col] == -1:
        row = [-x for x in row]
    elif row[col] != 1:
        raise ValueError(f"pivot {row[col]} in column {col} is not +1 or -1")
    new = tuple(row)
    reduced = [
        tuple(a - base[col] * b for a, b in zip(base, new)) if base[col] else base
        for base in echelon
    ]
    reduced.insert(sum(1 for p in pivots if p < col), new)
    return tuple(reduced)


def enumerate_flats_linear(n: int, interval: GainInterval) -> dict[int, int]:
    """Count flats by closing the hyperplane set under intersection.

    Every flat is an intersection of hyperplanes, so repeatedly intersecting
    known flats with single hyperplanes, starting from the ambient space,
    reaches exactly the intersection poset. Each flat is kept in its reduced
    row echelon form over the integers, which is exact here because every
    pivot is +1 or -1; the canonical forms are therefore unambiguous.
    """
    if n < 1:
        raise ValueError("n must be positive")
    hyperplanes = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for a in range(interval.lo, interval.hi + 1):
                row = [0] * (n + 1)
                row[i - 1] = 1
                row[j - 1] = -1
                row[n] = a
                hyperplanes.append(row)
    ambient = ()
    dimensions = {ambient: n}
    queue = deque([ambient])
    while queue:
        base = queue.popleft()
        pivots = [_pivot(row, n) for row in base]
        for plane in hyperplanes:
            candidate = _add_row(base, pivots, plane, n)
            if candidate is None or candidate in dimensions:
                continue
            dimensions[candidate] = n - len(candidate)
            queue.append(candidate)
    return dict(sorted(Counter(dimensions.values()).items()))
