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
times. The gain-graph route grows each connected block from one position
along edges of the gain graph, so it only visits connected height vectors,
and it counts each partition from per-size block counts. The linear route
reduces over the integers, which is exact because every pivot of these
graphic systems is +1 or -1. Both are practical up to about n = 6 and
n = 5 respectively.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import product, repeat

from .enumeration import set_partitions


@dataclass(frozen=True)
class GainInterval:
    """Integer gain set [lo, hi] of an arrangement x_i - x_j = a, a in [lo, hi]."""

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

    @classmethod
    def braid(cls) -> "GainInterval":
        return cls(0, 0)

    @property
    def span(self) -> int:
        return max(abs(self.lo), abs(self.hi))

    def __str__(self):
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class HeightFunction:
    """Map from a finite label set to nonnegative integers with minimum 0.

    Stored as (label, height) pairs sorted by label. A height function on a
    block describes a candidate flat fragment x_u + h(u) = x_v + h(v); it is
    one flat of the arrangement restricted to the block exactly when the
    induced gain graph is connected (see is_connected_block).
    """

    items: tuple[tuple[int, int], ...]

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

    def as_dict(self) -> dict[int, int]:
        return dict(self.items)


@dataclass(frozen=True)
class ConnectedPartition:
    """A flat: blocks with height functions partitioning the label set.

    The dimension of the flat equals the number of blocks.
    """

    blocks: tuple[HeightFunction, ...]

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            for v in block.labels:
                if v in seen:
                    raise ValueError(f"label {v} appears in two blocks")
                seen.add(v)
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b.items):
            raise ValueError("blocks must be sorted by label")

    @property
    def dimension(self) -> int:
        return len(self.blocks)


def _tuple_connected(labels, heights, interval) -> bool:
    # Breadth-first reachability with edges u < v iff h(v) - h(u) in the interval.
    r = len(labels)
    if r == 1:
        return True
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


def is_connected_block(block: HeightFunction, interval: GainInterval) -> bool:
    """Whether the gain graph induced by the heights on the block is connected.

    Labels u < v are adjacent exactly when height(v) - height(u) lies in the
    interval; for asymmetric intervals (the Shi case) the label order matters.
    """
    return _tuple_connected(block.labels, tuple(h for _, h in block.items), interval)


@lru_cache(maxsize=None)
def _connected_blocks(size: int, interval: GainInterval) -> tuple[tuple[int, ...], ...]:
    """Height vectors of the connected blocks on `size` ordered labels.

    Adjacency depends only on the order of the labels, so the vectors serve
    every label set of this size. The blocks are grown from position 0 at
    height 0: each step attaches an unplaced position j to a placed position
    i through an edge whose gain a lies in the interval, at height h_i + a
    when i < j and h_i - a otherwise. Every connected block is reached, by
    attaching along a spanning tree in breadth-first order from position 0;
    the set of partial assignments drops the other orders that reach it.
    The result is normalized to minimum 0 and in lexicographic order.
    """
    lo, hi = interval.lo, interval.hi
    level = {(0,) + (None,) * (size - 1)}
    for _ in range(size - 1):
        grown = set()
        for heights in level:
            placed = [(i, h) for i, h in enumerate(heights) if h is not None]
            for j, height in enumerate(heights):
                if height is not None:
                    continue
                reach = set()
                for i, h in placed:
                    if i < j:
                        reach.update(range(h + lo, h + hi + 1))
                    else:
                        reach.update(range(h - hi, h - lo + 1))
                head, tail = heights[:j], heights[j + 1 :]
                grown.update([head + (x,) + tail for x in reach])
        level = grown
    blocks = []
    for heights in level:
        low = min(heights)
        blocks.append(tuple(h - low for h in heights))
    blocks.sort()
    return tuple(blocks)


@lru_cache(maxsize=None)
def _labelled_blocks(members: tuple[int, ...], interval: GainInterval):
    """The blocks of _connected_blocks on these sorted labels, built once per
    label tuple so that repeated requests share one result."""
    return tuple(
        HeightFunction(tuple(zip(members, heights)))
        for heights in _connected_blocks(len(members), interval)
    )


def enumerate_connected_blocks(members, interval: GainInterval) -> tuple[HeightFunction, ...]:
    """All normalized height functions on the given labels whose induced gain
    graph is connected, in lexicographic order of the height vectors."""
    key = tuple(sorted(set(members)))
    if not key:
        raise ValueError("a block must be nonempty")
    return _labelled_blocks(key, interval)


def enumerate_flats_gain(n: int, interval: GainInterval, labels=None) -> dict[int, int]:
    """Count flats of the interval arrangement by dimension.

    Runs over all set partitions of the labels (default [n]) and multiplies
    the per-block numbers of connected height classes, which depend only on
    the block sizes; the dimension of a flat is its number of blocks. The
    ambient space appears as the all-singletons partition, so the top count
    is always 1.
    """
    if labels is None:
        if n < 1:
            raise ValueError("n must be positive")
        labels = range(1, n + 1)
    counts = Counter()
    for part in set_partitions(labels):
        ways = 1
        for block in part:
            ways *= len(_connected_blocks(len(block), interval))
        counts[len(part)] += ways
    return dict(sorted(counts.items()))


def connected_partitions(n: int, interval: GainInterval, labels=None) -> list[ConnectedPartition]:
    """The full list of flats, sorted canonically (by block label/height data)."""
    if labels is None:
        if n < 1:
            raise ValueError("n must be positive")
        labels = range(1, n + 1)
    flats = []
    for part in set_partitions(labels):
        choices = [enumerate_connected_blocks(block, interval) for block in part]
        for combo in product(*choices):
            blocks = tuple(sorted(combo, key=lambda b: b.items))
            flats.append(ConnectedPartition(blocks))
    flats.sort(key=lambda f: tuple(b.items for b in f.blocks))
    return flats


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
