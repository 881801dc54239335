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
times. The gain-graph route grows the connected blocks of each size from
those one size smaller, inserting one position at a height >= 0 adjacent
to a placed one, so it only visits connected height vectors, each already
of minimum 0, and it counts each partition from per-size block counts. It
keeps those counts, not the blocks. A height vector is one int, a
fixed-width bit field per position, so the children of one parent at one
index and a run of heights are a range of ints. enumerate_connected_blocks
grows the vectors of one size, sorts them and unpacks them onto the label
tuple asked for; height functions share their (label, height) pairs. The
linear route reduces over the integers, which is exact because every pivot
of these graphic systems is +1 or -1, and plans the reduction once per
coefficient rows and coordinate pair, so each gain only shifts the
constants. Both are practical up to about n = 7 and n = 6 respectively.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import repeat
from operator import mul

from .enumeration import set_partitions
from .record import Record


class GainInterval(Record):
    """Integer gain set [lo, hi] of an arrangement x_i - x_j = a, a in [lo, hi]."""

    __slots__ = ("lo", "hi")
    lo: int
    hi: int

    def __post_init__(self):
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)):
            raise ValueError(f"interval bounds must be integers, got {self.lo!r} and {self.hi!r}")
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


# One object per (label, height) pair of ints, shared by every height
# function that holds it. The blocks and bijection images of one label set
# are tens of thousands of height functions but hold a few dozen distinct
# pairs (65 for Catalan m = 3 on 5 labels, heights 0..12).
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}


class HeightFunction(Record):
    """Map from a finite label set to nonnegative integers with minimum 0.

    Stored as (label, height) pairs sorted by label; a pair of ints is taken
    from _PAIRS, so equal pairs are one object. A height function on a
    block describes a candidate flat fragment x_u + h(u) = x_v + h(v); it is
    one flat of the arrangement restricted to the block exactly when the
    induced gain graph is connected.
    """

    __slots__ = ("items",)
    items: tuple[tuple[int, int], ...]

    # Built once per connected block and per bijection image, often 10^5
    # times in a process: the generic Record constructor takes 0.5 us more.
    def __init__(self, items):
        if not items:
            raise ValueError("height function needs a nonempty domain")
        labels = []
        heights = []
        pairs = []
        for pair in items:
            v, h = pair
            labels.append(v)
            heights.append(h)
            # Only pairs of two exact ints are shared: the table, keyed by
            # equality, would give (1, False) the pair (1, 0).
            if type(v) is int and type(h) is int:
                pair = _PAIRS.setdefault(pair, pair)
            pairs.append(pair)
        if labels != sorted(set(labels)):
            raise ValueError("labels must be distinct and sorted")
        # Once every height is an int, a minimum of 0 also rules out negatives.
        if not all(map(isinstance, heights, repeat(int))) or min(heights) != 0:
            raise ValueError("heights must be nonnegative integers with minimum 0")
        object.__setattr__(self, "items", tuple(pairs))


def _field_width(size: int, interval: GainInterval) -> int:
    """Bits per position of a packed height vector on `size` labels.

    A connected block's heights are at most the spanning-tree bound
    (size - 1) * max(|lo|, |hi|), so every height fits in this many bits.
    """
    bound = (size - 1) * max(abs(interval.lo), abs(interval.hi))
    return max(1, bound.bit_length())


def _block_levels(size: int, interval: GainInterval):
    """Yield the height vectors of the connected blocks on r ordered labels,
    each size as a set of packed ints in no order, for r = 1, 2, ..., size.

    A vector packs one _field_width(size, interval)-bit field per position,
    the first position most significant, so numeric order on one size is
    lexicographic order of the vectors. Adjacency depends only on the order
    of the labels, so the vectors serve every label set of this size. A
    block of size r > 1 is a block of size r - 1 with one position inserted
    at some index j, at a height x >= 0 adjacent to a placed position i:
    x = h_i + a when i < j and x = h_i - a otherwise, for a gain a in the
    interval. The child keeps the parent's height 0, so it is normalized.
    Every connected block is reached: its gain graph has at least two
    non-cut vertices (the leaves of a spanning tree), so one of them is not
    its only position of height 0, and removing that one leaves a connected
    block one size smaller, still of minimum 0, from which inserting it
    again at its height, which is >= 0, gives the block back. Every block
    reached is connected, because a vertex adjacent to a connected block
    keeps the block connected. The heights a new position at index j can
    take are one bit mask, built per parent from one prefix and one suffix
    union of the gain ranges of its own heights; a run of them gives children
    that step by the field of index j, so each run is one set.update of a
    range. Only the sorted parents and the set being grown are alive at once.
    """
    level = {0}
    yield level
    if size == 1:
        return  # one label has one block, {0}, at any m: build no window
    lo, hi = interval.lo, interval.hi
    span = max(abs(lo), abs(hi))
    width = _field_width(size, interval)
    field = (1 << width) - 1
    # A reach mask has bit x + span set when height x is adjacent to a placed
    # position: one at height h reaches [h + lo, h + hi] from before the new
    # one, up << h, and [h - hi, h - lo] from after it, down << h.
    window = (1 << (hi - lo + 1)) - 1
    up, down = window << lo + span, window << span - hi
    runs = {}  # reach mask -> _runs of its heights >= 0
    for r in range(2, size + 1):
        parents = sorted(level)  # measured faster than the set's own order
        level = set()
        # Index j of a child is the field from bit places[j] up.
        places = [width * (r - 1 - j) for j in range(r)]
        for packed in parents:
            vector = [packed >> place & field for place in places[1:]]
            # reach[j] for the new position at index j is the prefix union
            # of up over the positions before j and the suffix union of down
            # over those from j on.
            reach = [0]
            for h in vector:
                reach.append(reach[-1] | up << h)
            after = 0
            for j in range(r - 1, -1, -1):
                mask = reach[j] | after
                if j:
                    after |= down << vector[j - 1]
                spans = runs.get(mask)
                if spans is None:
                    spans = runs[mask] = _runs(mask >> span)
                place = places[j]
                step = 1 << place
                base = (packed >> place << place + width) | (packed & step - 1)
                for a, c in spans:
                    level.update(range(base + a * step, base + c * step, step))
        yield level


def _runs(mask: int):
    """The runs of set bits of a reach mask, bit x standing for height x, as
    [a, c) when the heights a, ..., c - 1 are all reachable."""
    runs = []
    while mask:
        low = mask & -mask
        runs.append((low.bit_length() - 1, ((mask + low) & ~mask).bit_length() - 1))
        mask &= mask + low
    return tuple(runs)


# The block counts (0, c_1, ..., c_n) of each interval, for the largest n
# asked of it so far; a smaller n reads a prefix and grows nothing.
_COUNTS: dict[GainInterval, tuple[int, ...]] = {}


@lru_cache(maxsize=None)
def _labelled_blocks(members: tuple[int, ...], interval: GainInterval):
    """The connected blocks on these sorted labels, in lexicographic order of
    their height vectors: the last level of _block_levels, sorted and unpacked
    once per label tuple, so that repeated requests share one result."""
    size = len(members)
    for level in _block_levels(size, interval):
        pass
    width = _field_width(size, interval)
    field = (1 << width) - 1
    places = range(width * (size - 1), -1, -width)
    return tuple(
        HeightFunction(tuple(zip(members, [packed >> place & field for place in places])))
        for packed in sorted(level)
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
    partition, so the top count is always 1. Only the block counts are
    kept: a later call with this n or a smaller one grows no block, so a
    caller that needs several n saves work by asking for the largest first.
    """
    members = _checked_labels(n, labels)
    blocks_of_size = _COUNTS.get(interval, ())
    if len(blocks_of_size) <= n:
        blocks_of_size = _COUNTS[interval] = (0, *map(len, _block_levels(n, interval)))
    counts = Counter()
    for part in set_partitions(members):
        ways = 1
        for block in part:
            ways *= blocks_of_size[len(block)]
        counts[len(part)] += ways
    return dict(sorted(counts.items()))


def _meet_plan(rows, direction):
    """How a flat whose reduced row echelon form has the coefficient rows
    `rows` meets the hyperplanes direction . x = a, for every gain a at once.

    Returns (factors, sign, clears, position, rows'). Reducing the new row
    against the echelon rows subtracts factors[k] times row k, so the
    reduced constant is a - sum(factors[k] * c_k) for the flat's constants
    c. The reduced coefficients then have a pivot of sign +1 or -1, and the
    row is multiplied by it; row k of the result loses clears[k] times the
    new row, which goes in at `position`; rows' is the result's coefficient
    rows. A sign of 0 means the direction lies in the span of the rows, so
    rows' is rows and each hyperplane holds the flat or misses it. A pivot
    of any other value raises ValueError: this integer elimination is exact
    only for totally unimodular systems, which graphic rows x_i - x_j = a
    form. Nothing here depends on a or on the constants.
    """
    reduced = list(direction)
    factors = []
    pivots = []
    for base in rows:
        col = next(c for c, x in enumerate(base) if x)
        pivots.append(col)
        factor = reduced[col]
        factors.append(factor)
        if factor:
            reduced = [a - factor * b for a, b in zip(reduced, base)]
    col = next((c for c, x in enumerate(reduced) if x), None)
    if col is None:
        return factors, 0, (), 0, rows
    sign = reduced[col]
    if sign == -1:
        reduced = [-x for x in reduced]
    elif sign != 1:
        raise ValueError(f"pivot {sign} in column {col} is not +1 or -1")
    new = tuple(reduced)
    clears = [base[col] for base in rows]
    merged = [
        tuple(a - clear * b for a, b in zip(base, new)) if clear else base
        for base, clear in zip(rows, clears)
    ]
    position = sum(1 for p in pivots if p < col)
    merged.insert(position, new)
    return factors, sign, clears, position, tuple(merged)


def _meet(plan, constants, gains):
    """The constants of the flat (rows, constants) met with each hyperplane
    direction . x = a, a in gains, for the plan of (rows, direction), which
    has a pivot."""
    factors, sign, clears, position, _ = plan
    shift = sum(map(mul, factors, constants))
    met = []
    for a in gains:
        c = sign * (a - shift)
        new = [x - clear * c for x, clear in zip(constants, clears)]
        new.insert(position, c)
        met.append(tuple(new))
    return met


def enumerate_flats_linear(n: int, interval: GainInterval) -> dict[int, int]:
    """Count flats by closing the hyperplane set under intersection.

    Every flat of rank r + 1 is a flat of rank r met with one hyperplane, so
    meeting each flat of one rank with every hyperplane that cuts it,
    starting from the ambient space, reaches exactly the intersection poset.
    Each flat is kept in its reduced row echelon form over the integers,
    which is exact here because every pivot is +1 or -1; the canonical forms
    are therefore unambiguous. The form is split into its coefficient rows
    and its constants: how a flat meets x_i - x_j = a depends on the rows
    and on (i, j) only (see _meet_plan), so each rows and pair is planned
    once, and each gain a costs one pass over the constants.
    """
    if n < 1:
        raise ValueError("n must be positive")
    gains = range(interval.lo, interval.hi + 1)
    directions = []
    for i in range(n):
        for j in range(i + 1, n):
            direction = [0] * n
            direction[i] = 1
            direction[j] = -1
            directions.append(direction)
    counts = {n: 1}
    # The flats of one rank: coefficient rows -> the set of constant tuples.
    level = {(): {()}}
    for rank in range(1, n):
        grown = {}
        for rows, constant_set in level.items():
            for direction in directions:
                plan = _meet_plan(rows, direction)
                if not plan[1]:
                    continue  # each hyperplane holds the flat or misses it
                met = grown.setdefault(plan[-1], set())
                for constants in constant_set:
                    met.update(_meet(plan, constants, gains))
        level = grown
        counts[n - rank] = sum(map(len, level.values()))
    return dict(sorted(counts.items()))
