"""Explicit bijections between nested-list structures and flat height functions.

A depth-m nested-list structure is an ordered rooted tree of uniform leaf
depth m, written as nested tuples. In the Catalan family the leaves are
disjoint nonempty frozensets covering the label set; in the Shi family the
leaves are the labels themselves. Depth 0 (Catalan only) is a bare
frozenset.

The correspondence with flats works through the gap sequence of a
structure: reading the leaves left to right, the gap between two adjacent
leaves is the height of the smallest subtree containing both. For the
Catalan family the leaf heights are the partial sums of the gaps, and the
resulting height functions are exactly those whose gaps never exceed m
(connectivity under gains [-m, m]). For the Shi family each gap is first
lowered by one at descents (adjacent leaf values out of increasing order)
and the image is exactly the height functions connected under gains
[1-m, m]. The inverse directions read the blocks of equal height in height
order and assemble the tree in one pass, keeping one open list per height:
the block after a gap starts a new subtree under the open node whose height
is the cut level, and every open node below that level is closed into its
parent. In the Catalan case the cut level is the gap itself; in the Shi
case it is the gap plus one when the lower block's minimum exceeds the upper
block's maximum, so a gap of m with that descent, like any gap above m,
leaves no valid cut and the height function is not a flat.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from operator import itemgetter

from .enumeration import ordered_set_partitions
from .oracle import HeightFunction, sorted_labels


class NotConnected(ValueError):
    """Height function is not a flat of the requested arrangement depth."""


def structure_depth(s) -> int:
    """Leaf depth of a nested-list structure (0 for a bare leaf set)."""
    depth = 0
    while isinstance(s, tuple):
        s = s[0]
        depth += 1
    return depth


def _walk(node, t, gap, leaves, gaps):
    """Append the leaves below a node of height t, each with the gap before
    it: `gap` for the first, the node's own height t between its children."""
    if t == 1:
        leaves.extend(node)
        gaps.append(gap)
        gaps.extend([1] * (len(node) - 1))
        return
    for child in node:
        _walk(child, t - 1, gap, leaves, gaps)
        gap = t


def _leaves_and_gaps(s):
    """Leaves in left-to-right order, each with the gap before it.

    The gap between two neighbouring leaves is the height of their lowest
    common ancestor; the first leaf gets gap 0.
    """
    depth = structure_depth(s)
    if depth == 0:
        return [s], [0]
    leaves, gaps = [], []
    _walk(s, depth, 0, leaves, gaps)
    return leaves, gaps


def catalan_structure_to_height(s) -> HeightFunction:
    """Height function of a set-leaf structure: partial sums of the gaps,
    constant on each leaf set."""
    leaves, gaps = _leaves_and_gaps(s)
    pairs = []
    height = 0
    for leaf, gap in zip(leaves, gaps):
        height += gap
        for v in leaf:
            pairs.append((v, height))
    pairs.sort()
    return HeightFunction(tuple(pairs))


def shi_structure_to_height(s) -> HeightFunction:
    """Height function of a singleton-leaf structure: gaps are lowered by one
    at descents, then summed."""
    leaves, gaps = _leaves_and_gaps(s)
    pairs = []
    height = 0
    prev = leaves[0]
    for v, gap in zip(leaves, gaps):
        height += gap - (prev > v)
        pairs.append((v, height))
        prev = v
    pairs.sort()
    return HeightFunction(tuple(pairs))


def _levels(h: HeightFunction):
    """Blocks of equal height in increasing height order, with the gap sequence.

    Each block lists its labels ascending: h.items is sorted by label, and
    the sort by height is stable.
    """
    blocks, gaps = [], []
    last = None
    for v, height in sorted(h.items, key=itemgetter(1)):
        if height == last:
            block.append(v)
            continue
        if blocks:
            gaps.append(height - last)
        block = [v]
        blocks.append(block)
        last = height
    return blocks, gaps


def _assemble(leaf_runs, cuts, m):
    """The depth-m structure whose height-1 nodes hold the leaf runs in order.

    Keeps one open child list per height 1..m. A cut of level c before a run
    closes the open nodes of heights 1..c-1, each into its parent, so the run
    starts a new subtree under the open node of height c. The last step
    closes every node below the root.
    """
    open_nodes = [[] for _ in range(m + 1)]
    bottom = open_nodes[1]
    bottom += leaf_runs[0]
    for run, c in zip(leaf_runs[1:], cuts):
        if c > 1:
            for t in range(1, c):
                open_nodes[t + 1].append(tuple(open_nodes[t]))
                open_nodes[t].clear()
        bottom += run
    for t in range(1, m):
        open_nodes[t + 1].append(tuple(open_nodes[t]))
    return tuple(open_nodes[m])


def height_to_catalan_structure(h: HeightFunction, m: int):
    """The unique depth-m set-leaf structure whose height function is h.

    Raises NotConnected when some gap exceeds m, i.e. when h is not a flat
    of the m-extended symmetric-interval arrangement. Each block of equal
    height is one leaf, and the gap before a block is the height of its
    lowest common ancestor with the previous leaf.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    blocks, gaps = _levels(h)
    if gaps and max(gaps) > m:
        raise NotConnected(f"gap {max(gaps)} exceeds {m}")
    # Each leaf run is the cached depth-0 structure on its block, the object
    # the enumerated structures hold, so a round trip allocates no leaf.
    runs = [_structures(tuple(block), 0, _set_leaf) for block in blocks]
    if m == 0:
        return runs[0][0]
    return _assemble(runs, gaps, m)


def height_to_shi_structure(h: HeightFunction, m: int):
    """The unique depth-m singleton-leaf structure whose height function is h.

    Each block of equal height is written in decreasing order, and the blocks
    are assembled in height order. The block after a gap g starts a new
    subtree under the lowest common ancestor of height g + 1 when the lower
    block's minimum exceeds the upper block's maximum (a descent across the
    gap), and of height g otherwise. A gap above m, or a gap of m with such
    a descent, has no such ancestor: then h is not a flat of the [1-m, m]
    arrangement and NotConnected is raised.
    """
    if m < 1:
        raise ValueError("m must be positive")
    blocks, gaps = _levels(h)
    if gaps and max(gaps) > m:
        raise NotConnected(f"gap {max(gaps)} exceeds {m}")
    cuts = []
    for lower, upper, g in zip(blocks, blocks[1:], gaps):
        c = g + (lower[0] > upper[-1])
        if c > m:
            raise NotConnected(
                f"gap of {m} between blocks {tuple(lower)} and {tuple(upper)} "
                "needs an increasing pair across it"
            )
        cuts.append(c)
    return _assemble([block[::-1] for block in blocks], cuts, m)


def _set_leaf(labels):
    """The depth-0 Catalan structure: one set leaf."""
    return (frozenset(labels),)


def _permutations(labels):
    """The depth-1 Shi structures: the labels in every order."""
    return tuple(permutations(labels))


@lru_cache(maxsize=None)
def _structures(labels: tuple[int, ...], depth: int, base):
    """Structures with `depth` levels of ordered set partitions above the
    base case base(block): _set_leaf gives the depth-`depth` Catalan
    structures, _permutations the depth-(`depth` + 1) Shi ones."""
    if depth == 0:
        return base(labels)
    out = []
    for parts in ordered_set_partitions(labels):
        children = [_structures(block, depth - 1, base) for block in parts]
        out.extend(product(*children))
    return tuple(out)


def enumerate_catalan_structures(labels, m: int):
    """All depth-m set-leaf structures on the labels; m = 0 gives the single
    one-leaf structure."""
    key = sorted_labels(labels)
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _structures(key, m, _set_leaf)


def enumerate_nested_lists(labels, m: int):
    """All depth-m singleton-leaf structures on the labels (m >= 1)."""
    key = sorted_labels(labels)
    if m < 1:
        raise ValueError("m must be positive")
    return _structures(key, m - 1, _permutations)
