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

The inverse maps still assemble every tree, but return the equal structure
object that the enumeration already holds whenever there is one, so the
results of many round trips share the enumeration's trees and subtrees
instead of each holding a copy. Only structures whose labels are all exact
ints are shared, as with the (label, height) pairs of HeightFunction: a
table keyed by equality would give the label True the structures of 1.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, permutations, product
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
    """Blocks of equal height in increasing height order, the gap sequence,
    and whether every label is an exact int.

    Each block lists its labels ascending: h.items is sorted by label, and
    the sort by height is stable.
    """
    blocks, gaps = [], []
    last = None
    exact = True
    for v, height in sorted(h.items, key=itemgetter(1)):
        if height != last:
            if blocks:
                gaps.append(height - last)
            block = []
            blocks.append(block)
            last = height
        block.append(v)
        if type(v) is not int:
            exact = False
    return blocks, gaps, exact


def _assemble(leaf_runs, cuts, m):
    """The depth-m structure whose height-1 nodes hold the leaf runs in order.

    Keeps one open child list per height 1..m, the node of height t at
    index t - 1. A cut of level c before a run closes the open nodes of
    heights 1..c-1, each into its parent, so the run starts a new subtree
    under the open node of height c. The last step closes every node below
    the root. The tree is built anew each time; the inverse maps then return
    the equal structure from _ENUMERATED in its place, when there is one and
    the labels are exact ints.
    """
    open_nodes = [[] for _ in range(m)]
    bottom = open_nodes[0]
    bottom += leaf_runs[0]
    for run, c in zip(islice(leaf_runs, 1, None), cuts):
        if c > 1:
            below = bottom
            for node in open_nodes[1:c]:
                node.append(tuple(below))
                below.clear()
                below = node
        bottom += run
    below = bottom
    for node in open_nodes[1:]:
        node.append(tuple(below))
        below = node
    return tuple(below)


def height_to_catalan_structure(h: HeightFunction, m: int):
    """The unique depth-m set-leaf structure whose height function is h.

    Raises NotConnected when some gap exceeds m, i.e. when h is not a flat
    of the m-extended symmetric-interval arrangement. Each block of equal
    height is one leaf, and the gap before a block is the height of its
    lowest common ancestor with the previous leaf.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    blocks, gaps, exact = _levels(h)
    if gaps and max(gaps) > m:
        raise NotConnected(f"gap {max(gaps)} exceeds {m}")
    runs = [(frozenset(block),) for block in blocks]
    s = runs[0][0] if m == 0 else _assemble(runs, gaps, m)
    return _ENUMERATED.get(s, s) if exact else s


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
    blocks, gaps, exact = _levels(h)
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
    s = _assemble([block[::-1] for block in blocks], cuts, m)
    return _ENUMERATED.get(s, s) if exact else s


def _set_leaf(labels):
    """The depth-0 Catalan structure: one set leaf."""
    return (frozenset(labels),)


def _permutations(labels):
    """The depth-1 Shi structures: the labels in every order."""
    return tuple(permutations(labels))


# Every structure _structures has returned on labels that are all exact ints,
# mapped to itself. The inverse maps return these objects, whose subtrees the
# enumeration already shares, in place of the equal trees they assemble.
_ENUMERATED: dict = {}


# typed=True keys the cache on the type of every label as well, because the
# labels are passed one by one: a key of equal labels alone would give the
# label True the structures of 1.
@lru_cache(maxsize=None, typed=True)
def _structures(depth: int, base, *labels):
    """Structures with `depth` levels of ordered set partitions above the
    base case base(block): _set_leaf gives the depth-`depth` Catalan
    structures, _permutations the depth-(`depth` + 1) Shi ones. When every
    label is an exact int, each of them, the depth-0 ones included, goes
    into _ENUMERATED."""
    if depth == 0:
        out = base(labels)
    else:
        out = []
        for parts in ordered_set_partitions(labels):
            children = [_structures(depth - 1, base, *block) for block in parts]
            out.extend(product(*children))
        out = tuple(out)
    if all(type(v) is int for v in labels):
        _ENUMERATED.update(zip(out, out))
    return out


def enumerate_catalan_structures(labels, m: int):
    """All depth-m set-leaf structures on the labels; m = 0 gives the single
    one-leaf structure."""
    key = sorted_labels(labels)
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _structures(m, _set_leaf, *key)


def enumerate_nested_lists(labels, m: int):
    """All depth-m singleton-leaf structures on the labels (m >= 1)."""
    key = sorted_labels(labels)
    if m < 1:
        raise ValueError("m must be positive")
    return _structures(m - 1, _permutations, *key)
