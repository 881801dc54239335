import random
from itertools import product

import pytest

from flatcount.bijections import (
    NotConnected,
    catalan_structure_to_height,
    enumerate_catalan_structures,
    enumerate_nested_lists,
    height_to_catalan_structure,
    height_to_shi_structure,
    shi_structure_to_height,
    structure_depth,
)
from flatcount.enumeration import set_partitions
from flatcount.oracle import GainInterval, HeightFunction, enumerate_connected_blocks, enumerate_flats_gain
from flatcount.triangles import catalan_triangle, shi_triangle

# The two worked examples used throughout: a depth-2 set-leaf structure and
# a depth-3 singleton-leaf structure on nine labels.
CATALAN_EXAMPLE = (
    (frozenset({5, 7}), frozenset({3})),
    (frozenset({1, 4, 9}), frozenset({2, 6}), frozenset({8})),
)
CATALAN_HEIGHTS = {5: 0, 7: 0, 3: 1, 1: 3, 4: 3, 9: 3, 2: 4, 6: 4, 8: 5}

SHI_EXAMPLE = (((4, 9), (5,)), ((3,), (7, 1), (6,)), ((8, 2),))
SHI_HEIGHTS = {4: 0, 9: 1, 5: 2, 3: 4, 7: 6, 1: 6, 6: 8, 8: 11, 2: 11}


def hf(mapping):
    return HeightFunction(tuple(sorted(mapping.items())))


def test_structure_helpers():
    assert structure_depth(CATALAN_EXAMPLE) == 2
    assert structure_depth(SHI_EXAMPLE) == 3
    assert structure_depth(frozenset({1, 2})) == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: height_to_catalan_structure(hf({1: 0}), -1), "m must be nonnegative"),
        (lambda: enumerate_catalan_structures((1, 2), -1), "m must be nonnegative"),
    ],
    ids=["to-structure", "enumerate"],
)
def test_argument_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_enumerate_nested_lists_counts():
    assert len(enumerate_nested_lists([1, 2, 3], 2)) == 24
    assert enumerate_nested_lists([7], 3) == ((((7,),),),)
    assert len(enumerate_nested_lists(range(1, 5), 3)) == 648
    with pytest.raises(ValueError):
        enumerate_nested_lists([1, 2], 0)
    for labels in ([], [1, 1, 2]):  # a repeated label is not dropped
        with pytest.raises(ValueError):
            enumerate_nested_lists(labels, 1)


def test_enumerate_catalan_structures_counts():
    assert len(enumerate_catalan_structures([1, 2, 3], 1)) == 13
    assert len(enumerate_catalan_structures([1, 2], 2)) == 5
    assert enumerate_catalan_structures([1, 2], 0) == (frozenset({1, 2}),)
    for labels in ([], [1, 1, 2]):  # a repeated label is not dropped
        with pytest.raises(ValueError):
            enumerate_catalan_structures(labels, 1)


def test_catalan_structure_to_height_example():
    h = catalan_structure_to_height(CATALAN_EXAMPLE)
    assert dict(h.items) == CATALAN_HEIGHTS


def test_catalan_single_leaf():
    assert catalan_structure_to_height((frozenset({1, 2}),)).items == ((1, 0), (2, 0))


def test_height_to_catalan_structure_example():
    assert height_to_catalan_structure(hf(CATALAN_HEIGHTS), 2) == CATALAN_EXAMPLE


def test_height_to_catalan_structure_flat():
    h = hf({1: 0, 2: 0, 3: 0})
    assert height_to_catalan_structure(h, 0) == frozenset({1, 2, 3})
    assert height_to_catalan_structure(h, 2) == ((frozenset({1, 2, 3}),),)


def test_height_to_catalan_structure_rejects_large_gaps():
    with pytest.raises(NotConnected):
        height_to_catalan_structure(hf({1: 0, 2: 3}), 2)


def test_catalan_m2_image_has_37_structures():
    # All height functions on three labels with gaps at most 2 are images.
    interval = GainInterval(-2, 2)
    structures = {
        height_to_catalan_structure(block, 2)
        for block in enumerate_connected_blocks([1, 2, 3], interval)
    }
    assert len(structures) == 37


def test_shi_structure_to_height_example():
    h = shi_structure_to_height(SHI_EXAMPLE)
    assert dict(h.items) == SHI_HEIGHTS


def test_shi_single_leaf():
    assert shi_structure_to_height(((1,),)).items == ((1, 0),)


def test_shi_two_labels():
    images = {shi_structure_to_height(s).items for s in enumerate_nested_lists([1, 2], 1)}
    assert images == {((1, 0), (2, 1)), ((1, 0), (2, 0))}


def test_height_to_shi_structure_example():
    assert height_to_shi_structure(hf(SHI_HEIGHTS), 3) == SHI_EXAMPLE


def test_height_to_shi_structure_descent_decomposition():
    # Distinct consecutive heights with m = 1: blocks are written in
    # decreasing order and concatenated, so ascents mark the block cuts.
    assert height_to_shi_structure(hf({1: 0, 2: 1, 3: 2}), 1) == (1, 2, 3)
    assert height_to_shi_structure(hf({3: 0, 1: 0, 2: 1}), 1) == (3, 1, 2)
    assert height_to_shi_structure(hf({1: 0, 2: 0, 3: 0}), 1) == (3, 2, 1)


def test_height_to_shi_structure_rejects_bad_order():
    with pytest.raises(NotConnected):
        height_to_shi_structure(hf({2: 0, 1: 1}), 1)
    with pytest.raises(NotConnected):
        height_to_shi_structure(hf({1: 0, 2: 3}), 2)
    with pytest.raises(ValueError):
        height_to_shi_structure(hf({1: 0}), 0)


@pytest.mark.parametrize("m", range(0, 3))
def test_catalan_round_trip_and_image(m):
    interval = GainInterval(-m, m)
    for n in range(1, 5):
        labels = tuple(range(1, n + 1))
        structures = enumerate_catalan_structures(labels, m)
        images = set()
        for s in structures:
            h = catalan_structure_to_height(s)
            assert height_to_catalan_structure(h, m) == s
            images.add(h.items)
        assert len(images) == len(structures)
        assert images == {b.items for b in enumerate_connected_blocks(labels, interval)}
        for block in enumerate_connected_blocks(labels, interval):
            s = height_to_catalan_structure(block, m)
            assert catalan_structure_to_height(s) == block


def _leaves(s, depth):
    """The leaf sets of a depth-`depth` Catalan structure, left to right."""
    return [s] if depth == 0 else [leaf for child in s for leaf in _leaves(child, depth - 1)]


@pytest.mark.parametrize("m", range(0, 4))
def test_catalan_round_trip_shares_the_enumerated_leaves(m):
    # The inverse takes each leaf from the enumeration's cache instead of
    # building a new frozenset, so the leaves it returns are those objects.
    for s in enumerate_catalan_structures(range(1, 5), m):
        back = height_to_catalan_structure(catalan_structure_to_height(s), m)
        assert back == s
        assert all(a is b for a, b in zip(_leaves(back, m), _leaves(s, m)))


@pytest.mark.parametrize("m", range(1, 3))
def test_shi_round_trip_and_image(m):
    interval = GainInterval(1 - m, m)
    for n in range(1, 5):
        labels = tuple(range(1, n + 1))
        structures = enumerate_nested_lists(labels, m)
        images = set()
        for s in structures:
            h = shi_structure_to_height(s)
            assert height_to_shi_structure(h, m) == s
            images.add(h.items)
        assert len(images) == len(structures)
        assert images == {b.items for b in enumerate_connected_blocks(labels, interval)}
        for block in enumerate_connected_blocks(labels, interval):
            s = height_to_shi_structure(block, m)
            assert shi_structure_to_height(s) == block


FAMILIES = {
    "catalan": (
        GainInterval.catalan,
        enumerate_catalan_structures,
        catalan_structure_to_height,
        height_to_catalan_structure,
    ),
    "shi": (
        GainInterval.shi,
        enumerate_nested_lists,
        shi_structure_to_height,
        height_to_shi_structure,
    ),
}


@pytest.mark.parametrize("family", ["catalan", "shi"])
def test_round_trip_and_image_m3_scattered_labels(family):
    # The sizes and labels bench/workloads.py runs the round trips on:
    # m = 3, n <= 5, prefixes of sorted labels drawn from 1..60.
    gains, enumerate_structs, to_height, to_structure = FAMILIES[family]
    interval = gains(3)
    rng = random.Random(f"bijections-{family}")
    labels = sorted(rng.sample(range(1, 61), 5))
    for n in range(1, 6):
        members = tuple(labels[:n])
        structures = enumerate_structs(members, 3)
        heights = [to_height(s) for s in structures]
        assert [to_structure(h, 3) for h in heights] == list(structures)
        images = {h.items for h in heights}
        assert len(images) == len(structures)
        blocks = enumerate_connected_blocks(members, interval)
        assert images == {b.items for b in blocks}
        for block in blocks:
            assert to_height(to_structure(block, 3)) == block


# Reference for the inverse maps: split the blocks of equal height
# recursively at the maximal gaps, level by level from the root.


def _reference_levels(h):
    by_height = {}
    for v, height in h.items:
        by_height.setdefault(height, []).append(v)
    heights = sorted(by_height)
    blocks = [tuple(sorted(by_height[a])) for a in heights]
    gaps = [b - a for a, b in zip(heights, heights[1:])]
    return blocks, gaps


def _split_at(blocks, gaps, positions):
    pieces = []
    start = 0
    for pos in list(positions) + [len(gaps)]:
        pieces.append((blocks[start : pos + 1], gaps[start:pos]))
        start = pos + 1
    return pieces


def reference_catalan_structure(h, m):
    blocks, gaps = _reference_levels(h)
    if gaps and max(gaps) > m:
        raise NotConnected

    def build(blocks, gaps, t):
        if t == 0:
            return frozenset(blocks[0])
        cuts = [i for i, g in enumerate(gaps) if g == t]
        return tuple(build(bs, gs, t - 1) for bs, gs in _split_at(blocks, gaps, cuts))

    return build(blocks, gaps, m)


def reference_shi_structure(h, m):
    blocks, gaps = _reference_levels(h)
    if gaps and max(gaps) > m:
        raise NotConnected
    for i, g in enumerate(gaps):
        if g == m and not min(blocks[i]) < max(blocks[i + 1]):
            raise NotConnected

    def build(blocks, gaps, t):
        if t == 1:
            leaves = []
            for block in blocks:
                leaves.extend(sorted(block, reverse=True))
            return tuple(leaves)
        cuts = [
            i
            for i, g in enumerate(gaps)
            if g == t or (g == t - 1 and min(blocks[i]) > max(blocks[i + 1]))
        ]
        return tuple(build(bs, gs, t - 1) for bs, gs in _split_at(blocks, gaps, cuts))

    return build(blocks, gaps, m)


REFERENCES = {
    "catalan": (height_to_catalan_structure, reference_catalan_structure),
    "shi": (height_to_shi_structure, reference_shi_structure),
}


@pytest.mark.parametrize(
    "family,m", [("catalan", m) for m in range(0, 4)] + [("shi", m) for m in range(1, 4)]
)
def test_inverse_matches_recursive_reference(family, m):
    # Every height vector up to 2m + 2, so gaps of m, m + 1 and above occur
    # with and without a descent across them.
    to_structure, reference = REFERENCES[family]
    labels = (3, 12, 25, 40)
    for n in range(1, 5):
        for heights in product(range(2 * m + 3), repeat=n):
            if min(heights) != 0:
                continue
            h = HeightFunction(tuple(zip(labels, heights)))
            try:
                want = reference(h, m)
            except NotConnected:
                with pytest.raises(NotConnected):
                    to_structure(h, m)
                continue
            assert to_structure(h, m) == want


def test_structure_counts_match_triangles():
    for n in range(1, 6):
        labels = range(1, n + 1)
        for m in range(0, 3):
            assert len(enumerate_catalan_structures(labels, m)) == catalan_triangle(
                m, n
            ).entry(1, n)
        for m in range(1, 3):
            assert len(enumerate_nested_lists(labels, m)) == shi_triangle(m, n).entry(1, n)


@pytest.mark.parametrize("family,m", [("catalan", 1), ("catalan", 2), ("shi", 1), ("shi", 2)])
def test_structures_over_partitions_reproduce_flat_counts(family, m):
    # Decorating every block of every set partition with a structure gives
    # all flats, counted by number of blocks.
    if family == "catalan":
        interval, enumerate_structs = GainInterval(-m, m), enumerate_catalan_structures
    else:
        interval, enumerate_structs = GainInterval(1 - m, m), enumerate_nested_lists
    for n in range(1, 5):
        counts = {}
        for part in set_partitions(range(1, n + 1)):
            ways = 1
            for block in part:
                ways *= len(enumerate_structs(block, m))
            counts[len(part)] = counts.get(len(part), 0) + ways
        assert counts == enumerate_flats_gain(n, interval)
