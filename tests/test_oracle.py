from itertools import product

import pytest

from flatcount.oracle import (
    ConnectedPartition,
    GainInterval,
    HeightFunction,
    connected_partitions,
    enumerate_connected_blocks,
    enumerate_flats_gain,
    enumerate_flats_linear,
    is_connected_block,
    _add_row,
    _pivot,
)
from flatcount.triangles import catalan_triangle, shi_triangle
from reference_counts import TRIANGLES_5


def hf(mapping):
    return HeightFunction.from_dict(mapping)


def test_interval_validation():
    with pytest.raises(ValueError):
        GainInterval(2, 1)
    assert GainInterval.catalan(2) == GainInterval(-2, 2)
    assert GainInterval.shi(3) == GainInterval(-2, 3)
    assert GainInterval.braid() == GainInterval(0, 0)
    assert GainInterval(-1, 2).span == 2
    with pytest.raises(ValueError):
        GainInterval.shi(0)


def test_height_function_validation():
    with pytest.raises(ValueError):
        HeightFunction(())
    with pytest.raises(ValueError):
        hf({1: 1, 2: 2})  # minimum not zero
    with pytest.raises(ValueError):
        HeightFunction(((2, 0), (1, 1)))  # unsorted
    with pytest.raises(ValueError):
        HeightFunction(((1, 0), (1, 0)))  # duplicate label
    with pytest.raises(ValueError):
        HeightFunction(((1, 0), (2, -1)))  # negative height
    with pytest.raises(ValueError):
        HeightFunction(((1, 0.0),))  # not an int
    assert hf({2: 1, 1: 0}).labels == (1, 2)
    assert HeightFunction(((1, False),)).items == ((1, False),)  # bool is an int


def test_is_connected_block_pairs():
    assert is_connected_block(hf({1: 0, 2: 1}), GainInterval(-1, 1))
    assert not is_connected_block(hf({1: 1, 2: 0}), GainInterval(1, 1))
    assert not is_connected_block(hf({2: 0, 1: 1}), GainInterval(0, 1))


def test_pair_connectivity_matches_order_criterion():
    # For two labels under the [0, 1] gains, the height class is connected
    # exactly when the jump is 0 or goes up by 1 from the smaller label;
    # check every normalized assignment.
    interval = GainInterval(0, 1)
    for h1, h2 in product(range(2), repeat=2):
        if min(h1, h2) != 0:
            continue
        block = hf({1: h1, 2: h2})
        assert is_connected_block(block, interval) == (h2 - h1 in (0, 1))


def test_enumerate_connected_blocks_small():
    for interval in (GainInterval(0, 0), GainInterval(-3, 3), GainInterval(0, 2)):
        assert enumerate_connected_blocks([1], interval) == (hf({1: 0}),)
    assert len(enumerate_connected_blocks([1, 2], GainInterval(-1, 1))) == 3
    assert len(enumerate_connected_blocks([1, 2, 3], GainInterval(0, 1))) == 6


def test_enumerate_connected_blocks_sorted_and_cached():
    blocks = enumerate_connected_blocks([2, 1], GainInterval(-1, 1))
    vectors = [tuple(h for _, h in b.items) for b in blocks]
    assert vectors == sorted(vectors)
    assert blocks is enumerate_connected_blocks((1, 2), GainInterval(-1, 1))


def _scanned_blocks(labels, interval):
    """Height vectors of the connected blocks on the labels, found by scanning
    every normalized vector up to the spanning-tree bound (r - 1) * span."""
    bound = (len(labels) - 1) * interval.span
    return [
        heights
        for heights in product(range(bound + 1), repeat=len(labels))
        if 0 in heights and is_connected_block(hf(dict(zip(labels, heights))), interval)
    ]


def _grown_blocks(labels, interval):
    blocks = enumerate_connected_blocks(labels, interval)
    assert all(b.labels == tuple(sorted(labels)) for b in blocks)
    return [tuple(h for _, h in b.items) for b in blocks]


@pytest.mark.parametrize(
    "lo, hi", [(0, 0), (-1, 1), (-2, 2), (0, 1), (-1, 2), (-2, 3), (1, 2), (-2, -1)]
)
def test_grown_blocks_match_grid_scan(lo, hi):
    interval = GainInterval(lo, hi)
    for r in range(1, 6):
        labels = tuple(range(1, r + 1))
        assert _grown_blocks(labels, interval) == _scanned_blocks(labels, interval)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_grown_blocks_on_scattered_labels_shi(m):
    # Shi gains are asymmetric, so the heights must land on the labels in
    # their sorted order, whatever order the labels are given in.
    interval = GainInterval.shi(m)
    expected = _scanned_blocks((3, 12, 25, 40), interval)
    assert _grown_blocks((3, 12, 25, 40), interval) == expected
    assert _grown_blocks([40, 3, 25, 12], interval) == expected


def test_flats_gain_small_cases():
    assert enumerate_flats_gain(3, GainInterval(-1, 1)) == {1: 13, 2: 9, 3: 1}
    assert enumerate_flats_gain(4, GainInterval(-1, 2)) == {1: 192, 2: 144, 3: 24, 4: 1}
    assert enumerate_flats_gain(1, GainInterval(-5, 9)) == {1: 1}


def test_flats_gain_braid_is_stirling():
    assert enumerate_flats_gain(5, GainInterval(0, 0)) == {1: 1, 2: 15, 3: 25, 4: 10, 5: 1}


def test_flats_gain_matches_triangles():
    for (family, m), rows in TRIANGLES_5.items():
        if family == "shi" and m > 2:
            continue  # the larger sweeps run in the acceptance suite
        interval = GainInterval(1 - m, m) if family == "shi" else GainInterval(-m, m)
        for n in range(1, 5):
            counts = enumerate_flats_gain(n, interval)
            assert tuple(counts.get(k, 0) for k in range(1, n + 1)) == rows[n - 1]


def test_top_flat_unique():
    for n in range(1, 6):
        for interval in (GainInterval(-1, 1), GainInterval(-1, 2), GainInterval(0, 0)):
            assert enumerate_flats_gain(n, interval)[n] == 1


def test_symmetric_relabeling_invariance():
    # With a symmetric gain set the per-size class counts cannot depend on
    # the label values, only on how many labels there are.
    for m in (1, 2):
        interval = GainInterval(-m, m)
        for members in ((1, 2, 3), (2, 5, 9), (7, 11, 40)):
            assert len(enumerate_connected_blocks(members, interval)) == len(
                enumerate_connected_blocks((1, 2, 3), interval)
            )
        assert enumerate_flats_gain(4, interval) == enumerate_flats_gain(
            4, interval, labels=(3, 12, 25, 40)
        )


def _levels_of(mapping):
    heights = sorted(set(mapping.values()))
    blocks = [sorted(v for v, h in mapping.items() if h == a) for a in heights]
    gaps = [b - a for a, b in zip(heights, heights[1:])]
    return blocks, gaps


def _max_gap_criterion(mapping, m):
    _, gaps = _levels_of(mapping)
    return max(gaps, default=0) <= m


def _order_gap_criterion(mapping, m):
    blocks, gaps = _levels_of(mapping)
    if max(gaps, default=0) > m:
        return False
    return all(
        min(blocks[i]) < max(blocks[i + 1]) for i, g in enumerate(gaps) if g == m
    )


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", range(1, 4))
def test_connectivity_matches_gap_criteria(n, m):
    labels = tuple(range(1, n + 1))
    for interval, criterion in (
        (GainInterval(-m, m), _max_gap_criterion),
        (GainInterval(1 - m, m), _order_gap_criterion),
    ):
        bound = (n - 1) * interval.span
        for heights in product(range(bound + 1), repeat=n):
            if 0 not in heights:
                continue
            mapping = dict(zip(labels, heights))
            assert is_connected_block(hf(mapping), interval) == criterion(mapping, m), (
                interval,
                mapping,
            )


def test_connected_partitions_listing():
    flats = connected_partitions(3, GainInterval(-1, 1))
    assert len(flats) == 23
    assert sorted(f.dimension for f in flats) == [1] * 13 + [2] * 9 + [3]
    keys = [tuple(b.items for b in f.blocks) for f in flats]
    assert keys == sorted(keys)
    ambient = [f for f in flats if f.dimension == 3]
    assert len(ambient) == 1
    assert all(h == 0 for b in ambient[0].blocks for _, h in b.items)


def test_connected_partition_validation():
    a = hf({1: 0})
    with pytest.raises(ValueError):
        ConnectedPartition((a, a))


def test_flats_linear_single_hyperplane():
    assert enumerate_flats_linear(2, GainInterval(0, 0)) == {1: 1, 2: 1}


def test_flats_linear_matches_gain():
    for interval in (GainInterval(-1, 1), GainInterval(0, 1)):
        for n in range(1, 4):
            assert enumerate_flats_linear(n, interval) == enumerate_flats_gain(n, interval)


@pytest.mark.parametrize("lo, hi", [(-1, 1), (0, 1), (-1, 2)])
def test_flats_linear_at_n5(lo, hi):
    interval = GainInterval(lo, hi)
    counts = enumerate_flats_linear(5, interval)
    assert counts == enumerate_flats_gain(5, interval)
    if lo == -hi:
        assert tuple(counts[k] for k in range(1, 6)) == catalan_triangle(hi, 5).column(5)


def test_rref_integer_pivots():
    def rref(rows, ncoords):  # rows added one at a time; None when inconsistent
        echelon = ()
        for row in rows:
            echelon = _add_row(echelon, [_pivot(r, ncoords) for r in echelon], row, ncoords)
            if echelon is None:
                return None
        return echelon

    with pytest.raises(ValueError):
        rref([(2, 1)], 1)  # 2 x_1 = 1 needs a rational row reduction
    assert rref([(1, -1, 3), (-1, 1, 2)], 2) is None
    assert rref([(0, -1, 2), (1, -1, 0)], 2) == ((1, 0, -2), (0, 1, -2))


def test_flats_linear_shi_row():
    assert enumerate_flats_linear(4, GainInterval(0, 1)) == {1: 24, 2: 36, 3: 12, 4: 1}
