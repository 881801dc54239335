import copy
import pickle
import subprocess
import sys
from itertools import product

import pytest

from flatcount import oracle
from flatcount.bijections import (
    catalan_structure_to_height,
    enumerate_catalan_structures,
    enumerate_nested_lists,
    shi_structure_to_height,
)
from flatcount.cli import FAMILIES
from flatcount.oracle import (
    GainInterval,
    HeightFunction,
    enumerate_connected_blocks,
    enumerate_flats_gain,
    enumerate_flats_linear,
    _meet,
    _meet_plan,
)
from flatcount.triangles import catalan_triangle, riordan_columns, shi_triangle
from launcher import LAUNCHER
from reference_counts import TRIANGLES_5


def hf(mapping):
    return HeightFunction(tuple(sorted(mapping.items())))


def is_connected_block(block: HeightFunction, interval: GainInterval) -> bool:
    """Whether the gain graph induced by the heights on the block is connected:
    the grid-scan reference for the blocks that the oracle grows.

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


def test_interval_validation():
    with pytest.raises(ValueError):
        GainInterval(2, 1)
    assert GainInterval.catalan(2) == GainInterval(-2, 2)
    assert GainInterval.shi(3) == GainInterval(-2, 3)
    assert GainInterval.catalan(0) == GainInterval(0, 0)
    with pytest.raises(ValueError):
        GainInterval.shi(0)
    assert GainInterval(False, True) == GainInterval(0, 1)  # bools are ints


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GainInterval.catalan(-1), "m must be nonnegative"),
        (lambda: enumerate_flats_linear(0, GainInterval(-1, 1)), "n must be positive"),
    ],
    ids=["catalan-interval", "linear-oracle"],
)
def test_argument_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


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
    assert hf({2: 1, 1: 0}).items == ((1, 0), (2, 1))
    assert HeightFunction(((1, False),)).items == ((1, False),)  # bool is an int


def test_height_functions_share_pairs_of_ints_only():
    # A pair is shared only when both values are exactly int: sharing by
    # equality would give (1, False) the pair (1, 0), and (1, 0.0) too.
    assert HeightFunction(((1, 0), (2, 3))).items[1] is HeightFunction(((2, 3), (5, 0))).items[0]
    assert HeightFunction(((1, False),)).items[0][1] is False
    assert HeightFunction(((1, 0),)).items[0][1] is not False
    with pytest.raises(ValueError):
        HeightFunction(((1, 0.0),))
    assert type(HeightFunction(((1, 0),)).items[0][1]) is int  # the refused pair left no trace


def test_height_function_pickle_and_copy_round_trips():
    for block in (hf({1: 0, 5: 2, 9: 1}), HeightFunction(((1, False),))):
        for twin in (pickle.loads(pickle.dumps(block)), copy.deepcopy(block), copy.copy(block)):
            assert twin == block and hash(twin) == hash(block)
            assert twin.items == block.items


@pytest.mark.parametrize(
    "enumerate_structures, to_height, interval, m",
    [
        (enumerate_catalan_structures, catalan_structure_to_height, GainInterval.catalan(2), 2),
        (enumerate_nested_lists, shi_structure_to_height, GainInterval.shi(2), 2),
    ],
)
def test_bijection_images_share_the_blocks_pairs(enumerate_structures, to_height, interval, m):
    labels = (4, 7, 19)
    blocks = {b.items: b for b in enumerate_connected_blocks(labels, interval)}
    for structure in enumerate_structures(labels, m):
        image = to_height(structure)
        block = blocks[image.items]
        assert all(a is b for a, b in zip(image.items, block.items))


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
    bound = (len(labels) - 1) * max(abs(interval.lo), abs(interval.hi))
    return [
        heights
        for heights in product(range(bound + 1), repeat=len(labels))
        if 0 in heights and is_connected_block(hf(dict(zip(labels, heights))), interval)
    ]


def _grown_blocks(labels, interval):
    blocks = enumerate_connected_blocks(labels, interval)
    assert all(tuple(v for v, _ in b.items) == tuple(sorted(labels)) for b in blocks)
    return [tuple(h for _, h in b.items) for b in blocks]


@pytest.mark.parametrize(
    "lo, hi",
    [(0, 0), (-1, 1), (-2, 2), (0, 1), (-1, 2), (-2, 3), (1, 2), (-2, -1), (0, 2), (-3, 1)],
)
def test_grown_blocks_match_grid_scan(lo, hi):
    interval = GainInterval(lo, hi)
    for r in range(1, 6):
        labels = tuple(range(1, r + 1))
        assert _grown_blocks(labels, interval) == _scanned_blocks(labels, interval)


@pytest.mark.parametrize("lo, hi", [(-5, 2), (2, 5), (-7, -3)])
def test_grown_blocks_fill_the_packed_field(lo, hi):
    # Kept apart from the grid scan above, which would take too long at r = 5.
    # At r = 4 the largest height of [-5, 2] and [2, 5] reaches the
    # spanning-tree bound 15 = 2**4 - 1, every bit of a field. Every gain of
    # [-7, -3] is negative, so heights fall along each edge in label order
    # and a block's height 0 is often at its last position alone: growth
    # reaches such a block only by inserting the earlier positions above 0.
    interval = GainInterval(lo, hi)
    for r in range(1, 5):
        labels = tuple(range(1, r + 1))
        assert _grown_blocks(labels, interval) == _scanned_blocks(labels, interval)


@pytest.mark.parametrize("lo, hi, count", [(-7, -3, 25816), (2, 5, 8830)])
def test_grown_blocks_mirror_the_mirrored_interval(lo, hi, count):
    # Past the grid scan's reach, at r = 5. Relabelling i as 6 - i maps the
    # arrangement of [lo, hi] onto that of [-hi, -lo], so each block's height
    # vector, reversed, is a block of the mirrored interval, and back.
    labels = (1, 2, 3, 4, 5)
    grown = {heights[::-1] for heights in _grown_blocks(labels, GainInterval(lo, hi))}
    assert len(grown) == count
    assert grown == set(_grown_blocks(labels, GainInterval(-hi, -lo)))


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


def test_flats_gain_at_n7():
    # Size 7 is one induction step past every other oracle test.
    # Catalan m = 1 is the word with (p, q) = (1, 2), Shi m = 1 the one with (1, 1).
    for interval, q in ((GainInterval(-1, 1), 2), (GainInterval(0, 1), 1)):
        counts = enumerate_flats_gain(7, interval)
        *_, column = riordan_columns(1, q, 7)
        assert tuple(counts.get(k, 0) for k in range(1, 8)) == column


def test_flats_gain_keeps_no_blocks_of_size_n(monkeypatch):
    # An interval no other test asks for, so nothing is kept before.
    interval = GainInterval(-1, 4)
    descending = [enumerate_flats_gain(n, interval) for n in range(5, 0, -1)][::-1]
    # The counts of n = 5 cover every smaller n, so asking again grows nothing.
    monkeypatch.setattr(oracle, "_block_levels", None)
    assert [enumerate_flats_gain(n, interval) for n in range(5, 0, -1)][::-1] == descending
    assert enumerate_flats_gain(4, interval)[4] == 1
    monkeypatch.undo()
    # Growing afresh in ascending order gives the same counts.
    monkeypatch.setattr(oracle, "_COUNTS", {})
    assert [enumerate_flats_gain(n, interval) for n in range(1, 6)] == descending
    # Blocks asked for later are grown and sorted.
    blocks = enumerate_connected_blocks((2, 3, 5, 7, 11), interval)
    vectors = [tuple(h for _, h in b.items) for b in blocks]
    assert vectors == sorted(vectors)
    assert descending[4][1] == len(blocks)


# Counts the flats of Catalan m = 100000 on two labels: 200,001 blocks of
# size 2, each height at most 100000. The address space is capped at 1 GiB,
# so a build that grows with the square of the heights fails fast with
# MemoryError instead of filling the machine's memory.
_LARGE_M_AT_N2 = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from flatcount.oracle import GainInterval, enumerate_flats_gain
print(enumerate_flats_gain(2, GainInterval.catalan(100000)))
"""


def test_flats_gain_at_large_m_takes_memory_of_its_blocks_only():
    # The peak RSS is the child's own rusage, read by the shared launcher.
    command = [sys.executable, "-c", _LARGE_M_AT_N2]
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *command], capture_output=True, timeout=60
    )
    code, peak_kib = map(int, proc.stderr.splitlines()[-1].split())
    assert (code, proc.stdout) == (0, b"{1: 200001, 2: 1}\n"), proc.stderr
    assert peak_kib / 1024 < 100, f"peak RSS {peak_kib / 1024:.1f} MB"


def test_connected_blocks_do_not_depend_on_the_label_values():
    # Adjacency depends only on the order of the labels, so two label tuples
    # of one size give the same height vectors in the same order.
    interval = GainInterval(0, 4)
    first = enumerate_connected_blocks((1, 2, 3, 4, 5), interval)
    relabelled = enumerate_connected_blocks((2, 3, 5, 7, 11), interval)
    assert [b.items[0][0] for b in relabelled] == [2] * len(first)
    assert [[h for _, h in b.items] for b in relabelled] == [
        [h for _, h in b.items] for b in first
    ]


@pytest.mark.parametrize("family", [name for name, row in FAMILIES.items() if row.verify_m_max])
def test_flats_gain_matches_verified_triangles(family):
    # Every family and m that `verify` checks, against the matrix words
    # multiplied out; the largest n first, as `verify` asks.
    row = FAMILIES[family]
    triangle = {"catalan": catalan_triangle, "shi": shi_triangle}[family]
    for m in range(row.m_min, row.verify_m_max + 1):
        interval = row.interval(m)
        words = triangle(m, 6)
        for n in range(6, 0, -1):
            counts = enumerate_flats_gain(n, interval)
            assert tuple(counts.get(k, 0) for k in range(1, n + 1)) == words.column(n)


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


def test_labels_must_be_n_distinct_values():
    interval = GainInterval(-1, 1)
    for labels in ([1, 2], [1, 1, 2], [1, 2, 3, 4], []):
        with pytest.raises(ValueError):
            enumerate_flats_gain(3, interval, labels=labels)
    with pytest.raises(ValueError):
        enumerate_flats_gain(0, interval, labels=[])
    for members in ([1, 1, 2], []):  # a repeated label is not dropped
        with pytest.raises(ValueError):
            enumerate_connected_blocks(members, interval)
    assert enumerate_flats_gain(3, interval, labels=[5, 2, 9]) == enumerate_flats_gain(3, interval)


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
        bound = (n - 1) * max(abs(interval.lo), abs(interval.hi))
        for heights in product(range(bound + 1), repeat=n):
            if 0 not in heights:
                continue
            mapping = dict(zip(labels, heights))
            assert is_connected_block(hf(mapping), interval) == criterion(mapping, m), (
                interval,
                mapping,
            )


def test_flats_linear_single_hyperplane():
    assert enumerate_flats_linear(2, GainInterval(0, 0)) == {1: 1, 2: 1}


def test_flats_linear_matches_gain():
    for interval in (GainInterval(-1, 1), GainInterval(0, 1)):
        for n in range(1, 4):
            assert enumerate_flats_linear(n, interval) == enumerate_flats_gain(n, interval)


@pytest.mark.parametrize("lo, hi", [(1, 2), (-2, -1), (0, 2), (-3, 1)])
def test_flats_linear_matches_gain_off_the_families(lo, hi):
    # Intervals that are neither Catalan nor Shi, one-sided or lopsided, so
    # that a plan which assumed a symmetric or zero-holding gain set fails.
    interval = GainInterval(lo, hi)
    for n in range(1, 5):
        assert enumerate_flats_linear(n, interval) == enumerate_flats_gain(n, interval)


@pytest.mark.parametrize("lo, hi", [(0, 1), (-1, 1)])
def test_flats_linear_at_n6(lo, hi):
    interval = GainInterval(lo, hi)
    assert enumerate_flats_linear(6, interval) == enumerate_flats_gain(6, interval)


@pytest.mark.parametrize("lo, hi", [(-1, 1), (0, 1), (-1, 2)])
def test_flats_linear_at_n5(lo, hi):
    interval = GainInterval(lo, hi)
    counts = enumerate_flats_linear(5, interval)
    assert counts == enumerate_flats_gain(5, interval)
    if lo == -hi:
        assert tuple(counts[k] for k in range(1, 6)) == catalan_triangle(hi, 5).column(5)


def test_rref_integer_pivots():
    def rref(rows):  # rows added one at a time; None when inconsistent
        coefficients, constants = (), ()
        for *direction, a in rows:
            plan = _meet_plan(coefficients, direction)
            factors, sign, *_, coefficients = plan
            if sign:
                (constants,) = _meet(plan, constants, [a])
            elif a != sum(f * c for f, c in zip(factors, constants)):
                return None  # the direction lies in the span, the constant does not
        return tuple(row + (c,) for row, c in zip(coefficients, constants))

    with pytest.raises(ValueError):
        rref([(2, 1)])  # 2 x_1 = 1 needs a rational row reduction
    assert rref([(1, -1, 3), (-1, 1, 2)]) is None
    assert rref([(1, -1, 3), (-1, 1, -3)]) == ((1, -1, 3),)  # the flat lies in the plane
    assert rref([(0, -1, 2), (1, -1, 0)]) == ((1, 0, -2), (0, 1, -2))


def test_flats_linear_shi_row():
    assert enumerate_flats_linear(4, GainInterval(0, 1)) == {1: 24, 2: 36, 3: 12, 4: 1}
