"""The gain oracle against facts proved about interval arrangements, with no
other route in between: mirror symmetry, and the Catalan and Shi intervals
as the only ones whose counts are a Riordan array with F' = (1 + pF)(1 + qF).
"""

import pytest

from flatcount.oracle import GainInterval, enumerate_flats_gain
from flatcount.triangles import riordan_columns

N_MAX = 5

# Every [lo, hi] with -3 <= lo <= 1 and lo <= hi <= 3: 25 intervals.
INTERVALS = [(lo, hi) for lo in range(-3, 2) for hi in range(lo, 4)]


def columns(lo, hi, size=N_MAX):
    """The gain oracle's counts (T(n, 1), ..., T(n, n)) for n = 1..size,
    the largest n asked first, as `verify` asks."""
    interval = GainInterval(lo, hi)
    by_n = [enumerate_flats_gain(n, interval) for n in range(size, 0, -1)][::-1]
    return [tuple(counts.get(k, 0) for k in range(1, n + 1)) for n, counts in enumerate(by_n, 1)]


def is_catalan_or_shi(lo, hi):
    # Catalan [-m, m], Shi [1 - m, m] and its mirror [-m, m - 1].
    return abs(lo + hi) <= 1


def test_intervals_cover_both_kinds():
    assert len(INTERVALS) == 25
    assert sum(is_catalan_or_shi(lo, hi) for lo, hi in INTERVALS) == 10


@pytest.mark.parametrize("lo, hi", INTERVALS)
def test_mirror_interval_has_the_same_counts(lo, hi):
    # Relabelling i as n + 1 - i turns x_i - x_j = a (i < j) into
    # x_i' - x_j' = -a with i' < j', so it maps the arrangement of [lo, hi]
    # onto that of [-hi, -lo].
    assert columns(lo, hi) == columns(-hi, -lo)


@pytest.mark.parametrize("lo, hi", [(lo, hi) for lo, hi in INTERVALS if is_catalan_or_shi(lo, hi)])
def test_catalan_and_shi_intervals_are_riordan_arrays(lo, hi):
    length = hi - lo + 1
    assert columns(lo, hi) == list(riordan_columns(length // 2, (length + 1) // 2, N_MAX))


@pytest.mark.parametrize("lo, hi", [(lo, hi) for lo, hi in INTERVALS if not is_catalan_or_shi(lo, hi)])
def test_other_intervals_match_no_riordan_array(lo, hi):
    # A negative control: the oracle tells these intervals apart from the
    # Catalan and Shi ones already at n = 3. For example, [0, 2] has 15
    # one-dimensional flats there against 13 for [-1, 1].
    length = hi - lo + 1
    column = columns(lo, hi, 3)[2]
    for p in range(length + 1):
        for q in range(length + 1):
            assert column != list(riordan_columns(p, q, 3))[2], (p, q)

