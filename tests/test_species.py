from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcount.enumeration import set_partitions
from flatcount.exact import binomial, factorial
from flatcount.species import (
    CompositionConstantTerm,
    CountSeq,
    bell_transform,
    complete_bell,
    partial_bell,
    seq_cycles_nonempty,
    seq_k_set,
    seq_lists,
    seq_lists_nonempty,
    seq_sets,
    seq_sets_nonempty,
)
from reference_counts import STIRLING1_5


def test_constructors():
    assert seq_sets(3).coeffs == (1, 1, 1, 1)
    assert seq_sets(0).coeffs == (1,)
    assert seq_sets_nonempty(3).coeffs == (0, 1, 1, 1)
    assert seq_k_set(4, 2).coeffs == (0, 0, 1, 0, 0)
    assert seq_lists(4).coeffs == (1, 1, 2, 6, 24)
    assert seq_lists_nonempty(3).coeffs == (0, 1, 2, 6)
    assert seq_cycles_nonempty(4).coeffs == (0, 1, 1, 2, 6)


def test_countseq_validation():
    with pytest.raises(ValueError):
        CountSeq(())
    with pytest.raises(ValueError):
        CountSeq((1, -1))


def test_sum():
    a = CountSeq((1, 1, 1))
    b = CountSeq((0, 1, 2))
    assert (a + b).coeffs == (1, 2, 3)
    zero = CountSeq((0, 0, 0))
    assert (a + zero).coeffs == a.coeffs
    with pytest.raises(ValueError):
        a + CountSeq((1, 1))


def test_canonical_decomposition():
    total = seq_k_set(6, 0)
    for k in range(1, 7):
        total = total + seq_k_set(6, k)
    assert total == seq_sets(6)


def test_product_counts_complementary_subset_pairs():
    # A pair of set structures on complementary subsets of [3] is just a
    # subset choice; enumerate them directly.
    pairs = [
        (left, tuple(x for x in range(3) if x not in left))
        for size in range(4)
        for left in combinations(range(3), size)
    ]
    assert (seq_sets(3) * seq_sets(3))[3] == len(pairs) == 8


def test_product_identity_and_singletons():
    f = CountSeq((3, 1, 4, 1))
    one = seq_k_set(3, 0)
    assert f * one == f
    x = seq_k_set(3, 1)
    assert (x * x)[2] == 2
    with pytest.raises(ValueError):
        f * CountSeq((1,))


def test_partial_bell_values():
    assert partial_bell(4, 2, [1, 1, 1]) == 7
    assert partial_bell(4, 2, [factorial(i) for i in (1, 2, 3)]) == 36
    assert partial_bell(4, 2, [factorial(i - 1) for i in (1, 2, 3)]) == 11
    assert partial_bell(0, 0, []) == 1
    assert partial_bell(3, 0, []) == 0
    assert partial_bell(2, 5, []) == 0


def test_partial_bell_needs_enough_arguments():
    with pytest.raises(ValueError):
        partial_bell(4, 2, [1, 1])


def test_complete_bell_values():
    assert complete_bell(3, [1, 1, 1]) == 5
    assert complete_bell(3, [1, 2, 6]) == 13
    assert complete_bell(1, [7]) == 7


def test_compose_bell_numbers():
    bell = seq_sets(6).compose(seq_sets_nonempty(6))
    assert bell.coeffs == (1, 1, 2, 5, 15, 52, 203)


def test_compose_nested():
    hier = seq_sets(4).compose(seq_lists_nonempty(4).compose(seq_sets_nonempty(4)))
    assert hier[4] == 173
    assert seq_sets(4).compose(seq_lists_nonempty(4))[3] == 13


def test_compose_counts_all_permutations():
    # Sets of nonempty cycles are permutations; enumerate them directly.
    assert seq_sets(4).compose(seq_cycles_nonempty(4))[4] == len(
        list(permutations(range(4)))
    )


def test_compose_identity():
    g = CountSeq((0, 1, 5, 7))
    assert seq_k_set(3, 1).compose(g) == g
    assert g.compose(seq_k_set(3, 1)) == g


def test_compose_rejects_constant_term():
    with pytest.raises(CompositionConstantTerm):
        seq_sets(3).compose(seq_lists(3))


def test_iterate():
    assert seq_lists_nonempty(5).iterate(2).coeffs == (0, 1, 4, 24, 192, 1920)
    f = CountSeq((0, 1, 3, 2))
    assert f.iterate(1) == f
    assert seq_lists_nonempty(3).iterate(3)[3] == 54
    assert f.iterate(0) == seq_k_set(3, 1)
    with pytest.raises(CompositionConstantTerm):
        seq_lists(3).iterate(2)


@pytest.mark.parametrize(
    "f",
    [seq_lists_nonempty(8), seq_sets_nonempty(8), CountSeq((0, 2, 0, 5, 1, 0, 3, 1, 4))],
)
def test_iterate_matches_compose_fold(f):
    # Binary powering against the m-fold composition; m = 0..11 covers
    # every pattern of the low four bits of the iteration count.
    fold = seq_k_set(f.order, 1)
    for m in range(12):
        assert f.iterate(m) == fold, m
        fold = fold.compose(f)


def _partial_bell_reference(n: int, k: int, z) -> int:
    """Partial Bell polynomial B_{n,k}(z_1, ..., z_{n-k+1}).

    Computed by the recurrence
    B_{n,k} = sum_{i=1}^{n-k+1} C(n-1, i-1) z_i B_{n-i,k-1}
    with B_{0,0} = 1 and B_{n,0} = 0 for n > 0. z is indexed from z_1,
    so z[0] holds z_1.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        return 0
    if k == 0:
        return 1 if n == 0 else 0
    if len(z) < n - k + 1:
        raise ValueError(f"need z_1..z_{n - k + 1}, got only {len(z)} arguments")
    # Only cells with n' <= n - (k - k') are reachable from B_{n,k}; computing
    # just those keeps every z index within the promised n-k+1 arguments.
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for kk in range(1, k + 1):
        for nn in range(kk, n - k + kk + 1):
            table[nn][kk] = sum(
                binomial(nn - 1, i - 1) * z[i - 1] * table[nn - i][kk - 1]
                for i in range(1, nn - kk + 2)
            )
    return table[n][k]


def test_partial_bell_matches_reference():
    z = (3, 0, 2, 7, 1, 0, 5, 2, 4)
    for n in range(10):
        for k in range(n + 1):
            args = z[: n - k + 1] if k else z
            assert partial_bell(n, k, args) == _partial_bell_reference(n, k, args), (n, k)


def test_bell_transform_matches_partial_bell():
    for f in (seq_lists_nonempty(9), CountSeq((0, 2, 0, 5, 1, 0, 3, 1, 4, 2))):
        triangle = bell_transform(f)
        for n in range(1, f.order + 1):
            for k in range(1, f.order + 1):
                assert triangle.entry(k, n) == _partial_bell_reference(n, k, f.coeffs[1:]), (k, n)


def _stirling2_by_enumeration(n):
    counts = {}
    for part in set_partitions(range(n)):
        counts[len(part)] = counts.get(len(part), 0) + 1
    return counts


def test_bell_transform_is_stirling2():
    tri = bell_transform(seq_sets_nonempty(10))
    for n in range(1, 11):
        counts = _stirling2_by_enumeration(n)
        for k in range(1, n + 1):
            assert tri.entry(k, n) == counts.get(k, 0)


def test_bell_transform_is_lah_for_lists():
    tri = bell_transform(seq_lists_nonempty(8))
    for n in range(1, 9):
        for k in range(1, n + 1):
            lah = (factorial(n) * factorial(n - 1)) // (
                factorial(k) * factorial(k - 1) * factorial(n - k)
            )
            assert tri.entry(k, n) == lah


def test_bell_transform_is_stirling1_for_cycles():
    tri = bell_transform(seq_cycles_nonempty(5))
    for k in range(1, 6):
        for n in range(1, 6):
            assert tri.entry(k, n) == STIRLING1_5[k - 1][n - 1]


def test_bell_transform_rejects_constant_term():
    with pytest.raises(CompositionConstantTerm):
        bell_transform(seq_sets(4))


nonzero_tail = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=8)


@st.composite
def zero_constant_seq(draw):
    tail = draw(nonzero_tail)
    return CountSeq((0,) + tuple(tail))


@given(st.data(), zero_constant_seq())
@settings(max_examples=60, deadline=None)
def test_compose_associativity(data, g):
    order = g.order
    f = CountSeq(tuple(data.draw(st.lists(
        st.integers(min_value=0, max_value=6), min_size=order + 1, max_size=order + 1))))
    h = CountSeq((0,) + tuple(data.draw(st.lists(
        st.integers(min_value=0, max_value=6), min_size=order, max_size=order))))
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@given(zero_constant_seq())
@settings(max_examples=60, deadline=None)
def test_row_sums_are_complete_bell(f):
    tri = bell_transform(f)
    totals = seq_sets(f.order).compose(f)
    for n in range(1, f.order + 1):
        column_sum = sum(tri.entry(k, n) for k in range(1, n + 1))
        assert column_sum == totals[n]
        assert column_sum == complete_bell(n, f.coeffs[1:])


@given(zero_constant_seq(), st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_truncation_consistency(g, smaller):
    smaller = min(smaller, g.order)
    f = seq_sets(g.order)
    assert f.compose(g).truncate(smaller) == f.truncate(smaller).compose(g.truncate(smaller))
