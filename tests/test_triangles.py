import pytest

from flatcount import triangles
from flatcount.species import (
    bell_transform,
    seq_cycles_nonempty,
    seq_lists_nonempty,
    seq_sets_nonempty,
)
from flatcount.triangles import (
    Triangle,
    catalan_triangle,
    identity_triangle,
    lah_matrix,
    lah_power_closed,
    mat_mul,
    mat_pow,
    riordan_columns,
    shi_triangle,
    stirling1_matrix,
    stirling2_matrix,
    total_flats,
)
from reference_counts import (
    BRAID_TOTALS,
    CATALAN_TOTALS,
    SHI_TOTALS,
    STIRLING1_5,
    STIRLING2_5,
    TRIANGLES_5,
)


def _columns(triangle):
    return [triangle.column(n) for n in range(1, triangle.size + 1)]


def test_triangle_validation():
    with pytest.raises(ValueError):
        Triangle(((1, 2), (1, 1)))  # nonzero below the diagonal
    with pytest.raises(ValueError):
        Triangle(((1, 2, 3), (0, 1, 4), (0, 5, 1)))  # the same, in row 3
    with pytest.raises(ValueError):
        Triangle(((1, -2), (0, 1)))  # negative
    with pytest.raises(ValueError):
        Triangle(((1, 1.0), (0, 1)))  # not an int
    with pytest.raises(ValueError):
        Triangle(((1,), (0, 1)))  # ragged
    tri = Triangle(((1, 3), (0, 1)))
    assert tri.entry(1, 2) == 3
    assert tri.column(2) == (3, 1)
    with pytest.raises(ValueError):
        tri.entry(0, 1)
    with pytest.raises(ValueError):
        tri.column(3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: stirling2_matrix(0), "size must be at least 1"),
        (lambda: shi_triangle(-1), "m must be nonnegative"),
        (lambda: catalan_triangle(-1), "m must be nonnegative"),
        (lambda: lah_matrix(0), "size must be at least 1"),
        (lambda: lah_power_closed(1, 0), "size must be at least 1"),
        (lambda: lah_power_closed(1, -3), "size must be at least 1"),
    ],
    ids=["stirling2", "shi", "catalan", "lah", "lah-closed-0", "lah-closed-negative"],
)
def test_argument_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_stirling_matrices_match_reference():
    s2 = stirling2_matrix(5)
    s1 = stirling1_matrix(5)
    for k in range(1, 6):
        for n in range(1, 6):
            assert s2.entry(k, n) == STIRLING2_5[k - 1][n - 1]
            assert s1.entry(k, n) == STIRLING1_5[k - 1][n - 1]
    assert s2.entry(2, 4) == 7
    assert s1.entry(2, 4) == 11
    assert s1.entry(1, 5) == 24
    for k in range(1, 6):
        assert s2.entry(k, k) == s1.entry(k, k) == 1


def test_mat_mul_gives_lah():
    sc = mat_mul(stirling2_matrix(5), stirling1_matrix(5))
    assert sc.entry(2, 4) == 36
    ident = identity_triangle(5)
    assert mat_mul(sc, ident) == sc
    with pytest.raises(ValueError):
        mat_mul(sc, identity_triangle(4))


def test_stirling_product_is_lah_matrix():
    # lah_matrix comes from its own recurrence; the Stirling factorization
    # S c = L checks it, and truncation is exact, so size 150 covers every
    # smaller size.
    assert mat_mul(stirling2_matrix(150), stirling1_matrix(150)) == lah_matrix(150)


def test_words_cost(monkeypatch):
    # lah_matrix multiplies nothing, shi_triangle is mat_pow's binary powering
    # alone, and catalan_triangle adds one product by S.
    calls = []
    product = triangles.mat_mul
    monkeypatch.setattr(triangles, "mat_mul", lambda a, b: calls.append(None) or product(a, b))
    triangles.lah_matrix(6)
    assert calls == []
    for m in [*range(1, 41), 12345]:
        products = (m.bit_length() - 1) + (m.bit_count() - 1)
        del calls[:]
        triangles.shi_triangle(m, 6)
        assert len(calls) == products, m
        del calls[:]
        triangles.catalan_triangle(m, 6)
        assert len(calls) == products + 1, m


def test_mat_mul_matches_bell_transform_composition():
    # Triangle of a composed species equals the product of the triangles.
    makers = (seq_sets_nonempty, seq_lists_nonempty, seq_cycles_nonempty)
    for make_f in makers:
        for make_g in makers:
            left = bell_transform(make_f(8).compose(make_g(8)))
            right = mat_mul(bell_transform(make_f(8)), bell_transform(make_g(8)))
            assert left == right


def test_mat_pow():
    sc = lah_matrix(5)
    assert mat_pow(sc, 2).entry(1, 3) == 24
    assert mat_pow(sc, 1) == sc
    assert mat_pow(sc, 0) == identity_triangle(5)
    with pytest.raises(ValueError):
        mat_pow(sc, -1)


def _naive_product(a, b):
    size = range(1, a.size + 1)
    return Triangle(
        tuple(tuple(sum(a.entry(k, j) * b.entry(j, n) for j in size) for n in size) for k in size)
    )


def _upper(size, entry_fn):
    return Triangle(
        tuple(tuple(entry_fn(k, n) if k <= n else 0 for n in range(size)) for k in range(size))
    )


def test_mat_mul_matches_full_product():
    # The banded product against the plain sum over every j, on factors
    # with no special structure beyond being upper triangular.
    a = _upper(6, lambda k, n: (3 * k + 7 * n) % 11)
    b = _upper(6, lambda k, n: (5 * k + n * n) % 13)
    assert mat_mul(a, b) == _naive_product(a, b)
    assert mat_mul(b, a) == _naive_product(b, a)
    lah, s2 = lah_matrix(7), stirling2_matrix(7)
    assert mat_mul(lah, s2) == _naive_product(lah, s2)
    one = Triangle(((4,),))
    assert mat_mul(one, one) == Triangle(((16,),))


@pytest.mark.parametrize("base", [lah_matrix(8), stirling2_matrix(8), stirling1_matrix(8)])
def test_mat_pow_matches_product_fold(base):
    # Binary powering against the m-fold product; m = 0..11 covers every
    # pattern of the low four exponent bits.
    fold = identity_triangle(base.size)
    for m in range(12):
        assert mat_pow(base, m) == fold, m
        fold = mat_mul(fold, base)


def test_mat_pow_equals_closed_form():
    sc = lah_matrix(12)
    for m in range(1, 6):
        assert mat_pow(sc, m) == lah_power_closed(m, 12)
    # The three-term recurrence with (p, q) = (m, m) builds the same power
    for m in range(6):
        assert shi_triangle(m, 12) == mat_pow(sc, m), m
        assert list(riordan_columns(m, m, 12)) == _columns(shi_triangle(m, 12)), m
        if m >= 1:
            assert list(riordan_columns(m, m, 12)) == _columns(lah_power_closed(m, 12))


def test_catalan_triangle():
    assert catalan_triangle(1, 5).column(4) == (75, 79, 18, 1)
    assert catalan_triangle(0, 6) == stirling2_matrix(6)
    assert catalan_triangle(2, 5).entry(1, 5) == 4501
    # The three-term recurrence with (p, q) = (m, m + 1) against the
    # multiplied-out word
    for m in (*range(6), 100_000_000):
        assert list(riordan_columns(m, m + 1, 12)) == _columns(catalan_triangle(m, 12)), m
    assert list(riordan_columns(3, 4, 1)) == [(1,)]
    for p, q in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            list(riordan_columns(p, q, 5))


def test_shi_triangle():
    assert shi_triangle(2, 5).column(4) == (192, 144, 24, 1)
    assert shi_triangle(3, 5).entry(2, 5) == 6480
    assert shi_triangle(1, 5).entry(1, 5) == 120
    assert shi_triangle(0, 5) == identity_triangle(5)


def test_triangles_match_reference_tables():
    for (family, m), rows in TRIANGLES_5.items():
        build = shi_triangle if family == "shi" else catalan_triangle
        tri = build(m, 5)
        for n in range(1, 6):
            assert tri.column(n) == rows[n - 1], (family, m, n)


def test_lah_power_closed_values():
    assert lah_power_closed(2, 5).entry(1, 3) == 24
    assert lah_power_closed(1, 8) == lah_matrix(8)
    assert lah_power_closed(1, 4).entry(2, 4) == 36
    for m in (1, 2, 7):
        closed = lah_power_closed(m, 6)
        for n in (1, 3, 6):
            assert closed.entry(n, n) == 1
    assert lah_power_closed(5, 5).entry(1, 5) == 75000
    with pytest.raises(ValueError):
        lah_power_closed(2, 4).entry(5, 4)
    with pytest.raises(ValueError):
        lah_power_closed(2, 4).entry(0, 4)
    with pytest.raises(ValueError):
        lah_power_closed(0, 4)


def test_total_flats():
    assert total_flats(catalan_triangle(1, 5), 5) == 1602
    assert total_flats(shi_triangle(3, 6), 6) == 355951
    assert total_flats(catalan_triangle(0, 6), 6) == 203
    with pytest.raises(ValueError):
        total_flats(shi_triangle(1, 4), 5)


def test_column_sums_match_total_tables():
    for m, row in CATALAN_TOTALS.items():
        tri = catalan_triangle(m, 7)
        assert tuple(total_flats(tri, n) for n in range(1, 8)) == row
    for m, row in SHI_TOTALS.items():
        tri = shi_triangle(m, 7)
        assert tuple(total_flats(tri, n) for n in range(1, 8)) == row
    braid = catalan_triangle(0, 7)
    assert tuple(total_flats(braid, n) for n in range(1, 8)) == BRAID_TOTALS


def test_catalan_from_shi_recursion():
    for m in range(0, 5):
        assert catalan_triangle(m, 12) == mat_mul(shi_triangle(m, 12), stirling2_matrix(12))


def test_shi_one_is_lah_bell_transform():
    assert shi_triangle(1, 12) == bell_transform(seq_lists_nonempty(12))


def test_triangularity_preserved():
    product = mat_mul(catalan_triangle(2, 6), shi_triangle(3, 6))
    power = mat_pow(lah_matrix(6), 4)
    for tri in (product, power):
        for k in range(1, 7):
            for n in range(1, k):
                assert tri.entry(k, n) == 0
