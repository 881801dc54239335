"""The gain oracle against facts proved about interval arrangements, with no
other route in between: mirror symmetry, the Catalan and Shi intervals as
the only ones whose counts are a Riordan array with F' = (1 + pF)(1 + qF),
and the characteristic polynomial, found from the gain blocks and from
points over Z/qZ.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from time import perf_counter

import pytest

from flatcount.oracle import GainInterval, enumerate_connected_blocks, enumerate_flats_gain
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


# The characteristic polynomial chi_n(q) = sum over flats X of mu(0, X) q^dim X
# weighs each flat by its Mobius value, so a wrong block or flat that keeps a
# count right would still show in it. Polynomials are coefficient lists,
# constant term first.
CHI_N_MAX = 4
# Both routes on every interval below, n <= 4; about 0.1 s on a 2-core VM.
CHI_SECONDS = 1.0
# Route A by deletion-contraction and route B at n = 5 on the same
# intervals; about 0.8 s on a 2-core VM.
CHI_N5_SECONDS = 4.0
CHI_FAMILIES = [("catalan", m) for m in range(4)] + [("shi", m) for m in range(1, 4)]
# Intervals on which the two routes are checked against each other only;
# none but [0, 0], the braid's, has a closed form here.
CHI_OTHERS = [(0, 2), (-1, 2), (1, 2), (-3, 1), (0, 0), (2, 3)]


def family_interval(family, m):
    interval = GainInterval.catalan(m) if family == "catalan" else GainInterval.shi(m)
    return interval.lo, interval.hi


CHI_INTERVALS = [family_interval(*fm) for fm in CHI_FAMILIES] + CHI_OTHERS


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_at(poly, q):
    return sum(c * q**k for k, c in enumerate(poly))


def closed_chi(family, m, n):
    # Athanasiadis, Adv. Math. 122 (1996); Postnikov-Stanley, JCTA 91 (2000):
    # Shi q (q - mn)^(n-1), Catalan q (q - mn - 1) ... (q - mn - n + 1),
    # which at m = 0 is the braid arrangement's q (q - 1) ... (q - n + 1).
    roots = [m * n] * (n - 1) if family == "shi" else [m * n + j for j in range(1, n)]
    poly = [0, 1]
    for root in roots:
        poly = poly_mul(poly, [-root, 1])
    return poly


def gain_graph(heights, lo, hi):
    """The edges i < j of a height vector's gain graph: the hyperplanes
    x_i - x_j = a that hold on its flat."""
    pairs = combinations(range(len(heights)), 2)
    return tuple((i, j) for i, j in pairs if lo <= heights[j] - heights[i] <= hi)


@lru_cache(maxsize=None)
def linear_chromatic_coefficient(r, edges):
    """[q] of the chromatic polynomial of a connected graph on r vertices, by
    Whitney's expansion sum over edge sets S of (-1)^|S| q^components(S): the
    spanning connected S, each counted with sign (-1)^|S|."""
    total = 0
    for k in range(r - 1, len(edges) + 1):
        for subset in combinations(edges, k):
            parts = {v: {v} for v in range(r)}
            for i, j in subset:
                if parts[i] is not parts[j]:
                    merged = parts[i] | parts[j]
                    for v in merged:
                        parts[v] = merged
            if len(parts[0]) == r:
                total += (-1) ** k
    return total


def is_connected(r, edges):
    reached = {0}
    grew = True
    while grew:
        grew = False
        for i, j in edges:
            if (i in reached) != (j in reached):
                reached |= {i, j}
                grew = True
    return len(reached) == r


@lru_cache(maxsize=None)
def contracted_linear_coefficient(r, edges):
    """The same coefficient by deletion-contraction, a(G) = a(G - e) - a(G / e)
    for the last edge e, with a = 1 on one vertex and a = 0 on a
    disconnected graph; contracting e = (u, v) merges v into u, moves the
    vertices above v down by one and merges the edges that become parallel."""
    if r == 1:
        return 1
    if not is_connected(r, edges):
        return 0
    *rest, (u, v) = edges

    def image(x):
        return u if x == v else x - (x > v)

    contracted = {tuple(sorted((image(i), image(j)))) for i, j in rest}
    return contracted_linear_coefficient(r, tuple(rest)) - contracted_linear_coefficient(
        r - 1, tuple(sorted(contracted))
    )


def chi_from_blocks(n, lo, hi, coefficient=linear_chromatic_coefficient):
    """chi_1, ..., chi_n by Mobius over the gain blocks (ROADMAP route A).

    The hyperplanes through a one-block flat are the edges of its gain graph
    G_h, a central graphic arrangement, so mu(0, X) is the linear coefficient
    of the chromatic polynomial of G_h (Rota 1964). mu is multiplicative over
    the blocks of a flat, so with w_r the sum of mu over the connected height
    vectors on r labels, the exponential formula gives
    chi_n(q) = sum over set partitions of q^blocks * product of w_|B|,
    computed here by the size j of the block holding the first label.
    """
    weights = [0]
    for r in range(1, n + 1):
        blocks = enumerate_connected_blocks(range(1, r + 1), GainInterval(lo, hi))
        weights.append(
            sum(
                coefficient(r, gain_graph([h for _, h in b.items], lo, hi))
                for b in blocks
            )
        )
    chis = [[1]]
    for size in range(1, n + 1):
        poly = [0] * (size + 1)
        for j in range(1, size + 1):
            factor = comb(size - 1, j - 1) * weights[j]
            for k, c in enumerate(chis[size - j]):
                poly[k + 1] += factor * c
        chis.append(poly)
    return chis[1:]


def region_count(family, m, n):
    # Zaslavsky (1975): the regions number |chi(-1)|; Shi (mn + 1)^(n-1),
    # Catalan n! C((m + 1) n, n) / (mn + 1).
    if family == "shi":
        return (m * n + 1) ** (n - 1)
    return factorial(n) * comb((m + 1) * n, n) // (m * n + 1)


def points_off(n, lo, hi, q):
    """The points of (Z/qZ)^n on no hyperplane x_i - x_j = a mod q, i < j, a
    in [lo, hi], by backtracking with x_1 = 0 (translation gives q times)."""
    gains = range(lo, hi + 1)

    def extend(placed):
        if len(placed) == n:
            return 1
        banned = {(x - a) % q for x in placed for a in gains}
        return sum(extend(placed + [y]) for y in range(q) if y not in banned)

    return q * extend([0])


def interpolate(xs, ys):
    """The polynomial of degree < len(xs) through the points, by Lagrange,
    with integer coefficients."""
    total = [Fraction(0)] * len(xs)
    for i, (x_i, y_i) in enumerate(zip(xs, ys)):
        basis, scale = [Fraction(1)], Fraction(y_i)
        for j, x_j in enumerate(xs):
            if j != i:
                basis = poly_mul(basis, [-x_j, 1])
                scale /= x_i - x_j
        total = [t + scale * b for t, b in zip(total, basis)]
    assert all(c.denominator == 1 for c in total)
    return [int(c) for c in total]


def chi_from_points(n, lo, hi):
    """chi_1, ..., chi_n by counting points over Z/qZ (ROADMAP route B).

    Athanasiadis's finite-field method (Adv. Math. 122 (1996), Theorem 2.2):
    chi_n(q) counts the points of (Z/qZ)^n off the hyperplanes once every
    set of hyperplanes meets mod q exactly when it meets over the reals,
    in q^(n - rank) points. The coefficient rows x_i - x_j are totally
    unimodular, so a consistent set has q^(n - rank) points mod any integer
    q, prime or not (Kamiya-Takemura-Terao, J. Algebraic Combin. 27 (2008)),
    and a set meets exactly when the signed gains around each of its cycles
    sum to 0. A cycle has at most n edges, each gain at most M = max(|lo|,
    |hi|) in size, so every cycle sum lies in [-nM, nM], and q > nM makes a
    sum 0 mod q only when it is 0. The n + 1 values q = nM + 1, ..., nM + n + 1
    then fix chi_n, of degree n.
    """
    span = max(abs(lo), abs(hi))
    chis = []
    for size in range(1, n + 1):
        qs = range(size * span + 1, size * span + size + 2)
        chis.append(interpolate(qs, [points_off(size, lo, hi, q) for q in qs]))
    return chis


@pytest.fixture(scope="module")
def chi_routes():
    """(lo, hi) -> (route A, route B) at n = 1..CHI_N_MAX for every interval
    tested, and the seconds both routes took."""
    start = perf_counter()
    routes = {
        (lo, hi): (chi_from_blocks(CHI_N_MAX, lo, hi), chi_from_points(CHI_N_MAX, lo, hi))
        for lo, hi in CHI_INTERVALS
    }
    return routes, perf_counter() - start


def test_chi_routes_run_within_their_limit(chi_routes):
    _, seconds = chi_routes
    assert seconds < CHI_SECONDS, f"both chi routes took {seconds:.2f} s"


@pytest.mark.parametrize("family, m", CHI_FAMILIES)
def test_chi_routes_match_the_closed_forms(chi_routes, family, m):
    by_blocks, by_points = chi_routes[0][family_interval(family, m)]
    expected = [closed_chi(family, m, n) for n in range(1, CHI_N_MAX + 1)]
    assert by_blocks == expected
    assert by_points == expected


@pytest.mark.parametrize("family, m", CHI_FAMILIES)
def test_chi_routes_give_the_region_counts(chi_routes, family, m):
    for n in range(1, CHI_N_MAX + 1):
        for chis in chi_routes[0][family_interval(family, m)]:
            assert abs(poly_at(chis[n - 1], -1)) == region_count(family, m, n)


@pytest.mark.parametrize("lo, hi", CHI_OTHERS)
def test_chi_routes_agree_off_the_families(chi_routes, lo, hi):
    by_blocks, by_points = chi_routes[0][(lo, hi)]
    assert by_blocks == by_points
    # Each chi_n is monic of degree n with no constant term.
    for n, chi in enumerate(by_blocks, 1):
        assert len(chi) == n + 1 and chi[-1] == 1 and chi[0] == 0


def test_contraction_agrees_with_whitney_on_the_graphs_met():
    graphs = {
        (r, gain_graph([h for _, h in b.items], lo, hi))
        for lo, hi in CHI_INTERVALS
        for r in range(1, CHI_N_MAX + 1)
        for b in enumerate_connected_blocks(range(1, r + 1), GainInterval(lo, hi))
    }
    # 43 of the 44 connected graphs on at most 4 labelled vertices: these
    # intervals never give the chordless cycle 1-2-3-4.
    assert len(graphs) == 43
    for r, edges in graphs:
        assert contracted_linear_coefficient(r, edges) == linear_chromatic_coefficient(r, edges)


@pytest.fixture(scope="module")
def chi_routes_n5():
    """(lo, hi) -> (route A by deletion-contraction, route B) at n = 1..5 for
    every interval tested, and the seconds both routes took."""
    start = perf_counter()
    routes = {
        (lo, hi): (
            chi_from_blocks(5, lo, hi, contracted_linear_coefficient),
            chi_from_points(5, lo, hi),
        )
        for lo, hi in CHI_INTERVALS
    }
    return routes, perf_counter() - start


def test_chi_routes_at_n5_run_within_their_limit(chi_routes_n5):
    _, seconds = chi_routes_n5
    assert seconds < CHI_N5_SECONDS, f"both chi routes at n = 5 took {seconds:.2f} s"


@pytest.mark.parametrize("family, m", CHI_FAMILIES)
def test_chi_routes_at_n5_match_the_closed_forms_and_regions(chi_routes_n5, family, m):
    expected = [closed_chi(family, m, n) for n in range(1, 6)]
    for chis in chi_routes_n5[0][family_interval(family, m)]:
        assert chis == expected
        assert abs(poly_at(chis[4], -1)) == region_count(family, m, 5)


@pytest.mark.parametrize("lo, hi", CHI_OTHERS)
def test_chi_routes_at_n5_agree_off_the_families(chi_routes_n5, lo, hi):
    by_blocks, by_points = chi_routes_n5[0][(lo, hi)]
    assert by_blocks == by_points
    assert len(by_blocks[4]) == 6 and by_blocks[4][-1] == 1 and by_blocks[4][0] == 0
