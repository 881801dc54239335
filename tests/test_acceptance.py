"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line with its runtime (run with -s to see them). All numeric
comparisons are exact integer equality."""

import os
import random
import subprocess
import sys
from math import comb, factorial
from time import perf_counter

from flatcount import cli
from flatcount.bijections import (
    catalan_structure_to_height,
    enumerate_catalan_structures,
    enumerate_nested_lists,
    height_to_catalan_structure,
    height_to_shi_structure,
    shi_structure_to_height,
)
from flatcount.dsl import evaluate_text
from flatcount.oracle import (
    GainInterval,
    enumerate_connected_blocks,
    enumerate_flats_gain,
    enumerate_flats_linear,
)
from flatcount.species import CountSeq, bell_transform, seq_sets
from flatcount.triangles import (
    catalan_triangle,
    lah_matrix,
    lah_power_closed,
    mat_pow,
    riordan_columns,
    shi_triangle,
    total_flats,
)
from launcher import LAUNCHER
from reference_counts import (
    BELL,
    BRAID_DIM1,
    BRAID_TOTALS,
    CATALAN_DIM1,
    CATALAN_TOTALS,
    SHI_DIM1,
    SHI_TOTALS,
    TRIANGLES_5,
)


def check(number, limit, description, body):
    start = perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d} FAIL          {description}")
        raise
    elapsed = perf_counter() - start
    print(f"criterion {number:2d} PASS {elapsed:6.2f}s  {description}")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_catalan_totals():
    def body():
        for m, row in CATALAN_TOTALS.items():
            tri = catalan_triangle(m, 7)
            assert tuple(total_flats(tri, n) for n in range(1, 8)) == row
        assert total_flats(catalan_triangle(2, 7), 5) == 8972
        assert total_flats(catalan_triangle(1, 7), 7) == 222497

    check(1, 1.0, "catalan total flat counts, m <= 4, n <= 7", body)


def test_criterion_02_shi_totals():
    def body():
        for m, row in SHI_TOTALS.items():
            tri = shi_triangle(m, 7)
            assert tuple(total_flats(tri, n) for n in range(1, 8)) == row
        assert total_flats(shi_triangle(3, 7), 7) == 8488117

    check(2, 1.0, "shi total flat counts, m <= 5, n <= 7", body)


def test_criterion_03_one_dimensional_rows():
    def body():
        for m, row in CATALAN_DIM1.items():
            tri = catalan_triangle(m, 7)
            assert tuple(tri.entry(1, n) for n in range(1, 8)) == row
        for m, row in SHI_DIM1.items():
            tri = shi_triangle(m, 7)
            assert tuple(tri.entry(1, n) for n in range(1, 8)) == row
        braid = catalan_triangle(0, 7)
        assert tuple(braid.entry(1, n) for n in range(1, 8)) == BRAID_DIM1
        assert catalan_triangle(3, 7).entry(1, 5) == 17641
        assert shi_triangle(5, 7).entry(1, 7) == 78750000

    check(3, 1.0, "one-dimensional flat counts for both families", body)


def test_criterion_04_five_by_five_triangles():
    def body():
        for (family, m), rows in TRIANGLES_5.items():
            build = shi_triangle if family == "shi" else catalan_triangle
            tri = build(m, 5)
            for n in range(1, 6):
                assert tri.column(n) == rows[n - 1], (family, m, n)

    check(4, 1.0, "all ten 5x5 triangles cell-for-cell", body)


def test_criterion_05_shi_closed_form():
    def body():
        sc = lah_matrix(12)
        for m in range(1, 6):
            power = mat_pow(sc, m)
            for n in range(1, 13):
                for k in range(1, n + 1):
                    lah = comb(n - 1, k - 1) * factorial(n) // factorial(k)
                    assert m ** (n - k) * lah == power.entry(k, n), (m, n, k)

    check(5, 5.0, "closed shi formula equals Lah-matrix powers, N=12, m <= 5", body)


def test_criterion_06_lah_power_identity():
    def body():
        sc = lah_matrix(12)
        for m in range(1, 6):
            assert mat_pow(sc, m) == lah_power_closed(m, 12)

    check(6, 5.0, "Lah-matrix power closed form, N=12, m <= 5", body)


def test_criterion_07_gain_oracle_equivalence():
    def body():
        for m in range(0, 3):
            tri = catalan_triangle(m, 5)
            for n in range(1, 6):
                counts = enumerate_flats_gain(n, GainInterval(-m, m))
                assert tuple(counts.get(k, 0) for k in range(1, n + 1)) == tri.column(n)
        for m in range(1, 4):
            tri = shi_triangle(m, 5)
            for n in range(1, 6):
                counts = enumerate_flats_gain(n, GainInterval(1 - m, m))
                assert tuple(counts.get(k, 0) for k in range(1, n + 1)) == tri.column(n)

    check(7, 120.0, "gain-graph oracle vs formulas, n <= 5", body)


def test_criterion_08_cross_oracle():
    def body():
        for interval in (GainInterval(-1, 1), GainInterval(0, 1), GainInterval(-1, 2)):
            for n in range(1, 5):
                assert enumerate_flats_linear(n, interval) == enumerate_flats_gain(
                    n, interval
                )

    check(8, 60.0, "linear-algebra oracle equals gain-graph oracle, n <= 4", body)


def test_criterion_09_bijection_suite():
    def body():
        for n in range(1, 6):
            labels = tuple(range(1, n + 1))
            for m in range(0, 3):
                structures = enumerate_catalan_structures(labels, m)
                images = set()
                for s in structures:
                    h = catalan_structure_to_height(s)
                    assert height_to_catalan_structure(h, m) == s
                    images.add(h.items)
                blocks = enumerate_connected_blocks(labels, GainInterval(-m, m))
                assert images == {b.items for b in blocks}
                for b in blocks:
                    assert catalan_structure_to_height(height_to_catalan_structure(b, m)) == b
            for m in range(1, 3):
                structures = enumerate_nested_lists(labels, m)
                images = set()
                for s in structures:
                    h = shi_structure_to_height(s)
                    assert height_to_shi_structure(h, m) == s
                    images.add(h.items)
                blocks = enumerate_connected_blocks(labels, GainInterval(1 - m, m))
                assert images == {b.items for b in blocks}
                for b in blocks:
                    assert shi_structure_to_height(height_to_shi_structure(b, m)) == b
        for n in range(1, 7):
            labels = tuple(range(1, n + 1))
            for m in range(0, 4):
                assert len(enumerate_catalan_structures(labels, m)) == catalan_triangle(
                    m, n
                ).entry(1, n)
            for m in range(1, 4):
                assert len(enumerate_nested_lists(labels, m)) == shi_triangle(m, n).entry(
                    1, n
                )

    check(9, 60.0, "bijection round trips, images, and cardinalities", body)


def test_criterion_10_species_properties():
    def body():
        seq = evaluate_text("E o E+", 10)
        assert seq.coeffs == BELL
        rng = random.Random(2024)
        for _ in range(30):
            order = rng.randint(1, 8)
            f = CountSeq(tuple(rng.randint(0, 5) for _ in range(order + 1)))
            g = CountSeq((0,) + tuple(rng.randint(0, 5) for _ in range(order)))
            h = CountSeq((0,) + tuple(rng.randint(0, 5) for _ in range(order)))
            assert f.compose(g).compose(h) == f.compose(g.compose(h))
            tri = bell_transform(g)
            totals = seq_sets(order).compose(g)
            for n in range(1, order + 1):
                assert sum(tri.entry(k, n) for k in range(1, n + 1)) == totals[n]
        # Column sums of the Bell table against the E o G atom recurrence
        tri = bell_transform(CountSeq((0,) + (1,) * 12))
        bell = evaluate_text("E o E+", 12)
        for n in range(1, 13):
            assert sum(tri.column(n)) == bell[n], n

    check(10, 5.0, "species algebra properties and DSL golden values", body)


def test_criterion_11_verify_command(capsys, monkeypatch):
    def body():
        try:
            code = cli.main(["verify"])
        except SystemExit as err:  # argparse should not exit here
            code = err.code
        out, _ = capsys.readouterr()
        assert code == 0, out
        assert "verification passed" in out

        formula_triangle = cli.formula_triangle

        def faulty(family, m, size):
            for n, column in enumerate(formula_triangle(family, m, size), start=1):
                if family == "shi" and m == 2 and n == 4:
                    column = (column[0], column[1] + 7, *column[2:])  # T(k=2, n=4)
                yield column

        monkeypatch.setattr(cli, "formula_triangle", faulty)
        code = cli.main(["verify"])
        out, _ = capsys.readouterr()
        assert code == 1, out
        assert "mismatch family=shi m=2 n=4 k=2 expected=151 got=144" in out
        monkeypatch.setattr(cli, "formula_triangle", formula_triangle)

    check(11, None, "verify command exit codes and mismatch reporting", body)


def test_criterion_12_linear_oracle_runtime():
    # The three intervals `verify --linear` checks, at its largest n.
    expected = {
        GainInterval(-1, 1): catalan_triangle(1, 5).column(5),
        GainInterval(0, 1): shi_triangle(1, 5).column(5),
        GainInterval(-1, 2): shi_triangle(2, 5).column(5),
    }

    def body():
        for interval, column in expected.items():
            counts = enumerate_flats_linear(5, interval)
            assert tuple(counts.get(k, 0) for k in range(1, 6)) == column, interval

    check(12, 0.5, "linear-algebra oracle for verify --linear's intervals, n = 5", body)


def test_criterion_13_gain_oracle_memory_at_n7():
    # Shi m = 2 is the word with (p, q) = (2, 2). The peak RSS is the
    # command's own rusage: RUSAGE_CHILDREN would pool every earlier child.
    *_, column = riordan_columns(2, 2, 7)
    command = [sys.executable, "-m", "flatcount", "oracle", "shi", "-m", "2", "-n", "7"]

    def body():
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCHER, *command], capture_output=True, check=True
        )
        code, peak_kib = map(int, proc.stderr.split())
        assert (code, proc.stdout) == (0, " ".join(map(str, column)).encode() + b"\n")
        assert peak_kib / 1024 < 60, f"peak RSS {peak_kib / 1024:.1f} MB"

    check(13, 4.0, "gain-graph oracle shi m = 2 at n = 7: under 4 s and 60 MB", body)
