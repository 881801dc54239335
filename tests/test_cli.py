import ast
import importlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcount import cli
from flatcount.oracle import GainInterval
from flatcount.triangles import catalan_triangle, shi_count_closed, shi_triangle
from reference_counts import BRAID_TOTALS, SHI_TOTALS, TRIANGLES_5


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as err:
        code = err.code
    out, err_text = capsys.readouterr()
    return code, out, err_text


def test_count_totals(capsys):
    assert run(["count", "catalan", "-m", "2", "-n", "5"], capsys)[:2] == (0, "8972\n")
    assert run(["count", "shi", "-m", "1", "-n", "7"], capsys)[:2] == (0, "37633\n")
    assert run(["count", "braid", "-n", "6"], capsys)[:2] == (0, "203\n")


def test_count_by_dim(capsys):
    code, out, _ = run(["count", "shi", "-m", "4", "-n", "5", "--by-dim"], capsys)
    assert code == 0
    assert out == "30720 15360 1920 80 1\n"


def test_count_argument_errors(capsys):
    assert run(["count", "braid", "-m", "1", "-n", "3"], capsys)[0] == 2
    assert run(["count", "shi", "-n", "3"], capsys)[0] == 2
    assert run(["count", "shi", "-m", "0", "-n", "3"], capsys)[0] == 2
    assert run(["count", "catalan", "-m", "-1", "-n", "3"], capsys)[0] == 2
    assert run(["count", "linial", "-m", "1", "-n", "3"], capsys)[0] == 2


def test_eval(capsys):
    code, out, _ = run(["eval", "E o L+^o3", "--order", "5"], capsys)
    assert (code, out) == (0, "1 1 7 73 1009 17341\n")
    code, out, _ = run(["eval", "E_2 o E+", "--order", "5"], capsys)
    assert (code, out) == (0, "0 0 1 3 7 15\n")


def test_eval_from_file(tmp_path, capsys):
    path = tmp_path / "exprs.txt"
    path.write_text("E o E+\n\nL+^o2\n", encoding="utf-8")
    code, out, _ = run(["eval", "--file", str(path), "--order", "4"], capsys)
    assert code == 0
    assert out == "1 1 2 5 15\n0 1 4 24 192\n"
    path.write_text("E o E+\nE o L\n", encoding="utf-8")
    code, _, err = run(["eval", "--file", str(path)], capsys)
    assert code == 3
    assert "line 2" in err
    assert run(["eval"], capsys)[0] == 2
    assert run(["eval", "E", "--file", str(path)], capsys)[0] == 2


def test_eval_order_bound(capsys):
    code, out, err = run(["eval", "X", "--order", str(cli.MAX_ORDER + 1)], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: order must be at most {cli.MAX_ORDER}\n")
    code, out, _ = run(["eval", "X", "--order", str(cli.MAX_ORDER)], capsys)
    assert (code, out) == (0, "0 1" + " 0" * (cli.MAX_ORDER - 1) + "\n")


def test_eval_huge_counts_return_at_once(capsys):
    # Binary powering for a count far past the order, and E_k with k past
    # the order is zero without any product; the command line lifts the
    # interpreter's limit on the digits of an int.
    start = time.perf_counter()
    code, out, _ = run(["eval", "L+^o100000000", "--order", "3"], capsys)
    assert (code, out) == (0, "0 1 200000000 60000000000000000\n")
    code, out, _ = run(["eval", f"E_{'7' * 5000} o L+^o3 o E+"], capsys)
    assert (code, out) == (0, "0" + " 0" * 12 + "\n")
    assert time.perf_counter() - start < 3


def test_eval_refuses_coefficients_too_long_to_print():
    # a_1 = 2^10000000 has 3,010,300 digits: evaluating it is quick, but
    # converting it to decimal would take minutes. It is refused from its bit
    # length, before any conversion.
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "flatcount", "eval", "(X+X)^o10000000", "--order", "6"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"error: a_1 has more than {cli.MAX_DIGITS} digits\n"
    assert time.perf_counter() - start < 10


def test_eval_errors_exit_3(capsys):
    code, _, err = run(["eval", "E o L"], capsys)
    assert code == 3
    assert "constant term" in err
    code, _, err = run(["eval", "E o ("], capsys)
    assert code == 3
    assert "error" in err


def test_eval_file_not_utf8_exits_2(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"\xff\xfeE o E+\n")
    proc = subprocess.run(
        [sys.executable, "-m", "flatcount", "eval", "--file", str(path)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    last = proc.stderr.splitlines()[-1]
    assert last.startswith(f"flatcount: error: {path}: 'utf-8' codec can't decode")
    assert "internal error" not in proc.stderr


def test_oracle(capsys):
    assert run(["oracle", "catalan", "-m", "1", "-n", "4"], capsys)[:2] == (0, "75 79 18 1\n")
    assert run(
        ["oracle", "shi", "-m", "2", "-n", "3", "--method", "linear"], capsys
    )[:2] == (0, "24 12 1\n")
    assert run(["oracle", "catalan", "-m", "0", "-n", "3"], capsys)[:2] == (0, "1 3 1\n")
    assert run(["oracle", "braid", "-n", "3"], capsys)[:2] == (0, "1 3 1\n")


def _expected_shi_totals_tsv():
    lines = ["m\t" + "\t".join(str(n) for n in range(1, 8))]
    for m in range(1, 6):
        lines.append(str(m) + "\t" + "\t".join(str(v) for v in SHI_TOTALS[m]))
    return "".join(line + "\n" for line in lines)


def test_table_shi_totals_tsv(capsys):
    code, out, _ = run(["table", "shi"], capsys)
    assert code == 0
    assert out == _expected_shi_totals_tsv()


def test_table_braid_row(capsys):
    code, out, _ = run(["table", "braid"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "0\t" + "\t".join(str(v) for v in BRAID_TOTALS)


def test_table_csv(capsys):
    code, out, _ = run(["table", "shi", "-m", "1", "-n", "1:3", "--format", "csv"], capsys)
    assert code == 0
    assert out == "m,1,2,3\n1,1,3,13\n"


def test_table_by_dimension(capsys):
    code, out, _ = run(
        ["table", "catalan", "-m", "1", "-n", "1:5", "--mode", "by-dimension"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\\k\t1\t2\t3\t4\t5"
    for n in range(1, 6):
        row = TRIANGLES_5[("catalan", 1)][n - 1]
        cells = [str(n)] + [str(v) for v in row] + [""] * (5 - n)
        assert lines[n] == "\t".join(cells)


def test_table_one_dimensional(capsys):
    code, out, _ = run(
        ["table", "shi", "-m", "2:3", "-n", "1:4", "--mode", "one-dimensional"], capsys
    )
    assert code == 0
    assert out == "m\t1\t2\t3\t4\n2\t1\t4\t24\t192\n3\t1\t6\t54\t648\n"


def test_table_markdown(capsys):
    code, out, _ = run(
        ["table", "braid", "-n", "1:3", "--format", "markdown"], capsys
    )
    assert code == 0
    assert out == "| m | 1 | 2 | 3 |\n| --- | --- | --- | --- |\n| 0 | 1 | 2 | 5 |\n"


def test_table_bfile(capsys):
    code, out, _ = run(["table", "braid", "--format", "bfile"], capsys)
    assert code == 0
    assert out == "".join(f"{n} {v}\n" for n, v in zip(range(1, 8), BRAID_TOTALS))
    code, out, _ = run(
        ["table", "shi", "-m", "2", "-n", "1:5", "--mode", "one-dimensional", "--format", "bfile"],
        capsys,
    )
    assert code == 0
    assert out == "1 1\n2 4\n3 24\n4 192\n5 1920\n"


def test_table_argument_errors(capsys):
    assert run(["table", "shi", "-m", "1:5", "--format", "bfile"], capsys)[0] == 2
    assert run(["table", "shi", "-m", "1:2", "--mode", "by-dimension"], capsys)[0] == 2
    assert run(["table", "shi", "-m", "5:1"], capsys)[0] == 2
    assert run(["table", "braid", "-m", "1"], capsys)[0] == 2
    assert run(
        ["table", "shi", "-m", "1", "--mode", "by-dimension", "--format", "bfile"], capsys
    )[0] == 2


def test_output_deterministic(capsys):
    first = run(["table", "catalan", "-n", "1:6"], capsys)
    second = run(["table", "catalan", "-n", "1:6"], capsys)
    assert first == second


def test_cache_dir_variable_is_ignored(tmp_path):
    # FLATCOUNT_CACHE_DIR once named a disk cache. Old scripts still set it,
    # so it must change nothing and write nothing, usable directory or not.
    empty = tmp_path / "cache"
    empty.mkdir()
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    for cache_dir in (empty, blocker / "cache"):
        proc = subprocess.run(
            [sys.executable, "-m", "flatcount", "count", "catalan", "-m", "2", "-n", "5"],
            capture_output=True,
            cwd=tmp_path,
            env=dict(os.environ, FLATCOUNT_CACHE_DIR=str(cache_dir)),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"8972\n", b"")
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_huge_exponents(capsys):
    # Binary powering makes m = 10^8 cost about 27 squarings.
    m = 100_000_000
    code, out, _ = run(["count", "shi", "-m", str(m), "-n", "3"], capsys)
    assert (code, out) == (0, "60000000600000001\n")
    assert int(out) == sum(shi_count_closed(m, 3, k) for k in (1, 2, 3)) == 6 * m * m + 6 * m + 1
    code, out, _ = run(["eval", "L+^o100000000", "--order", "3"], capsys)
    assert (code, out) == (0, "0 1 200000000 60000000000000000\n")
    code, out, _ = run(["table", "shi", "-m", str(m), "-n", "1:3"], capsys)
    assert (code, out) == (0, f"m\t1\t2\t3\n{m}\t1\t{2 * m + 1}\t60000000600000001\n")


def test_unexpected_error_exits_4(capsys, monkeypatch):
    def out_of_memory(args, parser):
        raise MemoryError("no room\nfor the triangle")

    monkeypatch.setattr(cli, "cmd_count", out_of_memory)
    monkeypatch.setattr(sys, "argv", ["flatcount", "count", "catalan", "-m", "2", "-n", "5"])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert exit_info.value.code == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: MemoryError('no room\\nfor the triangle')\n"
    assert "Traceback" not in err


def test_count_and_table_match_reference_triangles(capsys, monkeypatch):
    # Whole triangles from the reference words, for each family at every
    # valid m <= 6, at m = 40 and at m = 10^8, against `count` and `table`
    # for every n <= 40.
    big = 100_000_000
    references_by_family = {
        "braid": {0: catalan_triangle(0, 40)},
        "catalan": {m: catalan_triangle(m, 40) for m in (*range(7), 40, big)},
        "shi": {m: shi_triangle(m, 40) for m in (*range(1, 7), 40, big)},
    }
    parser = cli.build_parser()  # parsing reuses it; building it 1920 times is slow
    monkeypatch.setattr(cli, "build_parser", lambda: parser)

    def stdout(argv):
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        return out

    for family, references in references_by_family.items():
        for m, reference in references.items():
            m_args = [] if family == "braid" else ["-m", str(m)]
            for n in range(1, 41):
                column = reference.column(n)
                count = ["count", family, *m_args, "-n", str(n)]
                by_dim = stdout([*count, "--by-dim"])
                assert by_dim == " ".join(map(str, column)) + "\n", (family, m, n)
                assert stdout(count) == f"{sum(column)}\n"
        # Rows as `table` asks for them: every m of a range in one command,
        # for n from 1 and from past the middle.
        groups = [[0]] if family == "braid" else [[m for m in references if m < 40], [40], [big]]
        for m_values in groups:
            m_args = [] if family == "braid" else ["-m", f"{m_values[0]}:{m_values[-1]}"]
            for n, lo in _table_ranges(40):
                n_range = range(lo, n + 1)
                rows = {
                    "totals": {m: [sum(references[m].column(j)) for j in n_range]
                               for m in m_values},
                    "one-dimensional": {m: references[m].rows[0][lo - 1 : n] for m in m_values},
                }
                header = "\t".join(["m", *map(str, n_range)]) + "\n"
                for mode, row in rows.items():
                    table = ["table", family, *m_args, "-n", f"{lo}:{n}", "--mode", mode]
                    lines = ["\t".join([str(m), *map(str, row[m])]) + "\n" for m in m_values]
                    assert stdout(table) == header + "".join(lines), (family, mode, m_values, lo, n)
                    if len(m_values) == 1:  # a b-file holds one sequence
                        values = row[m_values[0]]
                        bfile = "".join(f"{j} {v}\n" for j, v in zip(n_range, values))
                        assert stdout([*table, "--format", "bfile"]) == bfile
        # Columns as `table --mode by-dimension` asks for them, one m each.
        for m, reference in references.items():
            m_args = [] if family == "braid" else ["-m", str(m)]
            for n, lo in _table_ranges(40):
                header = "\t".join(["n\\k", *map(str, range(1, n + 1))]) + "\n"
                lines = [
                    "\t".join([str(j), *map(str, reference.column(j)), *[""] * (n - j)]) + "\n"
                    for j in range(lo, n + 1)
                ]
                table = ["table", family, *m_args, "-n", f"{lo}:{n}", "--mode", "by-dimension"]
                assert stdout(table) == header + "".join(lines), (family, m, lo, n)


def _table_ranges(n_max):
    """(HI, LO) for the ranges LO:HI that the reference loop asks `table`
    for: every HI up to n_max, from LO = 1 and from LO past the middle."""
    return [(n, lo) for n in range(1, n_max + 1) for lo in sorted({1, n // 2 + 1})]


def test_formula_commands_keep_only_what_they_print(capsys):
    # `count` keeps one column and `table` one cell per column it prints;
    # a whole triangle of these sizes takes tens of MB.
    for argv in (
        ["count", "catalan", "-m", "2", "-n", "600"],
        ["table", "catalan", "-m", "1:4", "-n", "1:300"],
    ):
        tracemalloc.start()
        try:
            code, _, err = run(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert peak < 8_000_000, (argv, peak)


def test_broken_pipe_exits_141(tmp_path):
    # Far more output than a pipe buffers, so the writer is still writing
    # when the reader closes its end after one line.
    exprs = tmp_path / "exprs.txt"
    exprs.write_text("L\n" * 3000, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "flatcount", "eval", "--file", str(exprs), "--order", "30"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"1 1 2 6 24 ")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in stderr


def test_big_counts_print_in_full():
    # 1800! has 5080 digits, past Python's default limit of 4300 digits on
    # int/str conversion.
    proc = subprocess.run(
        [sys.executable, "-m", "flatcount", "eval", "L", "--order", "1800"],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        assert int(proc.stdout.split()[-1]) == math.factorial(1800)
    finally:
        if lift:
            sys.set_int_max_str_digits(old_limit)


def test_verify_passes(capsys):
    code, out, _ = run(["verify", "--n-max", "3"], capsys)
    assert code == 0
    assert "ok catalan m=2 n<=3" in out
    assert "ok shi m=3 n<=3" in out
    assert out.endswith("verification passed\n")


def test_verify_trivial_range(capsys):
    assert run(["verify", "--n-max", "1"], capsys)[0] == 0


def test_verify_linear(capsys):
    code, out, _ = run(["verify", "--n-max", "3", "--linear"], capsys)
    assert code == 0
    assert "ok linear A=[-1,2] n<=3" in out


def test_verify_linear_cap(capsys):
    code, out, _ = run(["verify", "--n-max", "5", "--linear"], capsys)
    assert code == 0
    assert "ok linear A=[-1,2] n<=5" in out
    # Beyond n = 5 only the gain-graph oracle runs.
    code, out, _ = run(["verify", "--n-max", "6", "--m-max", "0", "--linear"], capsys)
    assert code == 0
    assert "ok linear A=[-1,2] n<=5" in out


def test_verify_reports_injected_fault(capsys, monkeypatch):
    formula_triangle = cli.formula_triangle

    def faulty(family, m, size):
        for n, column in enumerate(formula_triangle(family, m, size), start=1):
            if family == "catalan" and m == 1 and n == 3:
                column = (column[0] + 1, *column[1:])  # T(k=1, n=3)
            yield column

    monkeypatch.setattr(cli, "formula_triangle", faulty)
    code, out, _ = run(["verify", "--n-max", "3"], capsys)
    assert code == 1
    mismatches = [line for line in out.splitlines() if line.startswith("mismatch")]
    assert mismatches == ["mismatch family=catalan m=1 n=3 k=1 expected=14 got=13"]
    assert "verification FAILED" in out


def test_console_entry_point_bytes():
    proc = subprocess.run(
        [sys.executable, "-m", "flatcount", "count", "catalan", "-m", "2", "-n", "5"],
        capture_output=True,
        check=True,
    )
    assert proc.stdout == b"8972\n"


def test_verify_rejects_negative_m_max(capsys):
    code, out, err = run(["verify", "--m-max", "-3"], capsys)
    assert code == 2
    assert "--m-max must be nonnegative" in err
    assert "verification passed" not in out


@pytest.mark.parametrize(
    "expr",
    [
        "(" * 3000 + "E" + ")" * 3000,
        " + ".join(["X"] * 5000),
        " o ".join(["L+"] * 3000),
        "X ∘ " * 50_000 + "X",
    ],
    ids=["parentheses", "sum", "composition", "long-composition"],
)
def test_eval_too_deep_exits_3(tmp_path, expr):
    path = tmp_path / "deep.txt"
    path.write_text(expr + "\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "flatcount", "eval", "--file", str(path), "--order", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error on line 1: expression nested too deeply\n"


def test_eval_non_decimal_digit_exits_3():
    # '³' passes str.isdigit() but not int()
    proc = subprocess.run(
        [sys.executable, "-m", "flatcount", "eval", "E o L+^o³ o E+"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: unknown token '³' (byte offset 8)\n"


_BENCH_CONTRACT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import flatcount, flatcount.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
gone = [name for name in ("TableSpec", "render_table", "main") if not hasattr(flatcount.cli, name)]
print(json.dumps({"missing": tracer.missing, "gone": gone}))
"""


def test_benchmark_finds_its_targets():
    # bench/tracer.py wraps flatcount functions by name and bench/checks.py
    # calls these cli names; a renamed target would make a per-layer metric
    # read 0 instead of failing.
    bench = Path(__file__).resolve().parents[1] / "bench"
    proc = subprocess.run(
        [sys.executable, "-c", _BENCH_CONTRACT, str(bench)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == {"missing": [], "gone": []}


def _bench_tree(name):
    path = Path(__file__).resolve().parents[1] / "bench" / name
    return ast.parse(path.read_text(encoding="utf-8"))


def _bench_literal(tree, name):
    """The literal value of a bench file's module-level `name = ...`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in the bench file")


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def _resolves(module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_benchmark_names_resolve():
    # bench/checks.py calls these names in its jobs, so a name dropped from
    # flatcount fails every job that reaches it; bench/tracer.py skips a
    # missing target silently, so a dropped one only loses its span.
    checks, tracer = _bench_tree("checks.py"), _bench_tree("tracer.py")
    attributes = {_dotted(node) for node in ast.walk(checks) if isinstance(node, ast.Attribute)}
    names = [("flatcount", path[3:]) for path in attributes if path.startswith("fc.")]
    assert len(names) > 10
    names += [("flatcount", name) for row in _bench_literal(checks, "_BIJECTIONS").values()
              for name in row]
    names += [
        (node.module, alias.name)
        for node in ast.walk(checks)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("flatcount")
        for alias in node.names
    ]
    assert ("flatcount.cli", "render_table") in names
    names += [(module, attr) for module, attr, _ in _bench_literal(tracer, "TARGETS")]
    names.append(_bench_literal(tracer, "PARTITIONS")[:2])
    assert [f"{m}.{a}" for m, a in names if not _resolves(m, a)] == []


def test_families_table():
    assert list(cli.FAMILIES) == ["braid", "catalan", "shi"]
    braid, catalan, shi = cli.FAMILIES.values()
    assert (braid.m_min, braid.table_m, braid.verify_m_max) == (None, (0,), None)
    assert (catalan.m_min, catalan.table_m, catalan.verify_m_max) == (0, (1, 2, 3, 4), 2)
    assert (shi.m_min, shi.table_m, shi.verify_m_max) == (1, (1, 2, 3, 4, 5), 3)
    assert braid.interval(0) == GainInterval(0, 0)
    assert catalan.interval(2) == GainInterval(-2, 2)
    assert shi.interval(2) == GainInterval(-1, 2)
    assert (braid.q_shift, catalan.q_shift, shi.q_shift) == (1, 1, 0)
    for family, m, reference in (
        ("braid", 0, catalan_triangle(0, 6)),
        ("catalan", 2, catalan_triangle(2, 6)),
        ("shi", 2, shi_triangle(2, 6)),
    ):
        columns = [reference.column(n) for n in range(1, 7)]
        assert list(cli.formula_triangle(family, m, 6)) == columns, family


@pytest.mark.parametrize("family", list(cli.FAMILIES))
def test_family_commands_agree(family, capsys):
    m_min = cli.FAMILIES[family].m_min
    m_args = [] if m_min is None else ["-m", str(m_min)]
    for n in range(1, 5):
        count = run(["count", family, *m_args, "-n", str(n)], capsys)
        by_dim = run(["count", family, *m_args, "-n", str(n), "--by-dim"], capsys)
        oracle = run(["oracle", family, *m_args, "-n", str(n)], capsys)
        assert count[0] == by_dim[0] == oracle[0] == 0
        assert by_dim[1] == oracle[1]
        assert int(count[1]) == sum(map(int, by_dim[1].split()))
    # braid takes no -m at all, not even 0
    bad = ["-m", "0" if m_min is None else str(m_min - 1)]
    for argv in (["count", family, *bad, "-n", "3"], ["oracle", family, *bad, "-n", "3"]):
        assert run(argv, capsys)[0] == 2
    assert run(["table", family, *bad], capsys)[0] == 2


# Fuzzed argv: a subcommand, its required arguments and any of its options,
# in any order, with in-range and out-of-range values and at most one junk
# token inserted anywhere. Junk holds no decimal digits and every option value
# is bounded, so no command can read a size past its bound: oracle -n and
# verify --n-max <= 4, count and table -n <= 60, --order <= 20, |m| <= 6.
_JUNK = st.sampled_from(["", "-", "--", "-x", "--bogus", ":", "x:y", "-h"]) | st.text(
    st.characters(blacklist_categories=("Nd", "Cs")), max_size=4
)
_FAMILY = st.sampled_from([*cli.FAMILIES, "linial"]).map(lambda family: [family])


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _ranges(lo, hi):
    pairs = st.tuples(st.integers(lo, hi), st.integers(lo, hi))
    return _ints(lo, hi) | pairs.map(lambda pair: f"{pair[0]}:{pair[1]}")


def _option(flag, values):
    return values.map(lambda value: [flag, value])


def _maybe(strategy):
    return strategy | st.just([])


def _arguments(command, files):
    """Strategies for the arguments of a subcommand, each drawing the tokens of
    one argument; an optional argument may draw none."""
    if command == "count":
        return [_FAMILY, _option("-n", _ints(-6, 60)), _maybe(_option("-m", _ints(-6, 6))),
                _maybe(st.just(["--by-dim"]))]
    if command == "table":
        return [_FAMILY, _maybe(_option("-m", _ranges(-6, 6))),
                _maybe(_option("-n", _ranges(-6, 60))),
                _maybe(_option("--mode", st.sampled_from(["totals", "by-dimension",
                                                          "one-dimensional"]))),
                _maybe(_option("--format", st.sampled_from(["tsv", "csv", "markdown", "bfile"])))]
    if command == "eval":
        exprs = st.sampled_from(["E o E+", "E o L+^o6 o E+", "C+ * E_2 + X", "E o L", "E o ("])
        return [_maybe(exprs.map(lambda expr: [expr])), _maybe(_option("--order", _ints(-6, 20))),
                _maybe(_option("--file", st.sampled_from(files)))]
    if command == "oracle":
        return [_FAMILY, _option("-n", _ints(-6, 4)), _maybe(_option("-m", _ints(-6, 6))),
                _maybe(_option("--method", st.sampled_from(["gaingraph", "linear"])))]
    if command == "verify":
        # without --n-max, verify runs to n = 5, past the bound
        return [_option("--n-max", _ints(-6, 4)), _maybe(_option("--m-max", _ints(-6, 6))),
                _maybe(st.just(["--linear"]))]
    return []


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    (folder / "good.txt").write_text("E o E+\n\nL+^o2\n", encoding="utf-8")
    (folder / "bad.txt").write_text("E o L\n", encoding="utf-8")
    (folder / "latin.txt").write_bytes(b"\xff\xfeE o E+\n")
    paths = [folder / name for name in ("good.txt", "bad.txt", "latin.txt", "missing")]
    return [str(path) for path in paths + [folder]]  # a folder cannot be read either


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_with_a_documented_code(eval_files, data):
    command = data.draw(st.sampled_from(["count", "table", "eval", "oracle", "verify", "bogus"]))
    chunks = [data.draw(argument) for argument in _arguments(command, eval_files)]
    tokens = [token for chunk in data.draw(st.permutations(chunks)) for token in chunk]
    for junk in data.draw(st.lists(_JUNK, max_size=1)):
        tokens.insert(data.draw(st.integers(0, len(tokens))), junk)
    argv = [command] + tokens
    try:
        code = cli.main(argv)
    except SystemExit as err:
        code = err.code
    assert code in (0, 1, 2, 3), argv
