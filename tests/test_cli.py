import math
import subprocess
import sys

import pytest

from flatcount import cli
from flatcount.triangles import shi_count_closed
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


def test_eval_errors_exit_3(capsys):
    code, _, err = run(["eval", "E o L"], capsys)
    assert code == 3
    assert "constant term" in err
    code, _, err = run(["eval", "E o ("], capsys)
    assert code == 3
    assert "error" in err


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


def test_cache_is_transparent(tmp_path, capsys, monkeypatch):
    baseline = run(["table", "shi", "-n", "1:6"], capsys)
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    cold = run(["table", "shi", "-n", "1:6"], capsys)
    cached_files = list(tmp_path.iterdir())
    warm = run(["table", "shi", "-n", "1:6"], capsys)
    assert cold == baseline
    assert warm == baseline
    assert cached_files


def test_cache_checksum_mismatch_recomputes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    argv = ["count", "catalan", "-m", "2", "-n", "5"]
    assert run(argv, capsys)[:2] == (0, "8972\n")
    (path,) = tmp_path.iterdir()
    good = path.read_text(encoding="utf-8")
    assert "4501" in good
    # A damaged entry fails the checksum: the triangle is recomputed and
    # the file rewritten.
    path.write_text(good.replace("4501", "450"), encoding="utf-8")
    assert run(argv, capsys)[:2] == (0, "8972\n")
    assert path.read_text(encoding="utf-8") == good
    # So is a file without a checksum, with text after it, or with the rows
    # of another size.
    for damaged in (good.split("crc32")[0], good + "1\n"):
        path.write_text(damaged, encoding="utf-8")
        assert run(argv, capsys)[:2] == (0, "8972\n")
        assert path.read_text(encoding="utf-8") == good
    run(["count", "catalan", "-m", "2", "-n", "4"], capsys)
    path.write_bytes((tmp_path / "catalan-m2-N4.tsv").read_bytes())
    assert run(argv, capsys)[:2] == (0, "8972\n")
    assert path.read_text(encoding="utf-8") == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["catalan-m2-N4.tsv", path.name]


def test_unusable_cache_dir_is_no_cache(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    monkeypatch.setenv(cli.CACHE_ENV, str(blocker / "cache"))
    assert run(["count", "catalan", "-m", "2", "-n", "5"], capsys) == (0, "8972\n", "")
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_huge_exponents(capsys):
    # Binary powering makes m = 10^8 cost about 27 squarings.
    m = 100_000_000
    code, out, _ = run(["count", "shi", "-m", str(m), "-n", "3"], capsys)
    assert (code, out) == (0, "60000000600000001\n")
    assert int(out) == sum(shi_count_closed(m, 3, k) for k in (1, 2, 3)) == 6 * m * m + 6 * m + 1
    code, out, _ = run(["eval", "L+^o100000000", "--order", "3"], capsys)
    assert (code, out) == (0, "0 1 200000000 60000000000000000\n")


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
    def fault(family, m, n, column):
        if family == "catalan" and m == 1 and n == 3:
            return (column[0] + 1,) + column[1:]
        return column

    monkeypatch.setattr(cli, "_fault_hook", fault)
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
