"""Command-line interface.

Subcommands:
    count    total or per-dimension flat counts for one arrangement
    table    reference tables in tsv / csv / markdown / b-file form
    eval     evaluate a species expression to its counting sequence
    oracle   recount flats by brute force (gain-graph or linear method)
    verify   cross-check the matrix formulas against the oracles

Exit codes: 0 success, 1 verification mismatch, 2 argument error,
3 expression error, 141 (128 + SIGPIPE) output pipe closed by the reader.
All numeric output is exact decimal, with no limit on the number of digits.
Computed triangles can be memoized on disk by setting FLATCOUNT_CACHE_DIR;
the cache never changes results. Each cache file ends in a CRC-32 of its
rows: a file that fails it is recomputed and rewritten, and a cache that
cannot be written is skipped.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
import zlib
from dataclasses import dataclass

from .dsl import ParseError, evaluate_text
from .exact import DEFAULT_ORDER
from .oracle import GainInterval, enumerate_flats_gain, enumerate_flats_linear
from .species import CompositionConstantTerm
from .triangles import Triangle, catalan_triangle, shi_triangle, total_flats

CACHE_ENV = "FLATCOUNT_CACHE_DIR"

# `verify --linear` checks the linear oracle up to this n: n = 5 takes about
# 1.3 s for the three intervals, n = 6 about 5 s for [-1, 1] alone.
LINEAR_N_MAX = 5

# Test-only hook: when set, applied to each formula column during `verify`
# so that the mismatch path can be exercised deliberately.
_fault_hook = None


@dataclass(frozen=True)
class TableSpec:
    family: str  # braid | catalan | shi
    m_values: tuple[int, ...]
    n_values: tuple[int, ...]
    mode: str  # totals | by-dimension | one-dimensional
    fmt: str  # tsv | csv | markdown | bfile


def family_interval(family: str, m: int) -> GainInterval:
    if family == "braid":
        return GainInterval.braid()
    if family == "catalan":
        return GainInterval.catalan(m)
    return GainInterval.shi(m)


def _compute_triangle(family: str, m: int, size: int) -> Triangle:
    if family == "shi":
        return shi_triangle(m, size)
    return catalan_triangle(0 if family == "braid" else m, size)


def formula_triangle(family: str, m: int, size: int) -> Triangle:
    """Triangle for the family, read through the on-disk cache when enabled."""
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return _compute_triangle(family, m, size)
    path = os.path.join(cache_dir, f"{family}-m{m}-N{size}.tsv")
    triangle = _read_cache(path, size)
    if triangle is None:
        triangle = _compute_triangle(family, m, size)
        _write_cache(cache_dir, path, triangle)
    return triangle


# A cache file is the triangle's rows as tab-separated lines, then this tag
# and the CRC-32 of those lines in hex. Both directions stream one line at a
# time, so the file is never held whole in memory next to the triangle.
_CHECKSUM_TAG = b"crc32 "


def _read_cache(path: str, size: int):
    """The cached triangle, or None if the file is missing, unreadable,
    fails its checksum or does not hold a size x size triangle."""
    rows, crc = [], 0
    try:
        with open(path, "rb") as handle:
            for line in handle:
                if line.startswith(_CHECKSUM_TAG):
                    if line != _CHECKSUM_TAG + b"%08x\n" % crc or handle.read(1):
                        return None
                    break
                crc = zlib.crc32(line, crc)
                rows.append(tuple(int(cell) for cell in line.split(b"\t")))
            else:
                return None  # no checksum line
        triangle = Triangle(tuple(rows))
    except (OSError, ValueError):
        return None
    return triangle if triangle.size == size else None


def _write_cache(cache_dir: str, path: str, triangle: Triangle) -> None:
    """Write the triangle to path through a temporary file and a rename, so
    a reader never sees a partial file. Any OSError leaves the cache as it
    was: the cache is then simply not used."""
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    except OSError:
        return
    try:
        crc = 0
        with os.fdopen(fd, "wb") as handle:
            for row in triangle.rows:
                line = ("\t".join(map(str, row)) + "\n").encode()
                crc = zlib.crc32(line, crc)
                handle.write(line)
            handle.write(_CHECKSUM_TAG + b"%08x\n" % crc)
        os.chmod(tmp, 0o644)  # mkstemp makes it owner-only
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _parse_range(text: str, what: str, parser) -> tuple[int, ...]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            values = tuple(range(int(lo), int(hi) + 1))
        else:
            values = (int(text),)
    except ValueError:
        parser.error(f"bad {what} range {text!r}: use N or LO:HI")
    if not values:
        parser.error(f"empty {what} range {text!r}")
    return values


def _check_family_m(family: str, m, parser, *, required=True):
    if family == "braid":
        if m is not None:
            parser.error("braid takes no -m")
        return 0
    if m is None:
        if required:
            parser.error(f"{family} needs -m")
        return None
    if family == "catalan" and m < 0:
        parser.error("catalan needs m >= 0")
    if family == "shi" and m < 1:
        parser.error("shi needs m >= 1")
    return m


def cmd_count(args, parser) -> int:
    m = _check_family_m(args.family, args.m, parser)
    if args.n < 1:
        parser.error("n must be positive")
    triangle = formula_triangle(args.family, m, args.n)
    if args.by_dim:
        print(" ".join(str(v) for v in triangle.column(args.n)))
    else:
        print(total_flats(triangle, args.n))
    return 0


_DEFAULT_M = {"braid": (0,), "catalan": (1, 2, 3, 4), "shi": (1, 2, 3, 4, 5)}


def _table_cells(spec: TableSpec) -> tuple[list[str], list[list[str]]]:
    n_max = max(spec.n_values)
    if spec.mode == "by-dimension":
        triangle = formula_triangle(spec.family, spec.m_values[0], n_max)
        header = ["n\\k"] + [str(k) for k in range(1, n_max + 1)]
        body = []
        for n in spec.n_values:
            column = triangle.column(n)
            body.append([str(n)] + [str(v) for v in column] + [""] * (n_max - n))
        return header, body
    header = ["m"] + [str(n) for n in spec.n_values]
    body = []
    for m in spec.m_values:
        triangle = formula_triangle(spec.family, m, n_max)
        if spec.mode == "totals":
            cells = [str(total_flats(triangle, n)) for n in spec.n_values]
        else:  # one-dimensional
            cells = [str(triangle.entry(1, n)) for n in spec.n_values]
        body.append([str(m)] + cells)
    return header, body


def render_table(spec: TableSpec) -> str:
    if spec.fmt == "bfile":
        triangle = formula_triangle(spec.family, spec.m_values[0], max(spec.n_values))
        lines = []
        for n in spec.n_values:
            value = total_flats(triangle, n) if spec.mode == "totals" else triangle.entry(1, n)
            lines.append(f"{n} {value}")
        return "\n".join(lines) + "\n"
    header, body = _table_cells(spec)
    if spec.fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("| " + " | ".join("---" for _ in header) + " |")
        lines.extend("| " + " | ".join(row) + " |" for row in body)
        return "\n".join(lines) + "\n"
    sep = "\t" if spec.fmt == "tsv" else ","
    return "".join(sep.join(row) + "\n" for row in [header] + body)


def cmd_table(args, parser) -> int:
    family = args.family
    if args.m is None:
        m_values = _DEFAULT_M[family]
    else:
        m_values = _parse_range(args.m, "m", parser)
        if family == "braid":
            parser.error("braid takes no -m")
        for m in m_values:
            _check_family_m(family, m, parser)
    n_values = _parse_range(args.n, "n", parser)
    if min(n_values) < 1:
        parser.error("n must be positive")
    if args.mode == "by-dimension" and len(m_values) != 1:
        parser.error("by-dimension tables need a single m")
    if args.format == "bfile":
        if len(m_values) != 1:
            parser.error("b-files need a single m")
        if args.mode == "by-dimension":
            parser.error("b-files need mode totals or one-dimensional")
    spec = TableSpec(family, m_values, n_values, args.mode, args.format)
    sys.stdout.write(render_table(spec))
    return 0


def cmd_eval(args, parser) -> int:
    if args.order < 0:
        parser.error("order must be nonnegative")
    if (args.expr is None) == (args.file is None):
        parser.error("give exactly one of EXPR or --file")
    if args.expr is not None:
        sources = [(args.expr, None)]
    else:
        try:
            with open(args.file, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as err:
            parser.error(str(err))
        sources = [(line, i) for i, line in enumerate(lines, start=1) if line.strip()]
    for text, lineno in sources:
        try:
            seq = evaluate_text(text, args.order)
        except (ParseError, CompositionConstantTerm) as err:
            where = f" on line {lineno}" if lineno is not None else ""
            print(f"error{where}: {err}", file=sys.stderr)
            return 3
        print(" ".join(str(a) for a in seq.coeffs))
    return 0


def cmd_oracle(args, parser) -> int:
    m = _check_family_m(args.family, args.m, parser)
    if args.n < 1:
        parser.error("n must be positive")
    interval = family_interval(args.family, m)
    if args.method == "linear":
        counts = enumerate_flats_linear(args.n, interval)
    else:
        counts = enumerate_flats_gain(args.n, interval)
    print(" ".join(str(counts.get(k, 0)) for k in range(1, args.n + 1)))
    return 0


def cmd_verify(args, parser) -> int:
    if args.n_max < 1:
        parser.error("--n-max must be positive")
    plans = [("catalan", m) for m in range(0, (args.m_max if args.m_max is not None else 2) + 1)]
    plans += [("shi", m) for m in range(1, (args.m_max if args.m_max is not None else 3) + 1)]
    mismatches = 0
    for family, m in plans:
        triangle = formula_triangle(family, m, args.n_max)
        interval = family_interval(family, m)
        family_ok = True
        for n in range(1, args.n_max + 1):
            expected = triangle.column(n)
            if _fault_hook is not None:
                expected = _fault_hook(family, m, n, expected)
            got = enumerate_flats_gain(n, interval)
            for k in range(1, n + 1):
                if expected[k - 1] != got.get(k, 0):
                    print(
                        f"mismatch family={family} m={m} n={n} k={k} "
                        f"expected={expected[k - 1]} got={got.get(k, 0)}"
                    )
                    mismatches += 1
                    family_ok = False
        if family_ok:
            print(f"ok {family} m={m} n<={args.n_max}")
    if args.linear:
        n_linear = min(LINEAR_N_MAX, args.n_max)
        for interval in (GainInterval(-1, 1), GainInterval(0, 1), GainInterval(-1, 2)):
            interval_ok = True
            for n in range(1, n_linear + 1):
                from_rows = enumerate_flats_linear(n, interval)
                from_heights = enumerate_flats_gain(n, interval)
                if from_rows != from_heights:
                    print(
                        f"mismatch linear A={interval} n={n} "
                        f"expected={from_heights} got={from_rows}"
                    )
                    mismatches += 1
                    interval_ok = False
            if interval_ok:
                print(f"ok linear A={interval} n<={n_linear}")
    if mismatches:
        print(f"verification FAILED: {mismatches} mismatch(es)")
        return 1
    print("verification passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatcount",
        description="Exact flat counts for extended Catalan and Shi arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="flat counts for one arrangement")
    count.add_argument("family", choices=("braid", "catalan", "shi"))
    count.add_argument("-m", type=int, default=None, help="extension parameter")
    count.add_argument("-n", type=int, required=True, help="ambient dimension")
    count.add_argument("--by-dim", action="store_true", help="print counts for k = 1..n")

    table = sub.add_parser("table", help="render a reference table")
    table.add_argument("family", choices=("braid", "catalan", "shi"))
    table.add_argument("-m", default=None, help="m or LO:HI (default: the shipped range)")
    table.add_argument("-n", default="1:7", help="n or LO:HI (default 1:7)")
    table.add_argument(
        "--mode",
        choices=("totals", "by-dimension", "one-dimensional"),
        default="totals",
    )
    table.add_argument("--format", choices=("tsv", "csv", "markdown", "bfile"), default="tsv")

    ev = sub.add_parser("eval", help="evaluate a species expression")
    ev.add_argument("expr", nargs="?", default=None)
    ev.add_argument("--file", default=None, help="read expressions from a file, one per line")
    ev.add_argument("--order", type=int, default=DEFAULT_ORDER)

    orc = sub.add_parser("oracle", help="brute-force flat counts (small n)")
    orc.add_argument("family", choices=("braid", "catalan", "shi"))
    orc.add_argument("-m", type=int, default=None)
    orc.add_argument("-n", type=int, required=True, help="ambient dimension (n <= 6 advised)")
    orc.add_argument("--method", choices=("gaingraph", "linear"), default="gaingraph")

    ver = sub.add_parser("verify", help="formulas vs oracles")
    ver.add_argument("--n-max", type=int, default=5)
    ver.add_argument("--m-max", type=int, default=None, help="default: catalan 2, shi 3")
    ver.add_argument(
        "--linear",
        action="store_true",
        help=f"also cross-check the linear oracle, for n up to min(--n-max, {LINEAR_N_MAX})",
    )

    return parser


def main(argv=None) -> int:
    # Counts are exact and can run to many thousands of digits (1800! has
    # 5080), past Python's default int/str conversion limit; the cache reader
    # parses only files this program wrote. Interpreters older than the
    # limit (before 3.10.7) have no setter and no limit.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "count": cmd_count,
        "table": cmd_table,
        "eval": cmd_eval,
        "oracle": cmd_oracle,
        "verify": cmd_verify,
    }[args.command]
    return handler(args, parser)


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`flatcount verify | head -1`). Point
        # stdout at devnull so the flush at interpreter exit cannot raise
        # again, and exit as a process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    sys.exit(code)
