"""Command-line interface.

Subcommands:
    count    total or per-dimension flat counts for one arrangement
    table    reference tables in tsv / csv / markdown / b-file form
    eval     evaluate a species expression to its counting sequence
    oracle   recount flats by brute force (gain-graph or linear method)
    verify   cross-check the matrix formulas against the oracles

Exit codes: 0 success, 1 verification mismatch, 2 argument error,
3 expression error, 4 unexpected internal error (MemoryError included),
141 (128 + SIGPIPE) output pipe closed by the reader.
All numeric output is exact decimal. `count`, `table`, `oracle` and `verify`
print numbers of any length; `eval` refuses a coefficient of more than
MAX_DIGITS digits, and a `^o` power whose a_1 passes dsl.MAX_ITERATE_BITS
bits (exit 3). `count`, `table`, `oracle` and `verify` refuse an n above
MAX_ORDER, `table` an m range of more than MAX_ORDER values or more than
MAX_TABLE_CELLS triangle cells, and `verify` an --m-max above MAX_ORDER
(exit 2). `oracle` and `verify` also refuse a run whose predicted blocks
and set partitions pass MAX_GAIN_WORK, or flats and meet plans pass
MAX_LINEAR_WORK (exit 2). `verify` checks each oracle run against the
formula's counts.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterator
from math import ceil, log2
from operator import itemgetter

from .dsl import MAX_EXPONENT_BITS, ExpressionTooLarge, ParseError, evaluate_text
from .oracle import GainInterval, enumerate_flats_gain, enumerate_flats_linear
from .record import Record
from .species import CompositionConstantTerm
from .triangles import DEFAULT_ORDER, riordan_columns

# `verify --linear` checks the linear oracle up to this n: n = 1..5 take
# about 0.13 s for the three intervals, n = 6 about 0.56 s for [-1, 1] and
# 1.3-1.7 s for [-1, 2] on a 2-core VM.
LINEAR_N_MAX = 5
# The largest `eval --order`, the largest n of `count` and `table`, and the
# most m values of one `table`.
# Every atom's sequence is built at the full order before any work, so an
# order of 10^9 would fill memory. At 2000, `eval L` takes 0.9 s,
# `eval "E o E+"` 21 s and `eval "E o L+^o3 o E+"` 7.4 min. The bound still
# admits coefficients past Python's default limit of 4300 digits on int/str
# conversion: 1800! has 5080. The columns of `count` and `table` cost about
# 6x per doubling of n: `count catalan -m 2 -n 2000` takes about 6 s. A
# table builds one triangle per m: `table catalan -m 1:2000 -n 1:50` takes
# about 1 s.
MAX_ORDER = 2000
# The most triangle cells one `table` builds: len(m values) * n(n + 1)/2 for
# its largest n. Each m builds its own triangle, so the m and n bounds alone
# admit 2000 triangles of size 2000, over an hour of work. Near the bound,
# `table shi -m 1:200 -n 1:300` (9,030,000 cells) takes about 6 s and
# `table catalan -m 1:4 -n 2000` (8,004,000 cells) about 12 s.
MAX_TABLE_CELLS = 10**7
# `eval` prints no coefficient of more bits than 10^MAX_DIGITS has, so every
# coefficient it refuses has more than MAX_DIGITS digits. CPython 3.11
# converts an int to decimal in quadratic time, 0.17 s for 10^5 digits and
# 1.5 s for 3 * 10^5 on a 2-core VM, and the 3,010,300 digits of
# `eval "(X+X)^o10000000" --order 6` did not finish in a minute, although
# evaluating them takes 0.75 s.
MAX_DIGITS = 100_000
_MAX_BITS = ceil(MAX_DIGITS * log2(10))
# The most work `oracle` and `verify` start, predicted by _oracle_work: for
# the gain-graph oracle its blocks and set partitions, for the linear oracle
# its flats and meet plans. Near the bounds, `oracle catalan -m 3 -n 7`
# (9,340,094 units) takes 10.6-16 s and 600 MB on a 2-core VM. The slowest
# linear runs admitted, `oracle shi -m 2 -n 6 --method linear` (65,731
# units) and `oracle catalan -m 4 -n 5 --method linear` (73,362), take
# 1.2-1.5 s and 23 MB; braid's plans, (Bell(n) - 1) n(n - 1)/2, refuse
# `oracle braid -n 8 --method linear` (120,032 units, 1 s of work). The
# largest documented commands, `verify --n-max 7` and `oracle shi -m 2 -n 6
# --method linear`, predict 5,492,472 and 65,731 units.
MAX_GAIN_WORK = 10**7
MAX_LINEAR_WORK = 10**5


class Family(Record):
    """An arrangement family: the gains A(m) of its hyperplanes x_i - x_j = a,
    its matrix word, and the m values the CLI accepts and uses by default."""

    __slots__ = ("interval", "q_shift", "m_min", "table_m", "verify_m_max")
    interval: Callable[[int], GainInterval]
    q_shift: int  # q - m of its word T(m), whose columns are riordan_columns(m, q, size)
    m_min: int | None  # the smallest valid m; None: the family takes no -m
    table_m: tuple[int, ...]  # the m values of `table` without -m
    verify_m_max: int | None  # the default `verify --m-max`; None: not verified


# Family(interval, q_shift, m_min, table_m, verify_m_max); the words are
# (S c)^m S for braid and Catalan (q = m + 1) and (S c)^m for Shi (q = m).
# Braid's m is always 0, so its interval is GainInterval.catalan(0).
FAMILIES = {
    "braid": Family(GainInterval.catalan, 1, None, (0,), None),
    "catalan": Family(GainInterval.catalan, 1, 0, (1, 2, 3, 4), 2),
    "shi": Family(GainInterval.shi, 0, 1, (1, 2, 3, 4, 5), 3),
}


class TableSpec(Record):
    __slots__ = ("family", "m_values", "n_values", "mode", "fmt")
    family: str  # a key of FAMILIES
    m_values: tuple[int, ...]
    n_values: tuple[int, ...]
    mode: str  # totals | by-dimension | one-dimensional
    fmt: str  # tsv | csv | markdown | bfile


def formula_triangle(family: str, m: int, size: int) -> Iterator[tuple[int, ...]]:
    """The family's flat counts by dimension k = 1..n for n = 1..size, one
    column per n, in order: the one place the CLI computes counts by formula."""
    return riordan_columns(m, m + FAMILIES[family].q_shift, size)


def _oracle_work(method: str, family: str, m: int, n: int) -> Iterator[int]:
    """Lower bounds of the work of one oracle run on the family's
    n-dimensional arrangement, one for each r = 1..n, rising to the exact
    prediction: for the linear method the flats of dimension r's
    arrangement plus its (Bell(r) - 1) r(r - 1)/2 meet plans, one for each
    linear part of a flat of rank below r - 1 and each pair i < j; for the
    gain method the blocks of sizes 1..r plus the Bell(r) set partitions of
    r labels. A `verify` run, one oracle for n = n_top..1, is predicted by
    its n_top alone: the gain oracle grows no block again for the smaller n
    and visits fewer set partitions, and the linear oracle's smaller n
    together come to at most a third of n_top's.
    """
    columns = zip(formula_triangle(family, m, n), formula_triangle("braid", 0, n))
    work = 0
    for r, (column, partitions) in enumerate(columns, 1):
        if method == "linear":
            yield sum(column) + (sum(partitions) - 1) * r * (r - 1) // 2
        else:
            work += column[0]  # the T(r, 1) connected blocks on r labels
            yield work + sum(partitions)


def _check_work(runs, parser) -> None:
    """Refuse, before any of them starts, oracle runs (method, family, m, n)
    whose predicted work passes MAX_GAIN_WORK or MAX_LINEAR_WORK in sum.
    The sum stops as soon as it passes, so a long list is refused at once,
    and a large n before its columns are built.

    The formula only decides whether a run starts: the counts still come
    from the oracles' own code, so a wrong formula could refuse a run but
    never pass a wrong count.
    """
    bounds = {
        "gaingraph": (MAX_GAIN_WORK, "blocks and set partitions"),
        "linear": (MAX_LINEAR_WORK, "flats and meet plans"),
    }
    spent = dict.fromkeys(bounds, 0)
    for method, family, m, n in runs:
        bound, units = bounds[method]
        for work in _oracle_work(method, family, m, n):
            if spent[method] + work > bound:
                parser.error(f"the {method} oracle would go through more than {bound} {units}")
        spent[method] += work


def _parse_range(text: str, what: str, parser) -> range:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
        else:
            lo = hi = text
        values = range(int(lo), int(hi) + 1)
    except ValueError:
        parser.error(f"bad {what} range {text!r}: use N or LO:HI")
    if not values:
        parser.error(f"empty {what} range {text!r}")
    return values


def _check_family_m(family: str, m, parser) -> int:
    m_min = FAMILIES[family].m_min
    if m_min is None:
        if m is not None:
            parser.error(f"{family} takes no -m")
        return 0
    if m is None:
        parser.error(f"{family} needs -m")
    if m < m_min:
        parser.error(f"{family} needs m >= {m_min}")
    return m


def _check_n(least: int, most: int, parser) -> None:
    """Refuse the n of `count`, `table` or `oracle` outside 1..MAX_ORDER."""
    if least < 1:
        parser.error("n must be positive")
    if most > MAX_ORDER:
        parser.error(f"n must be at most {MAX_ORDER}")


def cmd_count(args, parser) -> int:
    m = _check_family_m(args.family, args.m, parser)
    _check_n(args.n, args.n, parser)
    for column in formula_triangle(args.family, m, args.n):
        pass  # keep only the last column, n = args.n
    if args.by_dim:
        print(" ".join(str(v) for v in column))
    else:
        print(sum(column))
    return 0


# What `table` keeps of each column it prints, by mode.
_TABLE_CELL = {"totals": sum, "one-dimensional": itemgetter(0), "by-dimension": tuple}


def _table_cells(spec: TableSpec) -> tuple[list[str], list[list[str]]]:
    n_max = max(spec.n_values)
    wanted = set(spec.n_values)

    def cells(m):
        columns = enumerate(formula_triangle(spec.family, m, n_max), start=1)
        kept = {n: _TABLE_CELL[spec.mode](column) for n, column in columns if n in wanted}
        return [kept[n] for n in spec.n_values]

    if spec.mode == "by-dimension":
        header = ["n\\k"] + [str(k) for k in range(1, n_max + 1)]
        body = [
            [str(n)] + [str(v) for v in column] + [""] * (n_max - n)
            for n, column in zip(spec.n_values, cells(spec.m_values[0]))
        ]
        return header, body
    header = ["m"] + [str(n) for n in spec.n_values]
    body = [[str(m)] + [str(v) for v in cells(m)] for m in spec.m_values]
    return header, body


def render_table(spec: TableSpec) -> str:
    header, body = _table_cells(spec)
    if spec.fmt == "bfile":  # one m: the row's cells are a(n) for n in the header
        return "".join(f"{n} {value}\n" for n, value in zip(header[1:], body[0][1:]))
    if spec.fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("| " + " | ".join("---" for _ in header) + " |")
        lines.extend("| " + " | ".join(row) + " |" for row in body)
        return "\n".join(lines) + "\n"
    sep = "\t" if spec.fmt == "tsv" else ","
    return "".join(sep.join(row) + "\n" for row in [header] + body)


def cmd_table(args, parser) -> int:
    if args.m is None:
        m_values = FAMILIES[args.family].table_m
    else:
        m_range = _parse_range(args.m, "m", parser)
        # Ranges ascend, so the first m decides the family check for all.
        _check_family_m(args.family, m_range[0], parser)
        if len(m_range) > MAX_ORDER:
            parser.error(f"an m range holds at most {MAX_ORDER} values")
        m_values = tuple(m_range)
    n_values = _parse_range(args.n, "n", parser)
    _check_n(n_values[0], n_values[-1], parser)
    if len(m_values) * n_values[-1] * (n_values[-1] + 1) // 2 > MAX_TABLE_CELLS:
        parser.error(f"a table builds at most {MAX_TABLE_CELLS} triangle cells")
    n_values = tuple(n_values)
    if args.mode == "by-dimension" and len(m_values) != 1:
        parser.error("by-dimension tables need a single m")
    if args.format == "bfile":
        if len(m_values) != 1:
            parser.error("b-files need a single m")
        if args.mode == "by-dimension":
            parser.error("b-files need mode totals or one-dimensional")
    spec = TableSpec(args.family, m_values, n_values, args.mode, args.format)
    sys.stdout.write(render_table(spec))
    return 0


def cmd_eval(args, parser) -> int:
    if args.order < 0:
        parser.error("order must be nonnegative")
    if args.order > MAX_ORDER:
        parser.error(f"order must be at most {MAX_ORDER}")
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
        except UnicodeDecodeError as err:
            parser.error(f"{args.file}: {err}")
        sources = [(line, i) for i, line in enumerate(lines, start=1) if line.strip()]
    for text, lineno in sources:
        where = f" on line {lineno}" if lineno is not None else ""
        try:
            seq = evaluate_text(text, args.order)
        except (ParseError, CompositionConstantTerm, ExpressionTooLarge) as err:
            print(f"error{where}: {err}", file=sys.stderr)
            return 3
        # Sized from the bits, before any decimal conversion starts.
        too_long = next((n for n, a in enumerate(seq.coeffs) if a.bit_length() > _MAX_BITS), None)
        if too_long is not None:
            print(f"error{where}: a_{too_long} has more than {MAX_DIGITS} digits", file=sys.stderr)
            return 3
        print(" ".join(str(a) for a in seq.coeffs))
    return 0


def _oracle(method: str):
    """The oracle of `--method`, looked up when called."""
    return enumerate_flats_linear if method == "linear" else enumerate_flats_gain


def cmd_oracle(args, parser) -> int:
    m = _check_family_m(args.family, args.m, parser)
    _check_n(args.n, args.n, parser)
    _check_work([(args.method, args.family, m, args.n)], parser)
    counts = _oracle(args.method)(args.n, FAMILIES[args.family].interval(m))
    print(" ".join(str(counts.get(k, 0)) for k in range(1, args.n + 1)))
    return 0


# The intervals, as (family, m), whose linear oracle `verify --linear` checks.
_LINEAR_PLANS = (("catalan", 1), ("shi", 1), ("shi", 2))


def cmd_verify(args, parser) -> int:
    if args.n_max < 1:
        parser.error("--n-max must be positive")
    if args.m_max is not None and args.m_max < 0:
        parser.error("--m-max must be nonnegative")
    if max(args.n_max, args.m_max or 0) > MAX_ORDER:
        parser.error(f"--n-max and --m-max must be at most {MAX_ORDER}")
    runs = []  # (method, family, m, n_top): one oracle for n = n_top..1
    for name, family in FAMILIES.items():
        if family.verify_m_max is not None:
            m_max = family.verify_m_max if args.m_max is None else args.m_max
            runs += [("gaingraph", name, m, args.n_max) for m in range(family.m_min, m_max + 1)]
    if args.linear:
        n_linear = min(LINEAR_N_MAX, args.n_max)
        runs += [("linear", family, m, n_linear) for family, m in _LINEAR_PLANS]
    _check_work(runs, parser)
    mismatches = 0
    for method, family, m, n_top in runs:
        interval = FAMILIES[family].interval(m)
        oracle = _oracle(method)
        # n_top first: its gain blocks cover every smaller n, so the
        # smaller n grow no block again.
        got_by_n = [oracle(n, interval) for n in range(n_top, 0, -1)][::-1]
        lines = []
        for n, (column, got) in enumerate(zip(formula_triangle(family, m, n_top), got_by_n), 1):
            expected = dict(enumerate(column, 1))
            if method == "linear":
                if got != expected:
                    lines.append(
                        f"mismatch linear A={interval} n={n} expected={expected} got={got}"
                    )
            else:
                lines += [
                    f"mismatch family={family} m={m} n={n} k={k} "
                    f"expected={count} got={got.get(k, 0)}"
                    for k, count in expected.items()
                    if count != got.get(k, 0)
                ]
        mismatches += len(lines)
        if not lines:
            what = f"linear A={interval}" if method == "linear" else f"{family} m={m}"
            lines = [f"ok {what} n<={n_top}"]
        print("\n".join(lines))
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
    count.add_argument("family", choices=FAMILIES)
    count.add_argument("-m", type=int, default=None, help="extension parameter")
    count.add_argument(
        "-n", type=int, required=True, help=f"ambient dimension, at most {MAX_ORDER}"
    )
    count.add_argument("--by-dim", action="store_true", help="print counts for k = 1..n")

    table = sub.add_parser("table", help="render a reference table")
    table.add_argument("family", choices=FAMILIES)
    table.add_argument(
        "-m",
        default=None,
        help=f"m or LO:HI (default: the shipped range), at most {MAX_ORDER} values; "
        f"a table of more than {MAX_TABLE_CELLS} triangle cells (n(n + 1)/2 per m for "
        "the largest n) is refused",
    )
    table.add_argument(
        "-n",
        default="1:7",
        help=f"n or LO:HI (default 1:7), each n at most {MAX_ORDER}; see -m for the cell bound",
    )
    table.add_argument(
        "--mode",
        choices=("totals", "by-dimension", "one-dimensional"),
        default="totals",
    )
    table.add_argument("--format", choices=("tsv", "csv", "markdown", "bfile"), default="tsv")

    ev = sub.add_parser("eval", help="evaluate a species expression")
    ev.add_argument(
        "expr",
        nargs="?",
        default=None,
        help=f"species expression; a '^o' exponent or an 'E_' subscript has at most "
        f"{MAX_EXPONENT_BITS} bits, and a longer one is an expression error",
    )
    ev.add_argument("--file", default=None, help="read expressions from a file, one per line")
    ev.add_argument(
        "--order",
        type=int,
        default=DEFAULT_ORDER,
        help=f"print a_0..a_ORDER (default {DEFAULT_ORDER}, at most {MAX_ORDER}); "
        "the time grows steeply with ORDER",
    )

    orc = sub.add_parser("oracle", help="brute-force flat counts (small n)")
    orc.add_argument("family", choices=FAMILIES)
    orc.add_argument("-m", type=int, default=None)
    orc.add_argument(
        "-n",
        type=int,
        required=True,
        help="ambient dimension; practical up to n = 7, and n = 6 with --method linear; "
        f"a run predicted to pass {MAX_GAIN_WORK} blocks and set partitions, "
        f"or {MAX_LINEAR_WORK} flats and meet plans, is refused",
    )
    orc.add_argument("--method", choices=("gaingraph", "linear"), default="gaingraph")

    ver = sub.add_parser("verify", help="formulas vs oracles")
    ver.add_argument("--n-max", type=int, default=5, help=f"default 5, at most {MAX_ORDER}")
    m_max_defaults = ", ".join(
        f"{name} {family.verify_m_max}"
        for name, family in FAMILIES.items()
        if family.verify_m_max is not None
    )
    ver.add_argument(
        "--m-max", type=int, default=None, help=f"default: {m_max_defaults}; at most {MAX_ORDER}"
    )
    ver.add_argument(
        "--linear",
        action="store_true",
        help=f"also check the linear oracle against the formulas, for n up to "
        f"min(--n-max, {LINEAR_N_MAX})",
    )

    return parser


def main(argv=None) -> int:
    # Counts are exact and can run to many thousands of digits (1800! has
    # 5080), past Python's default int/str conversion limit. Interpreters
    # older than the limit (before 3.10.7) have no setter and no limit.
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
    except Exception as err:  # any other fault, MemoryError included
        # Exit 1 means "verification mismatch", so a fault gets its own code
        # and a one-line message (repr escapes newlines) instead of a traceback.
        print(f"internal error: {err!r}", file=sys.stderr)
        code = 4
    sys.exit(code)
