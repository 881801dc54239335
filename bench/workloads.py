"""Seeded job lists for the three benchmark workloads.

Pure data: nothing here imports flatcount, so the harness can build a
workload without loading the program. The seed shuffles job order, picks
the labels the oracles and bijections run on, equivalent spellings of
the DSL expressions and the format of one CLI table. The same seed
always gives the same jobs. Sizes are fixed per job, a class of one, so
the cost is the same for every seed: a formula job's time grows like
N^4 or faster, so one step of N either side changes a job at N = 30 by
about 15%.

A job is a plain dict with an "id", a "kind" and its parameters. A
repetition runs every job twice, first with cold caches and then with
warm ones; the cold runs make the cold pass, the warm runs the warm pass.
"""

from __future__ import annotations

import random

WORKLOADS = ("formulas", "oracle", "cli")

def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shuffled(rng, jobs):
    rng.shuffle(jobs)
    for index, job in enumerate(jobs):
        job["id"] = index
    return jobs


def spell(rng, m: int, catalan: bool) -> str:
    """An equivalent spelling of `E o L+^om` (Shi totals) or
    `E o L+^om o E+` (Catalan totals): `o` or `∘`, varied whitespace and
    redundant parentheses, all parsing to the same expression tree."""

    def ws():
        return rng.choice(("", " ", "  "))

    def op():
        return rng.choice(("o", "∘"))

    base = rng.choice(("L+", "(L+)"))
    power = f"{base}{ws()}^{op()}{ws()}{m}"
    if rng.random() < 0.5:
        power = f"({ws()}{power}{ws()})"
    text = f"{rng.choice(('E', '(E)'))}{ws()}{op()}{ws()}{power}"
    if catalan:
        if rng.random() < 0.5:
            text = f"({text})"
        text = f"{text}{ws()}{op()}{ws()}{rng.choice(('E+', '(E+)'))}"
    if rng.random() < 0.5:
        text = f"{ws()}({text}){ws()}"
    return text


def canonical(m: int, catalan: bool) -> str:
    return f"E o L+^o{m} o E+" if catalan else f"E o L+^o{m}"


# (family, m, N). Low m leaves repeated squaring nothing to
# gain, high m lets it show.
_FORMULA_TRIANGLES = (
    ("catalan", 1, 40),
    ("catalan", 2, 60),
    ("catalan", 2, 100),
    ("catalan", 12, 60),
    ("catalan", 20, 40),
    ("catalan", 40, 30),
    ("shi", 1, 100),
    ("shi", 2, 60),
    ("shi", 5, 80),
    ("shi", 20, 40),
    ("shi", 40, 30),
)
# Seventeen jobs in all, an odd count: a job's cold and warm runs take
# about the same time here, so the median job latency falls among the
# runs of the middle job instead of between two jobs of different cost.
_FORMULA_BELL = (40, 60, 80, 100)
# The shipped tables, as `table catalan` and `table shi` ask for them.
_REFERENCE_M = {"catalan": range(0, 5), "shi": range(1, 6)}
REFERENCE_N = 12


def formulas_jobs(seed: int):
    rng = _rng(seed, "formulas")
    jobs = []
    for family, m_values in _REFERENCE_M.items():
        jobs.append(
            {
                "kind": "reference",
                "family": family,
                "N": REFERENCE_N,
                "cases": [[m, spell(rng, m, family == "catalan")] for m in m_values],
            }
        )
    for family, m, size in _FORMULA_TRIANGLES:
        jobs.append(
            {
                "kind": "triangle",
                "family": family,
                "N": size,
                "cases": [[m, spell(rng, m, family == "catalan")]],
            }
        )
    for size in _FORMULA_BELL:
        jobs.append({"kind": "bell", "N": size})
    return _shuffled(rng, jobs)


# The three intervals `verify --linear` checks.
LINEAR_INTERVALS = ((-1, 1), (0, 1), (-1, 2))


def _labels(rng, n):
    """n distinct sorted labels. Connectivity depends only on label order,
    so every seed asks the oracles the same question with different inputs."""
    return sorted(rng.sample(range(1, 61), n))


def oracle_jobs(seed: int):
    """One job per request. Gain-oracle requests follow `verify`: one
    family's m values at every n up to 5, and the `verify --n-max 6` cases
    at n = 6, with shi m = 2 on its own because it takes most of the time.
    The linear oracle is one request per interval, and the bijection round
    trips one per family and m. A request covers every n in its range,
    over prefixes of the job's labels, as `verify` does."""
    rng = _rng(seed, "oracle")
    jobs = [
        {"kind": "gain", "cases": [["catalan", m] for m in range(0, 3)], "n": [1, 5]},
        {"kind": "gain", "cases": [["shi", m] for m in range(1, 4)], "n": [1, 5]},
        {"kind": "gain", "cases": [["catalan", 0], ["catalan", 1], ["shi", 1]], "n": [6, 6]},
        {"kind": "gain", "cases": [["shi", 2]], "n": [6, 6]},
    ]
    jobs += [{"kind": "linear", "cases": [[lo, hi]], "n": [1, 4]} for lo, hi in LINEAR_INTERVALS]
    jobs.append({"kind": "linear", "cases": [[-1, 1]], "n": [5, 5]})
    jobs += [{"kind": "bijection", "cases": [[family, m]], "n": [1, 5]}
             for family, m in (("catalan", 0), ("catalan", 1), ("catalan", 2), ("catalan", 3),
                               ("shi", 1), ("shi", 2), ("shi", 3))]
    for job in jobs:
        job["labels"] = _labels(rng, job["n"][1])
    return _shuffled(rng, jobs)


def _cmd(argv, want, literal=None):
    job = {"kind": argv[0], "argv": argv, "want": want}
    if literal is not None:
        job["literal"] = literal
    return job


EXPR_FILE = "exprs.txt"


def eval_file_lines(seed: int):
    """Expressions for `eval --file`, one per line, with their (family, m)."""
    rng = _rng(seed, "cli-file")
    cases = [("shi", 1), ("shi", 2), ("catalan", 1), ("catalan", 2)]
    return [(spell(rng, m, family == "catalan"), family, m) for family, m in cases]


def cli_jobs(seed: int):
    """The README's example commands, `verify`, and large-N commands."""
    rng = _rng(seed, "cli")
    shi3 = spell(rng, 3, False)
    jobs = [
        _cmd(["count", "catalan", "-m", "2", "-n", "5"],
             {"kind": "count", "family": "catalan", "m": 2, "n": 5, "by_dim": False}, "8972\n"),
        _cmd(["count", "shi", "-m", "4", "-n", "5", "--by-dim"],
             {"kind": "count", "family": "shi", "m": 4, "n": 5, "by_dim": True},
             "30720 15360 1920 80 1\n"),
        _cmd(["count", "braid", "-n", "6"],
             {"kind": "count", "family": "braid", "m": 0, "n": 6, "by_dim": False}, "203\n"),
        _cmd(["table", "shi"],
             {"kind": "table", "family": "shi", "m": [1, 2, 3, 4, 5], "n": [1, 7],
              "mode": "totals", "fmt": "tsv"}),
        _cmd(["table", "catalan", "-m", "1", "-n", "1:5", "--mode", "by-dimension",
              "--format", "markdown"],
             {"kind": "table", "family": "catalan", "m": [1], "n": [1, 5],
              "mode": "by-dimension", "fmt": "markdown"}),
        _cmd(["table", "braid", "--format", "bfile"],
             {"kind": "table", "family": "braid", "m": [0], "n": [1, 7],
              "mode": "totals", "fmt": "bfile"}),
        _cmd(["eval", shi3, "--order", "5"],
             {"kind": "eval", "exprs": [[shi3, "shi", 3]], "order": 5}, "1 1 7 73 1009 17341\n"),
        _cmd(["eval", "--file", EXPR_FILE],
             {"kind": "eval", "exprs": [list(line) for line in eval_file_lines(seed)],
              "order": 12}),
        _cmd(["oracle", "catalan", "-m", "1", "-n", "4"],
             {"kind": "oracle", "family": "catalan", "m": 1, "n": 4}, "75 79 18 1\n"),
        _cmd(["oracle", "shi", "-m", "2", "-n", "3", "--method", "linear"],
             {"kind": "oracle", "family": "shi", "m": 2, "n": 3}),
        _cmd(["verify"], {"kind": "verify"}),
        _cmd(["verify", "--n-max", "4", "--linear"], {"kind": "verify"}),
    ]
    jobs += [
        _cmd(["count", "catalan", "-m", "3", "-n", "150"],
             {"kind": "count", "family": "catalan", "m": 3, "n": 150, "by_dim": False}),
        _cmd(["count", "shi", "-m", "5", "-n", "100", "--by-dim"],
             {"kind": "count", "family": "shi", "m": 5, "n": 100, "by_dim": True}),
        _cmd(["table", "shi", "-m", "1:5", "-n", "1:60"],
             {"kind": "table", "family": "shi", "m": [1, 2, 3, 4, 5], "n": [1, 60],
              "mode": "totals", "fmt": "tsv"}),
    ]
    fmt = rng.choice(("tsv", "csv"))
    jobs.append(_cmd(["table", "catalan", "-m", "1:4", "-n", "1:40", "--mode",
                      "one-dimensional", "--format", fmt],
                     {"kind": "table", "family": "catalan", "m": [1, 2, 3, 4], "n": [1, 40],
                      "mode": "one-dimensional", "fmt": fmt}))
    cat3 = spell(rng, 3, True)
    jobs.append(_cmd(["eval", cat3, "--order", "60"],
                     {"kind": "eval", "exprs": [[cat3, "catalan", 3]], "order": 60}))
    return _shuffled(rng, jobs)


def jobs_for(workload: str, seed: int):
    return {"formulas": formulas_jobs, "oracle": oracle_jobs, "cli": cli_jobs}[workload](seed)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(100 * (samples - 10) // samples, 50)
