"""Job bodies and their cross-checks, run inside a worker process.

Each job does one user-level request through flatcount's public functions
and returns a list of (what, got, expected) comparisons, where expected
comes from an independent route: the frozen reference columns, the other
formula route, the other oracle, or the formulas for an oracle. The
runner counts a job as failed when a comparison differs or the job raises.

expectation() builds, in process, what each CLI command of the cli
workload must print. Tables and `verify` go through the CLI's own code,
in process and with the on-disk cache unset, so the check covers the
subprocess and cache paths.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

import flatcount as fc

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference_counts.py"


def load_reference():
    spec = importlib.util.spec_from_file_location("reference_counts", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _interval(family, m):
    return fc.GainInterval.shi(m) if family == "shi" else fc.GainInterval.catalan(m)


def _triangle(family, m, size):
    """Formula triangle; braid is Catalan with m = 0."""
    return fc.shi_triangle(m, size) if family == "shi" else fc.catalan_triangle(m, size)


def _reference_checks(ref, family, m, tri):
    """The triangle's columns n <= 7 against the frozen reference counts."""
    if family == "catalan" and m == 0:
        totals, dim1 = ref.BRAID_TOTALS, ref.BRAID_DIM1
    elif family == "catalan" and m in ref.CATALAN_TOTALS:
        totals, dim1 = ref.CATALAN_TOTALS[m], ref.CATALAN_DIM1[m]
    elif family == "shi" and m in ref.SHI_TOTALS:
        totals, dim1 = ref.SHI_TOTALS[m], ref.SHI_DIM1[m]
    else:
        return []
    top = min(len(totals), tri.size)
    checks = [
        ("reference totals", tuple(fc.total_flats(tri, n) for n in range(1, top + 1)), totals[:top]),
        ("reference dim 1", tuple(tri.entry(1, n) for n in range(1, top + 1)), dim1[:top]),
    ]
    key = ("braid", 0) if family == "catalan" and m == 0 else (family, m)
    if key in ref.TRIANGLES_5 and tri.size >= 5:
        columns = tuple(tri.column(n) for n in range(1, 6))
        checks.append(("reference 5x5", columns, ref.TRIANGLES_5[key]))
    return checks


def job_triangle(ref, job):
    """Family triangles by matrices, each checked against the species route
    (column totals at full N), the reference columns and, for Shi, the
    closed form m^(n-k) Lah(n, k)."""
    family, size = job["family"], job["N"]
    checks = []
    for m, text in job["cases"]:
        tri = _triangle(family, m, size)
        seq = fc.evaluate_text(text, size)
        totals = tuple(fc.total_flats(tri, n) for n in range(1, size + 1))
        checks.append((f"m={m} species vs matrix", seq.coeffs, (1,) + totals))
        if family == "shi":
            checks.append((f"m={m} closed form vs matrix", fc.lah_power_closed(m, size).rows,
                           tri.rows))
        checks += _reference_checks(ref, family, m, tri)
    return checks


def job_bell(ref, job):
    size = job["N"]
    got = fc.bell_transform(fc.seq_lists_nonempty(size)).rows
    return [("bell_transform(L+) vs lah_matrix", got, fc.lah_matrix(size).rows)]


def _sizes(job):
    return range(job["n"][0], job["n"][1] + 1)


def job_gain(ref, job):
    checks = []
    for family, m in job["cases"]:
        interval = _interval(family, m)
        column = _triangle(family, m, job["n"][1]).column
        for n in _sizes(job):
            counts = fc.enumerate_flats_gain(n, interval, labels=job["labels"][:n])
            got = tuple(counts.get(k, 0) for k in range(1, n + 1))
            checks.append((f"{family} m={m} n={n} gain oracle vs formula", got, column(n)))
    return checks


def job_linear(ref, job):
    checks = []
    for lo, hi in job["cases"]:
        interval = fc.GainInterval(lo, hi)
        for n in _sizes(job):
            linear = fc.enumerate_flats_linear(n, interval)
            gain = fc.enumerate_flats_gain(n, interval, labels=job["labels"][:n])
            checks.append((f"{interval} n={n} linear vs gain oracle", linear, gain))
            if lo == -hi:
                got = tuple(linear.get(k, 0) for k in range(1, n + 1))
                checks.append((f"{interval} n={n} linear vs formula", got,
                               fc.catalan_triangle(hi, n).column(n)))
    return checks


_BIJECTIONS = {
    "catalan": ("enumerate_catalan_structures", "catalan_structure_to_height",
                "height_to_catalan_structure"),
    "shi": ("enumerate_nested_lists", "shi_structure_to_height", "height_to_shi_structure"),
}


def job_bijection(ref, job):
    """Round trip every structure; the image is exactly the connected blocks."""
    checks = []
    for family, m in job["cases"]:
        enumerate_structures, to_height, to_structure = (
            getattr(fc, name) for name in _BIJECTIONS[family]
        )
        tri = _triangle(family, m, job["n"][1])
        for n in _sizes(job):
            labels = job["labels"][:n]
            structures = enumerate_structures(labels, m)
            heights = [to_height(s) for s in structures]
            back = [to_structure(h, m) for h in heights]
            blocks = fc.enumerate_connected_blocks(labels, _interval(family, m))
            what = f"{family} m={m} n={n}"
            checks += [
                (f"{what} round trip", tuple(back), tuple(structures)),
                (f"{what} image is the connected blocks", sorted(h.items for h in heights),
                 sorted(b.items for b in blocks)),
                (f"{what} structure count vs formula", len(structures), tri.entry(1, n)),
            ]
    return checks


JOBS = {
    "reference": job_triangle,
    "triangle": job_triangle,
    "bell": job_bell,
    "gain": job_gain,
    "linear": job_linear,
    "bijection": job_bijection,
}


def expectation(job):
    """What one command must do: {"exit": code, "stdout": text}."""
    want = job["want"]
    kind = want["kind"]
    if kind == "count":
        column = _triangle(want["family"], want["m"], want["n"]).column(want["n"])
        text = " ".join(map(str, column)) if want["by_dim"] else str(sum(column))
        return {"exit": 0, "stdout": text + "\n"}
    if kind == "table":
        from flatcount.cli import TableSpec, render_table

        n_values = tuple(range(want["n"][0], want["n"][1] + 1))
        spec = TableSpec(want["family"], tuple(want["m"]), n_values, want["mode"], want["fmt"])
        return {"exit": 0, "stdout": render_table(spec)}
    if kind == "eval":
        lines = []
        for _, family, m in want["exprs"]:
            tri = _triangle(family, m, want["order"])
            totals = [fc.total_flats(tri, n) for n in range(1, want["order"] + 1)]
            lines.append(" ".join(map(str, [1] + totals)) + "\n")
        return {"exit": 0, "stdout": "".join(lines)}
    if kind == "oracle":
        column = _triangle(want["family"], want["m"], want["n"]).column(want["n"])
        return {"exit": 0, "stdout": " ".join(map(str, column)) + "\n"}
    if kind == "verify":
        from flatcount.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(job["argv"])
        return {"exit": code, "stdout": out.getvalue()}
    raise ValueError(f"unknown command kind {kind!r}")
