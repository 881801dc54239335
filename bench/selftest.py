"""Self-test of the benchmark harness: python3 bench/selftest.py

Checks that a corrupted expected value and a raising job are each counted
as a failure without crashing the run, that a directory without the
program makes the harness exit non-zero without a result, that span
aggregation computes self time and cache hits as documented, and that the
seeded DSL spellings parse to the canonical expression. Takes about a
minute and a half. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# --seconds 1 gives the minimum of two repetitions, each a cold and a warm pass.
RUN = [sys.executable, str(BENCH / "run.py"), "--seed", "1", "--seconds", "1", "--trace", "0"]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_injected(workload, inject):
    proc = subprocess.run(RUN + ["--workload", workload, "--inject", inject],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_injection():
    for workload, inject, failures in (
        ("formulas", "corrupt", 4),  # job 0 fails in every pass of both repetitions
        ("formulas", "raise", 4),
        ("cli", "corrupt", 4),  # the first command's expected exit code is wrong
        ("cli", "raise", 4),  # an extra command that exits 2
    ):
        result = run_injected(workload, inject)
        assert result["correct"] is False, (workload, inject, result)
        assert result["failed"] == failures, (workload, inject, result)
        assert result["attempted"] > failures, (workload, inject, result)
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in MANIFEST["end_to_end"]
        }
        print(f"ok injected {inject} on {workload}: {result['failed']} of "
              f"{result['attempted']} jobs failed, run completed")


def check_without_program():
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
    try:
        shutil.copytree(BENCH, scratch / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "formulas", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=scratch, timeout=170,
        )
    finally:
        shutil.rmtree(scratch)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok without the program: exit {proc.returncode}, no result")


def check_aggregate():
    ms = 1_000_000
    trace = {
        "spans": [
            ["cli.formula_triangle", 0, 10 * ms, -1, "a"],
            ["triangles.catalan", 1 * ms, 9 * ms, 0, "a"],
            ["triangles.mat_pow", 2 * ms, 8 * ms, 1, "a"],
            ["triangles.mat_mul", 3 * ms, 5 * ms, 2, "a"],
            ["cli.formula_triangle", 20 * ms, 21 * ms, -1, "b"],
            ["dsl.evaluate", 30 * ms, 40 * ms, -1, "c"],
            ["dsl.evaluate", 31 * ms, 35 * ms, 5, "c"],
        ],
        "counters": {"enumeration.partitions": 7},
        "missing": [],
    }
    out = tracer.aggregate(trace)
    assert abs(out["triangles.mat_pow.s"] - 0.006) < 1e-12
    assert abs(out["triangles.mat_pow.self_s"] - 0.004) < 1e-12
    assert abs(out["dsl.evaluate.s"] - 0.010) < 1e-12  # the nested call is not counted twice
    assert abs(out["dsl.evaluate.self_s"] - 0.010) < 1e-12
    assert out["cli.cache.misses"] == 1 and out["cli.cache.hits"] == 1
    assert abs(out["cli.cache.hit_s"] - 0.001) < 1e-12
    assert out["triangles.mat_mul.calls"] == 1 and out["enumeration.partitions"] == 7
    assert set(out) | {"setup.import_s", "cli.cache.bytes", "trace.overhead_s"} == {
        name for name, _ in tracer.per_layer_names()
    }
    assert [(m["name"], m["unit"]) for m in MANIFEST["per_layer"]] == tracer.per_layer_names()
    print("ok span aggregation")


def check_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    from flatcount.dsl import parse

    for seed in range(50):
        for name in workloads.WORKLOADS:
            assert workloads.jobs_for(name, seed) == workloads.jobs_for(name, seed)
        spellings = [(text, m, job["family"]) for job in workloads.formulas_jobs(seed)
                     for m, text in job.get("cases", [])]
        spellings += [(text, m, family) for job in workloads.cli_jobs(seed)
                      if job["want"]["kind"] == "eval" for text, family, m in job["want"]["exprs"]]
        for text, m, family in spellings:
            assert parse(text) == parse(workloads.canonical(m, family == "catalan")), text
    for samples in range(20, 500):
        q = workloads.tail_percentile(samples)
        assert samples - -(-q * samples // 100) >= 10, (samples, q)
    print("ok seeded workloads")


def main():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    check_aggregate()
    check_workloads()
    check_without_program()
    check_injection()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
