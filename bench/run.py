"""Benchmark harness for flatcount.

    python3 bench/run.py --workload formulas|oracle|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The harness never imports flatcount: it
starts every piece of work as a child process (bench/worker.py, or
`python -m flatcount` for the cli workload), one at a time, and times it
from outside. A repetition runs every job twice, first with cold caches (a
fresh worker process per job; for cli, an empty FLATCOUNT_CACHE_DIR) and
then with warm ones. Repetitions start while the median repetition so far
still fits in --seconds, and at least two run; the 165 s deadline stops a
repetition that would pass it from starting and cuts one that does. Every
job's output is checked against an independent route; a job that fails is
counted, never fatal.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
The line before it records the run's conditions (seed, host, calibration,
tail percentile and sample count). A traced run also writes its spans to
.bench_out/spans-<workload>.json.gz.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
PROBES = 9  # set-up probes per run, after one discarded warm-up
MIN_REPS = 2  # a traced run needs one untraced and one traced repetition
DEADLINE_S = 165  # a run ends well inside 180 s whatever the program does


class Child(NamedTuple):
    """One finished child process, timed from launch to exit."""

    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kb: int


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("FLATCOUNT_CACHE_DIR", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    def spawn(self, argv, extra_env=None) -> Child:
        """Run argv in the work directory and wait for it. A child still
        running at the run's deadline is killed and reported as exit -9."""
        env = dict(self.env, **(extra_env or {}))
        with tempfile.TemporaryFile(dir=self.work) as out, tempfile.TemporaryFile(
            dir=self.work
        ) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=self.work
            )
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.monotonic(), 0.001))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            seconds = time.perf_counter() - start
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, out.read(), err.read(), seconds, usage.ru_maxrss)

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks host speed, not flatcount."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_setup(runner: Runner):
    """Launch-to-`import flatcount` times and in-process import times."""
    setup, imports = [], []
    for index in range(PROBES + 1):
        launched = time.monotonic()
        child = runner.spawn([sys.executable, str(WORKER), "probe"])
        if child.code != 0:
            raise RuntimeError(f"probe failed: {child.stderr.decode(errors='replace')[-500:]}")
        report = json.loads(child.stdout)
        if index:  # the first launch may compile bytecode
            setup.append(report["import_done"] - launched)
            imports.append(report["import_s"])
    return setup, imports


def worker_rep(runner, workload, seed, jobs, traced, inject, rep_index):
    """Each job in a fresh worker, as a CLI user runs one request per
    process: a cold run, then a warm one. A job's footprint therefore does
    not depend on which jobs the shuffled order put before it."""
    runs, dumps, rss = ([], []), [], 0
    for job in jobs:
        argv = [sys.executable, str(WORKER), "job", workload, str(seed), str(job["id"])]
        trace_path = runner.work / f"trace-{rep_index}-{job['id']}.json"
        if traced:
            argv += ["--trace-out", str(trace_path)]
        if inject:
            argv += ["--inject", inject]
        child = runner.spawn(argv)
        rss = max(rss, child.maxrss_kb)
        try:
            if child.code != 0:
                raise ValueError(f"worker exit {child.code}")
            records = json.loads(child.stdout.splitlines()[-1])["runs"]
        except (ValueError, IndexError, KeyError) as err:
            reason = f"{err}: {child.stderr.decode(errors='replace')[-300:]}"
            records = [{"id": f"{tag}:{job['id']}", "kind": job["kind"], "s": 0.0, "error": reason}
                       for tag in ("cold", "warm")]
        for pass_records, record in zip(runs, records):
            pass_records.append(record)
        if traced and trace_path.exists():
            dumps.append(json.loads(trace_path.read_text()))
        if runner.expired():
            break
    passes = [{"wall_s": sum(r["s"] for r in records), "jobs": records} for records in runs]
    return {"passes": passes, "rss_kb": rss, "trace": tracer.merge(dumps) if traced else None}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def check_command(job, expect, child, first_seen):
    """None when the command did what it must, else what went wrong."""
    stdout = child.stdout.decode("utf-8", errors="replace")
    if child.code != expect["exit"]:
        tail = child.stderr.decode(errors="replace")[-200:]
        return f"exit {child.code}, expected {expect['exit']}: {tail}"
    if stdout != expect["stdout"]:
        return f"stdout {stdout[:80]!r} differs from in-process {expect['stdout'][:80]!r}"
    if "literal" in job and stdout != job["literal"]:
        return f"stdout {stdout[:80]!r} differs from the README's {job['literal']!r}"
    previous = first_seen.setdefault(job["id"], child.stdout)
    if child.stdout != previous:
        return "stdout differs from an earlier run of the same command"
    return None


def cli_rep(runner, jobs, expects, rep_index, traced, first_seen):
    cache = runner.work / f"cache-{rep_index}"
    extra = {"FLATCOUNT_CACHE_DIR": str(cache)}
    passes, dumps, rss, cache_bytes = [], [], 0, 0
    for tag in ("cold", "warm"):
        records = []
        start = time.perf_counter()
        for job in jobs:
            if traced:
                trace_path = runner.work / f"trace-{tag}-{job['id']}.json"
                argv = [sys.executable, str(WORKER), "cli", "--trace-out", str(trace_path)]
            else:
                argv = [sys.executable, "-m", "flatcount"]
            child = runner.spawn(argv + job["argv"], extra)
            rss = max(rss, child.maxrss_kb)
            error = check_command(job, expects[str(job["id"])], child, first_seen)
            records.append(
                {"id": f"{tag}:{job['id']}", "kind": job["kind"], "s": child.seconds,
                 "error": error}
            )
            if traced and trace_path.exists():
                dumps.append(json.loads(trace_path.read_text()))
            if runner.expired():
                break
        passes.append({"wall_s": time.perf_counter() - start, "jobs": records})
        if tag == "cold" and cache.exists():
            cache_bytes = dir_bytes(cache)
    trace = tracer.merge(dumps) if traced else None
    return {"passes": passes, "rss_kb": rss, "trace": trace, "cache_bytes": cache_bytes}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


def job_runs(reps):
    """Every run's seconds, keyed by run id ("cold:<job>" or "warm:<job>")."""
    runs = {}
    for rep in reps:
        for records in rep["passes"]:
            for record in records["jobs"]:
                runs.setdefault(record["id"], []).append(record["s"])
    return runs


def pass_times(runs):
    """Cold and warm pass times: sums over jobs of each job's median run, so
    a slow spell of the host that hits one repetition moves few of the
    medians."""
    typical = {run_id: statistics.median(seconds) for run_id, seconds in runs.items()}
    cold = sum(s for run_id, s in typical.items() if run_id.startswith("cold:"))
    warm = sum(s for run_id, s in typical.items() if run_id.startswith("warm:"))
    return cold, warm


def end_to_end(reps, setup):
    """Latency percentiles pool every run of every job."""
    runs = job_runs(reps)
    cold, warm = pass_times(runs)
    latencies = [s for seconds in runs.values() for s in seconds]
    q = workloads.tail_percentile(len(latencies))
    values = {
        "wall_s": (cold + warm, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rep["rss_kb"] for rep in reps) / 1024, "MB"),
        "cmd_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "cmd_tail_ms": (percentile(latencies, q) * 1000, "ms"),
        "cold_pass_s": (cold, "s"),
        "warm_pass_s": (warm, "s"),
    }
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    return metrics, len(latencies), q


def per_layer(traced, untraced, imports):
    """Medians over traced repetitions; counts come from the first and must
    repeat in every other."""
    layers = [tracer.aggregate(rep["trace"]) for rep in traced]
    for layer, rep in zip(layers, traced):
        layer["cli.cache.bytes"] = rep.get("cache_bytes", 0)
    units = dict(tracer.per_layer_names())
    overhead = sum(pass_times(job_runs(traced))) - sum(pass_times(job_runs(untraced)))
    metrics = {}
    stable = True
    for name, unit in units.items():
        if name == "setup.import_s":
            value = statistics.median(imports)
        elif name == "trace.overhead_s":
            value = overhead
        elif unit == "s":
            value = statistics.median(layer[name] for layer in layers)
        else:
            value = layers[0][name]
            stable = stable and all(layer[name] == value for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, stable


def write_spans(workload, trace):
    with gzip.open(OUT / f"spans-{workload}.json.gz", "wt", encoding="utf-8") as handle:
        json.dump(trace, handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("corrupt", "raise"), default=None,
                        help="plant a wrong expected value or a raising job (self-test)")
    return parser.parse_args(argv)


def run(args, work: Path):
    started = time.monotonic()
    runner = Runner(work, started + DEADLINE_S)
    conditions = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_sha": git_sha(),
        "calibration_start_s": calibrate(),
    }
    setup, imports = probe_setup(runner)
    jobs = workloads.jobs_for(args.workload, args.seed)
    if args.workload == "cli":
        lines = workloads.eval_file_lines(args.seed)
        (work / workloads.EXPR_FILE).write_text("".join(text + "\n" for text, _, _ in lines),
                                                encoding="utf-8")
        child = runner.spawn([sys.executable, str(WORKER), "expect", str(args.seed)])
        if child.code != 0:
            raise RuntimeError(f"expect failed: {child.stderr.decode(errors='replace')[-500:]}")
        expects = json.loads(child.stdout.splitlines()[-1])
        if args.inject == "corrupt":
            first = str(jobs[0]["id"])
            expects[first] = dict(expects[first], exit=expects[first]["exit"] + 1)
        if args.inject == "raise":
            jobs = jobs + [{"id": len(jobs), "kind": "count", "want": None,
                            "argv": ["count", "shi", "-m", "0", "-n", "3"]}]
            expects[str(len(jobs) - 1)] = {"exit": 0, "stdout": ""}
        first_seen = {}

    reps = []
    measure_start = time.monotonic()
    while True:
        # A traced run alternates untraced and traced repetitions.
        traced = bool(args.trace) and len(reps) % 2 == 1
        alike = [r["rep_s"] for r in reps if r["traced"] == traced]
        if alike:
            expected_end = time.monotonic() + statistics.median(alike)
            if len(reps) >= MIN_REPS and expected_end > measure_start + args.seconds:
                break
            if expected_end > runner.deadline:
                break
        rep_start = time.monotonic()
        if args.workload == "cli":
            rep = cli_rep(runner, jobs, expects, len(reps), traced, first_seen)
        else:
            rep = worker_rep(runner, args.workload, args.seed, jobs, traced, args.inject,
                             len(reps))
        rep["traced"] = traced
        rep["rep_s"] = time.monotonic() - rep_start
        reps.append(rep)
        if runner.expired():
            break

    records = [j for rep in reps for p in rep["passes"] for j in p["jobs"]]
    errors = [f"{j['id']} {j['kind']}: {j['error']}" for j in records if j["error"]]
    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"] and rep["trace"] is not None]
    conditions.update(
        reps=len(untraced),
        traced_reps=len(traced),
        rep_wall_s=[sum(p["wall_s"] for p in rep["passes"]) for rep in untraced],
        setup_samples_s=setup,
        fail_ratio=len(errors) / max(len(records), 1),
        errors=errors[:10],
        calibration_end_s=calibrate(),
        loadavg_end=os.getloadavg(),
    )
    if args.trace:
        if not traced or not untraced:
            raise RuntimeError("the run ended before a traced and an untraced repetition")
        metrics, stable = per_layer(traced, untraced, imports)
        conditions.update(trace_counts_repeat=stable, trace_missing=traced[0]["trace"]["missing"])
        write_spans(args.workload, traced[0]["trace"])
    else:
        metrics, samples, q = end_to_end(untraced, setup)
        conditions.update(latency_samples=samples, tail_percentile=q)
    complete = len(reps) >= MIN_REPS and not runner.expired()
    conditions["complete"] = complete
    print(json.dumps({"conditions": conditions}))
    return {
        "correct": complete and not errors,
        "attempted": len(records),
        "failed": len(errors),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/flatcount/__init__.py", "tests/reference_counts.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a flatcount checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result = run(args, work)
    except (RuntimeError, OSError, ValueError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
