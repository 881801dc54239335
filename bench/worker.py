"""Child process of the benchmark; flatcount is only ever loaded here.

    worker.py probe                  start up, import flatcount, report when
    worker.py job WORKLOAD SEED ID   run job ID of the workload twice (cold,
                                     then warm caches) and report each run
    worker.py expect SEED            what each cli-workload command must print
    worker.py cli ARGS...            run `flatcount ARGS` with spans recorded

The harness sets PYTHONPATH to the checkout's src directory. Options
--trace-out FILE (job, cli) writes the recorded spans there, and --inject
corrupt|raise (job) plants a wrong expected value or a raising job, for
the self-test. Results go to stdout as one JSON line.
"""

import time

_t0 = time.perf_counter()
import flatcount  # noqa: E402,F401 - timed before anything else is imported

_import_done = time.monotonic()
_import_s = time.perf_counter() - _t0

import json  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _option(args, name):
    if name in args:
        i = args.index(name)
        value = args[i + 1]
        del args[i : i + 2]
        return value
    return None


def _write_trace(tracer, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)


def run_job(job, ref, tracer, tag, inject):
    """Run one job once; it fails when it raises or a comparison differs."""
    run_id = f"{tag}:{job['id']}"
    if tracer is not None:
        tracer.run_id = run_id
    t0 = time.perf_counter()
    error = None
    try:
        if inject == "raise" and job["id"] == 0:
            raise RuntimeError("injected failure")
        comparisons = checks.JOBS[job["kind"]](ref, job)
        if inject == "corrupt" and job["id"] == 0:
            what, got, expected = comparisons[0]
            comparisons[0] = (what, got, ("corrupted", expected))
        for what, got, expected in comparisons:
            if got != expected:
                error = f"{what}: got {str(got)[:120]} expected {str(expected)[:120]}"
                break
    except Exception as err:  # a failing job is a result, not a crash
        error = f"{type(err).__name__}: {err}"
    return {"id": run_id, "kind": job["kind"], "s": time.perf_counter() - t0, "error": error}


def main(argv):
    mode, args = argv[0], argv[1:]
    trace_out = _option(args, "--trace-out")
    inject = _option(args, "--inject")
    if mode == "cli":
        import flatcount.cli
    tracer = None
    if trace_out is not None:
        tracer = Tracer()
        tracer.install()
    if mode == "probe":
        result = {"import_done": _import_done, "import_s": _import_s}
    elif mode == "job":
        workload, seed, job_id = args[0], int(args[1]), int(args[2])
        job = workloads.jobs_for(workload, seed)[job_id]
        ref = checks.load_reference()
        result = {"runs": [run_job(job, ref, tracer, tag, inject) for tag in ("cold", "warm")]}
    elif mode == "expect":
        seed = int(args[0])
        result = {str(job["id"]): checks.expectation(job) for job in workloads.cli_jobs(seed)}
    elif mode == "cli":
        tracer.run_id = " ".join(args)
        try:
            return flatcount.cli.main(args)
        finally:
            _write_trace(tracer, trace_out)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None:
        _write_trace(tracer, trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
