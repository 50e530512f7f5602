"""nsbox benchmark: times the CLI verbs on seeded ladders of shapes.

Run from the repository root:

    python3 perfbench/run.py --workload lp --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): ``lp`` (the three distances), ``definetti``
(lemma2 and definetti) and ``bounds`` (urn-distance and
quantum-definetti).  Each is a closed loop: one client in this process
runs the jobs one after another through ``nsbox.cli.main(argv)``, with
BLAS pinned to one thread.  nsbox is imported from ``./src`` only.

A run makes passes over the workload's ladders until ``--seconds`` of
jobs have run; each pass first sets up fresh inputs, so no input is seen
twice.  Set-up is timed, and repeated when a run has fewer than three
passes.  Every job is recorded with a status: ok, wrong (checked against
refs.py and found different), refused (CLI exit 1: a resource cap or a
solver failure), timeout (over its ladder's budget), error (a crash or
exit 2) or not_run (its ladder had already stopped).  A rung that is not
solved is charged its full budget.  The result line's ``failed`` counts
wrong and error jobs; refusals and timeouts are the program's limits and
show in ``failed_frac`` and ``frontier_rungs`` instead.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over passes); with ``--trace 1`` it carries the per-layer
metrics of one traced pass, plus the tracing overhead measured against
an untraced pass over the same inputs.  Job statuses, run metadata and
the spans are written to ``.perfbench/``.

Exit status is nonzero, with no result line, when nsbox cannot be
imported from ``./src`` or set-up fails.
"""

import os

# BLAS reads its thread count when numpy loads, so pin it before any import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import importlib
import io
import json
import pickle
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS, Wrong

SETUP_REPEATS = 3  # setup_s is the median of at least this many set-ups
OUT_DIR = ".perfbench"
SETUP_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_pass.py")

# name, unit, better.  verb1_s and verb2_s are the workload's two verbs:
# lp: distance --method general / adaptive; definetti: definetti / lemma2;
# bounds: quantum-definetti / urn-distance.
E2E_METRICS = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("verb1_s", "s", "lower"),
    ("verb2_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("frontier_rungs", "count", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

NSBOX_MODULES = ["nsbox.cli", "nsbox.box", "nsbox.distance", "nsbox.definetti", "nsbox.urn",
                 "nsbox.quantum"]


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job that overran its budget.

    A BaseException, so that the CLI's own ``except`` clauses cannot
    swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout


def import_nsbox():
    """The nsbox modules, loaded from ./src and nowhere else."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "nsbox", "cli.py")):
        raise SystemExit(f"perfbench: no nsbox sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(name) for name in NSBOX_MODULES}
    if not modules["nsbox.cli"].__file__.startswith(src + os.sep):
        raise SystemExit(f"perfbench: nsbox imported from {modules['nsbox.cli'].__file__}")
    return modules


def run_job(cli, job, budget):
    """Run one job under its budget; returns (status, seconds, stdout, detail)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                rc = cli.main(job.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        return "timeout", budget, "", f"over {budget:g} s budget"
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception as exc:  # a crash is a reported job status, not the harness's
        return "error", time.perf_counter() - start, "", f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    detail = err.getvalue().strip()
    if seconds >= budget:
        return "timeout", seconds, "", f"over {budget:g} s budget"
    if rc == 1:
        # The CLI's domain-error exit: a resource cap or a solver failure.
        return "refused", seconds, "", detail
    if rc != 0:
        return "error", seconds, "", f"exit {rc}: {detail}"
    return "ok", seconds, out.getvalue(), detail


def run_pass(cli, ladders, tracer=None):
    """Run every ladder in order; returns one record per rung.

    A rung is solved when a majority of its jobs finish ok; its time is
    the median of its jobs' times, with every job that is not ok charged
    the full budget.  A ladder stops at its first unsolved rung, and the
    rungs after it are charged their budget too.
    """
    rungs = []
    job_index = 0
    for ladder in ladders:
        spec = ladder.spec
        stopped = False
        for i, jobs in enumerate(ladder.rungs):
            recs = []
            for job in jobs:
                rec = {"shape": job.shape, "status": "not_run", "seconds": 0.0, "detail": ""}
                if not stopped:
                    gc.collect()
                    if tracer is not None:
                        tracer.job = job_index
                    status, seconds, stdout, detail = run_job(cli, job, spec.budget)
                    if status == "ok":
                        try:
                            job.check(stdout)
                        except Wrong as exc:
                            status, detail = "wrong", str(exc)
                    rec.update(status=status, seconds=seconds, detail=detail)
                    # Stop once a majority of the rung's jobs cannot be ok.
                    stopped = sum(r["status"] != "ok" for r in recs + [rec]) > len(jobs) // 2
                recs.append(rec)
                job_index += 1
            charged = [r["seconds"] if r["status"] == "ok" else spec.budget for r in recs]
            solved = not stopped
            rungs.append({
                "ladder": spec.name,
                "metric": spec.metric,
                "budget": spec.budget,
                "shape": jobs[0].shape,
                "frontier": i >= len(ladder.rungs) - spec.frontier,
                "status": "ok" if solved else next(r["status"] for r in recs if r["status"] != "ok"),
                "charged": statistics.median(charged) if solved else spec.budget,
                "jobs": recs,
            })
    return rungs


def pass_metrics(rungs):
    solved = sum(r["status"] == "ok" for r in rungs)
    return {
        "wall_s": sum(r["charged"] for r in rungs),
        "verb1_s": sum(r["charged"] for r in rungs if r["metric"] == "verb1_s"),
        "verb2_s": sum(r["charged"] for r in rungs if r["metric"] == "verb2_s"),
        "failed_frac": 1.0 - solved / len(rungs),
        "frontier_rungs": solved,
    }


def setup(specs, seed, pass_index, tmp):
    """Generate one pass's inputs in setup_pass.py; returns (ladders, seconds)."""
    os.makedirs(tmp, exist_ok=True)
    start = time.perf_counter()
    with open(os.path.join(tmp, "request.pickle"), "wb") as fh:
        pickle.dump((specs, seed, pass_index), fh)
    subprocess.run([sys.executable, SETUP_SCRIPT, tmp], check=True)
    with open(os.path.join(tmp, "ladders.pickle"), "rb") as fh:
        ladders = pickle.load(fh)
    return ladders, time.perf_counter() - start


def _git_commit():
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    counts = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return counts
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                counts[os.path.basename(path)] = func()
                break
    return counts


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def run(args, modules, workdir, specs=None):
    """One benchmark run; returns (result line dict, report dict)."""
    cli = modules["nsbox.cli"]
    specs = WORKLOADS[args.workload] if specs is None else specs
    signal.signal(signal.SIGALRM, _on_alarm)

    setup_times = []
    passes = []
    tracer = None
    if args.trace:
        ladders, seconds = setup(specs, args.seed, 0, os.path.join(workdir, "pass0"))
        setup_times.append(seconds)
        # The untraced and traced passes share inputs so that their
        # difference is the tracing overhead alone.  Traced first, so
        # its cache counters see the same state as an ordinary pass.
        tracer = tracing.Tracer(modules)
        with tracer:
            passes.append(run_pass(cli, ladders, tracer))
        passes.append(run_pass(cli, ladders))
    else:
        measured = 0.0
        while not passes or measured < args.seconds:
            ladders, seconds = setup(specs, args.seed, len(passes),
                                     os.path.join(workdir, f"pass{len(passes)}"))
            setup_times.append(seconds)
            passes.append(run_pass(cli, ladders))
            measured += sum(j["seconds"] for r in passes[-1] for j in r["jobs"])
        # Set-up is timed once per pass; a run with few passes repeats the
        # first pass's set-up so that setup_s is a median of several.
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup(specs, args.seed, 0, os.path.join(workdir, "again"))[1])

    jobs = [j for results in passes for r in results for j in r["jobs"]]
    failed = sum(j["status"] in ("wrong", "error") for j in jobs)
    per_pass = [pass_metrics(results) for results in passes]
    if args.trace:
        layer = tracer.metrics()
        layer["trace.overhead_s"] = per_pass[0]["wall_s"] - per_pass[1]["wall_s"]
        metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                   for name, unit, _ in tracing.LAYER_METRICS}
    else:
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit, _ in E2E_METRICS}
    line = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    report = {"meta": metadata(args), "setup_s": setup_times, "passes": passes, "result": line}
    if tracer is not None:
        report["spans"] = tracer.spans
    return line, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    modules = import_nsbox()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        line, report = run(args, modules, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(report, fh)
    print("# meta " + json.dumps(report["meta"]))
    for i, results in enumerate(report["passes"]):
        for r in results:
            mark = "F" if r["frontier"] else " "
            for j in r["jobs"]:
                print(f"# pass {i} {r['ladder']:<17} {j['shape']:<16} {mark} {j['status']:<8} "
                      f"{j['seconds']:8.3f} s  budget {r['budget']:g} s  {j['detail'][:80]}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
