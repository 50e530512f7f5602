"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics the harness emits,
that every metric is emitted by both kinds of run on every workload, that
a deliberately perturbed output is counted as ``wrong`` and not ``ok``,
and that budgets, refusals and ladder stops are recorded as statuses.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

import run
import tracing
from workloads import WORKLOADS, LadderSpec

TINY = {
    "lp": [
        LadderSpec("individual", "individual", None, 5.0, [(2, 2, 2)]),
        LadderSpec("adaptive", "adaptive", "verb2_s", 5.0, [(2, 2, 2), (2, 2, 3)]),
        LadderSpec("general", "general", "verb1_s", 5.0, [(2, 2, 2), (2, 2, 3)], reps=3),
    ],
    "definetti": [
        LadderSpec("lemma2", "lemma2", "verb2_s", 5.0, [(4, 2, 2), (4, 2, 3)]),
        LadderSpec("definetti-k2", "definetti", "verb1_s", 5.0, [((4, 2, 2), 2), ((6, 3, 2), 2)]),
    ],
    "bounds": [
        # (12, 7) is refused by the enumeration cap, so (12, 8) is not run.
        LadderSpec("urn-distance", "urn", "verb2_s", 5.0, [(3, 2), (4, 3), (12, 7), (12, 8)],
                   frontier=2),
        # A budget far below the second rung's run time: it must time out.
        LadderSpec("quantum-definetti", "quantum", "verb1_s", 0.5, [(2, 2, 3), (4, 4, 8), (2, 2, 4)],
                   frontier=2),
    ],
}

# Per-layer counters each workload's traced pass must move: proof that the
# wrappers reach the layers.
TRACED = {
    "lp": ["simplex.lp_solve.calls", "distance.ns_constraints.cache_hits",
           "distance.adaptive_distance.strategies"],
    "definetti": ["jsonio.dump_json.bytes", "definetti.separable_decompose.terms",
                  "definetti.averaged_mixture.merge_ratio", "box.symmetry_violation.calls"],
    "bounds": ["urn.urn_variational_distance.sequences", "quantum.jacobi_eigh.dim",
               "quantum.reduced_state.tuples"],
}

EXPECTED_FAILURES = {
    ("urn-distance", "c=12 k=7 n=31"): "refused",
    ("urn-distance", "c=12 k=8 n=32"): "not_run",
    ("quantum-definetti", "d=4 k=4 n=8"): "timeout",
    ("quantum-definetti", "d=2 k=2 n=4"): "not_run",
}


def _run(modules, workload, trace):
    args = argparse.Namespace(workload=workload, seed=7, seconds=0.0, trace=trace)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        return run.run(args, modules, workdir, specs=TINY[workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_benchmark_json():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert e2e == run.E2E_METRICS, "BENCHMARK.json end_to_end differs from run.E2E_METRICS"
    assert layer == list(tracing.LAYER_METRICS), "BENCHMARK.json per_layer differs from tracing"
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


def check_statuses_and_metrics(modules):
    for workload in TINY:
        for trace in (0, 1):
            line, report = _run(modules, workload, trace)
            names = run.E2E_METRICS if trace == 0 else tracing.LAYER_METRICS
            assert list(line["metrics"]) == [n for n, _, _ in names], (workload, trace)
            for name in (TRACED[workload] if trace else []):
                assert line["metrics"][name]["value"] > 0, (workload, name)
            for rung in report["passes"][0]:
                want = EXPECTED_FAILURES.get((rung["ladder"], rung["shape"]), "ok")
                assert rung["status"] == want, (workload, rung)
                assert all(j["status"] == want for j in rung["jobs"]), (workload, rung)
                if want != "ok":
                    assert rung["charged"] == rung["budget"], rung
            assert line["correct"] and line["failed"] == 0, (workload, line)
        print(f"selftest: {workload}: statuses and metric names ok")


def check_perturbed_outputs_are_wrong(modules):
    cli = modules["nsbox.cli"]
    fmt, to_json = cli._fmt, cli.decomposition_to_json

    def bad_decomposition(dec):
        obj = to_json(dec)
        obj["terms"][0]["q"] *= 1.01
        return obj

    cli._fmt = lambda value: fmt(value + 1e-3)
    cli.decomposition_to_json = bad_decomposition
    try:
        for workload in TINY:
            line, report = _run(modules, workload, 0)
            first = {}
            for rung in report["passes"][0]:
                first.setdefault(rung["ladder"], rung["status"])
            assert set(first.values()) == {"wrong"}, (workload, first)
            assert not line["correct"] and line["failed"] >= 1, (workload, line)
    finally:
        cli._fmt, cli.decomposition_to_json = fmt, to_json
    print("selftest: perturbed outputs are counted as wrong")


def main():
    modules = run.import_nsbox()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    check_benchmark_json()
    check_statuses_and_metrics(modules)
    check_perturbed_outputs_are_wrong(modules)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
