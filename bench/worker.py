"""Child process of the benchmark: one fresh interpreter per role.

    python3 bench/worker.py ROLE --workload W --seed S [--seconds R --trace T]

Every role first imports ``asep_exact`` and ``asep_exact.cli`` from the
checkout's ``src`` and builds the workload's inputs, then prints ``ready``;
the parent times that as one set-up sample.  Then:

* ``probe`` exits;
* ``refs`` computes the references and prints them as one JSON line;
* ``measure`` reads the references from stdin, runs timed passes for the
  given seconds (with ``--trace 1``: untraced passes for the first half,
  traced passes for the second) and prints one JSON line of results.

The OpenMP and BLAS thread variables are capped at the number of usable
cores before numpy is first imported.
"""

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    _current = os.environ.get(_var, "")
    if not (_current.isdigit() and 0 < int(_current) <= NPROC):
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def import_library():
    """The package and its CLI, from this checkout's sources only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import asep_exact
    import asep_exact.cli

    if Path(asep_exact.__file__).resolve().parent != src / "asep_exact":
        raise ImportError(f"asep_exact imported from {asep_exact.__file__}, not from {src}")
    return asep_exact, asep_exact.cli


def run_pass(api, cli, cases, refs, tracer=None):
    """One closed-loop pass: each case's call is timed alone, then checked
    outside the clock."""
    wall = 0.0
    outcomes = []
    for case, ref in zip(cases, refs):
        if tracer is not None:
            tracer.set_case(case.label)
        start = time.perf_counter()
        try:
            result = workloads.call(api, cli, case)
        except Exception as exc:  # a raising call is a failed check, not a crash
            result = exc
        wall += time.perf_counter() - start
        outcomes.append(workloads.check(case, result, ref))
    return wall, outcomes


def measure(api, cli, cases, refs, seconds, trace):
    """Untraced passes until the time is up (with trace: until half of it),
    then traced passes until it is up; at least one pass of each kind."""
    passes = []
    begin = time.perf_counter()
    untraced_until = seconds / 2 if trace else seconds
    while True:
        tracing.assert_untraced(api)
        passes.append((False, *run_pass(api, cli, cases, refs)))
        if time.perf_counter() - begin >= untraced_until:
            break
    tracer = None
    if trace:
        tracer = tracing.Tracer(api)
        try:
            tracer.install()
            while True:
                passes.append((True, *run_pass(api, cli, cases, refs, tracer)))
                if time.perf_counter() - begin >= seconds:
                    break
        finally:
            tracer.restore()
    return passes, tracer


def host_facts() -> dict:
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def summarize(cases, passes, tracer, workload):
    """Per-pass results.  Every pass after the first also checks that each
    call returned bit-identical values to the first pass."""
    first = passes[0][2]
    result = {
        "host": host_facts(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [],
    }
    for k, (traced, wall, outcomes) in enumerate(passes):
        failures = {}
        checks = 0
        for case, got, want in zip(cases, outcomes, first):
            found = list(got.failures)
            checks += got.checks
            if k > 0:
                checks += 1
                if got.digest != want.digest:
                    found.append("values differ from the first pass")
            if found:
                failures[case.label] = {"count": len(found), "misses": got.misses, "examples": found[:3]}
        result["passes"].append(
            {
                "traced": traced,
                "wall_s": wall,
                "checks": checks,
                "failures": failures,
                "values": sum(o.values for o in outcomes),
                "heavy_err": max(o.heavy_err for o in outcomes),
                "report_bytes": sum(o.report_bytes for o in outcomes),
                "nonzero_exits": sum(o.nonzero_exit for o in outcomes),
            }
        )
    if tracer is not None:
        traced = [p for p in result["passes"] if p["traced"]]
        untraced = [p for p in result["passes"] if not p["traced"]]
        overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
            p["wall_s"] for p in untraced
        )
        result["layers"] = layers.layer_metrics(tracer, cases, traced, overhead)
        tracer.write(OUT / f"spans-{workload}.npz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("probe", "refs", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api, cli = import_library()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reports-", dir=OUT))
    try:
        cases = workloads.make_cases(args.workload, args.seed, scratch)
        print("ready", flush=True)
        if args.role == "refs":
            print(json.dumps(workloads.references(api, cases)), flush=True)
        elif args.role == "measure":
            refs = json.loads(sys.stdin.read())
            passes, tracer = measure(api, cli, cases, refs, args.seconds, args.trace)
            print(json.dumps(summarize(cases, passes, tracer, args.workload)), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
