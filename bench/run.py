"""Benchmark of asep_exact: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload {window,targets,crosscheck} --seed N \
        --seconds R --trace {0,1}

Run from the root of a checkout.  The library is imported from the
checkout's ``src``; nothing is installed or built.  One run makes three
fresh interpreters (``worker.py``): the first computes the references, the
second only sets up, the third measures.  Each one's time from start to the
end of set-up (imports of ``asep_exact`` and ``asep_exact.cli`` plus the
workload's inputs) is one ``setup_s`` sample.  The measuring process runs
closed-loop passes over the workload's calls, one client, for R seconds.

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, ``--trace
1`` every per-layer metric (from spans of traced passes that follow
untraced ones).  Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` counts checks.  ``failed`` counts failed checks
except the probability misses that ``expectations.json`` records as a
known defect of the case (up to the recorded count); those still lower
``checks_passed_frac`` and are listed.  Exit code 0 on a complete run, 2
when the checkout or a child process is broken, without a result line.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
CHILD_TIMEOUT_S = 170
# Smallest error heavy_err_digits resolves, which keeps the metric finite.
ERR_RESOLUTION = 1e-17


class BenchError(RuntimeError):
    pass


def child(role: str, args, stdin_text: str | None = None) -> tuple[float, str]:
    """Run one worker; return (seconds from spawn to 'ready', rest of stdout)."""
    argv = [sys.executable, str(WORKER), role, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(stdin_text or "", timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {role} failed with exit code {proc.returncode}")
    return setup, out.strip().splitlines()[-1] if out.strip() else ""


def account(summary, known: dict) -> dict:
    """Attempted and failed checks over all passes, with known-defect misses
    separated out."""
    attempted = failed = known_misses = 0
    listed: dict[str, list[str]] = {}
    for p in summary["passes"]:
        attempted += p["checks"]
        for label, rec in p["failures"].items():
            allowed = known.get(label, {}).get("count", 0)
            explained = min(rec["misses"], allowed)
            known_misses += explained
            failed += rec["count"] - explained
            listed.setdefault(label, rec["examples"])
    return {"attempted": attempted, "failed": failed, "known_misses": known_misses, "listed": listed}


def end_to_end(summary, setups, tally) -> dict[str, float]:
    untraced = [p for p in summary["passes"] if not p["traced"]]
    worst = max(p["heavy_err"] for p in untraced)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "targets_per_s": statistics.median(p["values"] / p["wall_s"] for p in untraced),
        "checks_passed_frac": 1.0 - (tally["failed"] + tally["known_misses"]) / tally["attempted"],
        "heavy_err_digits": -math.log10(max(worst, ERR_RESOLUTION)),
        "peak_rss_mb": summary["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "asep_exact" / "__init__.py").is_file():
            raise BenchError(f"no asep_exact sources under {ROOT / 'src'}")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        known = json.loads((BENCH / "expectations.json").read_text())["known_failures"].get(args.workload, {})
        setups = []
        setup, refs = child("refs", args)
        setups.append(setup)
        setups.append(child("probe", args)[0])
        setup, line = child("measure", args, refs)
        setups.append(setup)
        summary = json.loads(line)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2

    tally = account(summary, known)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[group]}
    values = summary["layers"] if args.trace else end_to_end(summary, setups, tally)
    if set(values) != set(units):
        print(f"bench: error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 2

    host = summary["host"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("host " + "  ".join(f"{k}={v}" for k, v in host.items()))
    walls = [round(p["wall_s"], 4) for p in summary["passes"]]
    print(f"passes {len(walls)} (traced: {sum(p['traced'] for p in summary['passes'])})  wall_s per pass {walls}")
    print(f"setup_s samples {[round(s, 4) for s in setups]}")
    for name in units:
        print(f"  {name:40s} {values[name]:.6g} {units[name]}")
    all_failed = tally["failed"] + tally["known_misses"]
    print(f"  {'failed_frac':40s} {all_failed / tally['attempted']:.6g} ratio"
          f"  ({all_failed} of {tally['attempted']} checks; {tally['known_misses']} are recorded known defects)")
    print(f"failed checks ({len(tally['listed'])} case(s)):")
    for label, examples in tally["listed"].items():
        cause = known.get(label, {}).get("cause")
        print(f"  {label}" + (f"  [known: {cause}]" if cause else ""))
        for example in examples:
            print(f"    {example}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
