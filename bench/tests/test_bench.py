"""Self-test of the benchmark harness.

    python3 -m pytest bench/tests -q

Checks that tracing changes no returned value, that spans account for all
traced time, and that one run prints every declared metric with its unit.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def library():
    return worker.import_library()


@pytest.fixture(scope="module")
def small_cases(tmp_path_factory):
    """Cheap cases of every kind: N<=2 targets, an N=2 window, a CLI command."""
    out = tmp_path_factory.mktemp("reports")
    targets = [c for c in workloads.make_cases("targets", 7, out) if len(c.params["y"]) <= 2][:4]
    window = [c for c in workloads.make_cases("window", 7, out) if len(c.params["y"]) == 2][:1]
    cli = [c for c in workloads.make_cases("crosscheck", 7, out) if c.params["argv"][0] == "verify-second-class"]
    return targets + window + cli


@pytest.fixture(scope="module")
def passes(library, small_cases):
    api, cli = library
    refs = json.loads(json.dumps(workloads.references(api, small_cases)))
    untraced = worker.run_pass(api, cli, small_cases, refs)
    tracer = tracing.Tracer(api)
    try:
        tracer.install()
        traced = worker.run_pass(api, cli, small_cases, refs, tracer)
    finally:
        tracer.restore()
    return untraced, traced, tracer


def test_traced_and_untraced_values_are_bit_identical(passes):
    (_, untraced), (_, traced), _ = passes
    assert [o.digest for o in untraced] == [o.digest for o in traced]
    assert all(o.digest for o in untraced)
    assert [o.failures for o in untraced] == [o.failures for o in traced]


def test_tracer_wraps_bindings_in_calling_modules_and_restores_them(library):
    api, _ = library
    import asep_exact.transition_prob as tp

    original = tp.coefficient_table
    tracer = tracing.Tracer(api)
    try:
        tracer.install()
        assert tp.coefficient_table.__bench_span__ == "species_coeff.coefficient_table"
        assert api.distribution_over_window.__bench_span__ == "transition_prob.distribution_over_window"
        with pytest.raises(RuntimeError):
            tracing.assert_untraced(api)
    finally:
        tracer.restore()
    assert tp.coefficient_table is original
    tracing.assert_untraced(api)


def test_span_self_times_sum_to_busy_time(passes):
    _, (_, traced), tracer = passes
    spans = tracer.arrays()
    roots = spans["parent"] < 0
    busy = spans["duration"][roots].sum()
    assert busy > 0
    assert math.isclose(spans["self_time"].sum(), busy, rel_tol=1e-9)
    assert (spans["self_time"] >= -1e-9).all()
    pass_record = {"report_bytes": sum(o.report_bytes for o in traced), "nonzero_exits": 0}
    metrics = layers.layer_metrics(tracer, [], [pass_record], 0.0)
    layer_self = sum(metrics[f"{name}.self_s"] for name in tracing.LAYERS)
    assert math.isclose(layer_self + metrics["transition_prob.einsum_s"], metrics["trace.busy_s"], rel_tol=1e-9)


def test_every_layer_metric_has_a_declared_effect():
    moves = json.loads((BENCH / "expectations.json").read_text())["layer_moves"]
    assert {m["name"] for m in DECLARED["per_layer"]} == set(moves)
    assert {w["name"] for w in DECLARED["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "targets", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in lines[:-1]
        ), metric["name"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["transition_prob.calls"] > 0
        assert metrics["markov_oracle.build_s"] == metrics["mc_simulator.trials"] == 0
