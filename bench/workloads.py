"""The three benchmark workloads: inputs from the seed, references, timed
calls and correctness checks.

Inputs are plain data made from ``random.Random(seed)``; the library only
ever sees the generated tuples and floats.  References are computed before
any timing starts, in a separate process (see ``worker.py``), and handed
over as JSON: ``oracle_distribution`` on the same window for ``window``,
``single_particle_series`` or the oracle for ``targets``, and for
``crosscheck`` a finite-window generator built here, independently of
``markov_oracle``, propagated with ``scipy.sparse.linalg.expm_multiply``.

A check fails when a call raises, when a CLI command exits non-zero or its
report disagrees with what the command must produce, or when a probability
is further from its reference than ``FLOOR`` plus the reference's leakage
bound.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# README's stated far-tail floor for any returned probability.
FLOOR = 1e-8
# Reference mass from which a target counts as heavy for heavy_err_digits.
HEAVY = 1e-8
LEAK_TOL = 1e-10

WORKLOADS = ("window", "targets", "crosscheck")

# window: one N=3 start whose 3990-target window shares one radius, and the
# N=2 starts at t=1 on both sides of the p=1/2 and p=1 edge cases.
WINDOW_N3 = ((0, 1, 2), (2, 1, 2), 0.5, 0.2)
WINDOW_N2_NUS = ((2, 1), (1, 1))
WINDOW_N2_TIME = 1.0
# targets: seeded single-target scan plus one four-particle call.
SCAN_STARTS = (((0,), (1,)), ((0, 1), (2, 1)), ((0, 1, 2), (2, 1, 2)))
SCAN_RATES = (0.5, 0.7, 1.0)
SCAN_TIMES_PER_RATE = 2
N4_START = ((0, 1, 2, 3), (1, 1, 1, 1))
N4_RATE, N4_TIME, N4_NODES = 0.7, 0.5, 32
DEFAULT_NODES = 64
# crosscheck: the CLI commands and their fixed arguments.
ORACLE_START = ((0, 1, 2, 3), (2, 1, 2, 1), 0.7, 0.5)
COMPARE_TRIALS = 100_000
BRAID_N, BRAID_POINTS = 4, 5
SECOND_CLASS_MAX_N = 5


def cfg_key(sites, species) -> str:
    return ",".join(map(str, sites)) + "|" + ",".join(map(str, species))


def orbit(nu) -> list[tuple[int, ...]]:
    return sorted(set(itertools.permutations(nu)))


def _csv(values) -> str:
    return ",".join(map(str, values))


@dataclass
class Case:
    """One timed call.  ``kind`` is window, target or cli."""

    label: str
    kind: str
    params: dict
    node_evals: int = 0


@dataclass
class Outcome:
    """What the checks of one call found."""

    checks: int = 0
    failures: list[str] = field(default_factory=list)
    misses: int = 0
    values: int = 0
    heavy_err: float = 0.0
    report_bytes: int = 0
    nonzero_exit: bool = False
    digest: str = ""


# --- inputs ---------------------------------------------------------------


def _window_case(y, nu, p, t) -> Case:
    n = len(y)
    evals = DEFAULT_NODES**n * math.factorial(n) * len(orbit(nu))
    return Case(f"window N={n} y={y} nu={nu} p={p} t={t}", "window",
                {"y": y, "nu": nu, "p": p, "t": t}, evals)


def _target_case(rng, y, nu, p, t, nodes) -> Case:
    while True:
        x = tuple(sorted(v + rng.randint(-2, 3) for v in y))
        if len(set(x)) == len(x):
            break
    pi = rng.choice(orbit(nu))
    n = len(y)
    return Case(
        f"target N={n} y={y} nu={nu} x={x} pi={pi} p={p} t={t!r} K={nodes}",
        "target",
        {"y": y, "nu": nu, "x": x, "pi": pi, "p": p, "t": t, "nodes": nodes},
        nodes**n * math.factorial(n),
    )


def _cli_case(name, argv, out: Path, **expect) -> Case:
    path = out / f"{argv[0]}.json"
    return Case(f"cli {name}", "cli",
                {"argv": argv + ["--out", str(path)], "out": str(path), **expect})


def make_cases(workload: str, seed: int, out_dir: Path) -> list[Case]:
    """The timed calls of one pass.  The same seed gives the same cases;
    CLI reports go to ``out_dir``."""
    rng = random.Random(seed)
    if workload == "window":
        cases = [_window_case(*WINDOW_N3)]
        for p in SCAN_RATES:
            for nu in WINDOW_N2_NUS:
                cases.append(_window_case((0, 1), nu, p, WINDOW_N2_TIME))
        return cases
    if workload == "targets":
        cases = []
        for p in SCAN_RATES:
            for _ in range(SCAN_TIMES_PER_RATE):
                t = 2.0 * (1.0 - rng.random())
                for y, nu in SCAN_STARTS:
                    cases.append(_target_case(rng, y, nu, p, t, DEFAULT_NODES))
        cases.append(_target_case(rng, *N4_START, N4_RATE, N4_TIME, N4_NODES))
        return cases
    if workload == "crosscheck":
        compare_seed, braid_seed, second_class_seed = (rng.randrange(1 << 31) for _ in range(3))
        y, nu, p, t = ORACLE_START
        return [
            _cli_case("oracle N=4", ["oracle", "--p", str(p), "--t", str(t), "--y", _csv(y), "--nu", _csv(nu)], out_dir),
            _cli_case(
                "compare N=3",
                ["compare", "--p", "0.7", "--t", "0.5", "--y", "0,1,2", "--nu", "2,1,2", "--reference", "oracle",
                 "--trials", str(COMPARE_TRIALS), "--seed", str(compare_seed)],
                out_dir, trials=COMPARE_TRIALS,
            ),
            _cli_case(
                f"verify-braid n={BRAID_N}",
                ["verify-braid", "--p", "1/3", "--n", str(BRAID_N), "--points", str(BRAID_POINTS), "--seed", str(braid_seed)],
                out_dir, checks=braid_check_count(BRAID_N, BRAID_POINTS),
            ),
            _cli_case(
                f"verify-second-class n<={SECOND_CLASS_MAX_N}",
                ["verify-second-class", "--p", "2/5", "--max-n", str(SECOND_CLASS_MAX_N), "--seed", str(second_class_seed)],
                out_dir, checks=second_class_check_count(SECOND_CLASS_MAX_N),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def braid_check_count(n: int, points: int) -> int:
    """Relations checked per point: every sigma, every rearrangement of the
    three default labelings, every relation (squares, far commutations,
    braids)."""
    labelings = [
        (1,) + (2,) * (n - 1),
        (2, 1) + (2,) * (n - 2),
        tuple(min(k, 3) for k in range(1, n + 1)),
    ]
    relations = (n - 1) + sum(max(0, n - 2 - i) for i in range(1, n)) + (n - 2)
    tables = sum(len(orbit(nu)) for nu in labelings)
    return points * tables * math.factorial(n) * relations


def second_class_check_count(max_n: int) -> int:
    """Closed-form comparisons plus those outside their validity region."""
    return sum(
        math.factorial(n) * n for n in range(2, max_n + 1) for nu_pos in (1, 2) if nu_pos <= n
    )


# --- references -----------------------------------------------------------


def _poisson_margin(n: int, t: float) -> int:
    from scipy.stats import poisson

    delta = 1
    while n * float(poisson.sf(delta - 1, t)) > LEAK_TOL:
        delta += 1
    return delta


def independent_distribution(y, nu, p, t):
    """Leak-controlled finite-window law at time t, built without
    ``markov_oracle``: the censored generator is assembled here and exp(tQ)
    applied with expm_multiply.  Returns (values by cfg_key, window,
    leakage bound)."""
    import numpy as np
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply
    from scipy.stats import poisson

    n = len(y)
    delta = _poisson_margin(n, t)
    lo, hi = min(y) - delta, max(y) + delta
    states = [(s, c) for s in itertools.combinations(range(lo, hi + 1), n) for c in orbit(nu)]
    index = {state: k for k, state in enumerate(states)}
    rows, cols, vals = [], [], []
    for k, (sites, species) in enumerate(states):
        for i in range(n):
            for step, rate in ((1, p), (-1, 1.0 - p)):
                dest_site = sites[i] + step
                if rate == 0 or not lo <= dest_site <= hi:
                    continue
                j = i + step
                if 0 <= j < n and sites[j] == dest_site:
                    if species[i] <= species[j]:
                        continue
                    swapped = list(species)
                    swapped[i], swapped[j] = swapped[j], swapped[i]
                    dest = (sites, tuple(swapped))
                else:
                    moved = list(sites)
                    moved[i] = dest_site
                    dest = (tuple(moved), species)
                rows.append(index[dest])
                cols.append(k)
                vals.append(rate)
    m = len(states)
    flow = sparse.csr_matrix((vals, (rows, cols)), shape=(m, m))
    generator = flow - sparse.diags(np.asarray(flow.sum(axis=0)).ravel())
    start = np.zeros(m)
    start[index[(tuple(y), tuple(nu))]] = 1.0
    dist = expm_multiply(generator * t, start)
    leak = min(1.0, n * float(poisson.sf(delta - 1, t)))
    return {cfg_key(*s): float(v) for s, v in zip(states, dist)}, [lo, hi], leak


def references(api, cases: list[Case]) -> list[dict]:
    """One JSON-ready reference record per case."""
    oracles: dict = {}

    def oracle(y, nu, p, t):
        if (y, nu, p, t) not in oracles:
            dist, window, leak = api.oracle_distribution(y, nu, api.RateParams.from_p(p), t)
            values = {cfg_key(*cfg): v for cfg, v in dist.items()}
            oracles[(y, nu, p, t)] = {"values": values, "window": list(window), "leak": leak}
        return oracles[(y, nu, p, t)]

    out = []
    for case in cases:
        q = case.params
        if case.kind == "window":
            out.append(oracle(q["y"], q["nu"], q["p"], q["t"]))
        elif case.kind == "target" and len(q["y"]) == 1:
            rates = api.RateParams.from_p(q["p"])
            value = api.single_particle_series(q["x"][0] - q["y"][0], rates, q["t"])
            out.append({"value": value, "leak": 0.0})
        elif case.kind == "target":
            ref = oracle(q["y"], q["nu"], q["p"], q["t"])
            out.append({"value": ref["values"].get(cfg_key(q["x"], q["pi"]), 0.0), "leak": ref["leak"]})
        elif q["argv"][0] == "oracle":
            values, window, leak = independent_distribution(*ORACLE_START)
            out.append({"values": values, "window": window, "leak": leak})
        else:
            out.append({})
    return out


# --- the timed call -------------------------------------------------------


def call(api, cli, case: Case):
    """The one library or CLI call a case times.  Looks every function up
    on its module at call time, so a traced binding is the one that runs."""
    q = case.params
    if case.kind == "window":
        return api.distribution_over_window(q["y"], q["nu"], api.RateParams.from_p(q["p"]), q["t"])
    if case.kind == "target":
        spec = None
        if q["nodes"] != DEFAULT_NODES:
            spec = api.ContourSpec(nodes=q["nodes"], dimension=len(q["y"]))
        return api.transition_probability(
            q["y"], q["nu"], q["x"], q["pi"], api.RateParams.from_p(q["p"]), q["t"], spec
        )
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(q["argv"]))
    return code, stdout.getvalue(), stderr.getvalue()


# --- checks ---------------------------------------------------------------


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _compare(outcome: Outcome, label, got, want, leak) -> None:
    outcome.checks += 1
    err = abs(got - want)
    if err > FLOOR + leak:
        outcome.misses += 1
        outcome.failures.append(f"{label}: value {got:.6e}, reference {want:.6e}, |err| {err:.2e}")
    if want >= HEAVY:
        outcome.heavy_err = max(outcome.heavy_err, err)


def check(case: Case, result, ref: dict) -> Outcome:
    """Check one call's result against its reference."""
    outcome = Outcome()
    if isinstance(result, Exception):
        outcome.checks = 1
        outcome.failures.append(f"raised {type(result).__name__}: {result}")
        return outcome
    if case.kind == "window":
        outcome.checks += 1
        if list(result.window) != ref["window"]:
            outcome.failures.append(f"window {result.window}, reference window {ref['window']}")
        for v in result.values:
            key = cfg_key(v.sites, v.species)
            _compare(outcome, key, v.value, ref["values"].get(key, 0.0), ref["leak"])
        outcome.values = len(result.values)
        outcome.digest = _digest(*((v.value, v.imag) for v in result.values))
        return outcome
    if case.kind == "target":
        _compare(outcome, "value", result, ref["value"], ref["leak"])
        outcome.values = 1
        outcome.digest = _digest(result)
        return outcome
    return _check_cli(case, result, ref, outcome)


def _check_cli(case: Case, result, ref: dict, outcome: Outcome) -> Outcome:
    code, stdout, stderr = result
    q = case.params
    outcome.checks += 1
    outcome.nonzero_exit = code != 0
    if code != 0:
        outcome.failures.append(f"exit code {code}: {stderr.strip()[:200]}")
        return outcome
    path = Path(q["out"])
    raw = path.read_bytes()
    outcome.report_bytes = len(raw)
    outcome.digest = _digest(raw)
    report = json.loads(raw)
    command = q["argv"][0]
    if command == "oracle":
        if report["window"] != ref["window"]:
            outcome.failures.append(f"window {report['window']}, reference window {ref['window']}")
        seen = set()
        for row in report["targets"]:
            key = cfg_key(row["sites"], row["species"])
            seen.add(key)
            _compare(outcome, key, row["value"], ref["values"].get(key, 0.0), ref["leak"])
        missing = [k for k, v in ref["values"].items() if v >= HEAVY and k not in seen]
        outcome.checks += 1
        if missing:
            outcome.failures.append(f"{len(missing)} heavy states missing from the report, e.g. {missing[0]}")
        outcome.values = len(report["targets"])
    elif command == "compare":
        if not (report["passed"] and report["checked"] > 0 and report["trials"] == q["trials"]):
            outcome.failures.append(
                f"compare: passed={report['passed']} checked={report['checked']} trials={report['trials']}"
            )
    else:
        total = report["checks"] + report.get("outside_validity", 0)
        if not report["passed"] or total != q["checks"]:
            outcome.failures.append(f"{command}: passed={report['passed']} checks={total}, expected {q['checks']}")
    return outcome
