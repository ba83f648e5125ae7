"""Command-line surface: evaluation, verification suites, oracles, and
machine-readable reports.

Exit codes: 0 success (and all verifications passing), 1 malformed input,
unwritable output or usage error, 2 verification failure.  Human-readable
summaries go to stdout; machine artifacts are written only via --out (JSON
report) and --csv (tabular rows).  Reports embed the formula identifier,
quadrature settings, seeds, and tolerances needed to re-run them bit for
bit.

Commands can be driven by flags or by a JSON manifest (the ``run``
command), and ``prob``/``oracle``/``compare`` accept a problem file in
place of the problem flags:

    {"p": 0.7, "t": 1.0, "Y": [0, 1, 2], "nu": [2, 1, 2],
     "targets": [{"X": [0, 1, 3], "pi": [1, 2, 2]}],   # or "window": [lo, hi]
     "quad": {"nodes": 64, "radius": null}}

Each input is declared once, in INPUTS, with the bounds that flags and
manifests alike are checked against; problem flags become a problem
document read exactly like a file.  Unknown fields are rejected before
anything runs.  Each report is a frozen dataclass below, and its published
schema is generated from that dataclass.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import re
import sys
import types
import typing
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Literal

from . import __version__
from .bethe_algebra import BethePoleError, RateParams
from .contour_quadrature import DEFAULT_NODES, MAX_NODES, ContourSpec, Quadrature
from .markov_oracle import DEFAULT_LEAK_TOL, check_problem, oracle_distribution
from .mc_simulator import CellCheck, simulate
from .mc_simulator import compare as mc_compare
from .permutations import inversion_classes
from .species_coeff import braid_sweep, second_class_sweep
from .transition_prob import (
    delta_recovery,
    distribution_over_window,
    _evaluate,
    _target_values,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2

_INT_ARRAY = {"type": "array", "items": {"type": "integer"}, "minItems": 1}
_WINDOW = {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2}
_RATE = {"type": ["number", "string"]}

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

# Every CLI input, declared once: its JSON schema, bounds included, and its
# help text.  Subcommand flags and MANIFEST_SCHEMA are built from this
# table, and parsed flags are checked against the same schemas as run
# manifests.
INPUTS = {
    "problem": ({"type": "string"}, "JSON problem file, in place of the problem flags"),
    "p": (_RATE, "right hop rate: a number, or a/b for exact arithmetic"),
    "t": ({"type": "number", "minimum": 0}, "time"),
    "y": (_INT_ARRAY, "initial sites, comma-separated"),
    "nu": (_INT_ARRAY, "initial species, comma-separated (all 1 where optional)"),
    "x": (_INT_ARRAY, "target sites, comma-separated"),
    "pi": (_INT_ARRAY, "target species (default: nu); needs --x"),
    "window": (_WINDOW, "lo,hi window of targets instead of --x"),
    "nodes": (
        {"type": "integer", "minimum": 8, "maximum": MAX_NODES},
        "nodes per contour axis",
    ),
    "radius": (
        {"type": ["number", "null"], "exclusiveMinimum": 0},
        "contour radius (default: balanced)",
    ),
    "quad_tol": (_POSITIVE, "largest deviation from the point mass that passes"),
    "margin": ({"type": "integer", "minimum": 0}, "sites checked beside the start"),
    "tol": (_POSITIVE, "largest |class sum| that passes"),
    "leak_tol": (_POSITIVE, "bound on the mass that leaves the default window"),
    "with_oracle": ({"type": "boolean"}, "add each target's finite-window oracle value"),
    "n": ({"type": "integer", "minimum": 2}, "particle count"),
    "points": ({"type": "integer", "minimum": 1}, "random rational points"),
    "max_n": ({"type": "integer", "minimum": 2}, "largest particle count"),
    "trials": ({"type": "integer", "minimum": 1}, "Monte Carlo trials"),
    "seed": ({"type": "integer", "minimum": 0, "maximum": 2**64 - 1}, "random seed"),
    "z_threshold": (_POSITIVE, "largest |z| that passes"),
    "min_expected": (_POSITIVE, "least expected count of a checked cell"),
    "reference": ({"enum": ["oracle", "formula"]}, "distribution checked against"),
    "mass_floor": ({"type": "number", "minimum": 0}, "least probability listed"),
    "print_limit": ({"type": "integer", "minimum": 0}, "targets printed to stdout"),
    "out": ({"type": "string"}, "write the JSON report here"),
    "csv": ({"type": "string"}, "write one CSV row per target or cell"),
}

PROBLEM_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "problem",
    "type": "object",
    "properties": {
        "p": INPUTS["p"][0],
        "t": INPUTS["t"][0],
        "N": {"type": "integer", "minimum": 1},
        "M": {"type": "integer", "minimum": 1},
        "Y": INPUTS["y"][0],
        "nu": INPUTS["nu"][0],
        "targets": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {"X": INPUTS["x"][0], "pi": INPUTS["pi"][0]},
                "required": ["X", "pi"],
                "additionalProperties": False,
            },
        },
        "window": INPUTS["window"][0],
        "quad": {
            "type": "object",
            "properties": {"nodes": INPUTS["nodes"][0], "radius": INPUTS["radius"][0]},
            "additionalProperties": False,
        },
    },
    "required": ["p", "t", "Y", "nu"],
    "additionalProperties": False,
}

# --- reports: one frozen dataclass each, returned by its command's handler


@dataclass(frozen=True)
class Initial:
    sites: tuple[int, ...]
    species: tuple[int, ...]


@dataclass(frozen=True)
class TargetRow:
    sites: tuple[int, ...]
    species: tuple[int, ...]
    value: float
    oracle: float | None = None


@dataclass(frozen=True)
class BClassRow:
    entries: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    class_sum: float
    member_sums: tuple[float, ...] | None = None


@dataclass(frozen=True)
class HistogramCell:
    sites: tuple[int, ...]
    species: tuple[int, ...]
    count: int
    frequency: float


_report = dataclass(frozen=True, kw_only=True)


@_report
class ProbReport:
    command: Literal["prob"] = "prob"
    formula: Literal["multispecies-contour-sum"] = "multispecies-contour-sum"
    p: float
    t: float
    initial: Initial
    quadrature: Quadrature
    window: tuple[int, int] | None = None
    leakage: float | None = None
    targets: tuple[TargetRow, ...]
    total_value: float


@_report
class VerifyDeltaReport:
    command: Literal["verify-delta"] = "verify-delta"
    formula: Literal["contour-sum-at-time-zero"] = "contour-sum-at-time-zero"
    p: float
    initial: Initial
    margin: int
    tolerance: float
    quadrature: Quadrature
    max_residual: float
    passed: bool


@_report
class VerifyBraidReport:
    command: Literal["verify-braid"] = "verify-braid"
    formula: Literal["exchange-operator-braid-relations"] = (
        "exchange-operator-braid-relations"
    )
    n: int
    p: str
    points: int
    seed: int
    checks: int
    passed: bool
    counterexample: dict | None = None


@_report
class VerifyBClassesReport:
    command: Literal["verify-b-classes"] = "verify-b-classes"
    formula: Literal["inversion-class-cancellation"] = "inversion-class-cancellation"
    n: int
    p: float
    tolerance: float
    initial: tuple[int, ...]
    target: tuple[int, ...]
    quadrature: Quadrature
    classes: tuple[BClassRow, ...]
    passed: bool


@_report
class VerifySecondClassReport:
    command: Literal["verify-second-class"] = "verify-second-class"
    formula: Literal["second-class-closed-forms"] = "second-class-closed-forms"
    max_n: int
    p: str
    checks: int
    outside_validity: int
    passed: bool
    counterexample: dict | None = None


@_report
class OracleReport:
    command: Literal["oracle"] = "oracle"
    formula: Literal["finite-window-uniformization"] = "finite-window-uniformization"
    p: float
    t: float
    initial: Initial
    window: tuple[int, int]
    leakage: float
    targets: tuple[TargetRow, ...]
    total_value: float


@_report
class SimulateReport:
    command: Literal["simulate"] = "simulate"
    formula: Literal["uniformized-poisson-clock"] = "uniformized-poisson-clock"
    p: float
    t: float
    initial: Initial
    trials: int
    seed: int
    cells: tuple[HistogramCell, ...]


@_report
class CompareReport:
    command: Literal["compare"] = "compare"
    formula: Literal["binomial-z-scores"] = "binomial-z-scores"
    reference: Literal["oracle", "formula"]
    p: float
    t: float
    initial: Initial
    trials: int
    seed: int
    z_threshold: float
    min_expected: float
    checked: int
    max_abs_z: float
    flagged: tuple[CellCheck, ...]
    passed: bool


_JSON_TYPES = {
    bool: "boolean", int: "integer", float: "number", str: "string", dict: "object"
}


def _schema(tp) -> dict:
    """JSON schema of a report type.  A dataclass field defaulting to None
    is optional (and left out of the report when None); every other field
    is required, ``X | None`` ones nullable."""
    if is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        properties, required = {}, []
        for f in fields(tp):
            if f.default is None:
                properties[f.name] = _schema(typing.get_args(hints[f.name])[0])
            else:
                properties[f.name] = _schema(hints[f.name])
                required.append(f.name)
        return {
            "type": "object",
            "properties": properties,
            "required": required,
            "additionalProperties": False,
        }
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Literal:
        return {"const": args[0]} if len(args) == 1 else {"enum": list(args)}
    if origin is types.UnionType:
        inner = _schema(args[0])
        return dict(inner, type=[inner["type"], "null"])
    if origin is tuple:
        if args == (int, int):
            return _WINDOW
        if args == (int, ...):
            return _INT_ARRAY
        return {"type": "array", "items": _schema(args[0])}
    return {"type": _JSON_TYPES[tp]}


def _csv_columns(row_type) -> str:
    """A CSV file's header: the row's fields in order, the optional ones
    (defaulting to None, written only when asked for) in brackets."""
    head = ",".join(f.name for f in fields(row_type) if f.default is not None)
    return head + "".join(f"[,{f.name}]" for f in fields(row_type) if f.default is None)


CSV_SCHEMAS = {"targets": _csv_columns(TargetRow), "histogram": _csv_columns(HistogramCell)}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 means verification
    # failure here, so route usage problems to exit 1
    def error(self, message):
        raise UsageError(message)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let site lists with negative entries ("-4,5") pass as values
        self._negative_number_matcher = re.compile(
            r"^-\d+(?:\.\d+)?(?:,-?\d+(?:\.\d+)?)*$"
        )


def _parse_rate(text) -> RateParams:
    if isinstance(text, str) and "/" in text:
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"p = {text} has a zero denominator") from None
    else:
        value = float(text) if not isinstance(text, (int, float)) else text
    return RateParams.from_p(value)


def _int_tuple(text) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _flag(key) -> str:
    return "--" + key.replace("_", "-")


def _flag_type(schema):
    """How a flag's text becomes its value.  Rates (a number or a/b) and
    strings stay text."""
    kind = schema.get("type")
    if kind == "array":
        return _int_tuple
    if kind == "integer":
        return int
    if kind in ("number", ["number", "null"]):
        return float
    return None


def _validate(doc, schema, what):
    # the schemas are checked against their metaschema once, by the tests;
    # jsonschema is imported here, so importing this module does not load it
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    exc = best_match(Draft202012Validator(schema).iter_errors(doc))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise UsageError(f"invalid {what} at {path}: {exc.message}") from exc


def _load_json(path, schema, what):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {path} line {exc.lineno}: {exc.msg}") from exc
    _validate(doc, schema, what)
    return doc


def _spec_from(args, quad=None) -> ContourSpec:
    """Contour settings from the --nodes/--radius flags a command has,
    overridden by a problem's ``quad`` entries."""
    settings = {k: getattr(args, k) for k in ("nodes", "radius") if hasattr(args, k)}
    return ContourSpec(**{**settings, **(quad or {})})


_PROBLEM_FLAGS = ("p", "t", "y", "nu", "x", "pi", "window")


def _problem_from(args):
    """(rates, t, y, nu, targets-or-None, window-or-None, spec) from a
    problem file, or from the problem flags turned into the same document;
    never from both."""
    given = [_flag(k) for k in _PROBLEM_FLAGS if getattr(args, k, None) is not None]
    if args.problem is not None:
        if given:
            raise UsageError(f"a problem file cannot be combined with {', '.join(given)}")
        doc = _load_json(args.problem, PROBLEM_SCHEMA, "problem file")
    else:
        x, pi = getattr(args, "x", None), getattr(args, "pi", None)
        if pi is not None and x is None:
            raise UsageError("--pi needs --x")
        doc = {"p": args.p, "t": args.t, "Y": args.y, "nu": args.nu,
               "window": args.window}
        if x is not None:
            doc["targets"] = [{"X": x, "pi": args.nu if pi is None else pi}]
        doc = _json({k: v for k, v in doc.items() if v is not None})
        _validate(doc, PROBLEM_SCHEMA, "problem flags")
    if "targets" in doc and "window" in doc:
        raise UsageError("give targets or a window, not both")
    y = tuple(doc["Y"])
    nu = tuple(doc["nu"])
    if doc.get("N") is not None and doc["N"] != len(y):
        raise UsageError(f"problem file: N={doc['N']} but Y has {len(y)} sites")
    if doc.get("M") is not None and doc["M"] != len(set(nu)):
        raise UsageError(
            f"problem file: M={doc['M']} but nu has {len(set(nu))} distinct labels"
        )
    targets = None
    if "targets" in doc:
        targets = [(tuple(row["X"]), tuple(row["pi"])) for row in doc["targets"]]
    window = tuple(doc["window"]) if "window" in doc else None
    spec = _spec_from(args, doc.get("quad"))
    return _parse_rate(doc["p"]), float(doc["t"]), y, nu, targets, window, spec


def _fields(obj) -> dict:
    """JSON object of a report dataclass, for ``json.dump(default=...)``:
    every field, except an optional one left at None."""
    return {
        f.name: v
        for f in fields(obj)
        if (v := getattr(obj, f.name)) is not None or f.default is not None
    }


def _json(value):
    """JSON data of a report or input, as ``--out`` writes it."""
    return json.loads(json.dumps(value, default=_fields))


@contextlib.contextmanager
def _created(path, what, newline=None):
    """``path`` opened for writing; failing to write it is a usage error,
    as failing to read an input is."""
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {what} {path}: {exc}") from exc


def _write_csv(path, row_type, rows, omit=()):
    """One line per row, columns in field order except those in ``omit``.
    Tuples are written space-separated."""
    names = [f.name for f in fields(row_type) if f.name not in omit]
    with _created(path, "CSV", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            cells = (getattr(row, name) for name in names)
            writer.writerow(
                " ".join(map(str, c)) if isinstance(c, tuple) else c for c in cells
            )


def _radius_text(radius: float | None) -> str:
    return "none" if radius is None else f"{radius:.6f}"


def _verdict(args, passed, detail, counterexample=None):
    """A verification's summary line, and its first counterexample if any."""
    print(f"{args.command}: {'PASS' if passed else 'FAIL'}  {detail}")
    if counterexample:
        print(f"  first counterexample: {counterexample}")


def _exact_rate(args, example) -> RateParams:
    rates = _parse_rate(args.p)
    if not rates.exact:
        raise UsageError(f"{args.command} needs an exact rational p, e.g. --p {example}")
    return rates


def cmd_prob(args) -> ProbReport:
    rates, t, y, nu, targets, window, spec = _problem_from(args)
    if targets is None:
        dist = distribution_over_window(
            y, nu, rates, t, window=window, leak_tol=args.leak_tol, spec=spec
        )
        values, window, leak = dist.values, dist.window, dist.leakage
        quadrature = dist.quadrature
    else:
        evaluation = _evaluate(y, nu, targets, rates, t, spec)
        values, leak = _target_values(targets, evaluation), None
        quadrature = evaluation.quadrature
    oracle = None
    if args.with_oracle:
        oracle, _, _ = oracle_distribution(y, nu, rates, t, leak_tol=args.leak_tol)
    rows = tuple(
        TargetRow(
            sites=tv.sites,
            species=tv.species,
            value=tv.value,
            oracle=None if oracle is None else oracle.get((tv.sites, tv.species), 0.0),
        )
        for tv in values
    )
    report = ProbReport(
        p=float(rates.p),
        t=t,
        initial=Initial(y, nu),
        quadrature=quadrature,
        window=window,
        leakage=leak,
        targets=rows,
        total_value=sum(r.value for r in rows),
    )
    print(
        f"prob: {len(rows)} target(s), total {report.total_value:.12f}, "
        f"nodes {quadrature.nodes}, radius {_radius_text(quadrature.radius)}, "
        f"mirror_radius {_radius_text(quadrature.mirror_radius)}"
    )
    for row in rows[: args.print_limit]:
        extra = f"  oracle {row.oracle:.12e}" if row.oracle is not None else ""
        print(f"  X={row.sites} pi={row.species}  P={row.value:.12e}{extra}")
    if len(rows) > args.print_limit:
        print(f"  ... {len(rows) - args.print_limit} more (see --out/--csv)")
    if args.csv:
        _write_csv(args.csv, TargetRow, rows, () if args.with_oracle else ("oracle",))
    return report


def cmd_verify_delta(args) -> VerifyDeltaReport:
    rates = _parse_rate(args.p)
    y = args.y
    nu = args.nu or (1,) * len(y)
    spec = _spec_from(args)
    rep = delta_recovery(y, nu, rates, margin=args.margin, tol=args.quad_tol, spec=spec)
    _verdict(
        args,
        rep.passed,
        f"max residual {rep.max_residual:.3e} (tol {args.quad_tol:g}) at "
        f"{rep.quadrature.nodes} nodes, radius {_radius_text(rep.quadrature.radius)}, "
        f"mirror_radius {_radius_text(rep.quadrature.mirror_radius)}",
    )
    return VerifyDeltaReport(
        p=float(rates.p),
        initial=Initial(y, nu),
        margin=args.margin,
        tolerance=args.quad_tol,
        quadrature=rep.quadrature,
        max_residual=rep.max_residual,
        passed=rep.passed,
    )


def cmd_verify_braid(args) -> VerifyBraidReport:
    rates = _exact_rate(args, "1/3")
    sweep = braid_sweep(args.n, rates, args.points, args.seed)
    _verdict(
        args,
        sweep.passed,
        f"n={args.n} p={rates.p} {args.points} random rational points, "
        f"{sweep.checks} exact identities",
        sweep.counterexample,
    )
    return VerifyBraidReport(
        n=args.n,
        p=str(rates.p),
        points=args.points,
        seed=args.seed,
        checks=sweep.checks,
        passed=sweep.passed,
        counterexample=sweep.counterexample,
    )


def cmd_verify_b_classes(args) -> VerifyBClassesReport:
    rates = _parse_rate(args.p)
    y, x = args.y, args.x
    n = len(y)
    if n < 2:
        raise UsageError("verify-b-classes needs at least 2 particles")
    spec = _spec_from(args)
    ones = (1,) * n
    classes = []
    for entries, members in sorted(
        inversion_classes(n).items(), key=lambda kv: sorted(kv[0])
    ):
        evaluation = _evaluate(y, ones, [(x, ones)], rates, 0.0, spec, members)
        class_sum = abs(evaluation.values[0])
        classes.append(
            BClassRow(
                entries=tuple(sorted(entries)),
                members=tuple(members),
                class_sum=class_sum,
                # a one-member class sum is that member's summand
                member_sums=(class_sum,) if len(members) == 1 else None,
            )
        )
    passed = not any(
        v > args.tol for row in classes for v in (row.class_sum, *(row.member_sums or ()))
    )
    _verdict(args, passed, f"n={n} p={float(rates.p)} tol {args.tol:g}")
    for row in classes:
        tag = " (each member vanishes)" if row.member_sums is not None else ""
        print(
            f"  B={set(row.entries)}: |class sum| = {row.class_sum:.3e}"
            f" over {len(row.members)} permutation(s){tag}"
        )
    return VerifyBClassesReport(
        n=n,
        p=float(rates.p),
        tolerance=args.tol,
        initial=y,
        target=x,
        quadrature=evaluation.quadrature,
        classes=tuple(classes),
        passed=passed,
    )


def cmd_verify_second_class(args) -> VerifySecondClassReport:
    rates = _exact_rate(args, "2/5")
    sweep = second_class_sweep(args.max_n, rates, args.seed)
    _verdict(
        args,
        sweep.passed,
        f"n up to {args.max_n}, p={rates.p}: {sweep.checks} exact identities, "
        f"{sweep.outside_validity} outside the validity region",
        sweep.counterexample,
    )
    return VerifySecondClassReport(
        max_n=args.max_n,
        p=str(rates.p),
        checks=sweep.checks,
        outside_validity=sweep.outside_validity,
        passed=sweep.passed,
        counterexample=sweep.counterexample,
    )


def cmd_oracle(args) -> OracleReport:
    rates, t, y, nu, targets, window, _ = _problem_from(args)
    # the oracle only looks its targets up: check_problem checks them as it does the engine's
    check_problem(y, nu, t, targets or ())
    dist, used_window, leak = oracle_distribution(
        y, nu, rates, t, leak_tol=args.leak_tol, window=window
    )
    if targets is None:
        # the oracle's states come in sorted order
        picked = ((cfg, pr) for cfg, pr in dist.items() if pr >= args.mass_floor)
    else:
        picked = ((cfg, dist.get(cfg, 0.0)) for cfg in targets)
    rows = tuple(TargetRow(*cfg, value=pr) for cfg, pr in picked)
    report = OracleReport(
        p=float(rates.p),
        t=t,
        initial=Initial(y, nu),
        window=used_window,
        leakage=leak,
        targets=rows,
        total_value=sum(r.value for r in rows),
    )
    print(
        f"oracle: {len(rows)} target(s), total {report.total_value:.12f}, "
        f"window {used_window}, leakage bound {leak:.3e}"
    )
    if args.csv:
        _write_csv(args.csv, TargetRow, rows, omit=("oracle",))
    return report


def cmd_simulate(args) -> SimulateReport:
    rates = _parse_rate(args.p)
    y = args.y
    nu = args.nu or (1,) * len(y)
    result = simulate(y, nu, rates, args.t, args.trials, args.seed)
    cells = tuple(
        HistogramCell(
            sites=sites, species=species, count=count, frequency=count / result.trials
        )
        for (sites, species), count in sorted(result.counts.items())
    )
    print(
        f"simulate: {result.trials} trials, seed {result.seed}, "
        f"{len(cells)} distinct final configurations"
    )
    if args.csv:
        _write_csv(args.csv, HistogramCell, cells)
    return SimulateReport(
        p=float(rates.p),
        t=args.t,
        initial=Initial(y, nu),
        trials=result.trials,
        seed=result.seed,
        cells=cells,
    )


def cmd_compare(args) -> CompareReport:
    rates, t, y, nu, _, window, spec = _problem_from(args)
    if args.reference == "oracle":
        reference, _, _ = oracle_distribution(
            y, nu, rates, t, leak_tol=args.leak_tol, window=window
        )
    else:
        reference = distribution_over_window(
            y, nu, rates, t, window=window, leak_tol=args.leak_tol, spec=spec
        ).as_dict()
    result = simulate(y, nu, rates, t, args.trials, args.seed)
    rep = mc_compare(
        result,
        reference,
        z_threshold=args.z_threshold,
        min_expected=args.min_expected,
    )
    _verdict(
        args,
        rep.passed,
        f"{len(rep.checked)} cells checked against the {args.reference}, max |z| = "
        f"{rep.max_abs_z:.2f} (threshold {rep.z_threshold:g}), {len(rep.flagged)} flagged",
    )
    return CompareReport(
        reference=args.reference,
        p=float(rates.p),
        t=t,
        initial=Initial(y, nu),
        trials=args.trials,
        seed=args.seed,
        z_threshold=rep.z_threshold,
        min_expected=rep.min_expected,
        checked=len(rep.checked),
        max_abs_z=rep.max_abs_z,
        flagged=rep.flagged,
        passed=rep.passed,
    )


def cmd_schema(args) -> None:
    doc = {
        "manifest": MANIFEST_SCHEMA,
        "problem": PROBLEM_SCHEMA,
        "reports": REPORT_SCHEMAS,
        "csv": CSV_SCHEMAS,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))


def _manifest_argv(manifest) -> list[str]:
    """The command line a validated run manifest stands for."""
    argv = [manifest.pop("command")]
    for key, value in manifest.items():
        if key == "problem":
            argv.append(value)
        elif isinstance(value, bool):
            if value:
                argv.append(_flag(key))
        elif isinstance(value, list):
            argv.extend([_flag(key), ",".join(map(str, value))])
        elif value is not None:
            argv.extend([_flag(key), str(value)])
    return argv


# Each command's help, handler, and the INPUTS it takes with their
# defaults; ``...`` marks a required flag.
_PROBLEM = {"problem": None, "p": None, "t": None, "y": None, "nu": None}
_QUAD = {"nodes": DEFAULT_NODES, "radius": None}
COMMANDS = {
    "prob": (
        "transition probabilities for targets or a window",
        cmd_prob,
        {**_PROBLEM, "x": None, "pi": None, "window": None,
         "leak_tol": DEFAULT_LEAK_TOL, "with_oracle": False, "csv": None,
         "print_limit": 10, **_QUAD, "out": None},
    ),
    "verify-delta": (
        "t=0 point-mass recovery",
        cmd_verify_delta,
        {"p": ..., "y": ..., "nu": None, "margin": 2, "quad_tol": 1e-8, **_QUAD,
         "out": None},
    ),
    "verify-braid": (
        "exact braid relations of the exchange operators",
        cmd_verify_braid,
        {"p": ..., "n": 3, "points": 20, "seed": 0, "out": None},
    ),
    "verify-b-classes": (
        "t=0 cancellation by inversion class",
        cmd_verify_b_classes,
        {"p": ..., "y": ..., "x": ..., "tol": 1e-9, **_QUAD, "out": None},
    ),
    "verify-second-class": (
        "closed forms vs recursion, exact rationals",
        cmd_verify_second_class,
        {"p": ..., "max_n": 5, "seed": 0, "out": None},
    ),
    "oracle": (
        "finite-window Markov oracle distribution",
        cmd_oracle,
        {**_PROBLEM, "x": None, "pi": None, "window": None,
         "leak_tol": DEFAULT_LEAK_TOL, "mass_floor": 1e-12, "csv": None, "out": None},
    ),
    "simulate": (
        "Monte Carlo histogram",
        cmd_simulate,
        {"p": ..., "t": ..., "y": ..., "nu": None, "trials": ..., "seed": ...,
         "csv": None, "out": None},
    ),
    "compare": (
        "Monte Carlo vs oracle or formula",
        cmd_compare,
        {**_PROBLEM, "window": None, "trials": ..., "seed": ..., "reference": "oracle",
         "z_threshold": 4.0, "min_expected": 25.0, "leak_tol": DEFAULT_LEAK_TOL,
         **_QUAD, "out": None},
    ),
}

# each command's report schema, from the type its handler returns
REPORT_SCHEMAS = {
    command: {"title": f"{command}-report", **_schema(typing.get_type_hints(handler)["return"])}
    for command, (_, handler, _) in COMMANDS.items()
}

MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "run-manifest",
    "type": "object",
    "properties": {
        "command": {"enum": list(COMMANDS)},
        **{key: schema for key, (schema, _) in INPUTS.items()},
    },
    "required": ["command"],
    "additionalProperties": False,
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="asep-exact",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, inputs) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for key, default in inputs.items():
            schema, text = INPUTS[key]
            if key == "problem":
                cmd.add_argument(key, nargs="?", help=text)
            elif schema.get("type") == "boolean":
                cmd.add_argument(_flag(key), action="store_true", help=text)
            else:
                cmd.add_argument(
                    _flag(key),
                    type=_flag_type(schema),
                    default=None if default is ... else default,
                    required=default is ...,
                    help=text,
                )
        cmd.set_defaults(handler=handler)

    sub.add_parser("run", help="execute a JSON run manifest").add_argument("manifest")

    schema = sub.add_parser("schema", help="print all JSON/CSV schemas")
    schema.set_defaults(handler=cmd_schema)

    return parser


def main(argv=None) -> int:
    """Run one command.  Its handler prints a summary and returns its report,
    which is written here to --out; a report that did not pass exits 2."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            manifest = _load_json(args.manifest, MANIFEST_SCHEMA, "manifest")
            args = parser.parse_args(_manifest_argv(manifest))
        if args.command in COMMANDS:
            # flags obey the bounds a run manifest does
            flags = {k: v for k, v in vars(args).items() if k != "handler" and v is not None}
            _validate(_json(flags), MANIFEST_SCHEMA, "flags")
        report = args.handler(args)
        if getattr(args, "out", None):
            # a NaN or infinity would make a file no JSON parser reads: it
            # is a ValueError here, before the file is created
            text = json.dumps(
                report, indent=2, sort_keys=True, default=_fields, allow_nan=False
            )
            with _created(args.out, "report") as fh:
                fh.write(text + "\n")
    except (UsageError, ValueError, BethePoleError) as exc:
        print(f"asep-exact: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if getattr(report, "passed", True) else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
