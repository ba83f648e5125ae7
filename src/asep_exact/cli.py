"""Command-line surface: evaluation, verification suites, oracles, and
machine-readable reports.

Exit codes: 0 success (and all verifications passing), 1 malformed input
or usage error, 2 verification failure.  Human-readable summaries go to
stdout; machine artifacts are written only via --out (JSON report) and
--csv (tabular rows).  Reports embed the formula identifier, quadrature
settings, seeds, and tolerances needed to re-run them bit for bit.

Commands can be driven by flags or by a JSON manifest (the ``run``
command), and ``prob``/``oracle``/``compare`` accept a problem file:

    {"p": 0.7, "t": 1.0, "Y": [0, 1, 2], "nu": [2, 1, 2],
     "targets": [{"X": [0, 1, 3], "pi": [1, 2, 2]}],   # or "window": [lo, hi]
     "quad": {"nodes": 64, "radius": null}}

Both documents are schema-validated with unknown fields rejected before
anything runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction

import jsonschema

from . import __version__
from .bethe_algebra import BethePoleError, RateParams
from .contour_quadrature import ContourSpec
from .markov_oracle import oracle_distribution, window_for
from .mc_simulator import compare as mc_compare
from .mc_simulator import simulate
from .permutations import all_permutations, inversion_classes
from .species_coeff import (
    check_braid_relations,
    second_class_coefficient,
    species_coefficient,
)
from .transition_prob import (
    delta_recovery,
    distribution_over_window,
    _evaluate,
    _target_values,
    inversion_class_sum,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2

COMMANDS = (
    "prob",
    "verify-delta",
    "verify-braid",
    "verify-b-classes",
    "verify-second-class",
    "oracle",
    "simulate",
    "compare",
)

_INT_ARRAY = {"type": "array", "items": {"type": "integer"}, "minItems": 1}
_RATE = {"type": ["number", "string"]}

PROBLEM_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "problem",
    "type": "object",
    "properties": {
        "p": _RATE,
        "t": {"type": "number", "minimum": 0},
        "N": {"type": "integer", "minimum": 1},
        "M": {"type": "integer", "minimum": 1},
        "Y": _INT_ARRAY,
        "nu": _INT_ARRAY,
        "targets": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {"X": _INT_ARRAY, "pi": _INT_ARRAY},
                "required": ["X", "pi"],
                "additionalProperties": False,
            },
        },
        "window": {
            "type": "array",
            "items": {"type": "integer"},
            "minItems": 2,
            "maxItems": 2,
        },
        "quad": {
            "type": "object",
            "properties": {
                "nodes": {"type": "integer", "minimum": 8},
                "radius": {"type": ["number", "null"], "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "required": ["p", "t", "Y", "nu"],
    "additionalProperties": False,
}

MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "run-manifest",
    "type": "object",
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "p": _RATE,
        "t": {"type": "number", "minimum": 0},
        "y": _INT_ARRAY,
        "nu": _INT_ARRAY,
        "problem": {"type": "string"},
        "x": _INT_ARRAY,
        "pi": _INT_ARRAY,
        "window": PROBLEM_SCHEMA["properties"]["window"],
        "nodes": {"type": "integer", "minimum": 8},
        "radius": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "quad_tol": {"type": "number", "exclusiveMinimum": 0},
        "margin": {"type": "integer", "minimum": 0},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "leak_tol": {"type": "number", "exclusiveMinimum": 0},
        "with_oracle": {"type": "boolean"},
        "n": {"type": "integer", "minimum": 2},
        "points": {"type": "integer", "minimum": 1},
        "max_n": {"type": "integer", "minimum": 2},
        "trials": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "z_threshold": {"type": "number", "exclusiveMinimum": 0},
        "min_expected": {"type": "number", "exclusiveMinimum": 0},
        "reference": {"enum": ["oracle", "formula"]},
        "threads": {"type": "integer", "minimum": 1},
        "out": {"type": "string"},
        "csv": {"type": "string"},
    },
    "required": ["command"],
    "additionalProperties": False,
}

_QUAD_FIELDS = {
    "type": "object",
    "properties": {
        "nodes": {"type": "integer"},
        "radius": {"type": ["number", "null"]},
        "mirror_radius": {"type": "number"},
        "radius_rule": {"enum": ["balanced", "explicit"]},
    },
    "required": ["nodes", "radius"],
    "additionalProperties": False,
}

_TARGET_ROW = {
    "type": "object",
    "properties": {
        "sites": _INT_ARRAY,
        "species": _INT_ARRAY,
        "value": {"type": "number"},
        "imag": {"type": "number"},
        "oracle": {"type": "number"},
    },
    "required": ["sites", "species", "value", "imag"],
    "additionalProperties": False,
}

REPORT_SCHEMAS = {
    "prob": {
        "title": "prob-report",
        "type": "object",
        "properties": {
            "command": {"const": "prob"},
            "formula": {"const": "multispecies-contour-sum"},
            "p": {"type": "number"},
            "t": {"type": "number"},
            "initial": {
                "type": "object",
                "properties": {"sites": _INT_ARRAY, "species": _INT_ARRAY},
                "required": ["sites", "species"],
                "additionalProperties": False,
            },
            "quadrature": _QUAD_FIELDS,
            "window": PROBLEM_SCHEMA["properties"]["window"],
            "leakage": {"type": "number"},
            "targets": {"type": "array", "items": _TARGET_ROW},
            "total_value": {"type": "number"},
            "max_imag": {"type": "number"},
        },
        "required": [
            "command",
            "formula",
            "p",
            "t",
            "initial",
            "quadrature",
            "targets",
            "total_value",
            "max_imag",
        ],
        "additionalProperties": False,
    },
    "verify-delta": {
        "title": "verify-delta-report",
        "type": "object",
        "properties": {
            "command": {"const": "verify-delta"},
            "formula": {"const": "contour-sum-at-time-zero"},
            "p": {"type": "number"},
            "initial": {
                "type": "object",
                "properties": {"sites": _INT_ARRAY, "species": _INT_ARRAY},
                "required": ["sites", "species"],
                "additionalProperties": False,
            },
            "margin": {"type": "integer"},
            "tolerance": {"type": "number"},
            "quadrature": _QUAD_FIELDS,
            "max_residual": {"type": "number"},
            "passed": {"type": "boolean"},
        },
        "required": [
            "command",
            "formula",
            "p",
            "initial",
            "margin",
            "tolerance",
            "quadrature",
            "max_residual",
            "passed",
        ],
        "additionalProperties": False,
    },
    "verify-braid": {
        "title": "verify-braid-report",
        "type": "object",
        "properties": {
            "command": {"const": "verify-braid"},
            "formula": {"const": "exchange-operator-braid-relations"},
            "n": {"type": "integer"},
            "p": {"type": "string"},
            "points": {"type": "integer"},
            "seed": {"type": "integer"},
            "checks": {"type": "integer"},
            "passed": {"type": "boolean"},
            "counterexample": {"type": ["object", "null"]},
        },
        "required": ["command", "formula", "n", "p", "points", "seed", "checks", "passed"],
        "additionalProperties": False,
    },
    "verify-b-classes": {
        "title": "verify-b-classes-report",
        "type": "object",
        "properties": {
            "command": {"const": "verify-b-classes"},
            "formula": {"const": "inversion-class-cancellation"},
            "n": {"type": "integer"},
            "p": {"type": "number"},
            "tolerance": {"type": "number"},
            "initial": _INT_ARRAY,
            "target": _INT_ARRAY,
            "quadrature": _QUAD_FIELDS,
            "classes": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "entries": _INT_ARRAY,
                        "members": {"type": "array", "items": _INT_ARRAY},
                        "class_sum": {"type": "number"},
                        "member_sums": {
                            "type": ["array", "null"],
                            "items": {"type": "number"},
                        },
                    },
                    "required": ["entries", "members", "class_sum"],
                    "additionalProperties": False,
                },
            },
            "passed": {"type": "boolean"},
        },
        "required": [
            "command",
            "formula",
            "n",
            "p",
            "tolerance",
            "initial",
            "target",
            "quadrature",
            "classes",
            "passed",
        ],
        "additionalProperties": False,
    },
    "verify-second-class": {
        "title": "verify-second-class-report",
        "type": "object",
        "properties": {
            "command": {"const": "verify-second-class"},
            "formula": {"const": "second-class-closed-forms"},
            "max_n": {"type": "integer"},
            "p": {"type": "string"},
            "checks": {"type": "integer"},
            "outside_validity": {"type": "integer"},
            "passed": {"type": "boolean"},
            "counterexample": {"type": ["object", "null"]},
        },
        "required": [
            "command",
            "formula",
            "max_n",
            "p",
            "checks",
            "outside_validity",
            "passed",
        ],
        "additionalProperties": False,
    },
    "oracle": {
        "title": "oracle-report",
        "type": "object",
        "properties": {
            "command": {"const": "oracle"},
            "formula": {"const": "finite-window-uniformization"},
            "p": {"type": "number"},
            "t": {"type": "number"},
            "initial": {
                "type": "object",
                "properties": {"sites": _INT_ARRAY, "species": _INT_ARRAY},
                "required": ["sites", "species"],
                "additionalProperties": False,
            },
            "window": PROBLEM_SCHEMA["properties"]["window"],
            "leakage": {"type": "number"},
            "targets": {"type": "array", "items": _TARGET_ROW},
            "total_value": {"type": "number"},
        },
        "required": [
            "command",
            "formula",
            "p",
            "t",
            "initial",
            "window",
            "leakage",
            "targets",
            "total_value",
        ],
        "additionalProperties": False,
    },
    "simulate": {
        "title": "simulate-report",
        "type": "object",
        "properties": {
            "command": {"const": "simulate"},
            "formula": {"const": "uniformized-poisson-clock"},
            "p": {"type": "number"},
            "t": {"type": "number"},
            "initial": {
                "type": "object",
                "properties": {"sites": _INT_ARRAY, "species": _INT_ARRAY},
                "required": ["sites", "species"],
                "additionalProperties": False,
            },
            "trials": {"type": "integer"},
            "seed": {"type": "integer"},
            "cells": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "sites": _INT_ARRAY,
                        "species": _INT_ARRAY,
                        "count": {"type": "integer"},
                        "frequency": {"type": "number"},
                    },
                    "required": ["sites", "species", "count", "frequency"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["command", "formula", "p", "t", "initial", "trials", "seed", "cells"],
        "additionalProperties": False,
    },
    "compare": {
        "title": "compare-report",
        "type": "object",
        "properties": {
            "command": {"const": "compare"},
            "formula": {"const": "binomial-z-scores"},
            "reference": {"enum": ["oracle", "formula"]},
            "p": {"type": "number"},
            "t": {"type": "number"},
            "initial": {
                "type": "object",
                "properties": {"sites": _INT_ARRAY, "species": _INT_ARRAY},
                "required": ["sites", "species"],
                "additionalProperties": False,
            },
            "trials": {"type": "integer"},
            "seed": {"type": "integer"},
            "z_threshold": {"type": "number"},
            "min_expected": {"type": "number"},
            "checked": {"type": "integer"},
            "max_abs_z": {"type": "number"},
            "flagged": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "sites": _INT_ARRAY,
                        "species": _INT_ARRAY,
                        "count": {"type": "integer"},
                        "expected": {"type": "number"},
                        "z": {"type": "number"},
                    },
                    "required": ["sites", "species", "count", "expected", "z"],
                    "additionalProperties": False,
                },
            },
            "passed": {"type": "boolean"},
        },
        "required": [
            "command",
            "formula",
            "reference",
            "p",
            "t",
            "initial",
            "trials",
            "seed",
            "z_threshold",
            "min_expected",
            "checked",
            "max_abs_z",
            "flagged",
            "passed",
        ],
        "additionalProperties": False,
    },
}

CSV_SCHEMAS = {
    "targets": "sites,species,value,imag[,oracle] -- sites and species are "
    "space-separated integers; oracle column present only with --with-oracle",
    "histogram": "sites,species,count,frequency",
}


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
        value = Fraction(text)
    else:
        value = float(text) if not isinstance(text, (int, float)) else text
    return RateParams.from_p(value)


def _parse_tuple(text) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _validate(doc, schema, what):
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
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


def _spec_from(args, n) -> ContourSpec:
    return ContourSpec(
        nodes=getattr(args, "nodes", 64),
        radius=getattr(args, "radius", None),
        dimension=n,
    )


def _problem_from(args):
    """(rates, t, y, nu, targets-or-None, window-or-None, spec) from a
    problem file or flags; exactly one source."""
    if getattr(args, "problem", None):
        if args.y is not None or args.nu is not None:
            raise UsageError("give either a problem file or --y/--nu flags, not both")
        doc = _load_json(args.problem, PROBLEM_SCHEMA, "problem file")
        if "targets" in doc and "window" in doc:
            raise UsageError("problem file: give targets or window, not both")
        y = tuple(doc["Y"])
        nu = tuple(doc["nu"])
        if doc.get("N") is not None and doc["N"] != len(y):
            raise UsageError(f"problem file: N={doc['N']} but Y has {len(y)} sites")
        if doc.get("M") is not None and doc["M"] != len(set(nu)):
            raise UsageError(
                f"problem file: M={doc['M']} but nu has {len(set(nu))} distinct labels"
            )
        rates = _parse_rate(doc["p"])
        t = float(doc["t"])
        targets = None
        if "targets" in doc:
            targets = [(tuple(row["X"]), tuple(row["pi"])) for row in doc["targets"]]
        window = tuple(doc["window"]) if "window" in doc else None
        quad = doc.get("quad", {})
        spec = ContourSpec(
            nodes=quad.get("nodes", getattr(args, "nodes", 64)),
            radius=quad.get("radius", getattr(args, "radius", None)),
            dimension=len(y),
        )
        return rates, t, y, nu, targets, window, spec
    if args.y is None or args.nu is None:
        raise UsageError("need a problem file or --y and --nu")
    if args.p is None or args.t is None:
        raise UsageError("--p and --t are required without a problem file")
    y = _parse_tuple(args.y)
    nu = _parse_tuple(args.nu)
    rates = _parse_rate(args.p)
    targets = None
    if getattr(args, "x", None) is not None:
        pi = _parse_tuple(args.pi) if getattr(args, "pi", None) else nu
        targets = [(_parse_tuple(args.x), pi)]
    window = _parse_window(args.window) if getattr(args, "window", None) else None
    return rates, float(args.t), y, nu, targets, window, _spec_from(args, len(y))


def _parse_window(text):
    parts = _parse_tuple(text)
    if len(parts) != 2 or parts[0] > parts[1]:
        raise UsageError(f"window must be lo,hi with lo <= hi, got {text!r}")
    return parts


def _write_report(args, report):
    _validate(report, REPORT_SCHEMAS[report["command"]], "report (internal)")
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_target_csv(path, rows, with_oracle):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["sites", "species", "value", "imag"]
        if with_oracle:
            header.append("oracle")
        writer.writerow(header)
        for row in rows:
            out = [
                " ".join(map(str, row["sites"])),
                " ".join(map(str, row["species"])),
                repr(row["value"]),
                repr(row["imag"]),
            ]
            if with_oracle:
                out.append(repr(row["oracle"]))
            writer.writerow(out)


def _quad_dict(
    spec: ContourSpec,
    radius: float | None,
    mirror_radius: float | None = None,
    nodes: int | None = None,
) -> dict:
    quad = {
        "nodes": spec.nodes if nodes is None else nodes,
        "radius": radius,
        "radius_rule": "explicit" if spec.radius is not None else "balanced",
    }
    if mirror_radius is not None:
        quad["mirror_radius"] = mirror_radius
    return quad


def _radius_text(radius: float | None) -> str:
    return "none" if radius is None else f"{radius:.6f}"


def _oracle_lookup(y, nu, rates, t, leak_tol):
    dist, window, leak = oracle_distribution(y, nu, rates, t, leak_tol=leak_tol)
    return dist, window, leak


def cmd_prob(args) -> int:
    rates, t, y, nu, targets, window, spec = _problem_from(args)
    if targets is None and window is None:
        window = window_for(y, t, args.leak_tol)
    if targets is not None:
        evaluation = _evaluate(y, nu, targets, rates, t, spec)
        values = _target_values(targets, evaluation)
        radius, mirror_radius = evaluation.radius, evaluation.mirror_radius
        window_out, leak = None, None
    else:
        report_dist = distribution_over_window(
            y, nu, rates, t, window=window, leak_tol=args.leak_tol, spec=spec
        )
        values = list(report_dist.values)
        radius, mirror_radius = report_dist.radius, report_dist.mirror_radius
        window_out, leak = report_dist.window, report_dist.leakage
    oracle = None
    if args.with_oracle:
        oracle, _, _ = _oracle_lookup(y, nu, rates, t, args.leak_tol)
    rows = []
    for tv in values:
        row = {
            "sites": list(tv.sites),
            "species": list(tv.species),
            "value": tv.value,
            "imag": tv.imag,
        }
        if oracle is not None:
            row["oracle"] = oracle.get((tv.sites, tv.species), 0.0)
        rows.append(row)
    report = {
        "command": "prob",
        "formula": "multispecies-contour-sum",
        "p": float(rates.p),
        "t": t,
        "initial": {"sites": list(y), "species": list(nu)},
        "quadrature": _quad_dict(spec, radius, mirror_radius),
        "targets": rows,
        "total_value": sum(r["value"] for r in rows),
        "max_imag": max((abs(r["imag"]) for r in rows), default=0.0),
    }
    if window_out is not None:
        report["window"] = list(window_out)
        report["leakage"] = leak
    _write_report(args, report)
    if args.csv:
        _write_target_csv(args.csv, rows, oracle is not None)
    print(
        f"prob: {len(rows)} target(s), total {report['total_value']:.12f}, "
        f"max |imag| {report['max_imag']:.3e}, nodes {spec.nodes}, "
        f"radius {_radius_text(radius)}, mirror_radius {_radius_text(mirror_radius)}"
    )
    for row in rows[: args.print_limit]:
        extra = f"  oracle {row['oracle']:.12e}" if "oracle" in row else ""
        print(
            f"  X={tuple(row['sites'])} pi={tuple(row['species'])}"
            f"  P={row['value']:.12e}{extra}"
        )
    if len(rows) > args.print_limit:
        print(f"  ... {len(rows) - args.print_limit} more (see --out/--csv)")
    return EXIT_OK


def cmd_verify_delta(args) -> int:
    rates = _parse_rate(args.p)
    y = _parse_tuple(args.y)
    nu = _parse_tuple(args.nu) if args.nu else (1,) * len(y)
    spec = _spec_from(args, len(y))
    rep = delta_recovery(y, nu, rates, margin=args.margin, tol=args.quad_tol, spec=spec)
    report = {
        "command": "verify-delta",
        "formula": "contour-sum-at-time-zero",
        "p": float(rates.p),
        "initial": {"sites": list(y), "species": list(nu)},
        "margin": args.margin,
        "tolerance": args.quad_tol,
        "quadrature": _quad_dict(spec, rep.radius, rep.mirror_radius, rep.nodes),
        "max_residual": rep.max_residual,
        "passed": rep.passed,
    }
    _write_report(args, report)
    status = "PASS" if rep.passed else "FAIL"
    print(
        f"verify-delta: {status}  max residual {rep.max_residual:.3e} "
        f"(tol {args.quad_tol:g}) at {rep.nodes} nodes, radius "
        f"{_radius_text(rep.radius)}, mirror_radius {_radius_text(rep.mirror_radius)}"
    )
    return EXIT_OK if rep.passed else EXIT_FAIL


def _rational_points(rng, n, rates, tries=200):
    """Nonzero rationals with small numerators/denominators, re-drawn until
    no ordered pair sits on a scattering pole."""
    from .bethe_algebra import f_factor

    for _ in range(tries):
        xi = tuple(
            Fraction(int(rng.integers(1, 40)), int(rng.integers(41, 120)))
            for _ in range(n)
        )
        if len(set(xi)) != n:
            continue
        if all(
            f_factor(v, u, rates) != 0 for u in xi for v in xi
        ):
            return xi
    raise RuntimeError("could not find a pole-free rational point")


def cmd_verify_braid(args) -> int:
    rates = _parse_rate(args.p)
    if not rates.exact:
        raise UsageError("verify-braid needs an exact rational p, e.g. --p 1/3")
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=[args.seed, 0]))
    checks = 0
    counterexample = None
    for point in range(args.points):
        xi = _rational_points(rng, args.n, rates)
        rep = check_braid_relations(args.n, xi, rates)
        checks += rep.checks
        if not rep.passed:
            counterexample = dict(rep.counterexample)
            counterexample["xi"] = [str(v) for v in xi]
            break
    passed = counterexample is None
    report = {
        "command": "verify-braid",
        "formula": "exchange-operator-braid-relations",
        "n": args.n,
        "p": str(rates.p),
        "points": args.points,
        "seed": args.seed,
        "checks": checks,
        "passed": passed,
    }
    if counterexample is not None:
        report["counterexample"] = {
            k: str(v) for k, v in counterexample.items()
        }
    _write_report(args, report)
    status = "PASS" if passed else "FAIL"
    print(
        f"verify-braid: {status}  n={args.n} p={rates.p} "
        f"{args.points} random rational points, {checks} exact identities"
    )
    if counterexample:
        print(f"  first counterexample: {report['counterexample']}")
    return EXIT_OK if passed else EXIT_FAIL


def cmd_verify_b_classes(args) -> int:
    rates = _parse_rate(args.p)
    y = _parse_tuple(args.y)
    x = _parse_tuple(args.x)
    n = len(y)
    spec = _spec_from(args, n)
    from .transition_prob import _extended_rates, _resolve_radius, sigma_summand

    radius = float(
        _resolve_radius(spec, _extended_rates(rates), 0.0, sum(x) - sum(y), n)
    )
    classes = []
    passed = True
    for entries, members in sorted(
        inversion_classes(n).items(), key=lambda kv: sorted(kv[0])
    ):
        total = inversion_class_sum(y, x, entries, rates, spec)
        row = {
            "entries": sorted(entries),
            "members": [list(m) for m in members],
            "class_sum": abs(total),
        }
        if abs(total) > args.tol:
            passed = False
        if len(members) == 1:
            sums = [abs(sigma_summand(y, x, m, rates, 0.0, spec)) for m in members]
            row["member_sums"] = sums
            if any(s > args.tol for s in sums):
                passed = False
        classes.append(row)
    report = {
        "command": "verify-b-classes",
        "formula": "inversion-class-cancellation",
        "n": n,
        "p": float(rates.p),
        "tolerance": args.tol,
        "initial": list(y),
        "target": list(x),
        "quadrature": _quad_dict(spec, radius),
        "classes": classes,
        "passed": passed,
    }
    _write_report(args, report)
    status = "PASS" if passed else "FAIL"
    print(f"verify-b-classes: {status}  n={n} p={float(rates.p)} tol {args.tol:g}")
    for row in classes:
        tag = " (each member vanishes)" if "member_sums" in row else ""
        print(
            f"  B={set(row['entries'])}: |class sum| = {row['class_sum']:.3e}"
            f" over {len(row['members'])} permutation(s){tag}"
        )
    return EXIT_OK if passed else EXIT_FAIL


def cmd_verify_second_class(args) -> int:
    rates = _parse_rate(args.p)
    if not rates.exact:
        raise UsageError("verify-second-class needs an exact rational p, e.g. --p 2/5")
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=[args.seed, 1]))
    checks = 0
    outside = 0
    counterexample = None
    for n in range(2, args.max_n + 1):
        xi = _rational_points(rng, n, rates)
        for nu_pos in (1, 2):
            if nu_pos > n:
                continue
            nu = tuple(1 if k == nu_pos else 2 for k in range(1, n + 1))
            for sigma in all_permutations(n):
                table = species_coefficient(sigma, nu, xi, rates)
                for j in range(1, n + 1):
                    pi = tuple(1 if k == j else 2 for k in range(1, n + 1))
                    try:
                        closed = second_class_coefficient(sigma, nu_pos, j, xi, rates)
                    except ValueError:
                        outside += 1
                        continue
                    checks += 1
                    if table.get(pi, 0) != closed:
                        counterexample = {
                            "n": str(n),
                            "nu_pos": str(nu_pos),
                            "sigma": str(sigma),
                            "j": str(j),
                            "recursion": str(table.get(pi, 0)),
                            "closed_form": str(closed),
                        }
                        break
                if counterexample:
                    break
            if counterexample:
                break
        if counterexample:
            break
    passed = counterexample is None
    report = {
        "command": "verify-second-class",
        "formula": "second-class-closed-forms",
        "max_n": args.max_n,
        "p": str(rates.p),
        "checks": checks,
        "outside_validity": outside,
        "passed": passed,
    }
    if counterexample is not None:
        report["counterexample"] = counterexample
    _write_report(args, report)
    status = "PASS" if passed else "FAIL"
    print(
        f"verify-second-class: {status}  n up to {args.max_n}, p={rates.p}: "
        f"{checks} exact identities, {outside} outside the validity region"
    )
    if counterexample:
        print(f"  first counterexample: {counterexample}")
    return EXIT_OK if passed else EXIT_FAIL


def cmd_oracle(args) -> int:
    rates, t, y, nu, targets, window, _ = _problem_from(args)
    dist, used_window, leak = oracle_distribution(
        y, nu, rates, t, leak_tol=args.leak_tol, window=window
    )
    if targets is not None:
        wanted = [(tuple(x), tuple(pi)) for x, pi in targets]
    else:
        wanted = sorted(cfg for cfg, pr in dist.items() if pr >= args.mass_floor)
    rows = [
        {
            "sites": list(x),
            "species": list(pi),
            "value": dist.get((x, pi), 0.0),
            "imag": 0.0,
        }
        for x, pi in wanted
    ]
    report = {
        "command": "oracle",
        "formula": "finite-window-uniformization",
        "p": float(rates.p),
        "t": t,
        "initial": {"sites": list(y), "species": list(nu)},
        "window": list(used_window),
        "leakage": leak,
        "targets": rows,
        "total_value": sum(r["value"] for r in rows),
    }
    _write_report(args, report)
    if args.csv:
        _write_target_csv(args.csv, rows, False)
    print(
        f"oracle: {len(rows)} target(s), total {report['total_value']:.12f}, "
        f"window {used_window}, leakage bound {leak:.3e}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    rates = _parse_rate(args.p)
    y = _parse_tuple(args.y)
    nu = _parse_tuple(args.nu) if args.nu else (1,) * len(y)
    result = simulate(y, nu, rates, float(args.t), args.trials, args.seed)
    cells = [
        {
            "sites": list(cfg[0]),
            "species": list(cfg[1]),
            "count": count,
            "frequency": count / result.trials,
        }
        for cfg, count in sorted(result.counts.items())
    ]
    report = {
        "command": "simulate",
        "formula": "uniformized-poisson-clock",
        "p": float(rates.p),
        "t": float(args.t),
        "initial": {"sites": list(y), "species": list(nu)},
        "trials": result.trials,
        "seed": result.seed,
        "cells": cells,
    }
    _write_report(args, report)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sites", "species", "count", "frequency"])
            for cell in cells:
                writer.writerow(
                    [
                        " ".join(map(str, cell["sites"])),
                        " ".join(map(str, cell["species"])),
                        cell["count"],
                        repr(cell["frequency"]),
                    ]
                )
    print(
        f"simulate: {result.trials} trials, seed {result.seed}, "
        f"{len(cells)} distinct final configurations"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    rates, t, y, nu, targets, window, spec = _problem_from(args)
    result = simulate(y, nu, rates, t, args.trials, args.seed)
    if args.reference == "oracle":
        reference, _, _ = _oracle_lookup(y, nu, rates, t, args.leak_tol)
    else:
        if window is None:
            window = window_for(y, t, args.leak_tol)
        dist_report = distribution_over_window(
            y, nu, rates, t, window=window, leak_tol=args.leak_tol, spec=spec
        )
        reference = dist_report.as_dict()
    rep = mc_compare(
        result,
        reference,
        z_threshold=args.z_threshold,
        min_expected=args.min_expected,
    )
    report = {
        "command": "compare",
        "formula": "binomial-z-scores",
        "reference": args.reference,
        "p": float(rates.p),
        "t": t,
        "initial": {"sites": list(y), "species": list(nu)},
        "trials": args.trials,
        "seed": args.seed,
        "z_threshold": rep.z_threshold,
        "min_expected": rep.min_expected,
        "checked": len(rep.checked),
        "max_abs_z": rep.max_abs_z,
        "flagged": [
            {
                "sites": list(c.sites),
                "species": list(c.species),
                "count": c.count,
                "expected": c.expected,
                "z": c.z,
            }
            for c in rep.flagged
        ],
        "passed": rep.passed,
    }
    _write_report(args, report)
    status = "PASS" if rep.passed else "FAIL"
    print(
        f"compare: {status}  {len(rep.checked)} cells checked against the "
        f"{args.reference}, max |z| = {rep.max_abs_z:.2f} "
        f"(threshold {rep.z_threshold:g}), {len(rep.flagged)} flagged"
    )
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_schema(args) -> int:
    doc = {
        "manifest": MANIFEST_SCHEMA,
        "problem": PROBLEM_SCHEMA,
        "reports": REPORT_SCHEMAS,
        "csv": CSV_SCHEMAS,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_run(args) -> int:
    manifest = _load_json(args.manifest, MANIFEST_SCHEMA, "manifest")
    command = manifest.pop("command")
    prefix, argv = [], [command]
    for key, value in manifest.items():
        if value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if key == "threads":
            prefix.extend([flag, str(value)])
        elif key in ("y", "nu", "x", "pi", "window"):
            argv.extend([flag, ",".join(map(str, value))])
        elif key == "problem":
            argv.append(value)
        elif isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return main(prefix + argv)


def _add_quad_flags(parser):
    parser.add_argument("--nodes", type=int, default=64, help="nodes per contour axis")
    parser.add_argument(
        "--radius", type=float, default=None, help="contour radius (default: balanced)"
    )


def _add_out_flags(parser):
    parser.add_argument("--out", help="write the JSON report here")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="asep-exact",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap BLAS worker threads (results are identical at any cap)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prob = sub.add_parser("prob", help="transition probabilities for targets or a window")
    prob.add_argument("problem", nargs="?", help="JSON problem file")
    prob.add_argument("--p", default=None, help="right hop rate (number or a/b)")
    prob.add_argument("--t", type=float, default=None)
    prob.add_argument("--y", help="initial sites, comma-separated")
    prob.add_argument("--nu", help="initial species, comma-separated")
    prob.add_argument("--x", help="target sites")
    prob.add_argument("--pi", help="target species (default: nu)")
    prob.add_argument("--window", help="lo,hi window of targets instead of --x")
    prob.add_argument("--leak-tol", type=float, default=1e-10)
    prob.add_argument("--with-oracle", action="store_true")
    prob.add_argument("--csv", help="write one CSV row per target")
    prob.add_argument("--print-limit", type=int, default=10)
    _add_quad_flags(prob)
    _add_out_flags(prob)
    prob.set_defaults(handler=cmd_prob)

    vdelta = sub.add_parser("verify-delta", help="t=0 point-mass recovery")
    vdelta.add_argument("--p", required=True)
    vdelta.add_argument("--y", required=True)
    vdelta.add_argument("--nu", default=None)
    vdelta.add_argument("--margin", type=int, default=2)
    vdelta.add_argument("--quad-tol", type=float, default=1e-8)
    _add_quad_flags(vdelta)
    _add_out_flags(vdelta)
    vdelta.set_defaults(handler=cmd_verify_delta)

    vbraid = sub.add_parser("verify-braid", help="exact braid relations of the exchange operators")
    vbraid.add_argument("--p", required=True, help="exact rational, e.g. 1/3")
    vbraid.add_argument("--n", type=int, default=3)
    vbraid.add_argument("--points", type=int, default=20)
    vbraid.add_argument("--seed", type=int, default=0)
    _add_out_flags(vbraid)
    vbraid.set_defaults(handler=cmd_verify_braid)

    vb = sub.add_parser("verify-b-classes", help="t=0 cancellation by inversion class")
    vb.add_argument("--p", required=True)
    vb.add_argument("--y", required=True)
    vb.add_argument("--x", required=True)
    vb.add_argument("--tol", type=float, default=1e-9)
    _add_quad_flags(vb)
    _add_out_flags(vb)
    vb.set_defaults(handler=cmd_verify_b_classes)

    vsc = sub.add_parser(
        "verify-second-class", help="closed forms vs recursion, exact rationals"
    )
    vsc.add_argument("--p", required=True, help="exact rational, e.g. 2/5")
    vsc.add_argument("--max-n", type=int, default=5)
    vsc.add_argument("--seed", type=int, default=0)
    _add_out_flags(vsc)
    vsc.set_defaults(handler=cmd_verify_second_class)

    oracle = sub.add_parser("oracle", help="finite-window Markov oracle distribution")
    oracle.add_argument("problem", nargs="?")
    oracle.add_argument("--p", default=None)
    oracle.add_argument("--t", type=float, default=None)
    oracle.add_argument("--y")
    oracle.add_argument("--nu")
    oracle.add_argument("--x")
    oracle.add_argument("--pi")
    oracle.add_argument("--window")
    oracle.add_argument("--leak-tol", type=float, default=1e-10)
    oracle.add_argument("--mass-floor", type=float, default=1e-12)
    oracle.add_argument("--csv")
    _add_quad_flags(oracle)
    _add_out_flags(oracle)
    oracle.set_defaults(handler=cmd_oracle)

    sim = sub.add_parser("simulate", help="Monte Carlo histogram")
    sim.add_argument("--p", required=True)
    sim.add_argument("--t", type=float, required=True)
    sim.add_argument("--y", required=True)
    sim.add_argument("--nu", default=None)
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--csv")
    _add_out_flags(sim)
    sim.set_defaults(handler=cmd_simulate)

    comp = sub.add_parser("compare", help="Monte Carlo vs oracle or formula")
    comp.add_argument("problem", nargs="?")
    comp.add_argument("--p", default=None)
    comp.add_argument("--t", type=float, default=None)
    comp.add_argument("--y")
    comp.add_argument("--nu")
    comp.add_argument("--x")
    comp.add_argument("--pi")
    comp.add_argument("--window")
    comp.add_argument("--trials", type=int, required=True)
    comp.add_argument("--seed", type=int, required=True)
    comp.add_argument("--reference", choices=["oracle", "formula"], default="oracle")
    comp.add_argument("--z-threshold", type=float, default=4.0)
    comp.add_argument("--min-expected", type=float, default=25.0)
    comp.add_argument("--leak-tol", type=float, default=1e-10)
    _add_quad_flags(comp)
    _add_out_flags(comp)
    comp.set_defaults(handler=cmd_compare)

    run = sub.add_parser("run", help="execute a JSON run manifest")
    run.add_argument("manifest")
    run.set_defaults(handler=cmd_run)

    schema = sub.add_parser("schema", help="print all JSON/CSV schemas")
    schema.set_defaults(handler=cmd_schema)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", None):
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(args.threads)
        return args.handler(args)
    except UsageError as exc:
        print(f"asep-exact: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, BethePoleError) as exc:
        print(f"asep-exact: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
