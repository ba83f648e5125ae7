"""Per-layer metrics from the spans of the traced passes.

Every figure is per pass: totals over the traced passes divided by their
number.  A layer's *entry* spans are those whose parent span is in another
layer (or absent); its busy time is their summed duration, and its self
time is the summed self time of all its spans.  ``numpy.einsum`` counts as
its own layer, so ``transition_prob.self_s`` is assembly, accumulation and
readout only.  A ``bethe_algebra`` or ``species_coeff`` span runs in exact
mode when its RateParams argument holds rationals, in array mode otherwise.
"""

from __future__ import annotations

import numpy as np

from tracing import EINSUM, LAYERS


def layer_metrics(tracer, cases, traced_passes, overhead_s) -> dict[str, float]:
    spans = tracer.arrays()
    name_id, parent = spans["name_id"], spans["parent"]
    names = np.array(tracer.names)
    layer_ids = {layer: k for k, layer in enumerate(sorted({n.split(".")[0] for n in tracer.names}))}
    layer = np.array([layer_ids[n.split(".")[0]] for n in tracer.names], dtype=np.int64)[name_id]
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
    entry = parent_layer != layer
    duration, self_time = spans["duration"], spans["self_time"]
    exact, raised, size = spans["exact"], spans["raised"], spans["size"]
    n_pass = len(traced_passes)

    def count(mask) -> float:
        return float(np.count_nonzero(mask)) / n_pass

    def total(values, mask) -> float:
        return float(values[mask].sum()) / n_pass

    def named(*wanted):
        return np.isin(name_id, np.flatnonzero(np.isin(names, wanted)))

    def in_layer(name):
        return layer == layer_ids.get(name, -2)

    tp = in_layer("transition_prob")
    einsum = named(EINSUM)
    table = named("species_coeff.coefficient_table") & ~exact
    s_factor = named("bethe_algebra.s_factor")
    radius = named("contour_quadrature.balanced_radius", "contour_quadrature.choose_radius")
    simulate = named("mc_simulator.simulate")
    trials = total(size, simulate)
    simulate_s = total(duration, simulate)

    metrics = {
        "transition_prob.calls": count(tp & entry),
        "transition_prob.errors": count(tp & entry & raised),
        "transition_prob.einsum_calls": count(einsum),
        "transition_prob.einsum_s": total(duration, einsum),
        "transition_prob.node_evals": float(sum(c.node_evals for c in cases)),
        "species_coeff.table_calls": count(table),
        "species_coeff.table_s": total(duration, table),
        "species_coeff.exchange_calls": count(named("species_coeff.exchange_update") & ~exact),
        "species_coeff.exact_s": total(duration, in_layer("species_coeff") & entry & exact),
        "bethe_algebra.s_factor_calls": count(s_factor & ~exact),
        "bethe_algebra.s_factor_s": total(duration, s_factor & ~exact),
        "bethe_algebra.s_factor_exact_calls": count(s_factor & exact),
        "contour_quadrature.radius_calls": count(radius),
        "contour_quadrature.radius_s": total(duration, radius),
        "permutations.inverse_calls": count(named("permutations.inverse")),
        "markov_oracle.states": total(size, named("markov_oracle.build_generator")),
        "markov_oracle.build_s": total(
            duration, named("markov_oracle.StateSpace.build", "markov_oracle.build_generator")
        ),
        "markov_oracle.expm_s": total(duration, named("markov_oracle.expm_action")),
        "mc_simulator.trials": trials,
        "mc_simulator.trials_per_s": trials / simulate_s if simulate_s > 0 else 0.0,
        "mc_simulator.compare_s": total(duration, named("mc_simulator.compare")),
        "cli.commands": count(named("cli.main") & entry),
        "cli.report_bytes": sum(p["report_bytes"] for p in traced_passes) / n_pass,
        "cli.nonzero_exits": sum(p["nonzero_exits"] for p in traced_passes) / n_pass,
        "trace.busy_s": total(duration, parent < 0),
        "trace.spans": len(duration) / n_pass,
        "trace.overhead_s": overhead_s,
    }
    for name in LAYERS:
        metrics[f"{name}.busy_s"] = total(duration, in_layer(name) & entry)
        metrics[f"{name}.self_s"] = total(self_time, in_layer(name))
    return metrics
