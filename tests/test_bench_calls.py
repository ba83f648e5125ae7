"""The library calls of the benchmark (``bench/workloads.py``: ``call`` and
``references``), made in their exact forms on N <= 2: a change that would
break a benchmark run fails here first."""

import asep_exact as api


def test_benchmark_calls_keep_their_forms():
    y, nu, x, pi, t = (0, 1), (2, 1), (1, 2), (1, 2), 0.5
    rates = api.RateParams.from_p(0.7)
    # call: a target at a node count other than the default, positionally
    spec = api.ContourSpec(nodes=32, dimension=len(y))
    value = api.transition_probability(y, nu, x, pi, rates, t, spec)
    default = api.transition_probability(y, nu, x, pi, rates, t, None)
    # call: a window; the checks read its window, sites, species, value, imag
    report = api.distribution_over_window(y, nu, rates, t)
    lo, hi = report.window
    assert all(v.imag == 0.0 for v in report.values)
    assert all(len(v.sites) == len(v.species) == len(y) for v in report.values)
    # references: the oracle's (dict by (sites, species) tuples, window, leak)
    dist, window, leak = api.oracle_distribution(y, nu, rates, t)
    assert list(report.window) == list(window) == [lo, hi]
    assert 0 < leak < 1e-9
    for v in report.values:
        assert abs(v.value - dist.get((v.sites, v.species), 0.0)) <= 1e-8 + leak
    assert abs(value - dist[(x, pi)]) <= 1e-8 + leak
    assert abs(default - dist[(x, pi)]) <= 1e-8 + leak
    # references: one particle against the closed-form series
    # (the series takes the displacement x - y)
    single = api.single_particle_series(2, rates, t)
    assert abs(single - api.transition_probability((0,), (1,), (2,), (1,), rates, t, None)) <= 1e-12
