"""Exact transition probabilities from the contour-integral sum.

The probability of finding the particles at sites ``x`` with species
labeling ``pi``, having started at ``y`` with labeling ``nu``, is a sum
over permutations sigma of an N-fold contour integral.  Each summand
couples a pairwise scattering amplitude, a species reordering coefficient,
a product of per-variable kernels carrying the initial sites and the time
evolution factor, and the monomial prod_v xi_v^(x at slot sigma^-1(v)).

Substituting xi'_i = xi_sigma(i) gives every summand the same monomial
prod_i xi'_i^x_i, so per labeling pi the sum is one symmetrized integrand
G_pi(xi') whose Fourier coefficients are the probabilities (Tracy-Widom
2008).  With K equispaced nodes r * w^k on each contour the trapezoid sums
of all targets at once are an inverse DFT of G_pi on the node grid:

    P(x, pi) = r^(sum x) * ifftn(G_pi)[x mod K]

which is exactly the per-target trapezoid sum, aliasing included.  The
kernels' factor r^(-sum y) is moved into that readout scale, which is
then r^(sum x - sum y), so no power grows with the sites' distance from
the origin.

The K^N grid is never built.  A slab (one node fixed on the contour of
xi_1) is a K^(N-1) grid; in xi' coordinates sigma's slab is the plane
normal to axis j = sigma^-1(1).  Planes are summed per (j, pi),
transformed over their N-1 axes keeping only the modes the targets need,
and a last transform along the slab index finishes each axis-j spectrum.
All node arithmetic and every transform run in extended precision
(clongdouble): the spectra cancel many orders below their terms.

The integrand has real coefficients: the pair amplitudes, the species
factors built from 1 + S, p and q, and the kernels xi^(-y) e^(eps(xi) t)
all satisfy G(conj xi) = conj G(xi), and the node table is exactly
conjugate symmetric (node K - k is conj(node k), node K/2 is -r).  So slab
K - k's plane is slab k's conjugated with every plane index negated, and
its transform at each kept mode is the conjugate of slab k's.  Only the
slabs k = 0 .. K/2 are walked, and the transform along the slab index is
the Hermitian inverse FFT of those K/2 + 1 rows, which returns real
values.  This holds on both halves, for any real p (q = 0 included), and
for partial permutation sums.

Every scattering factor a half needs is an entry of one K x K matrix
S[k, l] = s_factor(z_k, z_l) on the node circle, evaluated (and checked
against the pole guard) once.  The factors with the first variable are
its columns, those within the rest grid its axis views.  The species
coefficient tables factor through entry 1: the exchange recursion builds
the tables of the orders of entries 2..N once per half, on bonds that are
views of 1 + S, and they are summed with their amplitudes into one table
per labeling.  Each slab then applies only the N - 1 letters that move
entry 1, each given its bond from that slab's row of 1 + S.  With one
species every letter is the identity.

Targets left of the start (sum x < sum y) would need an integrand growing
like r^(sum x - sum y) on a contour held inside the pole bound, so they
are computed on the mirrored lattice: sites negated and reversed, species
reversed, p and q swapped, which makes the exponent positive.  At p = 1
the left half is exactly 0, because particles only move right.  Both
halves run through one loop; ``ContourSpec.radius_for`` decides each one's
radius, pole-bound check and slab budget, and ``_contour_sum`` sums on it.

The same engine sums any set of permutations (``sigma_summand``,
``inversion_class_sum``).  Such a partial sum is not mirror invariant, so
it stays on the direct lattice for every target.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

from .bethe_algebra import RateParams, _check_positive, dispersion, s_factor
from .contour_quadrature import ContourSpec, Quadrature, axis_view, node_points
from .markov_oracle import (
    DEFAULT_LEAK_TOL,
    StateSpace,
    build_generator,
    check_problem,
    window_for,
    window_leakage,
)
from .permutations import all_permutations, inversion_classes, inversions
from .species_coeff import coefficient_table, exchange_update

# Slack on a probability and on a window's total mass: a value outside
# [-MASS_TOL, 1 + MASS_TOL], or a window's mass outside
# [1 - leakage - MASS_TOL, 1 + MASS_TOL], is flagged as off.
MASS_TOL = 1e-8


def _longdouble(value) -> np.longdouble:
    # Rationals deserve better than a float round-trip
    if isinstance(value, numbers.Rational) and not isinstance(value, float):
        return np.longdouble(int(value.numerator)) / np.longdouble(int(value.denominator))
    return np.longdouble(value)


def _extended_rates(rates: RateParams) -> RateParams:
    return RateParams(_longdouble(rates.p), _longdouble(rates.q))


@dataclass(frozen=True)
class TargetValue:
    """One target's probability.  ``imag`` is always 0.0: the engine's
    values are real by construction, and the field is kept only for
    callers that still read it."""

    sites: tuple[int, ...]
    species: tuple[int, ...]
    value: float
    imag: float = 0.0


@dataclass(frozen=True)
class DistributionReport:
    initial_sites: tuple[int, ...]
    initial_species: tuple[int, ...]
    p: float
    time: float
    quadrature: Quadrature
    window: tuple[int, int]
    leakage: float
    values: tuple[TargetValue, ...]

    @property
    def total_mass(self) -> float:
        return sum(v.value for v in self.values)

    def as_dict(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], float]:
        return {(v.sites, v.species): v.value for v in self.values}


@dataclass(frozen=True)
class DeltaReport:
    """The worst deviation from the point mass, on the quadrature of the
    last doubling."""

    max_residual: float
    quadrature: Quadrature
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass(frozen=True)
class Evaluation:
    """A batch's values with the quadrature they ran on.  The direct half
    holds the targets with sum(x) >= sum(y), the mirrored half the rest; a
    sum over part of the permutations runs on the direct half only."""

    values: tuple[float, ...]
    quadrature: Quadrature


@dataclass(frozen=True)
class MasterEquationReport:
    time_derivative: float
    flow_balance: float
    residual: float
    dt: float


def _axis_kernels(z, y, rates, t, nodes):
    """Per-variable node vectors: w^{-k y_v} * exp(dispersion * t) / K.

    The -1 in the pole order and the dz = z * (node spacing) weight cancel
    to a single z^{-y_v} = r^{-y_v} w^{-k y_v}.  The phase is read from
    the unit node table and r^{-y_v} is left to the readout, which scales
    each target by r^(sum x - sum y), so no power grows with the distance
    of the sites from the origin.
    """
    growth = np.exp(dispersion(z, rates) * np.longdouble(t)) if t else 1
    unit, k = node_points(1, nodes), np.arange(nodes)
    return [unit[(-k * int(yv)) % nodes] * growth / np.longdouble(nodes) for yv in y]


def _spec_for(spec: ContourSpec | None, n: int) -> ContourSpec:
    """``spec``, or the default one; one naming a dimension other than the
    start's n particles is a ValueError."""
    spec = spec or ContourSpec()
    if spec.dimension not in (None, n):
        raise ValueError(f"spec.dimension is {spec.dimension}, but the start has {n} particles")
    return spec


def _evaluate(
    y: tuple[int, ...],
    nu: tuple[int, ...],
    targets: list[tuple[tuple[int, ...], tuple[int, ...]]],
    rates: RateParams,
    t: float,
    spec: ContourSpec | None = None,
    permutations: list[tuple[int, ...]] | None = None,
) -> Evaluation:
    """Values for a batch of (sites, species) targets sharing one start,
    summed over ``permutations`` (default: all of S_N).

    Targets whose species multiset differs from nu's get an exact 0.
    Targets left of the start (sum x < sum y) of the full sum are computed
    on the mirrored lattice, with p and q swapped; at p = 1 they are
    exactly 0.  Only the full sum is mirror invariant, so a partial sum
    keeps every target on the direct lattice.

    The targets, pairs or one (m, 2, N) integer array, are checked by
    ``check_problem`` alone; a value that is not finite is a ValueError.
    Full-sum values outside [-MASS_TOL, 1 + MASS_TOL] are not probabilities:
    the contour is starved or aliased there, and one UserWarning names how many.
    """
    sites, species = check_problem(y, nu, t, targets)
    n = len(y)
    spec = _spec_for(spec, n)

    def target(k):
        return tuple(sites[k].tolist()), tuple(species[k].tolist())

    live = (np.sort(species, axis=1) == sorted(nu)).all(axis=1)
    split = sum(y) if permutations is None else -np.inf
    direct = live & (sites.sum(axis=1) >= split)
    # each half: its rows, start, labels, targets and rates; at p = 1 the
    # left targets are exact zeros and no mirrored half runs
    halves = [(direct, y, nu, sites[direct], species[direct], rates)]
    if rates.q != 0:
        left = live & ~direct
        halves.append((
            left, tuple(-s for s in reversed(y)), tuple(reversed(nu)),
            -sites[left, ::-1], species[left, ::-1], RateParams(rates.q, rates.p),
        ))
    values = np.zeros(len(sites), dtype=np.longdouble)
    radii = [None, None]
    # an overflowing contour shows up as a non-finite value, raised below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for half, (rows, start, labels, xs, pis, half_rates) in enumerate(halves):
            if not rows.any():
                continue
            ext = _extended_rates(half_rates)
            lowest = int(xs.sum(axis=1).min()) - sum(start)
            radius = spec.radius_for(ext, t, lowest, n, mirrored=bool(half))
            values[rows] = _contour_sum(
                start, labels, xs, pis, ext, t, radius, spec.nodes, permutations
            )
            radii[half] = float(radius)
        out = values.astype(float)

    bad = np.flatnonzero(~np.isfinite(out))
    if len(bad):
        raise ValueError(
            f"{len(bad)} of {len(out)} values are not finite, e.g. at target "
            f"{target(bad[0])} (t = {t}, {spec.nodes} nodes)"
        )
    if permutations is None:
        off = np.flatnonzero((out < -MASS_TOL) | (out > 1 + MASS_TOL))
        if len(off):
            worst = off[np.argmax(abs(out[off] - 0.5))]
            warnings.warn(
                f"{len(off)} of {len(out)} values lie outside [-{MASS_TOL:g}, "
                f"1 + {MASS_TOL:g}]; worst {out[worst]:.6g} at target "
                f"{target(worst)}, {spec.nodes} nodes",
                stacklevel=3,
            )
    return Evaluation(values=tuple(out.tolist()), quadrature=spec.quadrature(*radii))


def _pair_view(matrix, axis_a, axis_b, ndim):
    """A (K, K) pair matrix M[k_a, k_b] as a broadcastable view with k_a on
    grid axis axis_a and k_b on axis_b."""
    if axis_a > axis_b:
        matrix, axis_a, axis_b = matrix.T, axis_b, axis_a
    shape = [1] * ndim
    shape[axis_a] = shape[axis_b] = len(matrix)
    return matrix.reshape(shape)


def _contour_sum(y, nu, sites, species, ext, t, radius, nodes, permutations=None):
    """Trapezoid values, in extended precision, of the targets (rows of the
    (m, N) int arrays ``sites`` and ``species``, labelings in nu's species
    orbit) on the contour of the given radius and node count, with the
    extended-precision rates ``ext``, summed over ``permutations``
    (default: all of S_N) and read off one symmetrized spectrum per
    labeling."""
    n = len(y)
    z = node_points(radius, nodes)
    kernels = _axis_kernels(z, y, ext, t, nodes)
    modes = sites % nodes
    scale = np.longdouble(radius) ** (sites.sum(axis=1) - sum(y))

    half = nodes // 2
    if n == 1:
        spectrum = scipy.fft.irfft(kernels[0][: half + 1], n=nodes, norm="forward")
        return scale * spectrum[modes[:, 0]]

    n_rest = n - 1
    # One scattering matrix S[k, l] = s_factor(z_k, z_l) per half, which
    # also puts the whole node grid under the pole guard.  Every pair
    # factor of the half is a view of it: its column k holds the factors
    # with the first variable at slab k, its axis views those within the
    # rest grid, and the views of 1 + S are the bonds of the species tables.
    scatter = s_factor(z[:, None], z[None, :], ext)
    bond = 1 + scatter

    rest_kernel = axis_view(kernels[1], 0, n_rest)
    for a in range(3, n + 1):
        rest_kernel = rest_kernel * axis_view(kernels[a - 1], a - 2, n_rest)

    # In xi'_i = xi_sigma(i) coordinates every summand carries the same
    # monomial prod xi'^x.  A slab fixes xi_1 = xi'_j with j = sigma^-1(1),
    # so sigma's slab is the plane normal to axis j, its axes in xi' order.
    # Write sigma as the order tau of the entries 2..N with 1 inserted in
    # slot j: plane axis m then holds the entry tau[m], the pair factors
    # within the rest grid depend on tau only, and the factors with the
    # first variable sit on plane axes 0..j-1 whatever tau is.
    #
    # The same split is a reduced word for sigma: letters at bonds >= 2
    # sort the entries 2..N into tau while 1 stays in slot 1, then the
    # letters at bonds 1..j move it to slot j + 1.  The first part reads
    # only bonds between entries >= 2, so one table per tau serves every
    # slab; the second reads 1 + S(xi_1, xi'_m), the same for every tau in
    # plane coordinates.  Letters are pointwise linear, so the tau sum
    # U[pi] = sum amp_tau * T_tau[pi] is formed once per half and each slab
    # only walks it through the N - 1 letters.  With one species every
    # letter is the identity.
    rest_bonds = {
        (a, b): _pair_view(bond, a - 1, b - 1, n_rest) for b in range(2, n) for a in range(1, b)
    }
    rest_tables = coefficient_table(tuple(nu[1:]), rest_bonds, ext)

    # the orders tau each plane axis j sums over; axes with the same orders
    # share one walk
    chosen = None if permutations is None else set(map(tuple, permutations))
    orders = {}
    for j in range(n):
        taus = tuple(
            tau
            for tau in all_permutations(n_rest)
            if chosen is None or tuple(v + 1 for v in tau[:j] + (0,) + tau[j:]) in chosen
        )
        if taus:
            orders.setdefault(taus, []).append(j)
    walks = []
    for taus, slots in orders.items():
        start = {}
        for tau in taus:
            axes = tuple(v - 1 for v in tau)
            amp = rest_kernel.transpose(axes)
            for a, b in sorted(inversions(tau)):
                pair = _pair_view(scatter, a - 1, b - 1, n_rest)
                amp = np.multiply(amp, pair.transpose(axes), order="C")
            for rest_pi, coeff in rest_tables[tau].items():
                if np.ndim(coeff):
                    coeff = coeff.transpose(axes)
                pi = (nu[0],) + rest_pi
                term = amp * coeff
                start[pi] = start[pi] + term if pi in start else term
        walks.append((start, slots))

    # per axis j: the modes each plane axis keeps, and where each target's
    # plane mode tuple sits among the deduplicated ones
    axis_modes, plane_modes, plane_slot = [], [], []
    for j in range(n):
        kept = np.delete(modes, j, axis=1)
        axis_modes.append([np.unique(column) for column in kept.T])
        at = np.stack(
            [np.searchsorted(m, column) for m, column in zip(axis_modes[j], kept.T)],
            axis=1,
        )
        uniq, slot = np.unique(at, axis=0, return_inverse=True)
        plane_modes.append(tuple(uniq.T))
        plane_slot.append(slot.reshape(-1))
    # the labelings in sorted order, and each target's among them
    labelings, label_of = np.unique(species, axis=0, return_inverse=True)
    labelings, label_of = list(map(tuple, labelings.tolist())), label_of.reshape(-1)

    # Each plane is weighted into one buffer allocated once: a working set
    # freed at the end of every slab goes back to the operating system and
    # is faulted in again by the next one.
    work = np.empty((nodes,) * n_rest, dtype=np.clongdouble)
    slab_spectra = {}
    for k in range(half + 1):
        # first-variable pair factors of the entries left of the 1, and
        # the first variable's own kernel
        weights = [kernels[0][k]]
        for m in range(n_rest):
            weights.append(weights[-1] * axis_view(scatter[:, k], m, n_rest))
        for table, slots in walks:
            for j in range(max(slots) + 1):
                if j:
                    # letter j moves entry 1 past entry j + 1
                    table = exchange_update(j, table, axis_view(bond[k], j - 1, n_rest), ext)
                if j not in slots:
                    continue
                for label, pi in enumerate(labelings):
                    if pi not in table:
                        continue
                    plane = np.multiply(table[pi], weights[j], out=work)
                    # transform one axis at a time, keeping only the needed modes
                    for axis in reversed(range(n_rest)):
                        plane = scipy.fft.ifft(
                            plane, axis=axis, norm="forward", overwrite_x=True
                        )
                        plane = plane.take(axis_modes[j][axis], axis=axis)
                    if (j, label) not in slab_spectra:
                        slab_spectra[(j, label)] = np.zeros(
                            (half + 1, len(plane_modes[j][0])), dtype=np.clongdouble
                        )
                    slab_spectra[(j, label)][k] = plane[plane_modes[j]]

    # slab K - k's spectrum is the conjugate of slab k's (module docstring),
    # so the last transform, along the slab index (axis j), is Hermitian
    values = np.zeros(len(sites), dtype=np.longdouble)
    for (j, label), spectra in slab_spectra.items():
        spectrum = scipy.fft.irfft(spectra, n=nodes, axis=0, norm="forward")
        rows = label_of == label
        values[rows] += spectrum[modes[rows, j], plane_slot[j][rows]]
    return scale * values


def transition_probability(
    y: tuple[int, ...],
    nu: tuple[int, ...],
    x: tuple[int, ...],
    pi: tuple[int, ...],
    rates: RateParams,
    t: float,
    spec: ContourSpec | None = None,
) -> float:
    """P(particles at x with labeling pi at time t | started at y with nu)."""
    return _evaluate(tuple(y), tuple(nu), [(tuple(x), tuple(pi))], rates, t, spec).values[0]


def single_species_probability(
    y: tuple[int, ...],
    x: tuple[int, ...],
    rates: RateParams,
    t: float,
    spec: ContourSpec | None = None,
) -> float:
    """All particles identical: the labeling collapses and only the site
    process remains."""
    ones = (1,) * len(y)
    return transition_probability(y, ones, x, ones, rates, t, spec)


def transition_probabilities(
    y: tuple[int, ...],
    nu: tuple[int, ...],
    targets: list[tuple[tuple[int, ...], tuple[int, ...]]],
    rates: RateParams,
    t: float,
    spec: ContourSpec | None = None,
) -> list[TargetValue]:
    return _target_values(targets, _evaluate(tuple(y), tuple(nu), targets, rates, t, spec))


def _target_values(targets, evaluation: Evaluation) -> list[TargetValue]:
    return [
        TargetValue(sites=tuple(x), species=tuple(pi), value=v)
        for (x, pi), v in zip(targets, evaluation.values)
    ]


def distribution_over_window(
    y: tuple[int, ...],
    nu: tuple[int, ...],
    rates: RateParams,
    t: float,
    window: tuple[int, int] | None = None,
    leak_tol: float = DEFAULT_LEAK_TOL,
    spec: ContourSpec | None = None,
) -> DistributionReport:
    """Every target inside a window, heavy enough that the mass outside is
    below leak_tol (or inside an explicit window).  A total mass outside
    [1 - leakage - MASS_TOL, 1 + MASS_TOL] is flagged with a warning: the
    node count is then too low for the window's values."""
    y, nu = tuple(y), tuple(nu)
    check_problem(y, nu, t)
    if window is None:
        window = window_for(y, t, leak_tol)
    batch = StateSpace.build(window, len(y), nu).batch()
    evaluation = _evaluate(y, nu, batch, rates, t, spec)
    report = DistributionReport(
        initial_sites=y,
        initial_species=nu,
        p=float(rates.p),
        time=float(t),
        quadrature=evaluation.quadrature,
        window=window,
        leakage=window_leakage(y, t, window),
        values=tuple(_target_values(batch.tolist(), evaluation)),
    )
    mass = report.total_mass
    if not 1 - report.leakage - MASS_TOL <= mass <= 1 + MASS_TOL:
        warnings.warn(
            f"window {window}: total mass {mass:.6g} lies outside "
            f"[1 - {report.leakage:.3g}, 1] by more than {MASS_TOL:g} "
            f"at {report.quadrature.nodes} nodes",
            stacklevel=2,
        )
    return report


def delta_recovery(
    y: tuple[int, ...],
    nu: tuple[int, ...],
    rates: RateParams,
    margin: int = 2,
    tol: float = 1e-8,
    spec: ContourSpec | None = None,
) -> DeltaReport:
    """At t = 0 the distribution must be a point mass at the start.  Runs
    the full integral over a window around the start and doubles the node
    count until the worst deviation from the Kronecker delta passes tol.
    When the node cap or the slab budget stops the doubling first, the
    report is returned failed."""
    if not isinstance(margin, numbers.Integral) or isinstance(margin, bool) or margin < 0:
        raise ValueError(f"margin must be a nonnegative integer, got {margin!r}")
    y, nu = tuple(y), tuple(nu)
    _check_positive("tol", tol)
    check_problem(y, nu, 0.0)
    n = len(y)
    spec = _spec_for(spec, n)
    window = (min(y) - margin, max(y) + margin)
    batch = StateSpace.build(window, n, nu).batch()
    at_start = (batch == (y, nu)).all(axis=(1, 2))
    while True:
        evaluation = _evaluate(y, nu, batch, rates, 0.0, spec)
        worst = float(abs(np.subtract(evaluation.values, at_start)).max())
        if worst <= tol or not ContourSpec.fits(2 * spec.nodes, n):
            return DeltaReport(
                max_residual=worst, quadrature=evaluation.quadrature, tolerance=tol
            )
        spec = replace(spec, nodes=2 * spec.nodes)


def sigma_summand(
    y: tuple[int, ...],
    x: tuple[int, ...],
    sigma: tuple[int, ...],
    rates: RateParams,
    t: float = 0.0,
    spec: ContourSpec | None = None,
) -> float:
    """A single permutation's contribution to the identical-species
    integral: scattering amplitude times kernels, no species coefficient."""
    if sorted(sigma) != list(range(1, len(y) + 1)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 1..{len(y)}")
    ones = (1,) * len(y)
    return _evaluate(y, ones, [(x, ones)], rates, t, spec, [tuple(sigma)]).values[0]


def inversion_class_sum(
    y: tuple[int, ...],
    x: tuple[int, ...],
    entries: frozenset[int],
    rates: RateParams,
    spec: ContourSpec | None = None,
) -> float:
    """Sum of t = 0 summands over the permutations whose inversions with
    the largest entry hit exactly this entry set.  Cancels identically;
    the return value is the quadrature residual of that cancellation."""
    classes = inversion_classes(len(y))
    if frozenset(entries) not in classes:
        raise ValueError(f"no inversion class {set(entries)} for n = {len(y)}")
    ones = (1,) * len(y)
    members = classes[frozenset(entries)]
    return _evaluate(y, ones, [(x, ones)], rates, 0.0, spec, members).values[0]


def master_equation_residual(
    y: tuple[int, ...],
    nu: tuple[int, ...],
    x: tuple[int, ...],
    pi: tuple[int, ...],
    rates: RateParams,
    t: float,
    dt: float = 1e-3,
    spec: ContourSpec | None = None,
) -> MasterEquationReport:
    """Central-difference time derivative of one probability against the
    in/out flow balance of the jump rates.  Independent of the Markov
    oracle's matrix exponential: the rates are the generator's
    (``build_generator``), the probabilities come from the contour
    integral.

    The moves into and out of x only see which of its gaps are 1, so the
    generator is built around a copy of x with every wider gap closed to
    2, on the window one site beyond it: at most 2N + 1 sites, however far
    apart x's particles are.  Each neighbour of the copy maps back to x's
    neighbour by the same particle shift, and in the same order.
    """
    y, nu, x, pi = tuple(y), tuple(nu), tuple(x), tuple(pi)
    # checked before the neighbourhood is built from x
    check_problem(y, nu, t, [(x, pi)])
    # a bool is not read as dt = 1 (numpy's is no numbers.Real)
    if isinstance(dt, bool) or not isinstance(dt, numbers.Real) or not 0 < dt <= t:
        raise ValueError(
            f"the central difference at t - dt needs 0 < dt <= t, got t = {t}, dt = {dt}"
        )
    local = np.concatenate([[1], 1 + np.cumsum(np.minimum(np.diff(x), 2))])
    space = StateSpace.build((0, int(local[-1]) + 1), len(x), pi)
    k = space.index(tuple(local), pi)
    column = build_generator(space, rates)[:, [k]].toarray().ravel()
    exit_rate, column[k] = -float(column[k]), 0.0
    rows = np.flatnonzero(column)
    sources = space.batch()[rows]
    sources[:, 0] += np.subtract(x, local)
    here = _evaluate(y, nu, np.concatenate([sources, [(x, pi)]]), rates, t, spec).values
    plus = _evaluate(y, nu, [(x, pi)], rates, t + dt, spec).values[0]
    minus = _evaluate(y, nu, [(x, pi)], rates, t - dt, spec).values[0]
    lhs = (plus - minus) / (2 * dt)
    rhs = sum(rate * v for rate, v in zip(column[rows].tolist(), here))
    rhs -= exit_rate * here[-1]
    return MasterEquationReport(
        time_derivative=lhs, flow_balance=rhs, residual=abs(lhs - rhs), dt=dt
    )
