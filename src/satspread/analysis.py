"""Experiment harnesses: front tracking, spreading speed, comparison, stiff limit."""
import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import (GridField, ModelParams, RunResult, _euler_steps,
                       rhs_singular, run, stability_cap)
from .growth import GrowthLaw
from .kernels import ConvolutionStencil, Kernel, front_profile
from .waves import WaveProfile, sample_wave

#: Densities above this count as support.
SUPPORT_FLOOR = 1e-12
#: Largest ordering loss ``comparison_harness`` passes.
COMPARISON_TOL = 1e-12


class FrontTrack(NamedTuple):
    """Per-snapshot radii of the saturated set and of the support.

    Empty sets are reported as -inf so the sequences stay monotone once the
    fronts exist.
    """

    times: np.ndarray
    radius_saturated: np.ndarray
    radius_support: np.ndarray


class SpeedEstimate(NamedTuple):
    fitted_speed: float
    fit_window: tuple[float, float]
    residual: float
    degenerate: bool = False


def track_fronts(result: RunResult, direction=None) -> FrontTrack:
    """Measure saturated and support radii across the recorded snapshots.

    Radially symmetric runs use the distance from the origin; passing a unit
    ``direction`` switches to the signed front position along that axis for
    planar runs.
    """
    if direction is None:
        measure = result.final.radii()
    else:
        e = np.atleast_1d(np.asarray(direction, dtype=float))
        measure = np.tensordot(result.final.coords(), e, axes=([-1], [0]))
    r_sat, r_sup = [], []
    for snap, mask in zip(result.snapshots, result.masks):
        r_sat.append(float(measure[mask].max()) if mask.any() else -math.inf)
        positive = snap > SUPPORT_FLOOR
        r_sup.append(float(measure[positive].max()) if positive.any() else -math.inf)
    return FrontTrack(times=np.asarray(result.times, dtype=float),
                      radius_saturated=np.asarray(r_sat),
                      radius_support=np.asarray(r_sup))


def estimate_speed(track: FrontTrack, window_fraction: float = 0.5) -> SpeedEstimate:
    """Least-squares slope of the saturated radius over the trailing window.

    The window never extends into the first half of the run, which removes
    the start-up delay before the front settles into linear motion.
    """
    if not 0.0 < window_fraction <= 0.5:
        raise ValueError("window_fraction must lie in (0, 0.5]")
    t_end = float(track.times[-1])
    t_start = t_end * (1.0 - window_fraction)
    sel = track.times >= t_start - 1e-12
    t = track.times[sel]
    r = track.radius_saturated[sel]
    finite = np.isfinite(r)
    if int(finite.sum()) < 10:
        raise ValueError("fit window must contain at least 10 usable snapshots")
    t, r = t[finite], r[finite]
    if float(r.max() - r.min()) <= 0.0:
        return SpeedEstimate(fitted_speed=0.0, fit_window=(t_start, t_end),
                             residual=0.0, degenerate=True)
    slope, intercept = np.polyfit(t, r, 1)
    resid = float(np.sqrt(np.mean((r - (slope * t + intercept)) ** 2)))
    return SpeedEstimate(fitted_speed=float(slope), fit_window=(t_start, t_end),
                         residual=resid)


class ComparisonReport(NamedTuple):
    max_violation: float
    passed: bool
    n_steps: int
    tolerance: float


def comparison_harness(u0_low: GridField, u0_high: GridField,
                       params: ModelParams, stencil: ConvolutionStencil,
                       growth: GrowthLaw) -> ComparisonReport:
    """Run an ordered pair with identical numerics and measure ordering loss."""
    if not growth.monotone_cap:
        raise ValueError("comparison requires the growth cap g(u) <= g(1)")
    if u0_low.shape != u0_high.shape or u0_low.spacing != u0_high.spacing:
        raise ValueError("ordered pair must share one grid")
    if np.any(u0_low.values > u0_high.values):
        raise ValueError("initial data must satisfy u_low <= u_high pointwise")

    worst = float(np.max(u0_low.values - u0_high.values))
    n_steps = 0
    for (low, *_), (high, *_) in zip(_euler_steps(u0_low, params, stencil, growth),
                                     _euler_steps(u0_high, params, stencil, growth)):
        worst = max(worst, float(np.max(low.values - high.values)))
        n_steps += 1
    return ComparisonReport(max_violation=worst, passed=worst <= COMPARISON_TOL,
                            n_steps=n_steps, tolerance=COMPARISON_TOL)


class CounterexampleReport(NamedTuple):
    crossed: bool
    first_crossing_time: float
    min_probe_gap: float
    rhs_gap_discrete: float
    rhs_gap_analytic: float
    probe_location: float


def comparison_counterexample(kernel: Kernel, stencil: ConvolutionStencil,
                              growth: GrowthLaw, u0_value: float,
                              box_radius: float, dt: float, horizon: float,
                              ) -> CounterexampleReport:
    """Ordered data that lose their order when the growth cap fails.

    The lower datum is the constant u0; the upper one is saturated on the left
    half line, ramps down to u0 at ell/2, and never dips below u0.  The
    saturated half line drags the upper solution at the probe point, so the
    ordering flips there in short time whenever g(u0) > g(1).
    """
    if growth.monotone_cap:
        raise ValueError("counterexample needs a growth law violating the cap")
    if not 0.0 < u0_value < 1.0:
        raise ValueError("u0 must lie in (0, 1)")
    g0 = float(growth(u0_value))
    if g0 <= growth.g1:
        raise ValueError("construction needs g(u0) > g(1)")
    if kernel.dim != 1 or stencil.dim != 1:
        raise ValueError("the construction is one-dimensional")
    if float(stencil.weights.min()) <= 0.0:
        raise ValueError("kernel must be strictly positive on its support")

    ell = kernel.radius
    dx = stencil.grid_spacing
    n = int(round(box_radius / dx))
    x = (np.arange(2 * n + 1) - n) * dx
    probe_idx = int(np.argmin(np.abs(x - ell / 2)))
    if abs(x[probe_idx] - ell / 2) > 1e-9 * ell:
        raise ValueError("grid must place a cell at ell/2")

    ramp = np.clip(1.0 - 2.0 * x / ell, 0.0, None) ** 2
    upper_vals = np.where(x <= 0.0, 1.0, u0_value + (1.0 - u0_value) * ramp)
    origin = np.array([-n * dx])
    upper = GridField(upper_vals, dx, origin)
    lower = GridField(np.full_like(x, u0_value), dx, origin)

    params = ModelParams(model="singular", dt=dt, t_end=horizon)
    rhs_upper = rhs_singular(upper, stencil, growth)
    rhs_lower = rhs_singular(lower, stencil, growth)
    gap_discrete = float(rhs_upper[probe_idx] - rhs_lower[probe_idx])
    h = front_profile(kernel)
    gap_analytic = (growth.g1 - g0) * float(h(ell / 2))

    crossed = False
    first_t = math.nan
    min_gap = float(upper.values[probe_idx] - lower.values[probe_idx])
    for (upper, *_), (lower, *_) in zip(_euler_steps(upper, params, stencil, growth),
                                        _euler_steps(lower, params, stencil, growth)):
        gap = float(upper.values[probe_idx] - lower.values[probe_idx])
        min_gap = min(min_gap, gap)
        if gap < 0.0 and not crossed:
            crossed = True
            first_t = upper.time
    return CounterexampleReport(crossed=crossed, first_crossing_time=first_t,
                                min_probe_gap=min_gap,
                                rhs_gap_discrete=gap_discrete,
                                rhs_gap_analytic=gap_analytic,
                                probe_location=float(x[probe_idx]))


class GammaConvergenceStudy(NamedTuple):
    gammas: tuple[float, ...]
    dts: tuple[float, ...]
    distances: tuple[float, ...]
    reference_dt: float
    horizon: float
    threshold: float
    strictly_decreasing: bool
    passed: bool


def gamma_convergence_study(u0: GridField, gamma_list: Sequence[float],
                            stencil: ConvolutionStencil, growth: GrowthLaw,
                            horizon: float, threshold: float = 0.05) -> GammaConvergenceStudy:
    """Sup-norm distance between finite-pressure runs and the saturated limit.

    Each pressure exponent runs at its own stability cap; the reference run of
    the saturated model uses the finest of those steps so the comparison is
    not polluted by the reference's own time-discretization error.
    """
    gammas = [float(g) for g in gamma_list]
    # Written so that NaN fails the test: every comparison with NaN is False.
    if not (len(gammas) >= 2 and all(1.0 <= g < math.inf for g in gammas)
            and all(a < b for a, b in zip(gammas, gammas[1:]))):
        raise ValueError("gamma_list must hold at least 2 strictly increasing"
                         " finite values >= 1")

    dts = [stability_cap("gamma", growth, g) for g in gammas]
    finals = [run(u0, ModelParams(model="gamma", gamma=g, dt=dt, t_end=horizon),
                  stencil, growth).final.values for g, dt in zip(gammas, dts)]
    ref_dt = min(dts)
    ref_params = ModelParams(model="singular", dt=ref_dt, t_end=horizon)
    ref = run(u0, ref_params, stencil, growth).final.values

    distances = [float(np.max(np.abs(f - ref))) for f in finals]
    decreasing = all(b < a for a, b in zip(distances, distances[1:]))
    passed = decreasing and distances[-1] < threshold
    return GammaConvergenceStudy(gammas=tuple(gammas), dts=tuple(dts),
                                 distances=tuple(distances), reference_dt=ref_dt,
                                 horizon=horizon, threshold=threshold,
                                 strictly_decreasing=decreasing, passed=passed)


class ConfinementReport(NamedTuple):
    violations_per_snapshot: tuple[int, ...]
    total_violations: int
    coverage_snapshot: int | None
    max_annulus_after_coverage: float
    annulus_bound: float


def _reduce_shifts(reduce, values: np.ndarray, offsets, fill) -> np.ndarray:
    """``reduce`` (a binary ufunc) of ``values[x + o]`` over the rows ``o`` of
    ``offsets``, at every ``x``, reading ``fill`` outside the box."""
    r = int(np.abs(offsets).max(initial=0))
    padded = np.pad(values, r, constant_values=fill)
    out = np.full(values.shape, fill)
    for o in offsets:
        reduce(out, padded[tuple(slice(r + a, r + a + n) for a, n in zip(o, out.shape))],
               out=out)
    return out


def _box(dim: int) -> np.ndarray:
    """The 3**dim offsets of the 3-wide box."""
    return np.array(list(itertools.product((-1, 0, 1), repeat=dim)))


def _dilate_one_cell(mask: np.ndarray) -> np.ndarray:
    """Binary dilation by the 3-wide box: the OR of the 3**dim shifted slices."""
    return _reduce_shifts(np.logical_or, mask, _box(mask.ndim), False)


def support_confinement_check(result: RunResult, stencil: ConvolutionStencil,
                              slack_cells: int = 1) -> ConfinementReport:
    """Verify the support stays in the initial support plus stencil reach of
    the saturated set, with one grid cell of slack for the cell/continuum gap.

    The weights are nonnegative, so ``K * 1_S(t) > 0`` exactly where a nonzero
    tap hits a cell with ``saturation_time <= t``: where ``reached <= t``, with
    ``reached`` the least ``saturation_time`` under the taps."""
    initial_support = result.snapshots[0] > SUPPORT_FLOOR
    radii = result.final.radii()
    # convolve_field is a convolution: the tap at index k reads x + reach - k
    reached = _reduce_shifts(np.minimum, result.saturation_time,
                             stencil.reach - np.argwhere(stencil.dense), np.inf)
    near_initial = initial_support
    for _ in range(slack_cells):
        near_initial = _dilate_one_cell(near_initial)
        reached = _reduce_shifts(np.minimum, reached, _box(reached.ndim), np.inf)

    violations = []
    coverage_idx: int | None = None
    max_annulus = -math.inf
    for idx, (snap, mask, t) in enumerate(zip(result.snapshots, result.masks,
                                              result.times)):
        allowed = near_initial | (reached <= t)
        bad = (snap > SUPPORT_FLOOR) & ~allowed
        violations.append(int(np.count_nonzero(bad)))

        if coverage_idx is None and bool(mask[initial_support].all()):
            coverage_idx = idx
        if coverage_idx is not None and mask.any():
            width = float(radii[snap > SUPPORT_FLOOR].max(initial=-math.inf)
                          - radii[mask].max())
            max_annulus = max(max_annulus, width)

    bound = stencil.radius + stencil.grid_spacing
    return ConfinementReport(violations_per_snapshot=tuple(violations),
                             total_violations=int(sum(violations)),
                             coverage_snapshot=coverage_idx,
                             max_annulus_after_coverage=max_annulus,
                             annulus_bound=bound)


def upper_envelope_gap(result: RunResult, wave: WaveProfile, direction,
                       offset: float) -> float:
    """Worst excess of the run over the translating wave envelope.

    The envelope is evaluated one cell behind each point, which absorbs the
    half-cell ambiguity of grid-sampled fronts.
    """
    e = np.atleast_1d(np.asarray(direction, dtype=float))
    coords = result.final.coords()
    proj = np.tensordot(coords, e, axes=([-1], [0]))
    slack = result.final.spacing
    worst = -math.inf
    for t, snap in zip(result.times, result.snapshots):
        env = sample_wave(wave, proj - wave.c * t - offset - slack, minimal=True)
        worst = max(worst, float(np.max(snap - env)))
    return worst


def subsolution_gap(result: RunResult, wave: WaveProfile, c_sub: float,
                    radius_offset: float) -> float:
    """Worst excess of the inward radial wave sampler over the run.

    The sampler travels at ``c_sub`` from t = 0 and is evaluated one cell
    ahead of each point, which absorbs the half-cell ambiguity of
    grid-sampled fronts; nonpositive return means the run dominates the
    subsolution throughout.
    """
    radii = result.final.radii()
    slack = result.final.spacing
    worst = -math.inf
    for t, snap in zip(result.times, result.snapshots):
        s = radii - c_sub * t - radius_offset + slack
        env = sample_wave(wave, s, minimal=True)
        worst = max(worst, float(np.max(env - snap)))
    return worst
