"""Experiment harnesses: front tracking, spreading speed, comparison, stiff limit."""
import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import (GridField, ModelParams, RunResult, _euler_steps, _snapshot_steps,
                       _step_count, run, stability_cap)
from .growth import GrowthLaw
from .kernels import ConvolutionStencil

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


def track_fronts(result: RunResult) -> FrontTrack:
    """The largest distance from the origin of a saturated cell and of a cell
    in the support, at each recorded snapshot (-inf where there is none)."""
    measure = result.final.radii()
    r_sat, r_sup = [], []
    for snap, mask in zip(result.snapshots, result.masks):
        r_sat.append(float(measure[mask].max()) if mask.any() else -math.inf)
        positive = snap > SUPPORT_FLOOR
        r_sup.append(float(measure[positive].max()) if positive.any() else -math.inf)
    return FrontTrack(times=np.asarray(result.times, dtype=float),
                      radius_saturated=np.asarray(r_sat),
                      radius_support=np.asarray(r_sup))


def _fit_window(times: np.ndarray, window_fraction: float) -> tuple[float, np.ndarray]:
    """The start of the trailing ``window_fraction`` of ``times`` and the mask
    of the times from it on, within 1e-12; ``ValueError`` unless
    ``window_fraction`` lies in (0, 0.5] and the mask holds 10 times."""
    if not 0.0 < window_fraction <= 0.5:
        raise ValueError("window_fraction must lie in (0, 0.5]")
    t_start = float(times[-1]) * (1.0 - window_fraction)
    inside = times >= t_start - 1e-12
    if np.count_nonzero(inside) < 10:
        raise ValueError("fit window must contain at least 10 usable snapshots")
    return t_start, inside


def _check_fit_window(params: ModelParams, snapshot_interval: float | None,
                      window_fraction: float = 0.5) -> None:
    """``_fit_window`` on a run's snapshot times, added up as ``run`` adds its
    steps: ``ValueError`` before the run where ``estimate_speed`` would raise."""
    n, last_dt = _step_count(params)
    ends = np.cumsum([0.0] + [params.dt] * (n - 1) + [last_dt])  # ends[k]: after step k
    _fit_window(ends[sorted(_snapshot_steps(params, snapshot_interval) | {0})],
                window_fraction)


def estimate_speed(track: FrontTrack, window_fraction: float = 0.5) -> SpeedEstimate:
    """Least-squares slope of the saturated radius over the trailing window.

    The window never extends into the first half of the run, which removes
    the start-up delay before the front settles into linear motion.  It must
    hold 10 snapshots (``_fit_window``); fewer than 10 finite saturated radii
    in it, or a radius that does not move, give a degenerate estimate.
    """
    t_end = float(track.times[-1])
    t_start, inside = _fit_window(track.times, window_fraction)
    keep = inside & np.isfinite(track.radius_saturated)
    t, r = track.times[keep], track.radius_saturated[keep]
    if r.size < 10 or float(r.max() - r.min()) <= 0.0:
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
    if not threshold > 0:
        raise ValueError("threshold must be positive")

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


def support_confinement_check(result: RunResult,
                              stencil: ConvolutionStencil) -> ConfinementReport:
    """Verify the support stays in the initial support plus stencil reach of
    the saturated set, with one grid cell of slack for the cell/continuum gap.

    The weights are nonnegative, so ``K * 1_S(t) > 0`` exactly where a nonzero
    tap hits a cell with ``saturation_time <= t``: where ``reached <= t``, with
    ``reached`` the least ``saturation_time`` under the taps.  The slack cell
    is a 3-wide min filter of ``reached`` and a dilation of the initial
    support."""
    initial_support = result.snapshots[0] > SUPPORT_FLOOR
    radii = result.final.radii()
    # convolve_field is a convolution: the tap at index k reads x + reach - k
    reached = _reduce_shifts(np.minimum, result.saturation_time,
                             stencil.reach - np.argwhere(stencil.dense), np.inf)
    near_initial = _dilate_one_cell(initial_support)
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
