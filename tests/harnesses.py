"""Harnesses of the paper's claims and the direct stepping oracle, which no
subcommand runs: the full-grid Euler step that ``run`` is held to, and the
checks of order, the wave envelopes, the cap inequality and the obstacle form;
plus the cone kernel, the unequal-weight stencil and the table growth law that
the tests run beside the indicator kernel and the configurable laws, and the
Gauss-Legendre rule that integrates the front profile of any radial kernel.
They need numpy and the package only, never scipy.
"""
import math
from typing import NamedTuple, Sequence

import numpy as np

from satspread.dynamics import (GridField, ModelParams, RunResult, _check_stepping,
                                _euler_steps, discrete_lipschitz, saturated_mask)
from satspread.growth import GrowthLaw, _verify
from satspread.kernels import (ConvolutionStencil, FrontKernelProfile, Kernel,
                               KernelError, build_kernel, convolve_dense,
                               convolve_field, front_profile)
from satspread.waves import WaveProfile, sample_wave, shoot_profile

#: Positive-violation threshold for the cap-inequality report (absorbs
#: quadrature noise at the support endpoint where both sides vanish).
CAP_VIOLATION_TOL = 1e-10
#: Largest gap allowed between the coarse and fine rules of ``legendre_quad``.
FRONT_QUAD_TOL = 1e-8


class QuadratureError(RuntimeError):
    """The two rules of ``legendre_quad`` differ by more than ``FRONT_QUAD_TOL``, or by NaN."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error {achieved:.3e})")
        self.achieved = achieved


def legendre_quad(f, a, b, what: str):
    """Integrals of ``f`` over [a, b], elementwise over the broadcast a and b.

    Composite Gauss-Legendre in t on x = a + (b - a)(1 - cos(pi t))/2, taken
    as a + (b - a) sin(pi t/2)**2 to keep x - a exact near a.  The map is flat
    at t = 0 and 1, so square-root behaviour of ``f`` at either end becomes
    smooth in t.  Rules of 16 and 32 panels of 20 nodes share one call
    of ``f`` on all nodes; the finer values are returned (0 where b <= a), or
    ``QuadratureError`` reports the largest gap between the two rules.
    """
    # Imported here: the tests see that no subcommand loads numpy.polynomial.
    from numpy.polynomial.legendre import leggauss

    xi, w = leggauss(20)
    t = np.concatenate([((np.arange(p)[:, None] + (xi + 1.0) / 2.0) / p).ravel()
                        for p in (16, 32)])
    w = np.concatenate([np.tile(w, p) / (2.0 * p) for p in (16, 32)])
    a = np.asarray(a, dtype=float)[..., None]
    width = np.maximum(np.asarray(b, dtype=float)[..., None] - a, 0.0)
    terms = (f(a + width * np.sin(np.pi / 2.0 * t) ** 2)
             * (width * np.pi / 2.0) * (np.sin(np.pi * t) * w))
    coarse, fine = terms[..., :16 * 20].sum(axis=-1), terms[..., 16 * 20:].sum(axis=-1)
    gap = float(np.max(np.abs(fine - coarse)))
    if not gap <= FRONT_QUAD_TOL:
        raise QuadratureError(f"quadrature for {what} did not converge", gap)
    return fine


def quad_front_profile(kernel: Kernel, sample_spacing: float | None = None,
                       ) -> FrontKernelProfile:
    """``front_profile`` of any radial kernel, on the same samples.

    ``legendre_quad`` integrates K (1-d) or the polar reduction
    K(rho) rho 2 acos(s/rho) (2-d) over [s, ell] at all samples at once;
    the reflection, the clip and the running minimum are ``front_profile``'s.
    """
    ell = kernel.radius
    if sample_spacing is None:
        sample_spacing = ell / 200
    if not 0 < sample_spacing <= ell / 50:
        raise KernelError("sample_spacing must lie in (0, ell/50]")
    n_half = int(math.ceil(ell / sample_spacing - 1e-12))
    s_half = np.linspace(0.0, ell, n_half + 1)

    h_half = legendre_quad(kernel.profile if kernel.dim == 1 else lambda rho: (
        kernel.profile(rho) * rho * 2.0 * np.arccos(s_half[:, None] / rho)),
        s_half, ell, "front profile")
    if abs(h_half[0] - 0.5) > 1e-6:
        raise QuadratureError("front profile value at 0 is off 1/2",
                              abs(h_half[0] - 0.5))

    h_half[-1] = 0.0
    s_full = np.concatenate([-s_half[1:][::-1], s_half])
    h_full = np.concatenate([1.0 - h_half[1:][::-1], h_half])
    h_full = np.clip(h_full, 0.0, 1.0)
    # Quadrature wiggle is below FRONT_QUAD_TOL; a running minimum makes the
    # monotonicity invariant hold exactly.
    h_full = np.minimum.accumulate(h_full)
    return FrontKernelProfile(ell=ell, s=s_full, samples=h_full)


def cone_kernel(dim: int) -> Kernel:
    """The unit-radius cone kernel, of density ``1 - rho`` in 1-d and
    ``3/pi (1 - rho)`` in 2-d: mass one in closed form."""
    height = 1.0 if dim == 1 else 3.0 / math.pi
    return Kernel(kind="cone", radius=1.0, dim=dim,
                  profile=lambda rho: height * np.clip(1.0 - np.asarray(rho), 0.0, None))


def weighted_stencil(profile, dim: int, dx: float) -> ConvolutionStencil:
    """The unit indicator stencil's taps weighted by ``profile(|offset| dx)``
    and renormalized to mass one: a radial stencil of unequal weights."""
    base = build_kernel("indicator_ball", 1.0, dim, dx)[1]
    weights = profile(np.linalg.norm(base.offsets, axis=1) * dx)
    weights = weights / weights.sum()
    dense = np.zeros_like(base.dense)
    dense[tuple((base.offsets + base.reach).T)] = weights
    return base._replace(weights=weights, dense=dense)


def table_law(nodes, values) -> GrowthLaw:
    """Piecewise-linear growth through ``(nodes, values)``, nodes from 0 to 1.

    Its constants are exact for the interpolant: ``g(u)/u`` is monotone on
    each segment, so the node ratios give ``r``."""
    x, y = np.asarray(nodes, dtype=float), np.asarray(values, dtype=float)
    sup, g1 = float(y.max()), float(y[-1])
    return _verify(GrowthLaw(
        kind="tabulated", params=(len(x),), r=float(np.min(y[1:] / x[1:])),
        lipschitz=float(np.max(np.abs(np.diff(y)) / np.diff(x))), sup=sup, g1=g1,
        monotone_cap=sup <= g1, fn=lambda u: np.interp(u, x, y)))


def convolve_mask(stencil: ConvolutionStencil, mask: np.ndarray) -> np.ndarray:
    """Convolve a binary field; output lies in [0, 1]."""
    mask = np.asarray(mask)
    as_float = mask.astype(float)
    if not np.all((as_float == 0.0) | (as_float == 1.0)):
        raise ValueError("mask values must be 0 or 1")
    return np.clip(convolve_field(stencil, as_float), 0.0, 1.0)


def _saturated_bracket(values: np.ndarray, conv: np.ndarray, growth: GrowthLaw,
                       generalized: bool) -> np.ndarray:
    """Evolution bracket of the saturated models, given ``conv = K * 1_S``
    clipped to [0, 1]."""
    g = np.asarray(growth(values), dtype=float)
    if generalized:
        if growth.gain is None:
            raise ValueError("generalized model requires a gain law")
        return g + growth.gain * conv
    return g * (1.0 - conv) + growth.g1 * conv


def rhs_singular(u: GridField, stencil: ConvolutionStencil, growth: GrowthLaw,
                 generalized: bool = False) -> np.ndarray:
    """Right-hand side of the saturated-dispersal model; zero on the saturated set."""
    mask = saturated_mask(u.values)
    return (_saturated_bracket(u.values, convolve_mask(stencil, mask), growth,
                               generalized) * (1.0 - mask))


def rhs_gamma_full_grid(u: GridField, stencil: ConvolutionStencil, growth: GrowthLaw,
                        gamma: float) -> np.ndarray:
    """Right-hand side of the finite-pressure model with ``pow`` and both
    convolutions on every cell: ``rhs_gamma`` without its live box and its
    ``pow`` threshold."""
    p = u.values ** gamma
    g = np.asarray(growth(u.values), dtype=float)
    conv_p, conv_gp = convolve_dense(stencil, p, g * p)
    conv_p = np.clip(conv_p, 0.0, 1.0)
    conv_gp = np.maximum(conv_gp, 0.0)
    return (g * (1.0 - conv_p) + conv_gp) * (1.0 - p)


def full_grid_rhs(u: GridField, params: ModelParams, stencil: ConvolutionStencil,
                  growth: GrowthLaw) -> np.ndarray:
    """Right-hand side of ``params.model`` at every cell of ``u``."""
    if params.model == "gamma":
        return rhs_gamma_full_grid(u, stencil, growth, params.gamma)
    return rhs_singular(u, stencil, growth, params.model == "generalized_singular")


def step(u: GridField, params: ModelParams, stencil: ConvolutionStencil,
         growth: GrowthLaw) -> tuple[GridField, np.ndarray]:
    """One clamped explicit Euler step with the direct convolution.

    Returns the advanced field and the boolean mask of cells clamped at the
    ceiling on this step.  Clamping realizes the constraint u <= 1 exactly and
    is what drives cells into the saturated set in finite time.  ``run`` and
    the comparison harnesses step with ``_euler_steps`` instead; this one is
    their test oracle.
    """
    _check_stepping(u, params, stencil, growth)
    rhs = full_grid_rhs(u, params, stencil, growth)
    proposed = u.values + params.dt * rhs
    clamped = proposed > 1.0
    new_values = np.minimum(proposed, 1.0)
    return GridField(new_values, u.spacing, u.origin, u.time + params.dt), clamped


def direct_loop(u0, params, stencil, growth, n_steps):
    """``step`` n times with full-grid monitors, the running max of
    ``discrete_lipschitz`` among them, and first-crossing times."""
    u = u0
    sat_time = np.where(saturated_mask(u.values), 0.0, np.inf)
    monitors = {"min_u": float(u.values.min()), "max_u": float(u.values.max()),
                "max_rhs": 0.0, "time_monotonicity_gap": 0.0,
                "max_lipschitz": discrete_lipschitz(u)}
    clamped_total = 0
    for _ in range(n_steps):
        rhs = full_grid_rhs(u, params, stencil, growth)
        new, clamped = step(u, params, stencil, growth)
        clamped_total += int(np.count_nonzero(clamped))
        monitors["min_u"] = min(monitors["min_u"], float(new.values.min()))
        monitors["max_u"] = max(monitors["max_u"], float(new.values.max()))
        monitors["max_rhs"] = max(monitors["max_rhs"], float(rhs.max(initial=0.0)))
        monitors["time_monotonicity_gap"] = max(
            monitors["time_monotonicity_gap"], float((u.values - new.values).max()))
        u = new
        sat_time[saturated_mask(u.values) & np.isinf(sat_time)] = u.time
        monitors["max_lipschitz"] = max(monitors["max_lipschitz"], discrete_lipschitz(u))
    return u, sat_time, monitors, clamped_total


def obstacle_residual(u_before: GridField, u_after: GridField, dt: float,
                      stencil: ConvolutionStencil, growth: GrowthLaw) -> np.ndarray:
    """Max-form residual of the constrained evolution across one accepted step.

    The evolution bracket is evaluated at the post-step state, so the residual
    measures the combined time/space discretization error instead of the
    identically-zero defect of the explicit update itself.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    du = (u_after.values - u_before.values) / dt
    mask = saturated_mask(u_after.values)
    bracket = _saturated_bracket(u_after.values, convolve_mask(stencil, mask), growth,
                                 generalized=False)
    return np.maximum(u_after.values - 1.0, du - bracket)


def gradient_tv_surrogate(stencil: ConvolutionStencil) -> float:
    """Total variation of the kernel gradient measured on the discrete stencil."""
    density = stencil.dense / stencil.grid_spacing ** stencil.dim
    padded = np.pad(density, 1)
    total = 0.0
    for axis in range(stencil.dim):
        total += float(np.sum(np.abs(np.diff(padded, axis=axis))))
    return total * stencil.grid_spacing ** (stencil.dim - 1)


def local_production(u: GridField, stencil: ConvolutionStencil,
                     growth: GrowthLaw, gamma: float) -> np.ndarray:
    """Local birth term of the finite-pressure model, g(u)(1 - K*p).

    The full right-hand side differs from it by a rearrangement operator whose
    grid sum vanishes by stencil symmetry, so summing this term tracks the
    total mass produced per unit time.
    """
    p = u.values ** gamma
    conv_p = np.clip(convolve_dense(stencil, p)[0], 0.0, 1.0)
    return np.asarray(growth(u.values), dtype=float) * (1.0 - conv_p)


def ball_convolution_on_ray(kernel: Kernel, ball_radius: float,
                            s_values: np.ndarray) -> np.ndarray:
    """K * 1_{B_R} evaluated at radial points |x| = R + s, d = 2 only.

    Needs a finite R > 0 and R + s > 0 for every s.  The circle of radius rho
    around x lies in B_R for rho <= -s and crosses its boundary for |s| < rho
    < 2R + s; ``legendre_quad`` integrates on exactly these ranges, cut at ell.
    """
    if kernel.dim != 2:
        raise KernelError("ball convolution ray is defined for dim 2")
    R, s = float(ball_radius), np.asarray(s_values, dtype=float)
    if not 0.0 < R < math.inf or not np.all(R + s > 0.0):
        raise KernelError("ball radius R must be positive and finite, with R + s > 0")
    ell, x1 = kernel.radius, (R + s)[..., None]

    def crossing(rho):
        cos_lim = (x1 * x1 + rho * rho - R * R) / (2.0 * x1 * rho)
        return kernel.profile(rho) * rho * 2.0 * np.arccos(np.clip(cos_lim, -1.0, 1.0))

    return (legendre_quad(crossing, np.abs(s), np.minimum(2.0 * R + s, ell),
                          "cap inequality")
            + legendre_quad(lambda rho: kernel.profile(rho) * rho * 2.0 * math.pi,
                            0.0, np.minimum(-s, ell), "cap inequality"))


class CapInequalityReport(NamedTuple):
    """Worst-case gap between the damped front profile and the ball convolution."""

    radii: tuple[float, ...]
    max_violation: tuple[float, ...]
    least_nonviolating_radius: float | None
    tolerance: float = CAP_VIOLATION_TOL


def check_cap_inequality(kernel: Kernel, delta: float,
                         R_list: Sequence[float],
                         n_samples: int = 81) -> CapInequalityReport:
    """Evaluate (1-delta)*h(|x|-R) <= K*1_{B_R}(x) along a radial ray.

    ``legendre_quad`` integrates both sides, so any radial 2-d kernel serves.

    For each R the report holds the maximum of the left side minus the right
    side over |x| in [R, R+ell]; a value above the tolerance is a violation.
    Every R must be positive and finite.
    """
    if kernel.dim != 2:
        raise KernelError("cap inequality check is for dim 2 kernels")
    if not 0.0 < delta < 1.0:
        raise KernelError("delta must lie in (0, 1)")
    radii = [float(R) for R in R_list]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise KernelError("R_list must be strictly increasing")

    profile = quad_front_profile(kernel)
    s_vals = np.linspace(0.0, kernel.radius, n_samples)
    lhs = (1.0 - delta) * profile(s_vals)
    worst = []
    least = None
    for R in radii:
        rhs = ball_convolution_on_ray(kernel, R, s_vals)
        gap = float(np.max(lhs - rhs))
        worst.append(gap)
        if least is None and gap <= CAP_VIOLATION_TOL:
            least = R
    return CapInequalityReport(radii=tuple(radii), max_violation=tuple(worst),
                               least_nonviolating_radius=least)


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


def monotone_in_c_check(c0: float, c1: float, growth: GrowthLaw,
                        profile: FrontKernelProfile) -> tuple[bool, float]:
    """Check strict ordering phi_{c1} > phi_{c0} where the slower profile is nonnegative.

    Returns the verdict together with the minimum pointwise gap on (0, s0],
    where s0 <= ell is the extent of the nonnegative region of phi_{c0}.
    """
    if not 0 < c0 < c1:
        raise ValueError("speeds must satisfy 0 < c0 < c1")
    slow = shoot_profile(c0, growth, profile, s_max=profile.ell)
    fast = shoot_profile(c1, growth, profile, s_max=profile.ell)
    nonneg = slow.phi >= 0.0
    if not nonneg[0]:
        raise ValueError("slower profile is negative at the origin")
    upto = len(nonneg) if nonneg.all() else int(np.argmin(nonneg))
    gaps = fast.phi[1:upto] - slow.phi[1:upto]
    if gaps.size == 0:
        return True, 0.0
    min_gap = float(gaps.min())
    return min_gap > 0.0, min_gap
