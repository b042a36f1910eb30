"""Traveling-wave profiles via shooting and the minimal speed via sign bisection."""
import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import BracketError, ScientificError
from .growth import GrowthLaw
from .kernels import FrontKernelProfile

#: Default fixed step of the fourth-order integrator, as a fraction of ell.
DEFAULT_STEP_FRACTION = 1.0 / 2000
#: Default bracket-width tolerance of the speed bisection.
DEFAULT_SPEED_TOL = 1e-8
#: Most regula falsi shots that ``find_c_star`` spends to locate the root.
_LOCATE_SHOTS = 16
#: Most final cells whose ends ``find_c_star`` shoots per shooter: the located
#: root's, then those of its secant re-estimates.
_CELL_TRIES = 3
#: |phi(ell)| below this marks a profile as the minimal (semi-compact) wave.
_MINIMAL_TOL = 1e-6


class WaveProfile(NamedTuple):
    """Wave profile phi(s) on [0, s_max] with phi = 1 for s <= 0.

    Values may go negative past a sign change; that excursion is the signal
    the speed bisection keys on, not a usable density.
    """

    c: float
    s: np.ndarray
    phi: np.ndarray
    ell: float
    phi_at_ell: float


class MinimalSpeedResult(NamedTuple):
    """Minimal spreading speed with its certified bracket and analytic bounds."""

    c_star: float
    bracket: tuple[float, float]
    tol: float
    analytic_bounds: tuple[float, float]
    phi_ell_lo: float
    phi_ell_hi: float
    interior_min: float
    ode_step: float


def shoot_profile(c: float, growth: GrowthLaw, profile: FrontKernelProfile,
                  s_max: float | None = None,
                  ode_step: float | None = None) -> WaveProfile:
    """Integrate the profile equation -c phi' = g(phi) + (g(1)-g(phi)) h(s).

    Classical fourth-order single-step integration with a fixed step chosen so
    that s = ell lands exactly on a node.  Integration continues past a sign
    change; only the sign at ell matters below the minimal speed.  The loop
    runs on Python floats: g is the law's own ``fn``, extended by 0 below 0
    and by g(1) above 1, and gives the same bits as on arrays.
    """
    ell = profile.ell
    if not c > 0:
        raise ValueError("wave speed must be positive")
    if s_max is None:
        s_max = 2.0 * ell
    if not s_max >= ell:
        raise ValueError("s_max must reach at least ell")
    if ode_step is None:
        ode_step = ell * DEFAULT_STEP_FRACTION
    if not 0 < ode_step <= ell / 200:
        raise ValueError("ode_step must lie in (0, ell/200]")

    per_ell = int(math.ceil(ell / ode_step - 1e-12))
    step = ell / per_ell
    n = int(math.ceil(s_max / step - 1e-12))
    s = step * np.arange(n + 1)
    h_nodes = profile(s).tolist()
    h_mids = profile(s[:-1] + 0.5 * step).tolist()

    f, g1 = growth.fn, growth.g1
    inv_c = 1.0 / c
    phi = [1.0]
    y = 1.0
    for h0, hm, h1 in zip(h_nodes, h_mids, h_nodes[1:]):
        g = 0.0 if y <= 0.0 else g1 if y >= 1.0 else f(y)
        k1 = -(g + (g1 - g) * h0) * inv_c
        ym = y + 0.5 * step * k1
        g = 0.0 if ym <= 0.0 else g1 if ym >= 1.0 else f(ym)
        k2 = -(g + (g1 - g) * hm) * inv_c
        ym = y + 0.5 * step * k2
        g = 0.0 if ym <= 0.0 else g1 if ym >= 1.0 else f(ym)
        k3 = -(g + (g1 - g) * hm) * inv_c
        ye = y + step * k3
        g = 0.0 if ye <= 0.0 else g1 if ye >= 1.0 else f(ye)
        k4 = -(g + (g1 - g) * h1) * inv_c
        y += step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        phi.append(y)

    return WaveProfile(c=c, s=s, phi=np.array(phi), ell=ell,
                       phi_at_ell=float(phi[per_ell]))


def _coarse_step(profile: FrontKernelProfile, ode_step: float) -> float | None:
    """Step of the shots that locate c*, or None if it is not coarser than
    ``ode_step``: the front profile's sample spacing over 2k, for the least k
    that makes it ell/200 or less (k = 1 from a spacing of ell/100 down).
    Every step then lies between two samples, where the interpolated h is
    linear, as RK4's order needs."""
    n_half = max((len(profile.s) - 1) // 2, 1)
    step = profile.ell / (2 * n_half * math.ceil(100 / n_half))
    return step if step > ode_step else None


def find_c_star(growth: GrowthLaw, profile: FrontKernelProfile,
                tol: float = DEFAULT_SPEED_TOL,
                ode_step: float | None = None) -> MinimalSpeedResult:
    """Bisect the sign of phi_c(ell) between the analytic speed bounds.

    The lower bound g(1) * int_0^ell h and the upper bound ell * sup g are
    strict, so the profile must cross zero left of ell at the lower end and
    stay positive at the upper end; anything else indicates a growth law
    outside the assumptions or an under-resolved front profile.

    The bisection is replayed: only its final cell is shot.  Each shooter in
    turn, the coarse one of ``_coarse_step`` (if any), then the one at
    ``ode_step``, locates the root by Anderson-Bjorck regula falsi, if its
    bounds bracket it.  The bisection's midpoints are walked down, unshot, to
    the final cell that holds the located root, and the cell's two ends are
    shot at ``ode_step``.  If ``phi(a) <= 0 < phi(b)``, that cell is the
    result: as phi_c(ell) grows with c (the ordering of the waves in c),
    plain bisection ends in it too.  If not, the secant through the two shots
    estimates the root again, for ``_CELL_TRIES`` cells per shooter.  If no
    cell holds the root, plain bisection runs from the analytic bounds.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not growth.monotone_cap:
        raise ValueError("minimal-speed search requires the growth cap g(u) <= g(1)")
    ell = profile.ell
    if ode_step is None:
        ode_step = ell * DEFAULT_STEP_FRACTION
    c_lo = growth.g1 * profile.integral_zero_to_ell()
    c_hi = ell * growth.sup
    if not 0 < c_lo < c_hi:
        raise BracketError(f"degenerate analytic bounds ({c_lo}, {c_hi})")
    bounds = (c_lo, c_hi)

    def shooter(step: float) -> Callable[[float], float]:
        return functools.cache(lambda c: shoot_profile(
            c, growth, profile, s_max=ell, ode_step=step).phi_at_ell)

    phi_ell = shooter(ode_step)
    phi_lo = phi_ell(c_lo)
    phi_hi = phi_ell(c_hi)
    if not (phi_lo < 0.0 < phi_hi):
        raise BracketError(
            "bracket failure: phi(ell) = "
            f"{phi_lo:.6g} at c={c_lo:.6g} and {phi_hi:.6g} at c={c_hi:.6g}")

    def locate(phi: Callable[[float], float], fa: float, fb: float) -> float:
        # Anderson-Bjorck from the bounds: the secant through (a, fa) and
        # (b, fb).  An end kept twice in a row has its f scaled by
        # m = 1 - fc / f_old, f_old that of the end c replaces (of fc's sign),
        # or halved if m <= 0.  Returns the next secant point.
        (a, b), side = bounds, 0
        for shot in range(_LOCATE_SHOTS + 1):
            c = b - fb * (b - a) / (fb - fa)
            if not a < c < b:
                c = 0.5 * (a + b)
            if b - a <= tol or shot == _LOCATE_SHOTS:
                return c
            fc = phi(c)
            if fc > 0.0:
                m = 1.0 - fc / fb
                b, fb, fa, side = c, fc, fa * (m if m > 0.0 else 0.5) if side > 0 else fa, 1
            else:
                m = 1.0 - fc / fa if fa else 0.0
                a, fa, fb, side = c, fc, fb * (m if m > 0.0 else 0.5) if side < 0 else fb, -1

    def bisect(a: float, b: float) -> tuple[float, float]:
        # shoots the midpoints in (a, b) only: all of them from the bounds,
        # none if a == b, a walk to the final cell that holds a
        lo, hi = bounds
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if a < mid < b:
                a, b = (a, mid) if phi_ell(mid) > 0.0 else (mid, b)
            lo, hi = (lo, mid) if mid >= b else (mid, hi)
        return lo, hi

    def certify(phi: Callable[[float], float]) -> tuple[float, float] | None:
        # the final cell of phi's located root, if its fine ends straddle
        fa, fb = phi(c_lo), phi(c_hi)
        if not fa < 0.0 < fb:
            return None
        root = locate(phi, fa, fb)
        for _ in range(_CELL_TRIES):
            lo, hi = bisect(root, root)
            f_lo, f_hi = phi_ell(lo), phi_ell(hi)
            if f_lo <= 0.0 < f_hi:
                return lo, hi
            if f_hi == f_lo:
                return None
            # a miss: the secant through the cell's two fine shots
            root = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        return None

    coarse = _coarse_step(profile, ode_step)
    for phi in (phi_ell,) if coarse is None else (shooter(coarse), phi_ell):
        cell = certify(phi)
        if cell is not None:
            break
    else:
        cell = bisect(*bounds)
    c_lo, c_hi = cell
    phi_lo, phi_hi = phi_ell(c_lo), phi_ell(c_hi)
    c_star = 0.5 * (c_lo + c_hi)

    wave = shoot_profile(c_star, growth, profile, s_max=ell, ode_step=ode_step)
    interior = wave.phi[(wave.s > 0.0) & (wave.s < ell)]
    interior_min = float(interior.min())
    if interior_min <= 0.0:
        raise ScientificError(
            f"minimal profile not positive inside (0, ell): min {interior_min:.3e}")
    return MinimalSpeedResult(c_star=c_star, bracket=(c_lo, c_hi), tol=tol,
                              analytic_bounds=bounds, phi_ell_lo=phi_lo,
                              phi_ell_hi=phi_hi, interior_min=interior_min,
                              ode_step=ode_step)


def sample_wave(profile: WaveProfile, signed_distance, minimal: bool | None = None):
    """Evaluate the profile as a density: clamped to [0, 1], semi-compact if minimal."""
    if minimal is None:
        minimal = abs(profile.phi_at_ell) <= _MINIMAL_TOL
    s = np.asarray(signed_distance, dtype=float)
    vals = np.interp(s, profile.s, profile.phi, left=1.0, right=0.0)
    if minimal:
        vals = np.where(s >= profile.ell, 0.0, vals)
    return np.clip(vals, 0.0, 1.0)


def export_wave(profile: WaveProfile, direction, offset: float,
                minimal: bool | None = None):
    """Planar sampler x -> phi(x . e - offset), usable as initial or comparison data.

    ``direction`` must be a unit vector; pass a scalar +-1 in one dimension.
    For the minimal-speed profile the sampler vanishes at signed distance ell
    and beyond.
    """
    e = np.atleast_1d(np.asarray(direction, dtype=float))
    norm = float(np.linalg.norm(e))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")

    def sampler(points):
        pts = np.asarray(points, dtype=float)
        if e.size == 1 and pts.ndim <= 1:
            s = pts * e[0] - offset
        elif pts.ndim >= 1 and pts.shape[-1] == e.size:
            s = np.tensordot(pts, e, axes=([-1], [0])) - offset
        else:
            raise ValueError("points must carry one coordinate per direction axis")
        return sample_wave(profile, s, minimal=minimal)

    return sampler
