"""Independent oracles and frozen expected values for the test suite.

Every frozen constant below was produced by at least two independent routes
before the library code under test existed; the derivations are kept here so
the numbers can be regenerated.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, optimize

from satspread import waves
from satspread.analysis import _dilate_one_cell
from satspread.errors import BracketError, ScientificError
from satspread.kernels import FFT_ZERO_FLOOR, _fast_length, convolve_field
from satspread.output import SCHEMA_VERSION, _jsonable
from satspread.waves import (DEFAULT_SPEED_TOL, DEFAULT_STEP_FRACTION,
                             MinimalSpeedResult, WaveProfile)

# Minimal spreading speed for g(u) = u, 1-d indicator kernel with radius 1.
# Route 1: the profile equation -c phi' = phi (1 - h) + h with h = (1-s)/2 is
# linear, so phi(1) = 0 reduces to the scalar root of
#   (1/(2c)) * int_0^1 exp((2t + t^2)/(4c)) (1 - t) dt = 1,
# solved with Brent + Gauss-Kronrod quadrature.
# Route 2: explicit-midpoint shooting at step 1e-4 with sign bisection agrees
# to 3.5e-9.
C_STAR_LINEAR_1D = 0.436324701286004

# Front profile of the 2-d indicator kernel at s = ell/2: the circular segment
# {u1 >= 1/2} of the unit disc over the disc area,
#   (arccos(1/2) - (1/2) sqrt(3)/2) / pi.
# A 2-d midpoint Riemann sum at cell 1/3000 agrees to 1.3e-8.
H2D_INDICATOR_HALF = 0.1955011094778853

# Cone kernel K(rho) proportional to (1 - rho/ell):
# d=1 normalized mass ell, h(s) = (ell-s)^2 / (2 ell^2), so h(ell/2) = 1/8.
CONE_1D_H_HALF = 0.125
# d=2: polar quadrature of the half-plane mass; a 2-d Riemann sum at cell
# 1/3000 gives 0.110068969722521 (agrees to 5.7e-9).
CONE_2D_H_HALF = 0.11006897540731013


def c_star_quadrature_root(ell: float = 1.0) -> float:
    """Recompute the frozen minimal speed through the linear-ODE reduction."""

    def gap(c: float) -> float:
        val, _ = integrate.quad(
            lambda t: np.exp((2 * t + t * t) / (4 * c)) * (1 - t), 0.0, 1.0,
            epsabs=1e-13, epsrel=1e-13)
        return val / (2 * c) - 1.0

    return ell * optimize.brentq(gap, 0.3, 0.6, xtol=1e-12)


def h1d_indicator(s, ell: float = 1.0):
    """Closed-form front profile of the 1-d indicator kernel."""
    return np.clip((ell - np.asarray(s, dtype=float)) / (2.0 * ell), 0.0, 1.0)


def h2d_indicator(s, ell: float = 1.0):
    """Closed-form circular-segment front profile of the 2-d indicator kernel."""
    z = np.clip(np.asarray(s, dtype=float) / ell, -1.0, 1.0)
    return (np.arccos(z) - z * np.sqrt(1.0 - z * z)) / np.pi


def _quad(f, a: float, b: float, points=()) -> float:
    inner = [x for x in points if a < x < b]
    if b <= a:
        return 0.0
    return integrate.quad(f, a, b, points=inner or None, epsabs=1e-14,
                          epsrel=1e-14, limit=500)[0]


def quad_kernel_mass(kernel) -> float:
    """Mass of a normalized kernel's continuum profile, one scalar quad."""
    if kernel.dim == 1:
        return 2.0 * _quad(lambda z: float(kernel.profile(z)), 0.0, kernel.radius)
    return 2.0 * math.pi * _quad(lambda z: float(kernel.profile(z)) * z,
                                 0.0, kernel.radius)


def quad_front_value(kernel, s: float) -> float:
    """Front profile h(s), 0 <= s <= ell, by per-point adaptive quadrature."""
    if kernel.dim == 1:
        return _quad(lambda z: float(kernel.profile(z)), s, kernel.radius)
    return _quad(lambda rho: float(kernel.profile(rho)) * rho * 2.0
                 * math.acos(min(s / rho, 1.0)), s, kernel.radius)


def quad_ball_on_ray(kernel, R: float, s: float) -> float:
    """K * 1_{B_R} at |x| = R + s, 0 <= s, by per-point adaptive quadrature.

    The circle of radius rho around x meets B_R in an arc of half-angle
    acos((x^2 + rho^2 - R^2) / (2 x rho)) when that cosine lies in [-1, 1].
    """
    x = R + s

    def arc(rho):
        cos_lim = (x * x + rho * rho - R * R) / (2.0 * x * rho)
        if cos_lim >= 1.0:
            return 0.0
        return float(kernel.profile(rho)) * rho * 2.0 * math.acos(max(cos_lim, -1.0))

    return _quad(arc, s, kernel.radius, points=(2.0 * R + s,))


def rim_tolerant_stencil(ell: float, dim: int, dx: float):
    """(offsets, weights, dense) of the indicator stencil as built before its
    zero-weight rim taps were dropped: every offset with |offset| dx <= ell
    (1 + 1e-12), weighted 1/volume where |offset| dx <= ell, renormalized."""
    m = int(math.floor(ell / dx * (1 + 1e-12)))
    axis = np.arange(-m, m + 1)
    if dim == 1:
        offsets = axis.reshape(-1, 1)
        radii = np.abs(axis) * dx
    else:
        ox, oy = np.meshgrid(axis, axis, indexing="ij")
        offsets = np.stack([ox.ravel(), oy.ravel()], axis=1)
        radii = np.hypot(offsets[:, 0], offsets[:, 1]) * dx
    inside = radii <= ell * (1 + 1e-12)
    offsets, radii = offsets[inside], radii[inside]
    volume = 2.0 * ell if dim == 1 else math.pi * ell * ell
    raw = np.where(radii <= ell, 1.0 / volume, 0.0) * dx ** dim
    weights = raw / raw.sum()
    dense = np.zeros((2 * m + 1,) * dim)
    dense[tuple((offsets + m).T)] = weights
    return offsets, weights, dense


def riemann_h2d(s: float, ell: float = 1.0, cells_per_ell: int = 2000) -> float:
    """2-d midpoint Riemann sum of the indicator kernel mass ahead of a front."""
    d = ell / cells_per_ell
    ax = (np.arange(-cells_per_ell, cells_per_ell) + 0.5) * d
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    inside = X * X + Y * Y <= ell * ell
    return float(np.sum(inside & (X >= s)) * d * d / (np.pi * ell * ell))


def brute_convolve(stencil, values: np.ndarray) -> np.ndarray:
    """Direct double-loop convolution with zero extension (small grids only)."""
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    if stencil.dim == 1:
        n = len(values)
        for i in range(n):
            acc = 0.0
            for off, w in zip(stencil.offsets[:, 0], stencil.weights):
                j = i - off
                if 0 <= j < n:
                    acc += w * values[j]
            out[i] = acc
        return out
    nx, ny = values.shape
    for i in range(nx):
        for j in range(ny):
            acc = 0.0
            for (oi, oj), w in zip(stencil.offsets, stencil.weights):
                a, b = i - oi, j - oj
                if 0 <= a < nx and 0 <= b < ny:
                    acc += w * values[a, b]
            out[i, j] = acc
    return out


def convolve_field_direct(stencil, values: np.ndarray) -> np.ndarray:
    """The shifted-slice sum over the whole box, as a bit-for-bit oracle.

    One zero-padded slice per nonzero tap, in reversed row-major tap order,
    is added to every output of the box, in 1-d and 2-d alike.
    """
    values = np.asarray(values, dtype=float)
    r, dense = stencil.reach, stencil.dense
    padded = np.pad(values, r)
    out = np.zeros_like(values)
    for tap in reversed(np.argwhere(dense).tolist()):
        out += dense[tuple(tap)] * padded[tuple(
            slice(2 * r - t, 2 * r - t + n) for t, n in zip(tap, values.shape))]
    return out


def convolve_1d_plain(stencil, values: np.ndarray) -> np.ndarray:
    """The centered part of ``np.convolve``'s full convolution of a 1-d
    field, as a bit-for-bit oracle of the 1-d ``kernels.convolve_dense``."""
    r = stencil.reach
    return np.convolve(values, stencil.dense, "full")[r:r + values.shape[0]]


def convolve_dense_plain(stencil, *fields: np.ndarray) -> np.ndarray:
    """The 2-d ``kernels.convolve_dense`` written plainly, as a bit-for-bit
    oracle: the fields stacked, their support found by ``np.flatnonzero``,
    the padded length searched afresh, and the floor applied by a boolean
    assignment before the box is copied into the zeroed result."""
    stack = np.stack([np.asarray(f, dtype=float) for f in fields])
    out = np.zeros_like(stack)
    support = stack.any(axis=0)
    rows = np.flatnonzero(support.any(axis=1))
    if rows.size == 0:
        return out
    cols = np.flatnonzero(support.any(axis=0))
    r = stencil.reach
    nx, ny = support.shape
    a0, a1, b0, b1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
    shape = tuple(_fast_length.__wrapped__(n + 2 * r) for n in (a1 - a0, b1 - b0))
    spectrum = (np.fft.rfft2(stack[:, a0:a1, b0:b1], s=shape)
                * np.fft.rfft2(stencil.dense, s=shape))
    i0, i1 = max(a0 - r, 0), min(a1 + r, nx)
    j0, j1 = max(b0 - r, 0), min(b1 + r, ny)
    box = np.fft.irfft2(spectrum, s=shape)[:, i0 - a0 + r:i1 - a0 + r,
                                           j0 - b0 + r:j1 - b0 + r]
    magnitude = np.abs(box)
    box[magnitude <= FFT_ZERO_FLOOR * magnitude.max(axis=(1, 2), keepdims=True)] = 0.0
    out[:, i0:i1, j0:j1] = box
    return out


def write_csv_one_template(path: Path, header: list[str], columns,
                           config: dict | None = None) -> None:
    """The CSV writer with one ``"%.16e"`` template for the whole table, as a
    byte-for-byte oracle: every value is formatted in turn."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    lines = [f"# schema_version={SCHEMA_VERSION}"]
    if config is not None:
        lines.append("# config=" + json.dumps(_jsonable(config), sort_keys=True,
                                              separators=(",", ":")))
    lines.append(",".join(header))
    row = ",".join(["%.16e"] * len(columns)) + "\n"
    table = np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)
    body = (row * n) % tuple(table.ravel().tolist())
    Path(path).write_text("\n".join(lines) + "\n" + body, encoding="utf-8",
                          newline="\n")


def lipschitz_initial_data(rng: np.random.Generator, shape, spacing: float,
                           plateau_probability: float = 0.5) -> np.ndarray:
    """Random Lipschitz field in [0, 1], sometimes with a saturated plateau."""
    if isinstance(shape, int):
        shape = (shape,)
    coarse = max(4, shape[0] // 8)
    nodes = rng.uniform(0.0, 1.0, size=(coarse,) * len(shape))
    out = nodes
    for axis in range(len(shape)):
        x_old = np.linspace(0.0, 1.0, out.shape[axis])
        x_new = np.linspace(0.0, 1.0, shape[axis])
        out = np.apply_along_axis(
            lambda col: np.interp(x_new, x_old, col), axis, out)
    out = np.clip(out, 0.0, 1.0)
    if rng.uniform() < plateau_probability:
        center = tuple(rng.integers(0, n) for n in shape)
        grids = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
        dist = np.sqrt(sum((g - c) ** 2 for g, c in zip(grids, center)))
        radius = rng.uniform(2.0, max(3.0, shape[0] / 6))
        out = np.maximum(out, np.clip(radius - dist, 0.0, 1.0))
    return out


def _extended_direct(growth, y) -> float:
    # Constant extension outside [0, 1]: zero below, g(1) above.
    if y <= 0.0:
        return 0.0
    if y >= 1.0:
        return growth.g1
    return float(growth(y))


def shoot_profile_direct(c: float, growth, profile, s_max: float | None = None,
                         ode_step: float | None = None) -> WaveProfile:
    """The RK4 profile shooter on numpy values, as a bit-for-bit oracle.

    Each g goes through the law's array call on a 0-d array, h is read as
    numpy scalars and phi is written into a preallocated array; the step,
    the nodes and the operation order are those of ``shoot_profile``.
    """
    ell = profile.ell
    s_max = 2.0 * ell if s_max is None else s_max
    ode_step = ell * DEFAULT_STEP_FRACTION if ode_step is None else ode_step
    per_ell = int(math.ceil(ell / ode_step - 1e-12))
    step = ell / per_ell
    n = int(math.ceil(s_max / step - 1e-12))
    s = step * np.arange(n + 1)
    h_nodes = profile(s)
    h_mids = profile(s[:-1] + 0.5 * step)

    g1 = growth.g1
    inv_c = 1.0 / c
    phi = np.empty(n + 1)
    phi[0] = 1.0
    y = 1.0
    for j in range(n):
        h0 = h_nodes[j]
        hm = h_mids[j]
        h1 = h_nodes[j + 1]
        g = _extended_direct(growth, y)
        k1 = -(g + (g1 - g) * h0) * inv_c
        ym = y + 0.5 * step * k1
        g = _extended_direct(growth, ym)
        k2 = -(g + (g1 - g) * hm) * inv_c
        ym = y + 0.5 * step * k2
        g = _extended_direct(growth, ym)
        k3 = -(g + (g1 - g) * hm) * inv_c
        ye = y + step * k3
        g = _extended_direct(growth, ye)
        k4 = -(g + (g1 - g) * h1) * inv_c
        y += step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        phi[j + 1] = y

    return WaveProfile(c=c, s=s, phi=phi, ell=ell, phi_at_ell=float(phi[per_ell]))


def find_c_star_bisection(growth, profile, tol: float = DEFAULT_SPEED_TOL,
                          ode_step: float | None = None) -> MinimalSpeedResult:
    """``find_c_star`` as plain sign bisection that shoots every midpoint, as
    a bit-for-bit oracle of its bisection replay.  It shoots through
    ``waves.shoot_profile``, so a test's patch of that applies here too."""
    ell = profile.ell
    c_lo = growth.g1 * profile.integral_zero_to_ell()
    c_hi = ell * growth.sup
    if not 0 < c_lo < c_hi:
        raise BracketError(f"degenerate analytic bounds ({c_lo}, {c_hi})")

    def phi_ell(c: float) -> float:
        return waves.shoot_profile(c, growth, profile, s_max=ell,
                                   ode_step=ode_step).phi_at_ell

    phi_lo = phi_ell(c_lo)
    phi_hi = phi_ell(c_hi)
    if not (phi_lo < 0.0 < phi_hi):
        raise BracketError("bracket failure")
    bounds = (c_lo, c_hi)
    while c_hi - c_lo > tol:
        mid = 0.5 * (c_lo + c_hi)
        phi_mid = phi_ell(mid)
        if phi_mid > 0.0:
            c_hi, phi_hi = mid, phi_mid
        else:
            c_lo, phi_lo = mid, phi_mid
    c_star = 0.5 * (c_lo + c_hi)

    wave = waves.shoot_profile(c_star, growth, profile, s_max=ell, ode_step=ode_step)
    interior_min = float(wave.phi[(wave.s > 0.0) & (wave.s < ell)].min())
    if interior_min <= 0.0:
        raise ScientificError(
            f"minimal profile not positive inside (0, ell): min {interior_min:.3e}")
    return MinimalSpeedResult(c_star=c_star, bracket=(c_lo, c_hi), tol=tol,
                              analytic_bounds=bounds, phi_ell_lo=phi_lo,
                              phi_ell_hi=phi_hi, interior_min=interior_min,
                              ode_step=ode_step if ode_step is not None
                              else ell * DEFAULT_STEP_FRACTION)


def support_confinement_per_snapshot(result, stencil,
                                     support_floor: float = 1e-12) -> tuple:
    """``support_confinement_check`` with one convolution of the saturated
    set per snapshot, as an oracle of its rule on saturation times."""
    initial_support = result.snapshots[0] > support_floor
    radii = result.final.radii()
    violations = []
    coverage_idx = None
    max_annulus = -math.inf
    for idx, (snap, mask) in enumerate(zip(result.snapshots, result.masks)):
        allowed = initial_support.copy()
        if mask.any():
            allowed |= convolve_field(stencil, mask) > 0.0
        allowed = _dilate_one_cell(allowed)
        violations.append(int(np.count_nonzero((snap > support_floor) & ~allowed)))
        if coverage_idx is None and bool(mask[initial_support].all()):
            coverage_idx = idx
        if coverage_idx is not None and mask.any():
            width = float(radii[snap > support_floor].max(initial=-math.inf)
                          - radii[mask].max())
            max_annulus = max(max_annulus, width)
    return (tuple(violations), int(sum(violations)), coverage_idx, max_annulus,
            stencil.radius + stencil.grid_spacing)
