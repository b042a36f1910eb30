"""Time integration of the pressure-limited growth models on uniform grids."""
import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import InvariantViolation
from .growth import GrowthLaw
from .kernels import (ConvolutionStencil, add_to_mask_convolution, convolve_dense,
                      convolve_field)

MODEL_KINDS = ("gamma", "singular", "generalized_singular")

#: Safety factor in the explicit-Euler step cap.
_CAP_FACTOR = 0.1


class GridField:
    """Density sample on a uniform grid over a box, values kept in [0, 1]."""

    def __init__(self, values: np.ndarray, spacing: float, origin: np.ndarray,
                 time: float = 0.0):
        self.values = np.asarray(values, dtype=float)
        self.spacing = spacing
        self.origin = np.atleast_1d(np.asarray(origin, dtype=float))
        self.time = time
        if self.values.ndim not in (1, 2):
            raise ValueError("fields must be 1-d or 2-d")
        if len(self.origin) != self.values.ndim:
            raise ValueError("origin length must match field dimension")
        # Written so that NaN fails the test: every comparison with NaN is False.
        if self.values.size and not (self.values.min() >= 0.0
                                     and self.values.max() <= 1.0):
            raise ValueError("field values must be finite and lie in [0, 1]")

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing * np.arange(self.shape[axis])

    def coords(self) -> np.ndarray:
        """Cell-center coordinates, shape ``shape + (dim,)``."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack(grids, axis=-1)

    def radii(self) -> np.ndarray:
        """Distance of each cell center from the coordinate origin.

        The squared axis coordinates are added in axis order on their open
        mesh, the arithmetic of ``np.linalg.norm(self.coords(), axis=-1)``
        without its stack of coordinates."""
        return np.sqrt(sum(np.ix_(*(self.axis_coords(a) ** 2
                                    for a in range(self.dim)))))

    def copy(self) -> "GridField":
        return GridField(self.values.copy(), self.spacing, self.origin.copy(),
                         self.time)


def grid_field(box_radius: float, spacing: float, dim: int,
               fn: Callable[[np.ndarray], np.ndarray] | None = None) -> GridField:
    """Symmetric box [-R, R]^dim sampled at cell centers; ``fn`` maps radius to density."""
    n = int(round(box_radius / spacing))
    if n < 1:
        raise ValueError("box must contain at least one cell per side")
    origin = np.full(dim, -n * spacing)
    shape = (2 * n + 1,) * dim
    out = GridField(np.zeros(shape), spacing, origin)
    if fn is None:
        return out
    return GridField(np.clip(np.asarray(fn(out.radii()), dtype=float), 0.0, 1.0),
                     spacing, origin)


class _ModelFields(NamedTuple):
    model: str
    dt: float
    t_end: float
    gamma: float | None = None


class ModelParams(_ModelFields):
    """Model selection and stepping parameters, checked when built."""

    __slots__ = ()
    # ``_replace`` builds through ``_make``, so it runs the checks too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model {self.model!r}")
        # Written so that NaN fails each test: every comparison with NaN is False.
        if self.model == "gamma" and not 1 <= (self.gamma or 0) < math.inf:
            raise ValueError("gamma model requires gamma >= 1, finite")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0 <= self.t_end < math.inf:
            raise ValueError("t_end must be nonnegative and finite")
        return self


def stability_cap(model: str, growth: GrowthLaw, gamma: float | None = None) -> float:
    """Largest admissible explicit step for the chosen model."""
    L = growth.lipschitz
    if model == "gamma":
        return _CAP_FACTOR / (gamma * L)
    rate = growth.sup
    if model == "generalized_singular":
        if growth.gain is None:
            raise ValueError("generalized model requires a gain law")
        rate = growth.sup + growth.gain
    return _CAP_FACTOR / max(L, rate)


def _check_step_cap(params: ModelParams, growth: GrowthLaw) -> None:
    cap = stability_cap(params.model, growth, params.gamma)
    # Written so that a NaN cap fails the test: every comparison with NaN is False.
    if not params.dt <= cap * (1 + 1e-12):
        raise ValueError(f"dt = {params.dt} exceeds the stability cap {cap:.6g}")


def _check_stepping(u: GridField, params: ModelParams, stencil: ConvolutionStencil,
                    growth: GrowthLaw) -> None:
    if stencil.grid_spacing != u.spacing:
        raise ValueError("stencil and field grid spacing differ")
    _check_step_cap(params, growth)
    # The stepping band leaves out cells with u = 0 and K * 1_S = 0, where the
    # rhs is g(0); a directly built GrowthLaw has not been verified.
    if growth.fn(0.0) != 0.0:
        raise ValueError("growth must vanish at zero density: g(0) != 0")


def saturated_mask(values: np.ndarray) -> np.ndarray:
    """The saturated set ``S``: the cells on the obstacle ``u = 1``."""
    return np.asarray(values) >= 1.0


def rhs_gamma(u: GridField, stencil: ConvolutionStencil, growth: GrowthLaw,
              gamma: float, box: tuple[slice, ...] = ()) -> np.ndarray:
    """Right-hand side of the finite-pressure model with p = u**gamma on the
    cells of ``box`` (default: all).  ``_euler_steps`` passes the bounding box
    of ``u > 0`` dilated by ``reach`` (1-d: ``2 * reach``, so each output
    within reach of the support is an all-taps ``np.convolve`` dot product).
    Off it ``u = g(u) = K*p = K*(g p) = 0``; in it the bits are the grid's."""
    if not 1 <= gamma < math.inf:
        raise ValueError("gamma must be finite and >= 1")
    v = u.values[box]
    p = _pressure(v, gamma)
    g = np.asarray(growth(v), dtype=float)
    conv_p, conv_gp = convolve_dense(stencil, p, g * p)
    # The 2-d FFT path agrees with the direct sum only to rounding; with both
    # terms clipped rhs >= 0 holds exactly, and with it pointwise time
    # monotonicity.
    conv_p = np.clip(conv_p, 0.0, 1.0)
    conv_gp = np.maximum(conv_gp, 0.0)
    return (g * (1.0 - conv_p) + conv_gp) * (1.0 - p)


def _pressure(v: np.ndarray, gamma: float) -> np.ndarray:
    """``v ** gamma``, with the slow ``pow`` of 0 and of underflows skipped below
    ``2**(-1100/gamma)``: there ``v**gamma < 2**-1100``, and +0.0 is kept."""
    return np.power(v, gamma, out=np.zeros_like(v), where=v >= 2.0 ** (-1100.0 / gamma))


class _Band(NamedTuple):
    """Cells where the saturated-model rhs can be nonzero, with the terms of
    that rhs, ``g(u) * free + spill``, which change only when a cell joins
    ``S``; ``c`` is ``K * 1_S`` clipped to [0, 1]."""

    cells: np.ndarray  # flat indices
    free: np.ndarray | float  # 1 - c; generalized: 1.0
    spill: np.ndarray  # g(1) c; generalized: gain * c


def _band(sat: np.ndarray, mask_conv: np.ndarray, values: np.ndarray,
          grown: np.ndarray, box: tuple[slice, ...], growth: GrowthLaw,
          generalized: bool) -> _Band:
    """The stepping band of the saturated models, given ``mask_conv = K * 1_S``:
    exactly the unsaturated cells with ``u > 0`` or ``K * 1_S > 0``, no halo.

    Off the band and off ``S`` the rhs is exactly 0 (``g(0) = 0``), and a step
    keeps ``S`` at 1.0, so stepping the band keeps every bit of a full-grid
    step.  The band changes only when a cell joins ``S``, and then only within
    ``reach`` of the new cells, where ``S`` and ``K * 1_S`` changed: only the
    cells of ``box``, a tuple of slices, are recomputed in ``grown``, the band
    as a mask of the grid (all False and the whole grid: built from scratch).
    ``K * 1_S`` is a sum of nonnegative terms started at +0.0, and off ``S``
    ``g(u) * free + spill`` has every bit of ``g(u)(1 - c) + g(1) c``
    (generalized: ``g(u) + gain * c``).
    """
    grown[box] = ((values[box] > 0.0) | (mask_conv[box] > 0.0)) & ~sat[box]
    cells = grown.ravel().nonzero()[0]
    conv = np.minimum(mask_conv.ravel()[cells], 1.0)
    if generalized:
        return _Band(cells, 1.0, growth.gain * conv)
    return _Band(cells, 1.0 - conv, growth.g1 * conv)


def model_rhs(u: GridField, params: ModelParams, stencil: ConvolutionStencil,
              growth: GrowthLaw, band: _Band | tuple[slice, ...],
              values: np.ndarray) -> np.ndarray:
    """Right-hand side of ``params.model`` at ``u``: of the gamma model on the
    live box ``band``, and of a saturated model at the cells of ``band``, the
    ``_Band`` of ``_euler_steps``, whose densities are ``values``."""
    if params.model == "gamma":
        return rhs_gamma(u, stencil, growth, params.gamma, band)
    # the bracket of the saturated model, off S
    return growth.fn(values) * band.free + band.spill


def _step_count(params: ModelParams) -> tuple[int, float]:
    """The number of steps to ``t_end`` and the length of the last: whole ``dt``
    steps, then a shorter one if ``t_end`` passes a multiple by over 1e-12 t_end."""
    n_full = int(math.floor(params.t_end / params.dt * (1 + 1e-12)))
    remainder = params.t_end - n_full * params.dt
    if remainder <= 1e-12 * params.t_end:
        return n_full, params.dt
    return n_full + 1, remainder


def _snapshot_steps(params: ModelParams, interval: float | None) -> set[int]:
    """The steps, counted from 1, after which ``run`` takes a snapshot: the
    last, and the first step whose end (``k * dt``, or ``t_end``) reaches each
    multiple of ``interval`` up to ``t_end``, within a relative 1e-12."""
    last = _step_count(params)[0]
    multiples = 0 if interval is None else math.floor(params.t_end / interval * (1 + 1e-12))
    return {min(math.ceil(m * interval / params.dt * (1 - 1e-12)), last)
            for m in range(1, multiples + 1)} | ({last} if last else set())


def _euler_steps(u0: GridField, params: ModelParams, stencil: ConvolutionStencil,
                 growth: GrowthLaw) -> Iterator[tuple]:
    """Clamped explicit Euler steps from ``u0`` to ``params.t_end``.

    Yields ``(u, before, after, lo, hi, rhs, proposed, newly, written)``
    after each step: the advanced field; on the band of cells the step wrote,
    their densities before and after, the least of ``after`` if the rhs has
    an entry below 0 (else None), the greatest (``-inf`` on an empty band),
    their right-hand side and the unclamped update ``before + dt * rhs``
    (the array ``after`` itself on a step where no cell reaches 1); the
    flat indices, ascending, of the cells that joined the saturated set
    ``S``; and the band, as flat indices.  Every cell off the band kept its
    density and had rhs 0.0.  ``u`` is one copy of ``u0``, advanced in place:
    every step writes its band into it, so a caller that keeps a state across
    steps copies it, and ``u0`` is never written.  While the band stands, a
    step's ``before`` is the last step's ``after``, the same array, so neither
    is written after it is yielded.  The steps are those of ``_step_count``.

    For the saturated models ``K * 1_S``, the only nonlocal term, is
    convolved once and then updated at the cells that join ``S``, the rhs
    terms that depend on it alone are kept with the band, and only the cells
    of ``_band`` are stepped, with every bit of a full-grid step; no step
    writes ``S``.  The copy holds 0.0 where ``u0`` holds -0.0, as a step would
    write there, and no step writes -0.0, so a vacuum is never live.  The
    gamma model steps its live box (see ``rhs_gamma``), found again after a
    step that leaves more cells with ``u > 0`` (none falls to 0:
    ``rhs >= -L u``, ``dt L <= 0.1``).  A density outside [0, 1] or NaN raises
    ``InvariantViolation``, and so does a cell leaving ``S``.  With
    ``rhs >= 0`` and ``0 <= before <= 1``, ``after`` lies in ``[before, 1]``
    exactly, so both are checked only when the least rhs is below 0 or NaN;
    and a cell joins ``S`` only on a step whose ``hi`` reaches 1.
    """
    _check_stepping(u0, params, stencil, growth)
    u = u0.copy()
    np.add(u.values, 0.0, out=u.values)  # -0.0 + 0.0 is 0.0
    flat = u.values.ravel()
    sat = u.values >= 1.0
    if params.model == "gamma":
        # The live box of rhs_gamma, and its cells as indices: a slice would
        # gather ``before`` as a view of the cells this step overwrites.
        mask_conv, by = None, stencil.reach * (2 if u.dim == 1 else 1)
        band, cells, support = _live_box(u.values, by)
    else:
        # K * 1_S and the band, brought up to date as cells join S.
        mask_conv = convolve_field(stencil, sat.astype(float))
        grown = np.zeros(sat.shape, dtype=bool)
        generalized = params.model == "generalized_singular"
        band = _band(sat, mask_conv, u.values, grown, (slice(None),) * u.dim, growth, generalized)
        cells = band.cells

    n_steps, last_dt = _step_count(params)
    before = None
    for k in range(n_steps):
        dt_k = params.dt if k < n_steps - 1 else last_dt
        written = cells
        if before is None:
            before = flat[cells]
        rhs = model_rhs(u, params, stencil, growth, band, before).ravel()
        proposed = before + dt_k * rhs
        hi = float(np.maximum.reduce(proposed, initial=-np.inf))
        after = proposed
        if hi >= 1.0:
            after, hi = np.minimum(proposed, 1.0), 1.0
        lo = None
        # Only an rhs below 0 (or NaN, which fails the test) moves a cell down.
        if not np.minimum.reduce(rhs, initial=0.0) >= 0.0:
            lo = float(np.minimum.reduce(after, initial=np.inf))
            if not lo >= 0.0:
                raise InvariantViolation(
                    f"density left [0, 1] at t={u.time + dt_k:.6g}"
                    f" (min {lo}, max {float(after.max())})")
            left = np.count_nonzero(sat.ravel()[cells][after < 1.0])
            if left:
                raise InvariantViolation(
                    f"{left} cells left the saturated set at t={u.time + dt_k:.6g}")
        flat[cells] = after
        u.time += dt_k
        newly = cells[:0]
        if hi >= 1.0:
            newly = cells[(after >= 1.0).nonzero()[0]]
            if mask_conv is None:  # the gamma model's box holds S too
                newly = newly[~sat.ravel()[newly]]
        if newly.size:
            sat.ravel()[newly] = True
            if mask_conv is not None:
                add_to_mask_convolution(stencil, mask_conv, newly)
                band = _band(sat, mask_conv, u.values, grown,
                             _around(newly, sat.shape, stencil.reach), growth, generalized)
                cells = band.cells
        if mask_conv is None and np.count_nonzero(after) != support:
            band, cells, support = _live_box(u.values, by)  # a new cell with u > 0
        yield u, before, after, lo, hi, rhs, proposed, newly, written
        before = after if cells is written else None


class RunResult:
    """Trajectory summary with snapshots, saturation times and invariant monitors."""

    def __init__(self, final: GridField, saturation_time: np.ndarray,
                 times: list[float], snapshots: list[np.ndarray],
                 clamped_total: int, monitors: dict[str, float]):
        self.final = final
        self.saturation_time = saturation_time
        self.times = times
        self.snapshots = snapshots
        self.clamped_total = clamped_total
        self.monitors = monitors

    @property
    def masks(self) -> list[np.ndarray]:
        """Saturated set at each snapshot (``S`` only grows)."""
        return [self.saturation_time <= t for t in self.times]


def run(u0: GridField, params: ModelParams, stencil: ConvolutionStencil,
        growth: GrowthLaw, snapshot_interval: float | None = None,
        record_lipschitz: bool = False) -> RunResult:
    """Advance the model to t_end, recording snapshots and invariant monitors.

    Snapshots are taken at t = 0 and after the steps of ``_snapshot_steps``,
    with the time the steps accumulated.  Saturation times use the
    first-crossing convention: the recorded time is the end of the step on
    which a cell first reaches 1.  The steps and their invariant checks are
    those of ``_euler_steps``.  A snapshot interval below ``dt`` (or NaN) is
    rejected.

    The monitors read the band each step wrote: off it the density did not
    change and the rhs was 0.0, and every slope that changed lies in the
    band's bounding box dilated by one cell.  They reuse the step's
    reductions: ``max_u`` is its ``hi``, and ``min_u`` and ``before - after``
    move only where it reduced ``lo``, since otherwise ``before <= after``.
    A clamped cell joins ``S`` on its step (``S`` is not stepped, or has the
    rhs factor ``1 - p = 0``), so clamps are counted only on event steps.
    """
    if snapshot_interval is not None and not snapshot_interval >= params.dt:
        raise ValueError(f"snapshot_interval={snapshot_interval} is below dt={params.dt}")
    u = u0.copy()  # the final field if there is no step
    sat_time = np.where(saturated_mask(u.values), 0.0, np.inf)

    # "mask_monotonicity_violations" stays 0: a shrinking S raises instead.
    min_u, max_u = float(u.values.min()), float(u.values.max())
    max_rhs = gap = 0.0
    lipschitz = discrete_lipschitz(u) if record_lipschitz else 0.0
    band = window = None

    times = [u.time]
    snapshots = [u.values.copy()]
    snapshot_steps = _snapshot_steps(params, snapshot_interval)
    clamped_total = 0
    for k, (u, before, after, lo, hi, rhs, proposed, newly, written) in enumerate(
            _euler_steps(u, params, stencil, growth), 1):
        max_u = max(max_u, hi)
        # ufunc reductions: ndarray.min and .max add a Python-level wrapper
        max_rhs = max(max_rhs, float(np.maximum.reduce(rhs, initial=0.0)))
        if lo is not None:  # the rhs had an entry below 0
            min_u = min(min_u, lo)
            gap = max(gap, float(np.maximum.reduce(before - after, initial=0.0)))
        if newly.size:
            clamped_total += int(np.count_nonzero(proposed > 1.0))
            sat_time.ravel()[newly] = u.time
        if record_lipschitz:
            if written is not band:  # a new band, after an event
                band, window = written, _around(written, u.shape, 1)
            lipschitz = max(lipschitz, _max_slope(u.values[window]) / u.spacing)
        if k in snapshot_steps:
            times.append(u.time)
            snapshots.append(u.values.copy())

    monitors = {"min_u": min_u, "max_u": max_u, "max_rhs": max_rhs,
                "time_monotonicity_gap": gap, "mask_monotonicity_violations": 0.0,
                "max_lipschitz": lipschitz}
    return RunResult(final=u, saturation_time=sat_time, times=times,
                     snapshots=snapshots, clamped_total=clamped_total,
                     monitors=monitors)


def _around(cells: np.ndarray, shape: tuple[int, ...], by: int) -> tuple[slice, ...]:
    """Bounding box of the flat indices ``cells``, in ascending order, dilated
    by ``by`` cells and clipped below at 0."""
    if cells.size == 0:
        return (slice(0, 0),) * len(shape)
    if len(shape) == 1:  # sorted: the box runs from the first to the last
        return (slice(max(int(cells[0]) - by, 0), int(cells[-1]) + by + 1),)
    return tuple(slice(max(int(a.min()) - by, 0), int(a.max()) + by + 1)
                 for a in np.unravel_index(cells, shape))


def _live_box(values: np.ndarray, by: int) -> tuple[tuple[slice, ...], np.ndarray, int]:
    """The bounding box of ``values > 0`` dilated by ``by``, as slices and as
    flat indices, and the number of cells with ``values > 0``."""
    support = np.flatnonzero(values)
    box = _around(support, values.shape, by)
    return box, np.arange(values.size).reshape(values.shape)[box].ravel(), support.size


def _max_slope(values: np.ndarray) -> float:
    """Largest absolute difference between adjacent cells, in density units."""
    return max(float(np.abs(np.diff(values, axis=axis)).max(initial=0.0))
               for axis in range(values.ndim))


def discrete_lipschitz(u: GridField) -> float:
    """Largest absolute slope between adjacent cells."""
    return _max_slope(u.values) / u.spacing
