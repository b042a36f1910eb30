"""Time integration of the pressure-limited growth models on uniform grids."""
import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import InvariantViolation
from .growth import GrowthLaw
from .kernels import (ConvolutionStencil, add_to_mask_convolution, convolve_dense,
                      convolve_field, convolve_mask)

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
        if self.model == "gamma":
            if self.gamma is None or self.gamma < 1:
                raise ValueError("gamma model requires gamma >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
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


def _check_stepping(u: GridField, params: ModelParams, stencil: ConvolutionStencil,
                    growth: GrowthLaw) -> None:
    if stencil.grid_spacing != u.spacing:
        raise ValueError("stencil and field grid spacing differ")
    cap = stability_cap(params.model, growth, params.gamma)
    if params.dt > cap * (1 + 1e-12):
        raise ValueError(f"dt={params.dt} exceeds the stability cap {cap:.6g}")
    # The stepping band leaves out cells with u = 0 and K * 1_S = 0, where the
    # rhs is g(0); a directly built GrowthLaw has not been verified.
    if growth.fn(0.0) != 0.0:
        raise ValueError("growth must vanish at zero density: g(0) != 0")


def saturated_mask(values: np.ndarray) -> np.ndarray:
    """The saturated set ``S``: the cells on the obstacle ``u = 1``."""
    return np.asarray(values) >= 1.0


def rhs_gamma(u: GridField, stencil: ConvolutionStencil, growth: GrowthLaw,
              gamma: float) -> np.ndarray:
    """Right-hand side of the finite-pressure model with p = u**gamma."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    p = u.values ** gamma
    g = np.asarray(growth(u.values), dtype=float)
    conv_p, conv_gp = convolve_dense(stencil, p, g * p)
    # The 2-d FFT path agrees with the direct sum only to rounding; with both
    # terms clipped rhs >= 0 holds exactly, and with it pointwise time
    # monotonicity.
    conv_p = np.clip(conv_p, 0.0, 1.0)
    conv_gp = np.maximum(conv_gp, 0.0)
    return (g * (1.0 - conv_p) + conv_gp) * (1.0 - p)


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


class _Band(NamedTuple):
    """Cells where the saturated-model rhs can be nonzero, with the terms of
    that rhs, ``g(u) * free + spill``, which change only when a cell joins
    ``S``; ``c`` is ``K * 1_S`` clipped to [0, 1]."""

    cells: np.ndarray  # flat indices
    free: np.ndarray  # (1 - c)(1 - 1_S); generalized: 1 - 1_S
    spill: np.ndarray  # g(1) c (1 - 1_S); generalized: gain * c (1 - 1_S)


def _band(sat: np.ndarray, mask_conv: np.ndarray, values: np.ndarray,
          grown: np.ndarray, box: tuple[slice, ...], growth: GrowthLaw,
          generalized: bool) -> _Band:
    """The stepping band of the saturated models, given ``mask_conv = K * 1_S``.

    It holds the unsaturated cells with ``u > 0`` or ``K * 1_S > 0``, dilated
    by one cell along each axis, which adds the saturated cells that border
    each front.  Elsewhere the rhs is exactly 0 (``g(0) = 0`` and
    ``K * 1_S = 0`` off ``S``, and the factor ``1 - 1_S`` on ``S``), so
    stepping the band keeps every bit of a full-grid step, and a density, so
    a slope, changes only within the band's bounding box.  A cell with
    ``u = 0`` and ``K * 1_S = 0`` keeps rhs 0, so the band changes only when
    a cell joins ``S``, and then only within ``reach + 1`` cells of the new
    cells (``reach`` for ``S`` and ``K * 1_S``, one for the halo).

    ``grown`` is the band as a mask of the whole grid.  Only its cells in
    ``box``, a tuple of slices, are recomputed in place, from the cells of
    ``box`` and their neighbours; the rest are kept.  Called on the whole
    grid with ``grown`` all False, this builds the band from scratch.
    ``K * 1_S``, a sum of nonnegative terms started at +0.0, needs no clip
    below.  ``free`` and ``spill`` carry ``1 - 1_S``: 1.0 off ``S``, where
    they keep the bits of ``_saturated_bracket``, and 0.0 on ``S``, where the
    step keeps ``u``.
    """
    # The cells of the box read their neighbours: one cell more per side.
    near = tuple(slice(max(b.start - 1, 0), b.stop + 1) for b in box)
    live = (values[near] > 0.0) | (mask_conv[near] > 0.0)
    live &= ~sat[near]
    dilated = live.copy()
    for axis in range(live.ndim):
        head = (slice(None),) * axis
        dilated[head + (slice(1, None),)] |= live[head + (slice(None, -1),)]
        dilated[head + (slice(None, -1),)] |= live[head + (slice(1, None),)]
    grown[box] = dilated[tuple(slice(b.start - a.start, b.stop - a.start)
                               for a, b in zip(near, box))]
    cells = grown.ravel().nonzero()[0]
    conv = np.minimum(mask_conv.ravel()[cells], 1.0)
    unsaturated = 1.0 - sat.ravel()[cells]
    if generalized:
        return _Band(cells, unsaturated, growth.gain * conv * unsaturated)
    return _Band(cells, (1.0 - conv) * unsaturated, growth.g1 * conv * unsaturated)


def rhs_singular(u: GridField, stencil: ConvolutionStencil, growth: GrowthLaw,
                 generalized: bool = False) -> np.ndarray:
    """Right-hand side of the saturated-dispersal model; zero on the saturated set."""
    mask = saturated_mask(u.values)
    return (_saturated_bracket(u.values, convolve_mask(stencil, mask), growth,
                               generalized) * (1.0 - mask))


def model_rhs(u: GridField, params: ModelParams, stencil: ConvolutionStencil,
              growth: GrowthLaw, band: _Band | None = None,
              values: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side of ``params.model`` at ``u``; given the ``_Band`` of
    ``_euler_steps`` and ``values``, the densities at its cells, that of a
    saturated model at the band's cells only."""
    if params.model == "gamma":
        return rhs_gamma(u, stencil, growth, params.gamma)
    if band is None:
        return rhs_singular(u, stencil, growth, params.model == "generalized_singular")
    # _saturated_bracket's operations, with the band's terms (1 - 1_S folded in)
    return growth.fn(values) * band.free + band.spill


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
    rhs = model_rhs(u, params, stencil, growth)
    proposed = u.values + params.dt * rhs
    clamped = proposed > 1.0
    new_values = np.minimum(proposed, 1.0)
    return GridField(new_values, u.spacing, u.origin, u.time + params.dt), clamped


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

    Yields ``(u, before, after, lo, rhs, proposed, newly, written)`` after
    each step: the advanced field; on the band of cells the step wrote, their
    densities before and after, the least of ``after`` (``+inf`` on an empty
    band) as the invariant check computed it, their right-hand side and the
    unclamped update ``before + dt * rhs``; the flat indices of the cells that
    joined the saturated set ``S``; and the band, as flat indices.  Every
    cell off the band kept its density and had rhs 0.0.  ``u`` is one copy
    of ``u0``, advanced in place: every step writes its band into it, so a
    caller that keeps a state across steps copies it, and ``u0`` is never
    written.  While the band stands, a step's ``before`` is the last step's
    ``after``, the same array, so neither is written after it is yielded.
    The steps are those of ``_step_count``.

    For the saturated models ``K * 1_S``, the only nonlocal term, is
    convolved once and then updated at the cells that join ``S``, the rhs
    terms that depend on it alone are kept with the band, and only the cells
    of ``_band`` are stepped, with every bit of a full-grid step.  The copy
    holds 0.0 where ``u0`` holds -0.0, as a step would write there, and no
    step writes -0.0, so a vacuum is never live.  The gamma model steps the
    whole box, where ``g(u)`` can be nonzero.  A cell leaving ``S`` raises
    ``InvariantViolation``, and so does a density outside [0, 1] or NaN; both
    are checked on every cell the step wrote.
    """
    _check_stepping(u0, params, stencil, growth)
    u = u0.copy()
    np.add(u.values, 0.0, out=u.values)  # -0.0 + 0.0 is 0.0
    flat = u.values.ravel()
    sat = u.values >= 1.0
    if params.model == "gamma":
        # The whole box, as indices: a slice would gather ``before`` as a view
        # of the cells this step overwrites.
        mask_conv, band, cells = None, None, np.arange(flat.size)
    else:
        # K * 1_S and the band, brought up to date as cells join S.
        mask_conv = convolve_field(stencil, sat.astype(float))
        grown = np.zeros(sat.shape, dtype=bool)
        generalized = params.model == "generalized_singular"
        band = _band(sat, mask_conv, u.values, grown,
                     tuple(slice(0, n) for n in sat.shape), growth, generalized)
        cells = band.cells
    sat_band = sat.ravel()[cells]

    n_steps, last_dt = _step_count(params)
    before = None
    for k in range(n_steps):
        dt_k = params.dt if k < n_steps - 1 else last_dt
        written = cells
        if before is None:
            before = flat[cells]
        rhs = model_rhs(u, params, stencil, growth, band, before).ravel()
        proposed = before + dt_k * rhs
        after = np.minimum(proposed, 1.0)
        # min propagates NaN, which fails the test; the clamp caps the max at 1.
        lo = float(np.minimum.reduce(after, initial=np.inf))
        if not lo >= 0.0:
            raise InvariantViolation(
                f"density left [0, 1] at t={u.time + dt_k:.6g}"
                f" (min {lo}, max {float(after.max())})")
        flat[cells] = after
        u.time += dt_k
        # Band cells whose membership of S changed: leaving S raises, and
        # joining it is an event.
        newly = flips = ((after >= 1.0) != sat_band).nonzero()[0]
        if flips.size:
            left = np.count_nonzero(sat_band[flips])
            if left:
                raise InvariantViolation(
                    f"{left} cells left the saturated set at t={u.time:.6g}")
            newly = cells[flips]
            sat.ravel()[newly] = True
            if band is not None:
                add_to_mask_convolution(stencil, mask_conv, sat, newly)
                band = _band(sat, mask_conv, u.values, grown,
                             _around(newly, sat.shape, stencil.reach + 1), growth,
                             generalized)
                cells = band.cells
            sat_band = sat.ravel()[cells]
        yield u, before, after, lo, rhs, proposed, newly, written
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
    band's bounding box (see ``_band``).  They skip what the invariants
    decide.  ``max_u`` is not reduced once it reads 1.0, the clamp's cap (a
    NaN has raised).  With ``rhs >= 0`` and ``before <= 1``,
    ``min(before + dt * rhs, 1) >= before``, so ``before - after`` is reduced
    only on a step with an rhs below 0 or NaN.  A clamped cell ends in ``S``
    and was off it (on ``S`` the rhs has an exact zero factor, ``1 - 1_S``, or
    ``1 - p`` in the gamma model), so ``proposed > 1`` is counted only on
    steps where a cell joins ``S``.
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
    for k, (u, before, after, lo, rhs, proposed, newly, written) in enumerate(
            _euler_steps(u, params, stencil, growth), 1):
        # ufunc reductions: ndarray.min and .max add a Python-level wrapper
        min_u = min(min_u, lo)
        if max_u < 1.0:
            max_u = max(max_u, float(np.maximum.reduce(after, initial=-np.inf)))
        max_rhs = max(max_rhs, float(np.maximum.reduce(rhs, initial=0.0)))
        if not np.minimum.reduce(rhs, initial=0.0) >= 0.0:
            gap = max(gap, float(np.maximum.reduce(before - after, initial=0.0)))
        if newly.size:
            clamped_total += int(np.count_nonzero(proposed > 1.0))
            sat_time.ravel()[newly] = u.time
        if record_lipschitz:
            if written is not band:  # a new band, after an event
                band, window = written, _around(written, u.shape, 0)
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


def _around(cells: np.ndarray, shape: tuple[int, ...], by: int) -> tuple[slice, ...]:
    """Bounding box of the flat indices ``cells``, in ascending order, dilated
    by ``by`` cells and clipped below at 0."""
    if cells.size == 0:
        return (slice(0, 0),) * len(shape)
    if len(shape) == 1:  # sorted: the box runs from the first to the last
        return (slice(max(int(cells[0]) - by, 0), int(cells[-1]) + by + 1),)
    return tuple(slice(max(int(a.min()) - by, 0), int(a.max()) + by + 1)
                 for a in np.unravel_index(cells, shape))


def _max_slope(values: np.ndarray) -> float:
    """Largest absolute difference between adjacent cells, in density units."""
    return max(float(np.abs(np.diff(values, axis=axis)).max(initial=0.0))
               for axis in range(values.ndim))


def discrete_lipschitz(u: GridField) -> float:
    """Largest absolute slope between adjacent cells."""
    return _max_slope(u.values) / u.spacing


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
