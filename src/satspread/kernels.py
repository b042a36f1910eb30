"""Radial dispersal kernels, their grid stencils, and planar front profiles."""
import functools
import math
from typing import Callable, NamedTuple

import numpy as np

KERNEL_KINDS = ("indicator_ball", "custom_radial")

#: Discrete stencil mass must match 1 to this after renormalization.
STENCIL_MASS_TOL = 1e-12
#: Largest gap allowed between the coarse and fine rules of ``_quad``.
FRONT_QUAD_TOL = 1e-8
#: FFT convolution outputs at most this many machine epsilons times the
#: field's largest output are set to 0 (the rounding noise seen there, where
#: the direct sum is exactly 0, stays below 3 epsilons of that maximum).
FFT_ZERO_FLOOR = 32 * np.finfo(float).eps


class KernelError(ValueError):
    """Kernel specification violates the model assumptions."""


class QuadratureError(RuntimeError):
    """The two rules of ``_quad`` differ by more than ``FRONT_QUAD_TOL``, or by NaN."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error {achieved:.3e})")
        self.achieved = achieved


class Kernel(NamedTuple):
    """Radially symmetric dispersal weight supported in a ball of radius ``radius``.

    ``profile`` maps radial distance to the continuum density, normalized so
    its integral over space is one (exactly for the indicator ball, by
    quadrature for custom profiles).  The stencil's weights are normalized
    apart, to discrete mass one; the two normalizations differ by the
    midpoint quadrature error.
    """

    kind: str
    radius: float
    dim: int
    profile: Callable[[np.ndarray], np.ndarray]


class ConvolutionStencil(NamedTuple):
    """Discrete realization of convolution against the kernel on a uniform grid."""

    offsets: np.ndarray  # (n, dim) integer grid offsets
    weights: np.ndarray  # (n,) weights summing to 1
    grid_spacing: float
    dim: int
    radius: float
    dense: np.ndarray  # centered weight array

    @property
    def reach(self) -> int:
        """Largest offset magnitude along one axis, in cells."""
        return (self.dense.shape[0] - 1) // 2


class FrontKernelProfile(NamedTuple):
    """Planar front reduction of the kernel: mass ahead of a half-space edge.

    ``samples[i] = h(s[i])`` on a uniform grid of [-ell, ell]; h is extended by
    1 left of -ell and by 0 right of ell.
    """

    ell: float
    s: np.ndarray
    samples: np.ndarray

    def __call__(self, x):
        return np.interp(x, self.s, self.samples, left=1.0, right=0.0)

    def integral_zero_to_ell(self) -> float:
        """Trapezoid value of the integral of h over [0, ell]."""
        keep = self.s >= 0.0
        return float(np.trapezoid(self.samples[keep], self.s[keep]))


def ball_volume(ell: float, dim: int) -> float:
    return 2.0 * ell if dim == 1 else math.pi * ell * ell


def _quad(f, a, b, what: str):
    """Integrals of ``f`` over [a, b], elementwise over the broadcast a and b.

    Composite Gauss-Legendre in t on x = a + (b - a)(1 - cos(pi t))/2, taken
    as a + (b - a) sin(pi t/2)**2 to keep x - a exact near a.  The map is flat
    at t = 0 and 1, so square-root behaviour of ``f`` at either end becomes
    smooth in t.  Rules of 16 and 32 panels of 20 nodes share one call
    of ``f`` on all nodes; the finer values are returned (0 where b <= a), or
    ``QuadratureError`` reports the largest gap between the two rules.
    """
    # Imported here (about 5 ms): no stepping or CLI start-up path integrates.
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


def _profile_values(profile, rho: np.ndarray) -> np.ndarray:
    vals = np.asarray(profile(rho), dtype=float)
    if vals.shape != np.shape(rho):
        raise KernelError("custom profile must be vectorized over radii")
    return vals


def build_kernel(kind: str, ell: float, dim: int, grid_spacing: float,
                 profile: Callable[[np.ndarray], np.ndarray] | None = None,
                 ) -> tuple[Kernel, ConvolutionStencil]:
    """Build a normalized kernel and its midpoint convolution stencil.

    Args:
        kind: "indicator_ball" or "custom_radial".
        ell: support radius (> 0).
        dim: ambient dimension, 1 or 2.
        grid_spacing: grid step; must resolve the support (<= ell/4).
        profile: radial density for "custom_radial", vectorized over radii.

    Returns:
        (Kernel, ConvolutionStencil) satisfying the unit-mass invariants.
    """
    if kind not in KERNEL_KINDS:
        raise KernelError(f"unknown kernel kind {kind!r}")
    # Written so that NaN fails each test: every comparison with NaN is False.
    if not 0 < ell < math.inf:
        raise KernelError("kernel radius must be positive and finite")
    if dim not in (1, 2):
        raise KernelError("dimension must be 1 or 2")
    if not 0 < grid_spacing < math.inf:
        raise KernelError("grid_spacing must be positive and finite")
    if grid_spacing > ell / 4:
        raise KernelError(
            f"grid_spacing {grid_spacing} too coarse for support radius {ell}"
            " (need grid_spacing <= ell/4)")

    if kind == "indicator_ball":
        height = 1.0 / ball_volume(ell, dim)

        def raw(rho, _h=height, _ell=ell):
            return np.where(np.asarray(rho) <= _ell, _h, 0.0)

        continuum_mass = 1.0
    else:
        if profile is None:
            raise KernelError("custom_radial requires a profile")
        rho_check = np.linspace(0.0, ell, 2049)
        vals = _profile_values(profile, rho_check)
        if not np.all(np.isfinite(vals)):
            raise KernelError("custom profile produced non-finite values")
        if np.any(vals < 0):
            raise KernelError("custom profile takes negative values")

        def raw(rho, _p=profile, _ell=ell):
            rho = np.asarray(rho, dtype=float)
            vals = _profile_values(_p, rho.ravel()).reshape(rho.shape)
            return np.where(rho <= _ell, vals, 0.0)

        continuum_mass = float(_quad(
            lambda rho: raw(rho) * (2.0 if dim == 1 else 2.0 * math.pi * rho),
            0.0, ell, "kernel mass"))
        if continuum_mass <= 0:
            raise KernelError("custom profile has zero mass")

    def normalized(rho, _raw=raw, _m=continuum_mass):
        return _raw(rho) / _m

    # Midpoint stencil on offsets with |offset|*dx <= ell (tolerant at the rim).
    m = int(math.floor(ell / grid_spacing * (1 + 1e-12)))
    axis = np.arange(-m, m + 1)
    if dim == 1:
        offsets = axis.reshape(-1, 1)
        radii = np.abs(axis) * grid_spacing
    else:
        ox, oy = np.meshgrid(axis, axis, indexing="ij")
        offsets = np.stack([ox.ravel(), oy.ravel()], axis=1)
        radii = np.hypot(offsets[:, 0], offsets[:, 1]) * grid_spacing
    inside = radii <= ell * (1 + 1e-12)
    offsets, radii = offsets[inside], radii[inside]

    raw_weights = _profile_values(normalized, radii) * grid_spacing ** dim
    if np.any(raw_weights < 0):
        raise KernelError("kernel takes negative values on the stencil")
    discrete_mass = float(raw_weights.sum())
    if discrete_mass <= 0:
        raise KernelError("kernel vanishes on the whole stencil")
    weights = raw_weights / discrete_mass

    _check_radial_symmetry(offsets, weights)

    dense = np.zeros((2 * m + 1,) * dim)
    dense[tuple((offsets + m).T)] = weights

    kernel = Kernel(kind=kind, radius=ell, dim=dim, profile=normalized)
    stencil = ConvolutionStencil(offsets=offsets, weights=weights,
                                 grid_spacing=grid_spacing, dim=dim,
                                 radius=ell, dense=dense)
    assert abs(float(stencil.weights.sum()) - 1.0) <= STENCIL_MASS_TOL
    return kernel, stencil


def _check_radial_symmetry(offsets: np.ndarray, weights: np.ndarray) -> None:
    """Weights at symmetric grid points must agree exactly."""
    groups: dict[tuple, float] = {}
    for off, w in zip(offsets, weights):
        key = tuple(sorted(abs(int(o)) for o in off))
        ref = groups.setdefault(key, w)
        if w != ref:
            raise KernelError(f"kernel is not radially symmetric at offset {tuple(off)}")


def _as_field(stencil: ConvolutionStencil, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != stencil.dim:
        raise ValueError(f"field has {values.ndim} axes, stencil expects {stencil.dim}")
    return values


def convolve_field(stencil: ConvolutionStencil, values: np.ndarray) -> np.ndarray:
    """Direct stencil convolution with zero extension outside the box.

    One shifted slice of the field, zero-padded by ``reach``, is scaled and
    added per nonzero tap, in reversed row-major tap order: the order of
    ``scipy.ndimage.convolve``, which the tests hold it to bit for bit.  A
    1-d field is summed as the one row of a 2-d field, with reach 0 across
    rows.  Each output is thus a left-to-right sum of ``weight * value``
    terms.  The sum runs only on the bounding box of the field's nonzero
    cells, dilated by ``reach`` and clipped to the box: every term of an
    output outside it is a signed zero, and a sum of signed zeros started at
    +0.0 is +0.0, which is what that output is left at.  A field without
    nonzero cells thus costs no tap at all.
    """
    values = _as_field(stencil, values)
    out = np.zeros_like(values)
    field, dense, out2d = np.atleast_2d(values, stencil.dense, out)
    rows = np.flatnonzero(field.any(axis=1))
    if rows.size == 0:
        return out
    cols = np.flatnonzero(field.any(axis=0))
    row_reach, r = (dense.shape[0] - 1) // 2, stencil.reach
    nx, ny = field.shape
    i0, i1 = max(rows[0] - row_reach, 0), min(rows[-1] + row_reach + 1, nx)
    j0, j1 = max(cols[0] - r, 0), min(cols[-1] + r + 1, ny)
    padded = np.pad(field, ((row_reach, row_reach), (r, r)))
    box = out2d[i0:i1, j0:j1]
    for p, q in reversed(np.argwhere(dense).tolist()):
        box += dense[p, q] * padded[i0 + 2 * row_reach - p:i1 + 2 * row_reach - p,
                                    j0 + 2 * r - q:j1 + 2 * r - q]
    return out


def convolve_dense(stencil: ConvolutionStencil, *fields: np.ndarray) -> np.ndarray:
    """Convolve several dense fields with zero extension; returns them stacked.

    In 2-d the fields go through one zero-padded ``rfft2`` of their support:
    the bounding box of the cells where any of them is nonzero.  Each axis of
    that box is padded to the least length ``>= width + 2 * reach`` whose
    only prime factors are 2, 3 and 5, a fast FFT length, so no output wraps
    around.  The inverse transform holds the zero-extension convolution on
    the support box dilated by ``reach``; its part inside the grid is written
    into a zeroed result.  Outside it the direct sum is exactly 0, and a
    stack without nonzero cells costs no transform.  The stencil's transform
    is computed once per padded shape.  The result agrees with
    ``convolve_field`` to rounding, not in every bit.  Outputs within
    ``FFT_ZERO_FLOOR`` of 0, relative to the field's largest output (which
    lies on the dilated support), are set to exactly 0: there the direct sum
    is 0 or below rounding, and the transform's noise of either sign would
    otherwise seed mass at every cell within reach of the support.  Callers
    that need a sign still clip.  In 1-d each field goes through
    ``np.convolve``, whose dot products group their terms otherwise than
    ``convolve_field`` does and agree with it to rounding: a live box needs a
    margin of ``2 * reach`` cells for them (see ``dynamics.rhs_gamma``).

    Masks are convolved with ``convolve_field``, which
    ``add_to_mask_convolution`` updates in place.
    """
    values = [_as_field(stencil, f) for f in fields]
    if stencil.dim == 1:
        # The centered part of the full convolution; np.convolve rejects an
        # empty box.
        r = stencil.reach
        return np.stack([np.convolve(v, stencil.dense, mode="full")[r:r + v.shape[0]]
                         if v.size else v for v in values])
    stack = np.array(values)
    out = np.zeros_like(stack)
    support = stack.any(axis=0)
    rows = support.any(axis=1).nonzero()[0]
    if rows.size == 0:
        return out
    cols = support.any(axis=0).nonzero()[0]
    r = stencil.reach
    nx, ny = support.shape
    # Python ints: cheaper to pad and to key the spectrum cache with
    a0, a1, b0, b1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
    shape = (_fast_length(a1 - a0 + 2 * r), _fast_length(b1 - b0 + 2 * r))
    spectrum = (np.fft.rfft2(stack[:, a0:a1, b0:b1], s=shape)
                * _stencil_spectrum(stencil.dense.tobytes(), stencil.dense.shape, shape))
    # Entry (k, l) of the inverse transform is the output at (a0 - r + k, b0 - r + l).
    i0, i1 = max(a0 - r, 0), min(a1 + r, nx)
    j0, j1 = max(b0 - r, 0), min(b1 + r, ny)
    box = np.fft.irfft2(spectrum, s=shape)[:, i0 - a0 + r:i1 - a0 + r,
                                           j0 - b0 + r:j1 - b0 + r]
    magnitude = np.abs(box)
    # The floored outputs keep the +0.0 of ``out``; a NaN is written.
    np.copyto(out[:, i0:i1, j0:j1], box, where=~(
        magnitude <= FFT_ZERO_FLOOR * magnitude.max(axis=(1, 2), keepdims=True)))
    return out


@functools.lru_cache(maxsize=256)
def _fast_length(n: int) -> int:
    """The least length ``>= n`` whose only prime factors are 2, 3 and 5."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@functools.lru_cache(maxsize=8)
def _stencil_spectrum(dense: bytes, taps: tuple[int, int],
                      shape: tuple[int, int]) -> np.ndarray:
    """``rfft2`` of the 2-d stencil weights ``dense`` (their bytes) at ``shape``."""
    spectrum = np.fft.rfft2(np.frombuffer(dense).reshape(taps), s=shape)
    spectrum.flags.writeable = False
    return spectrum


def add_to_mask_convolution(stencil: ConvolutionStencil, conv: np.ndarray,
                            cells: np.ndarray) -> None:
    """Update ``conv`` in place after the cells ``cells`` joined a mask.

    ``cells`` holds their flat indices, in any order.  On entry ``conv``
    holds ``convolve_field`` of the mask without them; on exit it holds
    ``convolve_field`` of the mask with them.  ``convolve_field`` adds one
    term per tap, left to right, so the stencil, clipped at the box edge (the
    zero extension), is added at each new cell: k new cells cost k x taps
    multiply-adds, never more than one full convolution, and no step scans
    the box for them.  A mask cell under an indicator kernel adds the one
    weight ``w`` exactly, so every output is ``w`` added ``k`` times in
    either path: bit-identical.  Other kernels add their weights in joining
    order, not tap order, and agree to within rounding.
    """
    r, dense = stencil.reach, stencil.dense
    if stencil.dim == 1:
        n = conv.shape[0]
        for i in cells.tolist():
            i0, i1 = max(i - r, 0), min(i + r + 1, n)
            conv[i0:i1] += dense[i0 - i + r:i1 - i + r]
        return
    nx, ny = conv.shape
    for cell in cells.tolist():
        i, j = divmod(cell, ny)
        i0, i1 = max(i - r, 0), min(i + r + 1, nx)
        j0, j1 = max(j - r, 0), min(j + r + 1, ny)
        conv[i0:i1, j0:j1] += dense[i0 - i + r:i1 - i + r, j0 - j + r:j1 - j + r]


def front_profile(kernel: Kernel, sample_spacing: float | None = None,
                  ) -> FrontKernelProfile:
    """Mass of the kernel ahead of a planar saturated half-space.

    h(s) = (ell - s)/(2 ell) for 1-d indicator kernels; otherwise ``_quad``
    integrates K (1-d) or the polar reduction K(rho) rho 2 acos(s/rho) (2-d)
    over [s, ell] at all samples at once.  Values for negative signed distance
    follow from the reflection identity h(-s) = 1 - h(s).
    """
    ell = kernel.radius
    if sample_spacing is None:
        sample_spacing = ell / 200
    if not 0 < sample_spacing <= ell / 50:
        raise KernelError("sample_spacing must lie in (0, ell/50]")
    n_half = int(math.ceil(ell / sample_spacing - 1e-12))
    s_half = np.linspace(0.0, ell, n_half + 1)

    if kernel.dim == 1 and kernel.kind == "indicator_ball":
        h_half = (ell - s_half) / (2.0 * ell)
    else:
        h_half = _quad(kernel.profile if kernel.dim == 1 else lambda rho: (
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
