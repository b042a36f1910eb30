"""Kernel construction, stencil convolution and front profiles."""
from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import satspread as ss
from satspread.analysis import _dilate_one_cell
from satspread.kernels import _fast_length, _stencil_spectrum

from harnesses import ball_convolution_on_ray, check_cap_inequality, convolve_mask
from oracles import (CONE_1D_H_HALF, CONE_2D_H_HALF, H2D_INDICATOR_HALF,
                     brute_convolve, convolve_1d_plain, convolve_dense_plain,
                     convolve_field_direct, h1d_indicator, h2d_indicator, quad_ball_on_ray,
                     quad_front_profile, quad_kernel_mass, riemann_h2d)


def cone_profile(rho):
    return np.clip(1.0 - np.asarray(rho), 0.0, None)


class TestBuildKernel:
    def test_indicator_1d_weights_uniform_and_unit_mass(self):
        _, stencil = ss.build_kernel("indicator_ball", 1.0, 1, 0.05)
        assert len(stencil.weights) == 41
        assert np.all(stencil.weights == stencil.weights[0])
        assert abs(stencil.weights.sum() - 1.0) <= 1e-12

    def test_indicator_2d_center_weight_matches_ball_area(self):
        _, stencil = ss.build_kernel("indicator_ball", 1.0, 2, 0.05)
        center = np.all(stencil.offsets == 0, axis=1)
        w0 = float(stencil.weights[center][0])
        # After normalization the center weight is cell_area / (discrete ball
        # area); the Riemann area matches pi ell^2 to O(dx).
        assert abs(w0 * np.pi / 0.05 ** 2 - 1.0) <= 2 * 0.05
        assert abs(stencil.weights.sum() - 1.0) <= 1e-12

    def test_negative_profile_rejected(self):
        with pytest.raises(ss.KernelError, match="negative"):
            ss.build_kernel("custom_radial", 1.0, 1, 0.05,
                            profile=lambda rho: 0.5 - np.asarray(rho))

    def test_coarse_spacing_rejected(self):
        with pytest.raises(ss.KernelError, match="coarse"):
            ss.build_kernel("indicator_ball", 1.0, 1, 0.3)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ss.KernelError):
            ss.build_kernel("indicator_ball", -1.0, 1, 0.05)
        for bad in (np.nan, np.inf):
            with pytest.raises(ss.KernelError, match="kernel radius must be positive"):
                ss.build_kernel("indicator_ball", bad, 1, 0.05)
            with pytest.raises(ss.KernelError, match="grid_spacing must be positive"):
                ss.build_kernel("indicator_ball", 1.0, 1, bad)
        with pytest.raises(ss.KernelError):
            ss.build_kernel("indicator_ball", 1.0, 3, 0.05)
        with pytest.raises(ss.KernelError):
            ss.build_kernel("mystery", 1.0, 1, 0.05)
        with pytest.raises(ss.KernelError):
            ss.build_kernel("custom_radial", 1.0, 1, 0.05)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_custom_cone_unit_mass(self, dim):
        _, stencil = ss.build_kernel("custom_radial", 1.0, dim, 0.05,
                                     profile=cone_profile)
        assert abs(stencil.weights.sum() - 1.0) <= 1e-12
        assert np.all(stencil.weights >= 0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_offsets_stay_within_support(self, dim):
        _, stencil = ss.build_kernel("indicator_ball", 1.0, dim, 0.05)
        magnitudes = np.linalg.norm(stencil.offsets, axis=1) * 0.05
        assert magnitudes.max() <= 1.0 + 0.05

    def test_symmetric_offsets_share_exact_weights(self):
        _, stencil = ss.build_kernel("custom_radial", 1.0, 2, 0.1,
                                     profile=cone_profile)
        table = {}
        for off, w in zip(stencil.offsets, stencil.weights):
            key = tuple(sorted(abs(int(o)) for o in off))
            table.setdefault(key, set()).add(float(w))
        assert all(len(group) == 1 for group in table.values())


class TestConvolve:
    def test_zero_mask_gives_zero(self, bench40):
        _, stencil = bench40
        out = convolve_mask(stencil, np.zeros(201))
        assert np.all(out == 0.0)

    def test_full_mask_gives_one_on_interior(self, bench40):
        _, stencil = bench40
        out = convolve_mask(stencil, np.ones(201))
        reach = stencil.reach
        assert np.max(np.abs(out[reach:-reach] - 1.0)) <= 1e-12

    def test_half_line_mask_value_near_half(self, bench40):
        _, stencil = bench40
        n = 200
        x = (np.arange(2 * n + 1) - n) * stencil.grid_spacing
        out = convolve_mask(stencil, (x <= 0.0).astype(float))
        assert abs(out[n] - 0.5) <= stencil.grid_spacing

    def test_nonbinary_mask_rejected(self, bench40):
        _, stencil = bench40
        with pytest.raises(ValueError, match="0 or 1"):
            convolve_mask(stencil, np.full(100, 0.5))

    @pytest.mark.parametrize("seed", range(10))
    def test_output_in_unit_interval_for_random_masks(self, bench40, seed):
        _, stencil = bench40
        rng = np.random.default_rng(seed)
        mask = (rng.uniform(size=300) < 0.4).astype(float)
        out = convolve_mask(stencil, mask)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_translation_equivariance_exact(self, bench40):
        _, stencil = bench40
        rng = np.random.default_rng(3)
        mask = (rng.uniform(size=400) < 0.3).astype(float)
        shift = 7
        direct = convolve_mask(stencil, np.roll(mask, shift))
        rolled = np.roll(convolve_mask(stencil, mask), shift)
        reach = stencil.reach
        inner = slice(shift + reach, 400 - reach)
        assert np.array_equal(direct[inner], rolled[inner])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_brute_force_oracle(self, dim):
        _, stencil = ss.build_kernel("indicator_ball", 1.0, dim, 0.25)
        rng = np.random.default_rng(11)
        shape = (25,) if dim == 1 else (13, 13)
        field = rng.uniform(size=shape)
        fast = ss.convolve_field(stencil, field)
        slow = brute_convolve(stencil, field)
        assert np.max(np.abs(fast - slow)) <= 1e-13

    @pytest.mark.parametrize("cells", [1, 5, 16, 17, 18, 40])
    def test_box_shorter_than_the_stencil(self, cells):
        _, stencil = ss.build_kernel("custom_radial", 1.0, 1, 0.125,
                                     profile=cone_profile)
        taps = stencil.dense.shape[0]
        assert taps == 17
        field = np.random.default_rng(cells).uniform(size=cells)
        out = ss.convolve_field(stencil, field)
        assert out.shape == (cells,)
        assert np.max(np.abs(out - brute_convolve(stencil, field))) <= 1e-15


def sparse_field(rng, shape, zero_frac=0.5):
    """Random values in [0, 1] with about ``zero_frac`` of the cells at exactly 0."""
    return rng.uniform(size=shape) * (rng.uniform(size=shape) >= zero_frac)


class TestConvolveDense:
    """The batched dense-field convolution against convolve_field."""

    @staticmethod
    def against_direct(stencil, *fields):
        """``convolve_dense`` of ``fields``, within 1e-14 of ``convolve_field``
        and exactly 0 wherever the direct sum is 0."""
        out = ss.convolve_dense(stencil, *fields)
        assert out.shape == (len(fields),) + fields[0].shape
        for got, field in zip(out, fields):
            direct = ss.convolve_field(stencil, field)
            assert np.max(np.abs(got - direct)) <= 1e-14
            # exact zeros out of reach of the field's mass, as in the direct sum
            assert np.all(got[direct == 0.0] == 0.0)
        return out

    @pytest.mark.parametrize("kind", ["indicator_ball", "custom_radial"])
    @pytest.mark.parametrize("shape", [(65, 65), (33, 21), (9, 9), (5, 40)])
    def test_two_dimensional_fields_within_rounding(self, kind, shape):
        _, stencil = ss.build_kernel(kind, 1.0, 2, 0.125, profile=cone_profile)
        assert stencil.dense.shape == (17, 17)
        rng = np.random.default_rng(shape[0] * shape[1])
        edge = sparse_field(rng, shape)
        r = stencil.reach
        edge[r:-r, r:-r] = 0.0  # mass only within reach of the box edge
        spike = np.zeros(shape)
        spike[shape[0] // 2, shape[1] // 2] = 1.0
        self.against_direct(stencil, rng.uniform(size=shape), sparse_field(rng, shape),
                            edge, spike)

    @pytest.mark.parametrize("kind", ["indicator_ball", "custom_radial"])
    def test_translated_support_gives_the_same_bits(self, kind):
        """A field moved into a larger box, with unequal zero margins, gives
        the bits it gives in its own box at its own cells and 0.0 elsewhere:
        only the support's box is transformed."""
        _, stencil = ss.build_kernel(kind, 1.0, 2, 0.125, profile=cone_profile)
        r = stencil.reach
        rng = np.random.default_rng(12)
        own = np.zeros((2 * r + 7, 2 * r + 5))
        own[r:-r, r:-r] = sparse_field(rng, (7, 5), zero_frac=0.3)
        fields = [own, own ** 2]
        alone = self.against_direct(stencil, *fields)
        window = np.s_[:, 11:11 + own.shape[0], 20:20 + own.shape[1]]
        moved = [np.zeros((60, 47)) for _ in fields]
        for big, field in zip(moved, fields):
            big[window[1:]] = field
        embedded = self.against_direct(stencil, *moved)
        assert np.array_equal(embedded[window].view(np.int64), alone.view(np.int64))
        embedded[window] = 0.0
        assert not embedded.view(np.int64).any()  # +0.0 off the window

    def test_supports_in_opposite_corners(self):
        _, stencil = ss.build_kernel("custom_radial", 1.0, 2, 0.125, profile=cone_profile)
        rng = np.random.default_rng(13)
        low, high = np.zeros((65, 65)), np.zeros((65, 65))
        low[:6, :9] = rng.uniform(size=(6, 9))
        high[-7:, -5:] = sparse_field(rng, (7, 5), zero_frac=0.3)
        self.against_direct(stencil, low, high)
        self.against_direct(stencil, high, low)

    def test_one_nonzero_cell_at_each_corner(self):
        _, stencil = ss.build_kernel("indicator_ball", 1.0, 2, 0.125)
        corners = []
        for i in (0, -1):
            for j in (0, -1):
                field = np.zeros((33, 21))
                field[i, j] = 0.75
                self.against_direct(stencil, field)
                corners.append(field)
        self.against_direct(stencil, *corners)
        self.against_direct(stencil, sum(corners))

    def test_support_touching_all_four_edges(self):
        _, stencil = ss.build_kernel("custom_radial", 1.0, 2, 0.125, profile=cone_profile)
        rng = np.random.default_rng(14)
        field = np.zeros((40, 29))
        field[0, 3] = field[-1, 25] = field[30, 0] = field[7, -1] = 1.0
        field[15:22, 10:16] = rng.uniform(size=(7, 6))
        self.against_direct(stencil, field, field * (1.0 - field))

    def test_transform_length_follows_the_support(self):
        """A 9x9 support in a 257x257 box is transformed at the fast length
        of 9 + 2 * reach, not of 257 + 2 * reach."""
        _, stencil = ss.build_kernel("indicator_ball", 1.0, 2, 0.125)
        field = np.zeros((257, 257))
        field[100:109, 37:46] = 0.5 + np.random.default_rng(15).uniform(size=(9, 9))
        _stencil_spectrum.cache_clear()
        self.against_direct(stencil, field)
        info = _stencil_spectrum.cache_info()
        assert info.misses == 1 and info.currsize == 1
        length = _fast_length(9 + 2 * stencil.reach)
        assert length < _fast_length(257 + 2 * stencil.reach)
        _stencil_spectrum(stencil.dense.tobytes(), stencil.dense.shape, (length, length))
        assert _stencil_spectrum.cache_info().hits == info.hits + 1

    def test_zero_field_gives_exact_zeros(self):
        _, stencil = ss.build_kernel("indicator_ball", 1.0, 2, 0.125)
        zero = np.zeros((33, 33))
        other = np.random.default_rng(2).uniform(size=zero.shape)
        assert np.all(ss.convolve_dense(stencil, zero) == 0.0)
        assert np.all(ss.convolve_dense(stencil, other, zero)[1] == 0.0)

    @pytest.mark.parametrize("kind", ["indicator_ball", "custom_radial"])
    @pytest.mark.parametrize("cells", [9, 129])
    def test_one_dimensional_fields_bit_identical(self, kind, cells):
        _, stencil = ss.build_kernel(kind, 1.0, 1, 0.125, profile=cone_profile)
        rng = np.random.default_rng(cells)
        fields = [rng.uniform(size=cells), sparse_field(rng, cells)]
        out = ss.convolve_dense(stencil, *fields)
        for got, field in zip(out, fields):
            assert np.array_equal(got, convolve_1d_plain(stencil, field))

    def test_axes_must_match_the_stencil(self):
        _, stencil = ss.build_kernel("indicator_ball", 1.0, 2, 0.125)
        with pytest.raises(ValueError, match="axes"):
            ss.convolve_dense(stencil, np.zeros(33))

    def test_fast_lengths(self):
        smooth = sorted(2 ** i * 3 ** j * 5 ** k for i in range(9) for j in range(6)
                        for k in range(4))
        for n in range(1, 257):
            assert _fast_length(n) == min(m for m in smooth if m >= n)
        # 65 cells under 17 taps need 81 = 3**4, already a fast length
        assert _fast_length(65 + 2 * 8) == 81

    def test_fast_padded_length_within_rounding(self):
        """A support 81 cells wide under 9 taps pads to 90, not 89: the bound
        of the tests above, and exact zeros out of reach."""
        _, stencil = ss.build_kernel("indicator_ball", 1.0, 2, 0.25)
        assert stencil.dense.shape == (9, 9) and _fast_length(81 + 8) == 90
        rng = np.random.default_rng(81)
        field = sparse_field(rng, (81, 81), zero_frac=0.9)
        field[:40] = 0.0
        field[40, 0] = field[80, 80] = 1.0  # the support spans the columns
        self.against_direct(stencil, field)


class TestStencilSpectrum:
    """The cached stencil transform of the 2-d ``convolve_dense``."""

    def test_cold_and_warm_cache_give_the_same_bits(self):
        _, stencil = ss.build_kernel("custom_radial", 1.0, 2, 0.125, profile=cone_profile)
        field = np.random.default_rng(5).uniform(size=(33, 21))
        _stencil_spectrum.cache_clear()
        cold = ss.convolve_dense(stencil, field)
        warm = ss.convolve_dense(stencil, field)
        assert _stencil_spectrum.cache_info().hits == 1
        assert np.array_equal(cold.view(np.int64), warm.view(np.int64))

    def test_stencils_of_one_shape_never_share_a_spectrum(self):
        stencils = [ss.build_kernel(kind, 1.0, 2, 0.125, profile=cone_profile)[1]
                    for kind in ("indicator_ball", "custom_radial")]
        assert stencils[0].dense.shape == stencils[1].dense.shape
        field = np.random.default_rng(6).uniform(size=(33, 33))
        for first, second in (stencils, stencils[::-1]):
            _stencil_spectrum.cache_clear()
            ss.convolve_dense(first, field)
            warm = ss.convolve_dense(second, field)
            _stencil_spectrum.cache_clear()
            cold = ss.convolve_dense(second, field)
            assert np.array_equal(warm.view(np.int64), cold.view(np.int64))
        spectra = [_stencil_spectrum(s.dense.tobytes(), s.dense.shape, (50, 50))
                   for s in stencils]
        assert not np.array_equal(*spectra)
        for stencil, spectrum in zip(stencils, spectra):
            assert np.array_equal(spectrum, np.fft.rfft2(stencil.dense, s=(50, 50)))
            assert not spectrum.flags.writeable


class TestAddToMaskConvolution:
    """The running K * 1_S update against a fresh direct convolution."""

    @staticmethod
    def grow(stencil, shape, seed, batches=6, shuffle=False):
        """Grow a random mask in batches, its new cells in ascending or
        shuffled order; return the running and direct fields."""
        rng = np.random.default_rng(seed)
        mask = np.zeros(shape, dtype=bool)
        conv = ss.convolve_field(stencil, mask.astype(float))
        for _ in range(batches):
            added = (rng.uniform(size=shape) < rng.uniform(0.0, 0.2)) & ~mask
            mask |= added
            cells = np.flatnonzero(added)
            ss.add_to_mask_convolution(stencil, conv,
                                       rng.permutation(cells) if shuffle else cells)
        return conv, ss.convolve_field(stencil, mask.astype(float))

    @pytest.mark.parametrize("dim,shape", [(1, (301,)), (2, (41, 37))])
    @pytest.mark.parametrize("seed", range(4))
    def test_indicator_bit_identical(self, dim, shape, seed):
        _, stencil = ss.build_kernel("indicator_ball", 1.0, dim, 0.1)
        for shuffle in (False, True):
            running, direct = self.grow(stencil, shape, seed, shuffle=shuffle)
            assert np.array_equal(running, direct)

    @pytest.mark.parametrize("seed", range(4))
    def test_box_shorter_than_the_stencil(self, seed):
        _, stencil = ss.build_kernel("indicator_ball", 1.0, 1, 0.025)
        assert stencil.dense.shape[0] == 81
        running, direct = self.grow(stencil, (60,), seed)
        assert np.array_equal(running, direct)

    @pytest.mark.parametrize("dim,shape", [(1, (301,)), (2, (41, 37))])
    def test_custom_kernel(self, dim, shape):
        _, stencil = ss.build_kernel("custom_radial", 1.0, dim, 0.1,
                                     profile=cone_profile)
        running, direct = self.grow(stencil, shape, seed=5)
        assert np.max(np.abs(running - direct)) <= 1e-14

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cells_at_the_box_edge(self, dim):
        _, stencil = ss.build_kernel("indicator_ball", 1.0, dim, 0.25)
        shape = (9,) * dim
        mask = np.zeros(shape, dtype=bool)
        conv = ss.convolve_field(stencil, mask.astype(float))
        for cell in [(0,) * dim, (8,) * dim, (4,) * dim, (1,) * dim]:
            added = np.zeros(shape, dtype=bool)
            added[cell] = True
            mask |= added
            ss.add_to_mask_convolution(stencil, conv, np.flatnonzero(added))
            assert np.array_equal(conv, ss.convolve_field(stencil, mask.astype(float)))


@st.composite
def growing_masks(draw, dim):
    """A stencil, a box of 1 to 4*reach + 2 cells per axis, growth batches.

    Each batch adds drawn cells, two thirds of them within reach of a box edge
    where the stencil is clipped, plus random cells at a drawn density.
    """
    kind = "indicator_ball" if dim == 2 else draw(
        st.sampled_from(["indicator_ball", "custom_radial"]))
    dx = draw(st.sampled_from([0.25, 0.125] if dim == 2 else [0.25, 0.1, 0.05]))
    _, stencil = ss.build_kernel(kind, 1.0, dim, dx, profile=cone_profile)
    r = stencil.reach
    sizes = st.one_of(st.sampled_from([2 * r, 2 * r + 1]), st.integers(1, 4 * r + 2))
    shape = tuple(draw(sizes) for _ in range(dim))

    def index(n):
        edge = min(r, n - 1)
        return st.one_of(st.integers(0, edge), st.integers(n - 1 - edge, n - 1),
                         st.integers(0, n - 1))

    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masks = []
    for cells in draw(st.lists(st.lists(st.tuples(*map(index, shape)), max_size=8),
                               min_size=1, max_size=5)):
        added = rng.uniform(size=shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))
        for cell in cells:
            added[cell] = True
        masks.append(added)
    return stencil, masks


@st.composite
def sparse_growth_1d(draw):
    """A 1-d stencil, a box of 4*reach + 1 to 12*reach cells, sparse batches.

    Up to four cells join per batch, so most new cells lie clear of the box
    edges, where the update adds the whole stencil.
    """
    kind = draw(st.sampled_from(["indicator_ball", "custom_radial"]))
    dx = draw(st.sampled_from([0.25, 0.1, 0.05]))
    _, stencil = ss.build_kernel(kind, 1.0, 1, dx, profile=cone_profile)
    n = draw(st.integers(4 * stencil.reach + 1, 12 * stencil.reach))
    masks = []
    for cells in draw(st.lists(st.lists(st.integers(0, n - 1), max_size=4),
                               min_size=1, max_size=6)):
        added = np.zeros(n, dtype=bool)
        added[cells] = True
        masks.append(added)
    return stencil, masks


class TestAddToMaskConvolutionProperty:
    """Random growth batches against a fresh direct convolution: bit for bit
    under a kernel of equal weights, within rounding otherwise."""

    @staticmethod
    def check(stencil, batches):
        mask = np.zeros(batches[0].shape, dtype=bool)
        conv = ss.convolve_field(stencil, mask.astype(float))
        equal = np.all(stencil.weights == stencil.weights[0])
        for added in batches:
            added = added & ~mask
            mask |= added
            ss.add_to_mask_convolution(stencil, conv, np.flatnonzero(added))
            direct = ss.convolve_field(stencil, mask.astype(float))
            if equal:
                assert np.array_equal(conv, direct)
            else:
                assert np.max(np.abs(conv - direct), initial=0.0) <= 1e-14

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(growing_masks(dim=1))
    def test_one_dimensional_any_kernel(self, case):
        self.check(*case)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(growing_masks(dim=2))
    def test_two_dimensional_indicator(self, case):
        self.check(*case)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(sparse_growth_1d())
    def test_one_dimensional_bands_clear_of_the_edges(self, case):
        self.check(*case)


@functools.lru_cache(maxsize=None)
def cached_stencil(kind, dim, dx):
    return ss.build_kernel(kind, 1.0, dim, dx, profile=cone_profile)[1]


@st.composite
def stencil_fields(draw, dim):
    """An indicator or cone stencil and a field on a box of 1 to 6*reach cells
    per axis (strips, and boxes smaller than the stencil, drawn often): a
    random mask, a dense cubed-uniform field or a signed normal field."""
    kind = draw(st.sampled_from(["indicator_ball", "custom_radial"]))
    stencil = cached_stencil(kind, dim, draw(st.sampled_from([0.25, 0.125, 0.1])))
    r = stencil.reach
    sizes = st.one_of(st.just(1), st.integers(1, 2 * r), st.integers(1, 6 * r))
    shape = tuple(draw(sizes) for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.02, 0.3, 0.9]))
    field = draw(st.sampled_from([
        (rng.uniform(size=shape) < density).astype(float),
        rng.uniform(size=shape) ** 3,
        rng.normal(size=shape)]))
    return stencil, field


@st.composite
def confined_fields(draw, dim):
    """A field of ``stencil_fields`` confined to a drawn support: a sub-block
    (flush with an edge or a corner of the box as often as not), one cell,
    or no cell; -0.0 is written at some zero cells in and out of the
    support."""
    stencil, field = draw(stencil_fields(dim=dim))
    keep = np.zeros(field.shape, dtype=bool)
    support = draw(st.sampled_from(["block", "cell", "none"]))
    if support == "block":
        block = []
        for n in field.shape:
            start = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
            block.append(slice(start, draw(st.one_of(st.just(n), st.integers(start + 1, n)))))
        keep[tuple(block)] = True
    elif support == "cell":
        keep[tuple(draw(st.integers(0, n - 1)) for n in field.shape)] = True
    field = np.where(keep, field, 0.0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    field[(field == 0.0) & (rng.uniform(size=field.shape) < 0.3)] = -0.0
    return stencil, field


class TestSupportBox:
    """The 1-d and 2-d convolution, summed on its support's box only, against
    the whole-box sum: same bits, the sign of zero included."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(st.sampled_from([1, 2]).flatmap(confined_fields))
    def test_bit_identical_to_the_whole_box_sum(self, case):
        stencil, field = case
        assert np.array_equal(
            ss.convolve_field(stencil, field).view(np.uint64),
            convolve_field_direct(stencil, field).view(np.uint64))


@functools.lru_cache(maxsize=None)
def hollow_stencil(dx):
    """A 2-d radial kernel that vanishes on the annulus 0.3 <= rho <= 0.7, so
    some taps inside its reach are exactly 0."""
    return ss.build_kernel(
        "custom_radial", 1.0, 2, dx,
        profile=lambda rho: np.clip(np.abs(rho - 0.5) - 0.2, 0.0, None) ** 4)[1]


@st.composite
def dense_stacks(draw):
    """An indicator or hollow stencil and one or two nonnegative 2-d fields on
    a box of 1 to 6*reach cells per axis, each nonzero only on its own drawn
    block (one cell or none at times): a mask, a cubed-uniform field, or a
    few isolated cells."""
    dx = draw(st.sampled_from([0.25, 0.125]))
    stencil = draw(st.sampled_from([cached_stencil("indicator_ball", 2, dx),
                                    hollow_stencil(dx)]))
    r = stencil.reach
    sizes = st.one_of(st.integers(1, 2 * r), st.integers(1, 6 * r))
    shape = (draw(sizes), draw(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fields = []
    for _ in range(draw(st.integers(1, 2))):
        field = draw(st.sampled_from([
            (rng.uniform(size=shape) < 0.3).astype(float),
            rng.uniform(size=shape) ** 3,
            (rng.uniform(size=shape) < 0.02) * rng.uniform(size=shape)]))
        block = []
        for n in shape:
            start = draw(st.integers(0, n - 1))
            block.append(slice(start, draw(st.integers(start, n))))
        confined = np.zeros(shape)
        confined[tuple(block)] = field[tuple(block)]
        fields.append(confined)
    return stencil, fields


class TestConvolveDenseProperty:
    """``convolve_dense`` on drawn fields: within 1e-14 of ``convolve_field``,
    with exact zeros wherever the direct sum is 0, the hollow kernel's zero
    taps included."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(dense_stacks())
    def test_within_rounding_of_the_direct_sum(self, case):
        stencil, fields = case
        TestConvolveDense.against_direct(stencil, *fields)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(dense_stacks(), st.sampled_from([None, -0.0, np.nan, np.inf]))
    def test_bits_equal_the_plain_oracle(self, case, odd):
        """The same bits as ``convolve_dense_plain``, also with a -0.0, a NaN
        or an inf put in a drawn field's first cell."""
        stencil, fields = case
        if odd is not None:
            fields[-1][0, 0] = odd
        with np.errstate(invalid="ignore"):
            got = ss.convolve_dense(stencil, *fields)
            expected = convolve_dense_plain(stencil, *fields)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestScipyOracle:
    """The numpy-only convolution, in 1-d and 2-d, and the support dilations
    against ``scipy.ndimage``, bit for bit."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(st.sampled_from([1, 2]).flatmap(stencil_fields))
    def test_two_dimensional_convolution(self, case):
        from scipy import ndimage
        stencil, field = case
        assert np.array_equal(
            ss.convolve_field(stencil, field),
            ndimage.convolve(field, stencil.dense, mode="constant", cval=0.0))

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.sampled_from([1, 2]).flatmap(stencil_fields))
    def test_dilations(self, case):
        from scipy import ndimage
        stencil, field = case
        mask = field > 0.5
        assert np.array_equal(
            ss.convolve_field(stencil, mask) > 0.0,
            ndimage.binary_dilation(mask, structure=stencil.dense > 0.0))
        assert np.array_equal(
            _dilate_one_cell(mask),
            ndimage.binary_dilation(mask, structure=np.ones((3,) * mask.ndim, bool)))


class TestFrontProfile:
    def test_d1_indicator_matches_closed_form(self, front_profile_1d):
        s = front_profile_1d.s
        assert np.max(np.abs(front_profile_1d.samples - h1d_indicator(s))) <= 1e-15
        assert front_profile_1d(0.5) == pytest.approx(0.25, abs=1e-12)

    def test_d1_discrete_convolution_within_one_cell(self, bench40):
        _, stencil = bench40
        n = 200
        x = (np.arange(2 * n + 1) - n) * stencil.grid_spacing
        out = convolve_mask(stencil, (x <= 0.0).astype(float))
        probe = (x >= 0.0) & (x <= 1.0)
        assert np.max(np.abs(out[probe] - h1d_indicator(x[probe]))) <= stencil.grid_spacing

    def test_endpoint_and_extension_values(self, front_profile_1d):
        assert front_profile_1d(1.0) == 0.0
        assert front_profile_1d(5.0) == 0.0
        assert front_profile_1d(-5.0) == 1.0
        assert abs(front_profile_1d(0.0) - 0.5) <= 1e-6

    def test_d2_indicator_segment_value(self):
        kernel, _ = ss.build_kernel("indicator_ball", 1.0, 2, 0.05)
        prof = ss.front_profile(kernel)
        assert abs(prof(0.5) - H2D_INDICATOR_HALF) <= 1e-6
        s = np.linspace(0.0, 1.0, 21)
        assert np.max(np.abs(prof(s) - h2d_indicator(s))) <= 1e-6

    def test_d2_value_cross_checked_by_riemann_sum(self):
        assert abs(riemann_h2d(0.5, cells_per_ell=1500) - H2D_INDICATOR_HALF) <= 5e-4

    def test_cone_kernels_match_analytic_values(self):
        k1, _ = ss.build_kernel("custom_radial", 1.0, 1, 0.05, profile=cone_profile)
        p1 = ss.front_profile(k1)
        assert abs(p1(0.5) - CONE_1D_H_HALF) <= 1e-8
        assert abs(p1(0.0) - 0.5) <= 1e-8
        k2, _ = ss.build_kernel("custom_radial", 1.0, 2, 0.05, profile=cone_profile)
        p2 = ss.front_profile(k2)
        assert abs(p2(0.5) - CONE_2D_H_HALF) <= 1e-6
        assert abs(p2(0.0) - 0.5) <= 1e-6

    @pytest.mark.parametrize("dim,kind,profile", [
        (1, "indicator_ball", None), (2, "indicator_ball", None),
        (1, "custom_radial", cone_profile), (2, "custom_radial", cone_profile)])
    def test_monotone_and_bounded(self, dim, kind, profile):
        kernel, _ = ss.build_kernel(kind, 1.0, dim, 0.05, profile=profile)
        prof = ss.front_profile(kernel)
        assert np.all(np.diff(prof.samples) <= 0.0)
        assert prof.samples.min() >= 0.0 and prof.samples.max() <= 1.0
        assert prof.samples[-1] == 0.0 and prof.samples[0] == 1.0

    def test_spacing_precondition(self, bench40):
        kernel, _ = bench40
        with pytest.raises(ss.KernelError, match="sample_spacing"):
            ss.front_profile(kernel, sample_spacing=0.1)

    def test_quadrature_failure_reports_achieved_error(self):
        from satspread.kernels import _quad
        with pytest.raises(ss.QuadratureError) as info:
            _quad(lambda z: np.cos(3e7 * z * z), 0.0, 1.0, "oscillatory test")
        assert info.value.achieved > 1e-8

    def test_integral_over_support_exact_for_linear_profile(self, front_profile_1d):
        assert front_profile_1d.integral_zero_to_ell() == pytest.approx(0.25, abs=1e-12)


class TestQuadratureOracles:
    """The numpy quadrature rule against closed forms and per-point
    ``scipy.integrate.quad``."""

    def test_d2_indicator_matches_closed_form(self):
        kernel, _ = ss.build_kernel("indicator_ball", 1.0, 2, 0.05)
        prof = ss.front_profile(kernel)
        assert np.max(np.abs(prof.samples - h2d_indicator(prof.s))) <= 1e-14

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cone_profile_and_mass_match_quad(self, dim):
        kernel, _ = ss.build_kernel("custom_radial", 1.0, dim, 0.05, profile=cone_profile)
        assert abs(quad_kernel_mass(kernel) - 1.0) <= 1e-12
        prof = ss.front_profile(kernel)
        half = prof.s >= 0.0
        s, h = prof.s[half][::5], prof.samples[half][::5]
        expected = [quad_front_profile(kernel, x) for x in s]
        assert np.max(np.abs(h - expected)) <= 1e-12

    @pytest.mark.parametrize("kind,profile", [("indicator_ball", None),
                                              ("custom_radial", cone_profile)])
    @pytest.mark.parametrize("R", [0.3, 0.5, 2.0, 8.0])
    def test_ball_convolution_on_ray_matches_quad(self, kind, profile, R):
        kernel, _ = ss.build_kernel(kind, 1.0, 2, 0.1, profile=profile)
        s = np.linspace(0.0, 1.0, 41)
        expected = [quad_ball_on_ray(kernel, R, x) for x in s]
        assert np.max(np.abs(ball_convolution_on_ray(kernel, R, s) - expected)) <= 1e-11


@pytest.fixture(scope="module")
def kernel2d():
    kernel, _ = ss.build_kernel("indicator_ball", 1.0, 2, 0.1)
    return kernel


class TestCapInequality:

    def test_far_ball_has_no_violation(self, kernel2d):
        report = check_cap_inequality(kernel2d, 0.5, [100.0], n_samples=41)
        assert report.least_nonviolating_radius == 100.0
        assert report.max_violation[0] <= report.tolerance

    def test_violation_margin_monotone_in_radius(self, kernel2d):
        report = check_cap_inequality(kernel2d, 0.5, [2.0, 10.0, 50.0],
                                         n_samples=41)
        margins = report.max_violation
        assert all(b <= a + 1e-12 for a, b in zip(margins, margins[1:]))

    def test_tight_damping_shows_decaying_violations(self, kernel2d):
        # with little damping the near-field genuinely violates the bound and
        # the violation dies off as the ball flattens toward a half plane
        report = check_cap_inequality(kernel2d, 0.02,
                                         [2.0, 5.0, 10.0, 50.0, 100.0],
                                         n_samples=41)
        margins = report.max_violation
        assert margins[0] > 1e-3
        assert all(b <= a for a, b in zip(margins, margins[1:]))
        assert report.least_nonviolating_radius == 50.0

    def test_all_violated_list_is_a_valid_report(self, kernel2d):
        report = check_cap_inequality(kernel2d, 0.02, [2.0], n_samples=21)
        assert report.least_nonviolating_radius is None
        assert report.max_violation[0] > 0.0

    def test_support_endpoint_vanishes_on_both_sides(self, kernel2d):
        rhs = ball_convolution_on_ray(kernel2d, 5.0, np.array([1.0]))
        assert rhs[0] == 0.0
        prof = ss.front_profile(kernel2d)
        assert 0.5 * prof(1.0) == 0.0

    def test_preconditions(self, kernel2d, bench40):
        kernel1d, _ = bench40
        with pytest.raises(ss.KernelError):
            check_cap_inequality(kernel1d, 0.5, [2.0])
        with pytest.raises(ss.KernelError):
            check_cap_inequality(kernel2d, 1.5, [2.0])
        with pytest.raises(ss.KernelError):
            check_cap_inequality(kernel2d, 0.5, [5.0, 2.0])

    def test_negative_radius_rejected(self, kernel2d):
        with pytest.raises(ss.KernelError, match="ball radius"):
            check_cap_inequality(kernel2d, 0.5, [-1.0, 2.0])

    def test_zero_radius_rejected(self, kernel2d):
        with pytest.raises(ss.KernelError, match="ball radius"):
            check_cap_inequality(kernel2d, 0.5, [0.0, 2.0])
        with pytest.raises(ss.KernelError, match="ball radius"):
            ball_convolution_on_ray(kernel2d, 0.0, np.array([0.5]))

    @pytest.mark.parametrize("R", [np.inf, np.nan])
    def test_non_finite_radius_rejected(self, kernel2d, R):
        with pytest.raises(ss.KernelError, match="ball radius"):
            ball_convolution_on_ray(kernel2d, R, np.array([0.5]))

    def test_point_at_or_behind_the_centre_rejected(self, kernel2d):
        with pytest.raises(ss.KernelError, match="R \\+ s > 0"):
            ball_convolution_on_ray(kernel2d, 0.5, np.array([0.2, -0.5]))
        with pytest.raises(ss.KernelError, match="R \\+ s > 0"):
            ball_convolution_on_ray(kernel2d, 0.5, np.array([-0.7]))
