"""Stepping, invariants and diagnostics of the two models."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import satspread as ss

from conftest import seed_plateau
from harnesses import (convolve_mask, direct_loop, gradient_tv_surrogate,
                       local_production, obstacle_residual, rhs_singular, step,
                       weighted_stencil)
from oracles import convolve_1d_plain


@pytest.fixture(scope="module")
def small1d():
    return ss.build_kernel("indicator_ball", 1.0, 1, 0.125)


@pytest.fixture(scope="module")
def small2d():
    return ss.build_kernel("indicator_ball", 1.0, 2, 0.125)


def field1d(values, spacing=0.125):
    values = np.asarray(values, dtype=float)
    n = (len(values) - 1) // 2
    return ss.GridField(values, spacing, [-n * spacing])


def field2d(values, spacing=0.125):
    values = np.asarray(values, dtype=float)
    return ss.GridField(values, spacing, [-((n - 1) // 2) * spacing
                                          for n in values.shape])


def rhs_gamma_direct(u, stencil, growth, gamma, convolve=ss.convolve_field):
    """Finite-pressure rhs with both terms convolved by ``convolve``."""
    p = u.values ** gamma
    g = np.asarray(growth(u.values), dtype=float)
    conv_p = np.clip(convolve(stencil, p), 0.0, 1.0)
    conv_gp = convolve(stencil, g * p)
    return (g * (1.0 - conv_p) + conv_gp) * (1.0 - p)


def patch_with_holes(rng, n, patch):
    """n x n field, random in a centred patch x patch block, about half its
    cells exactly 0, and 0 everywhere else (most cells out of stencil reach)."""
    vals = np.zeros((n, n))
    lo = (n - patch) // 2
    block = rng.uniform(size=(patch, patch)) * (rng.uniform(size=(patch, patch)) < 0.5)
    vals[lo:lo + patch, lo:lo + patch] = block
    return vals


class TestGridField:
    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            field1d(np.full(17, 1.5))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            field1d(np.full(17, -0.1))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ss.GridField(np.array([0.5, np.nan, 0.2]), 0.1, [0.0])
        with pytest.raises(ValueError, match="finite"):
            ss.grid_field(1.0, 0.25, 2, lambda r: np.where(r < 0.5, np.nan, 0.0))

    def test_coords_and_radii(self):
        u = ss.grid_field(2.0, 0.5, 2)
        assert u.shape == (9, 9)
        assert u.radii()[4, 4] == 0.0
        assert u.radii()[0, 0] == pytest.approx(np.sqrt(8.0))
        assert u.axis_coords(0)[0] == -2.0

    @pytest.mark.parametrize("dim,spacing,origin", [
        (1, 0.1, None), (1, 0.0125, [-3.3]), (2, 0.1, None), (2, 0.125, [-3.3, 0.7])])
    def test_radii_bits_equal_norm_of_coords(self, dim, spacing, origin):
        u = ss.grid_field(2.5, spacing, dim)
        if origin is not None:
            u = ss.GridField(u.values, spacing, origin)
        expected = np.linalg.norm(u.coords(), axis=-1)
        assert np.array_equal(u.radii().view(np.uint64), expected.view(np.uint64))


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ss.ModelParams(model="gamma", dt=0.01, t_end=1.0)  # missing gamma
        with pytest.raises(ValueError):
            ss.ModelParams(model="singular", dt=-0.1, t_end=1.0)
        with pytest.raises(ValueError):
            ss.ModelParams(model="nope", dt=0.1, t_end=1.0)

    @pytest.mark.parametrize("fields,message", [
        (dict(model="gamma", gamma=math.nan), "gamma >= 1, finite"),
        (dict(model="gamma", gamma=math.inf), "gamma >= 1, finite"),
        (dict(model="gamma", gamma=0.5), "gamma >= 1, finite"),
        (dict(model="gamma", gamma=8.0, dt=math.nan), "dt must be positive"),
        (dict(model="singular", dt=math.nan), "dt must be positive"),
        (dict(model="singular", t_end=math.nan), "t_end must be nonnegative"),
        (dict(model="singular", t_end=math.inf), "t_end must be nonnegative and finite")])
    def test_nan_and_infinite_values_rejected(self, fields, message):
        """Each check is written so that NaN fails it, when the record is built."""
        with pytest.raises(ValueError, match=message):
            ss.ModelParams(**{"dt": 0.01, "t_end": 1.0, **fields})

    def test_stability_caps(self, linear_g):
        assert ss.stability_cap("gamma", linear_g, 8.0) == pytest.approx(0.1 / 8.0)
        assert ss.stability_cap("singular", linear_g) == pytest.approx(0.1)
        gained = linear_g.with_gain(1.0)
        assert ss.stability_cap("generalized_singular", gained) == pytest.approx(0.05)


class TestRhsGamma:
    def test_saturated_state_is_stationary(self, small1d, linear_g):
        _, st = small1d
        u = field1d(np.ones(33))
        assert np.all(ss.dynamics.rhs_gamma(u, st, linear_g, 8.0) == 0.0)

    def test_vacuum_is_stationary(self, small1d, linear_g):
        _, st = small1d
        u = field1d(np.zeros(33))
        assert np.all(ss.dynamics.rhs_gamma(u, st, linear_g, 8.0) == 0.0)

    def test_constant_state_closed_form_on_interior(self, small1d, linear_g):
        _, st = small1d
        a, gamma = 0.6, 4.0
        u = field1d(np.full(65, a))
        rhs = ss.dynamics.rhs_gamma(u, st, linear_g, gamma)
        reach = st.reach
        # interior cells see the full stencil, so K*a^gamma = a^gamma and the
        # bracket collapses to g(a), leaving g(a) (1 - a^gamma)
        expected = a * (1.0 - a ** gamma)
        assert np.max(np.abs(rhs[reach:-reach] - expected)) <= 1e-13

    def test_bounds_zero_to_lipschitz(self, small1d):
        _, st = small1d
        g = ss.logistic_growth(2.0, 3.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = field1d(np.clip(rng.uniform(-0.2, 1.2, 65), 0, 1))
            rhs = ss.dynamics.rhs_gamma(u, st, g, 16.0)
            assert rhs.min() >= 0.0
            assert rhs.max() <= g.lipschitz + 1e-12

    def test_one_dimensional_rhs_bit_identical_to_direct(self, small1d):
        _, st = small1d
        g = ss.logistic_growth(2.0, 3.0)
        rng = np.random.default_rng(9)
        for cells in (9, 65):
            vals = rng.uniform(size=cells) * (rng.uniform(size=cells) < 0.5)
            u = field1d(vals)
            assert np.array_equal(ss.dynamics.rhs_gamma(u, st, g, 16.0),
                                  rhs_gamma_direct(u, st, g, 16.0, convolve_1d_plain))

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_two_dimensional_constant_states_are_stationary(self, small2d, linear_g,
                                                             value):
        _, st = small2d
        u = field2d(np.full((33, 33), value))
        assert np.all(ss.dynamics.rhs_gamma(u, st, linear_g, 8.0) == 0.0)

    @pytest.mark.parametrize("gamma", [1.0, 16.0])
    def test_two_dimensional_bounds_exact(self, small2d, gamma):
        _, st = small2d
        g = ss.logistic_growth(2.0, 3.0)
        rng = np.random.default_rng(int(gamma))
        for _ in range(5):
            u = field2d(patch_with_holes(rng, 49, 15))
            rhs = ss.dynamics.rhs_gamma(u, st, g, gamma)
            assert rhs.min() >= 0.0
            assert rhs.max() <= g.lipschitz + 1e-12
            assert np.max(np.abs(rhs - rhs_gamma_direct(u, st, g, gamma))) <= 1e-14

    def test_local_production_nonnegative_where_pressure_mass_rounds_above_one(
            self, small2d, linear_g):
        # These weights sum to 1 + 4e-16, so on u = 1 the FFT's K * p exceeds
        # 1 at hundreds of cells; the upper clip keeps 1 - K * p at 0 there.
        _, st = small2d
        u = field2d(np.ones((41, 41)))
        assert np.count_nonzero(ss.kernels.convolve_dense(st, u.values)[0] > 1.0)
        assert local_production(u, st, linear_g, 1.0).min() >= 0.0

    def test_birth_term_vanishes_where_pressure_mass_rounds_above_one(
            self, small2d, linear_g):
        """Where ``K * p`` reads above 1, the clipped crowding factor is 0 and
        the rhs is the spill ``K * (g p)`` times ``1 - p`` alone.  A field of
        1s with one cell an ulp below 1 puts such cells at ``p < 1``, where an
        unclipped factor would shift the rhs by about ``4e-16 * (1 - p)``."""
        _, st = small2d
        probed = 0
        for i in range(0, 41, 4):
            for j in range(0, 41, 4):
                vals = np.ones((41, 41))
                vals[i, j] = np.nextafter(1.0, 0.0)
                rhs = ss.dynamics.rhs_gamma(field2d(vals), st, linear_g, 1.0)
                conv_p, conv_gp = ss.kernels.convolve_dense(st, vals, linear_g(vals) * vals)
                over = (conv_p > 1.0) & (vals < 1.0)
                probed += np.count_nonzero(over)
                assert np.array_equal(rhs[over], conv_gp[over] * (1.0 - vals[over]))
        assert probed


def bits(values):
    """The bit patterns of ``values``: equal bits, not just equal numbers."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def near_threshold(gamma):
    """Densities an ulp below, at and an ulp above ``2**(-1100/gamma)``, the
    least density whose pressure ``rhs_gamma`` computes with ``pow``."""
    t = 2.0 ** (-1100.0 / gamma)
    return np.array([np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)])


class TestGammaLiveBox:
    """The gamma model steps only the bounding box of ``u > 0``, dilated by
    ``reach`` (in 1-d by ``2 * reach``), and calls ``pow`` only from
    ``2**(-1100/gamma)`` up: bit for bit the full-grid direct loop."""

    @staticmethod
    def against_direct(u0, stencil, gamma, n_steps):
        growth = ss.logistic_growth(1.0, 3.0)
        dt = ss.stability_cap("gamma", growth, gamma)
        params = ss.ModelParams(model="gamma", gamma=gamma, dt=dt, t_end=n_steps * dt)
        res = ss.run(u0, params, stencil, growth, monitors=True)
        final, sat_time, monitors, clamped = direct_loop(u0, params, stencil, growth,
                                                         n_steps)
        assert np.array_equal(bits(res.final.values), bits(final.values))
        assert np.array_equal(res.saturation_time, sat_time)
        assert res.clamped_total == clamped
        for key, value in monitors.items():
            assert res.monitors[key] == value, key
        # every step, not only the last: a rounding apart can wash out by then
        direct = u0
        for u, *_ in ss.dynamics._euler_steps(u0, params, stencil, growth):
            direct = step(direct, params, stencil, growth)[0]
            assert np.array_equal(bits(u.values), bits(direct.values))
        return res

    @staticmethod
    def live_box(values, by):
        """The live box as a boolean mask of the grid."""
        box = np.zeros(values.shape, dtype=bool)
        nonzero = np.nonzero(values)
        box[tuple(slice(max(a.min() - by, 0), a.max() + by + 1) for a in nonzero)] = True
        return box

    @pytest.mark.parametrize("gamma", [1.0, 8.0, 128.0])
    @pytest.mark.parametrize("where", ["corner", "rows", "centre"])
    def test_two_dimensional_boxes(self, small2d, gamma, where):
        """A support in a corner (the box is clipped at two edges), one that
        spans whole rows (the box's cells are one contiguous run), and one
        clear of the edges; each box is smaller than the grid."""
        _, st = small2d
        rng = np.random.default_rng(int(gamma))
        vals = np.zeros((45, 41))
        block = {"corner": np.s_[:6, -9:], "rows": np.s_[20:24, :],
                 "centre": np.s_[18:27, 15:22]}[where]
        vals[block] = rng.uniform(0.05, 1.0, vals[block].shape)
        vals[block][rng.uniform(size=vals[block].shape) < 0.2] = 1.0
        res = self.against_direct(field2d(vals), st, gamma, 30)
        assert 0 < np.count_nonzero(self.live_box(vals, st.reach)) < vals.size
        assert np.count_nonzero(res.final.values != vals) > 50

    @pytest.mark.parametrize("gamma", [1.0, 8.0, 128.0])
    @pytest.mark.parametrize("block", [np.s_[:5], np.s_[-3:], np.s_[60:70],
                                       np.s_[30:31], np.s_[:]])
    def test_one_dimensional_windows(self, small1d, gamma, block):
        """Supports at either end, clear of both, one cell wide, and filling
        the line; the window reaches ``2 * reach`` past the support, so every
        output within reach of it is an all-taps dot product."""
        _, st = small1d
        vals = np.zeros(129)
        vals[block] = np.random.default_rng(7).uniform(0.05, 1.0, vals[block].shape)
        self.against_direct(field1d(vals), st, gamma, 40)

    @pytest.mark.parametrize("gamma", [1.0, 1.02, 1.5, 8.0, 128.0, 1e3, 1e16, 1e18, 1e20])
    def test_pressure_threshold_keeps_the_bits_of_pow(self, gamma):
        """Densities an ulp below, at and above the threshold, some whose
        power is subnormal, the least subnormal, 0, and the ulps at 1:
        ``_pressure`` has the bits of ``v ** gamma``."""
        tiny = np.finfo(float).smallest_subnormal
        # powers of about 2**-1074 and 2**-1050: a subnormal p, skipped by no threshold
        lowest = [2.0 ** (-1074.0 / gamma), 2.0 ** (-1050.0 / gamma)]
        v = np.concatenate([near_threshold(gamma), lowest, [0.0, tiny, 2 * tiny, 1e-300,
                            1e-10, 0.5, np.nextafter(1.0, 0.0), 1.0]])
        v = np.concatenate([v, np.random.default_rng(3).uniform(size=200)])
        assert np.array_equal(bits(ss.dynamics._pressure(v, gamma)), bits(v ** gamma))

    @pytest.mark.parametrize("gamma", [8.0, 128.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_densities_at_the_pow_threshold(self, small1d, small2d, gamma, dim):
        """Cells an ulp below, at and above ``2**(-1100/gamma)``, among the
        support and alone in the vacuum, step as on the full grid."""
        _, st = (small1d, small2d)[dim - 1]
        rng = np.random.default_rng(dim)
        vals = np.zeros((97,) if dim == 1 else (41, 41))
        vals[(slice(14, 24),) * dim] = rng.uniform(0.5, 1.0, (10,) * dim)
        flat = vals.ravel()
        flat[[12, 25, 27]] = near_threshold(gamma)
        flat[flat.size - 3:] = near_threshold(gamma)
        self.against_direct(field1d(vals) if dim == 1 else field2d(vals), st, gamma, 20)

    def test_cells_off_the_box_keep_their_bits(self, small2d):
        """Each step writes the live box of the field it starts from, and no
        other cell; ``before`` is a copy that later steps never write, also
        where the box spans whole rows."""
        _, st = small2d
        growth = ss.logistic_growth(1.0, 3.0)
        vals = np.zeros((45, 41))
        vals[20:24, :] = np.random.default_rng(4).uniform(0.05, 1.0, (4, 41))
        dt = ss.stability_cap("gamma", growth, 8.0)
        params = ss.ModelParams(model="gamma", gamma=8.0, dt=dt, t_end=30 * dt)
        prev = vals.copy()
        kept = []
        for u, before, after, *_, written in ss.dynamics._euler_steps(
                field2d(vals), params, st, growth):
            box = self.live_box(prev, st.reach).ravel()
            assert np.array_equal(written, np.flatnonzero(box))
            assert np.array_equal(bits(u.values.ravel()[~box]), bits(prev.ravel()[~box]))
            assert not np.shares_memory(before, u.values)
            kept.append((before, before.copy()))
            prev = u.values.copy()
        assert all(np.array_equal(bits(a), bits(b)) for a, b in kept)


class TestRhsSingular:
    def test_zero_exactly_on_saturated_set(self, small1d, linear_g):
        _, st = small1d
        vals = np.clip(np.linspace(-0.5, 1.5, 33), 0, 1)
        u = field1d(vals)
        rhs = rhs_singular(u, st, linear_g)
        assert np.all(rhs[vals >= 1.0] == 0.0)

    def test_empty_mask_reduces_to_pure_growth(self, small1d):
        _, st = small1d
        g = ss.logistic_growth(1.0, 3.0)
        a = 0.37
        u = field1d(np.full(33, a))
        rhs = rhs_singular(u, st, g)
        assert np.max(np.abs(rhs - float(g(a)))) == 0.0

    def test_empty_point_next_to_saturated_wall_grows_at_g1(self, small1d, linear_g):
        _, st = small1d
        vals = np.ones(65)
        center = 32
        vals[center] = 0.0
        u = field1d(vals)
        rhs = rhs_singular(u, st, linear_g)
        w0 = float(st.weights[np.all(st.offsets == 0, axis=1)][0])
        # g(0) = 0 kills the local term; the neighborhood term carries g(1)
        # up to the one missing center weight.
        assert rhs[center] == pytest.approx(linear_g.g1 * (1.0 - w0), abs=1e-14)
        assert abs(rhs[center] - linear_g.g1) <= 2 * w0 * linear_g.g1

    def test_generalized_model(self, small1d):
        _, st = small1d
        g = ss.linear_growth(1.0).with_gain(0.5)
        a = 0.4
        u = field1d(np.full(33, a))
        rhs = rhs_singular(u, st, g, generalized=True)
        assert np.max(np.abs(rhs - a)) == 0.0  # no mask: gain term inactive
        vals = np.full(65, a)
        vals[:20] = 1.0
        u = field1d(vals)
        rhs = rhs_singular(u, st, g, generalized=True)
        conv = convolve_mask(st, (vals >= 1.0).astype(float))
        expected = a + 0.5 * conv[30]
        assert rhs[30] == pytest.approx(expected, abs=1e-14)
        assert rhs.max() <= g.sup + g.gain + 1e-12

    def test_saturated_state_is_stationary(self, small1d, linear_g):
        _, st = small1d
        u = field1d(np.ones(33))
        assert np.all(rhs_singular(u, st, linear_g) == 0.0)


class TestStep:
    def test_stationary_states(self, small1d, linear_g):
        _, st = small1d
        params = ss.ModelParams(model="singular", dt=0.1, t_end=1.0)
        for vals in (np.zeros(33), np.ones(33)):
            u = field1d(vals)
            u1, clamped = step(u, params, st, linear_g)
            assert np.array_equal(u1.values, vals)
            assert not clamped.any()
            assert u1.time == pytest.approx(0.1)

    def test_seed_pushes_strictly_within_kernel_reach(self, small1d, linear_g):
        _, st = small1d
        vals = np.zeros(65)
        center = 32
        vals[center] = 1.0
        u = field1d(vals)
        params = ss.ModelParams(model="singular", dt=0.1, t_end=1.0)
        u1, _ = step(u, params, st, linear_g)
        x = u.axis_coords(0)
        near = (np.abs(x - x[center]) <= 1.0) & (np.abs(x - x[center]) > 0)
        assert np.all(u1.values[near] > 0.0)
        assert np.all(u1.values[~near & (np.abs(x - x[center]) > 1.0)] == 0.0)

    @pytest.mark.parametrize("params,lipschitz", [
        (ss.ModelParams(model="gamma", gamma=10.0, dt=0.05, t_end=1.0), 1.0),
        # a NaN Lipschitz bound makes the cap NaN, which no step may pass
        (ss.ModelParams(model="singular", dt=5.0, t_end=10.0), math.nan)],
        ids=["gamma", "nan-lipschitz"])
    def test_step_above_cap_rejected(self, small1d, linear_g, params, lipschitz):
        _, st = small1d
        growth = linear_g._replace(lipschitz=lipschitz)
        with pytest.raises(ValueError, match="stability cap"):
            step(field1d(np.zeros(33)), params, st, growth)
        with pytest.raises(ValueError, match="stability cap"):
            ss.run(field1d(np.zeros(33)), params, st, growth)

    @pytest.mark.parametrize("model", ["singular", "gamma"])
    def test_growth_not_vanishing_at_zero_rejected(self, small1d, model):
        # A directly built law skips the factory's checks; the stepping band
        # leaves out cells where the rhs is g(0), so g(0) must be exactly 0.
        _, st = small1d
        law = ss.GrowthLaw(kind="linear", params=(1.0,), r=1.0, lipschitz=1.0,
                           sup=1.0, g1=1.0, monotone_cap=True,
                           fn=lambda u: 1.0 * u + 1e-16)
        u0 = ss.grid_field(2.0, 0.125, 1, seed_plateau(0.5, 0.25))
        params = ss.ModelParams(model=model, dt=0.01, t_end=0.1, gamma=2.0)
        for stepper in (step, ss.run):
            with pytest.raises(ValueError, match="g\\(0\\) != 0"):
                stepper(u0, params, st, law)

    def test_clamping_reported_and_exact(self, small1d, linear_g):
        _, st = small1d
        vals = np.full(33, 0.995)
        u = field1d(vals)
        params = ss.ModelParams(model="singular", dt=0.1, t_end=1.0)
        u1, clamped = step(u, params, st, linear_g)
        assert clamped.any()
        assert u1.values.max() == 1.0


@st.composite
def decimal_schedules(draw):
    """Mantissas of ``dt <= 0.1``, a snapshot interval ``>= dt`` and ``t_end``
    at most 600 steps, at one decimal exponent; an interval and ``t_end``
    are often multiples of ``dt``."""
    exp = draw(st.sampled_from([2, 3, 4]))
    dt = draw(st.integers(1, 10 ** (exp - 1)))
    interval = draw(st.one_of(st.integers(1, 40).map(lambda j: j * dt),
                              st.integers(dt, 50 * dt)))
    t_end = draw(st.one_of(st.integers(0, 600).map(lambda j: j * dt),
                           st.integers(0, 600 * dt)))
    return exp, dt, interval, t_end


class TestRun:
    def test_vacuum_run_records_nothing(self, small1d, linear_g):
        _, st = small1d
        u0 = ss.grid_field(2.0, 0.125, 1)
        params = ss.ModelParams(model="singular", dt=0.1, t_end=2.0)
        res = ss.run(u0, params, st, linear_g, snapshot_interval=0.5, monitors=True)
        assert all(np.all(s == 0.0) for s in res.snapshots)
        assert np.all(np.isinf(res.saturation_time))
        assert res.clamped_total == 0

    @pytest.mark.parametrize("interval", [1e-15, 0.05, 0.0, -1.0, float("nan")])
    def test_snapshot_interval_below_dt_rejected(self, small1d, linear_g, interval):
        # t_end = 0: a run that took the interval would end at once, not hang
        _, st = small1d
        u0 = ss.grid_field(2.0, 0.125, 1, seed_plateau(0.5, 0.25))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=0.0)
        with pytest.raises(ValueError, match="snapshot_interval"):
            ss.run(u0, params, st, linear_g, snapshot_interval=interval)
        assert len(ss.run(u0, params, st, linear_g, snapshot_interval=0.1).times) == 1

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(decimal_schedules())
    # dt = 0.0125 to t = 30 and dt = 0.025 to t = 40, each snapshot every 1.0:
    # the accumulated clock used to fall behind, and snapshots a step with it
    @example((4, 125, 10000, 300000))
    @example((3, 25, 1000, 40000))
    def test_snapshot_steps_match_exact_schedule(self, small1d, linear_g, case):
        """The snapshot steps are those of the exact schedule: step ``k`` ends
        at ``k * dt``, a shorter last step at ``t_end``, and each multiple of
        the interval is taken at the first step that reaches it."""
        exp, dt, interval, t_end = case
        dt_q, interval_q, t_end_q = (Fraction(m, 10 ** exp) for m in (dt, interval, t_end))
        ends = [k * dt_q for k in range(1, int(t_end_q // dt_q) + 1)]
        if t_end_q > len(ends) * dt_q:
            ends.append(t_end_q)
        expected, target = {len(ends)} if ends else set(), interval_q
        for k, t in enumerate(ends, 1):
            if t >= target:
                expected.add(k)
                while target <= t:
                    target += interval_q
        params = ss.ModelParams(model="singular", dt=float(f"{dt}e-{exp}"),
                                t_end=float(f"{t_end}e-{exp}"))
        interval = float(f"{interval}e-{exp}")
        assert ss.dynamics._snapshot_steps(params, interval) == expected
        # run records the accumulated clock of those steps
        u0 = ss.grid_field(0.25, 0.125, 1)
        clock = [u.time for u, *_ in ss.dynamics._euler_steps(u0, params, small1d[1],
                                                              linear_g)]
        res = ss.run(u0, params, small1d[1], linear_g, snapshot_interval=interval)
        assert res.times == [0.0] + [clock[k - 1] for k in sorted(expected)]

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(1, 999), st.integers(1, 5), st.integers(5_000, 50_000),
           st.one_of(st.just(0), st.integers(1, 99)))
    # dt = 0.011 to 70.4, 0.022 to 140.8 and 0.009 to 450 took a last step of
    # about 1e-14 when the slack was absolute
    @example(11, 3, 6400, 0)
    @example(22, 3, 6400, 0)
    @example(9, 3, 50000, 0)
    def test_step_count_matches_exact_count(self, mantissa, exp, n, hundredths):
        """``t_end = (n + hundredths / 100) * dt``, both written as decimals,
        takes the exact count of steps: ``n`` whole ones, then a shorter one
        when ``hundredths > 0``, and no step of a few ulps from rounding."""
        dt_q = Fraction(mantissa, 10 ** exp)
        t_end_q = dt_q * (n + Fraction(hundredths, 100))
        params = ss.ModelParams(model="singular", dt=float(dt_q), t_end=float(t_end_q))
        steps, last = ss.dynamics._step_count(params)
        assert steps == -(-t_end_q // dt_q)
        if hundredths:
            assert last == pytest.approx(float(t_end_q - n * dt_q), rel=1e-6)
        else:
            assert last == params.dt

    def test_monotonicity_and_bounds_monitors(self, small1d, linear_g):
        _, st = small1d
        u0 = ss.grid_field(4.0, 0.125, 1, seed_plateau(1.0, 0.5))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=3.0)
        res = ss.run(u0, params, st, linear_g, snapshot_interval=1.0, monitors=True)
        assert res.monitors["time_monotonicity_gap"] == 0.0
        assert res.monitors["mask_monotonicity_violations"] == 0.0
        assert res.monitors["min_u"] >= 0.0
        assert res.monitors["max_u"] <= 1.0

    def test_positive_patch_invades_everything(self, small1d, linear_g):
        _, st = small1d
        u0 = ss.grid_field(3.0, 0.125, 1,
                           lambda r: 0.3 * np.clip((0.75 - r) / 0.25, 0, 1))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=25.0)
        res = ss.run(u0, params, st, linear_g)
        assert np.all(np.isfinite(res.saturation_time))
        assert np.all(res.final.values == 1.0)

    def test_gamma_model_runs_and_stays_bounded(self, small2d, linear_g):
        _, st = small2d
        u0 = ss.grid_field(2.0, 0.125, 2, seed_plateau(0.5, 0.25))
        params = ss.ModelParams(model="gamma", gamma=8.0, dt=0.0125, t_end=0.5)
        res = ss.run(u0, params, st, linear_g, snapshot_interval=0.25, monitors=True)
        assert res.monitors["max_u"] <= 1.0
        assert res.monitors["max_rhs"] <= linear_g.lipschitz + 1e-12

    def test_two_dimensional_gamma_run_matches_direct_loop(self, small2d):
        _, st = small2d
        g = ss.logistic_growth(1.0, 3.0)
        gamma, steps = 8.0, 25
        dt = ss.stability_cap("gamma", g, gamma)
        u0 = ss.grid_field(3.0, 0.125, 2, seed_plateau(1.0, 0.5))
        params = ss.ModelParams(model="gamma", gamma=gamma, dt=dt, t_end=steps * dt)
        res = ss.run(u0, params, st, g)
        u = u0
        for _ in range(steps):
            rhs = rhs_gamma_direct(u, st, g, gamma)
            u = ss.GridField(np.minimum(u.values + dt * rhs, 1.0), u.spacing,
                             u.origin, u.time + dt)
        assert np.count_nonzero(u.values != u0.values) > 100
        assert np.max(np.abs(res.final.values - u.values)) <= 1e-12

    def test_two_dimensional_gamma_run_keeps_vacuum_out_of_reach(self):
        # rate * t_end = 20: mass seeded in the vacuum would grow by e^20
        _, st = ss.build_kernel("indicator_ball", 1.0, 2, 0.25)
        g = ss.logistic_growth(1.0, 3.0)
        gamma, steps = 2.0, 400
        dt = ss.stability_cap("gamma", g, gamma)
        u0 = ss.grid_field(9.0, 0.25, 2, seed_plateau(1.0, 0.5))
        params = ss.ModelParams(model="gamma", gamma=gamma, dt=dt, t_end=steps * dt)
        res = ss.run(u0, params, st, g)
        u = u0.values
        for _ in range(steps):
            rhs = rhs_gamma_direct(ss.GridField(u, u0.spacing, u0.origin), st, g, gamma)
            u = np.minimum(u + dt * rhs, 1.0)
        vacuum = u == 0.0
        assert np.count_nonzero(vacuum) >= 100
        assert np.all(res.final.values[vacuum] == 0.0)
        assert np.max(np.abs(res.final.values - u)) <= 1e-10

    def test_generalized_model_spreads_and_keeps_invariants(self, small1d):
        _, st = small1d
        g = ss.linear_growth(1.0).with_gain(0.5)
        u0 = ss.grid_field(3.0, 0.125, 1, seed_plateau(0.5, 0.25))
        params = ss.ModelParams(model="generalized_singular", dt=0.05, t_end=4.0)
        res = ss.run(u0, params, st, g, snapshot_interval=1.0, monitors=True)
        assert res.monitors["time_monotonicity_gap"] == 0.0
        assert res.monitors["max_u"] <= 1.0
        support0 = np.count_nonzero(u0.values > 0)
        assert np.count_nonzero(res.final.values > 0) > support0

    @pytest.mark.parametrize("model", ["singular", "generalized_singular"])
    def test_scaled_law_runs_in_rescaled_time(self, small1d, model):
        """``scaled(2)`` doubles every rate, the gain included, so a run at
        half the ``dt`` to half the ``t_end`` ends on the same bits, with
        half the saturation times."""
        _, st = small1d
        g = ss.logistic_growth(1.0, 3.0).with_gain(0.5)
        u0 = ss.grid_field(4.0, 0.125, 1, seed_plateau(0.5, 0.25))
        params = ss.ModelParams(model=model, dt=0.05, t_end=2.0)
        slow = ss.run(u0, params, st, g)
        fast = ss.run(u0, params._replace(dt=0.025, t_end=1.0), st, g.scaled(2.0))
        assert np.count_nonzero(np.isfinite(slow.saturation_time)) > np.count_nonzero(
            u0.values >= 1.0)
        assert np.array_equal(fast.final.values, slow.final.values)
        assert np.array_equal(2.0 * fast.saturation_time, slow.saturation_time)

    def test_time_shifted_states_stay_ordered(self, small1d, linear_g):
        _, st = small1d
        u0 = ss.grid_field(4.0, 0.125, 1, seed_plateau(1.0, 0.5))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=4.0)
        res = ss.run(u0, params, st, linear_g, snapshot_interval=1.0)
        for earlier, later in zip(res.snapshots, res.snapshots[1:]):
            assert np.all(later >= earlier)

    def test_negative_zero_out_of_reach_steps_to_zero(self, small1d, linear_g):
        # A full-grid step turns -0.0 into 0.0 (-0.0 + dt * 0.0); the stepping
        # band must hold such a cell even out of reach of S.
        _, st = small1d
        u0 = ss.grid_field(2.0, 0.125, 1, seed_plateau(0.5, 0.25))
        u0.values[0] = -0.0
        params = ss.ModelParams(model="singular", dt=0.1, t_end=0.2)
        res = ss.run(u0, params, st, linear_g)
        final = direct_loop(u0, params, st, linear_g, 2)[0].values
        assert not np.signbit(final[0])
        assert np.array_equal(np.signbit(res.final.values), np.signbit(final))

    def test_speed_workload_density_field_equals_direct_loop(self):
        """The ``speed1d`` benchmark's seed-0 plateau at its resolution (dx =
        ell/80, dt 0.00625, box 22), run to t = 2: 320 steps, through the
        burst of the first event.  The workload writes only what the
        saturated set gives, so this pins its 1-d densities: ``run`` has the
        direct loop's final field and saturation times, bit for bit."""
        dx, dt, t_end = 0.0125, 0.00625, 2.0
        _, st = ss.build_kernel("indicator_ball", 1.0, 1, dx)
        growth = ss.linear_growth(1.0)
        plateau = seed_plateau(1.4474, 0.572)
        u0 = ss.grid_field(22.0, dx, 1, lambda r: 0.9689 * plateau(r))
        params = ss.ModelParams(model="singular", dt=dt, t_end=t_end)
        res = ss.run(u0, params, st, growth)
        final, sat_time, _, _ = direct_loop(u0, params, st, growth, 320)
        assert res.final.time == final.time
        assert np.array_equal(bits(res.final.values), bits(final.values))
        assert np.array_equal(bits(res.saturation_time), bits(sat_time))
        assert np.count_nonzero(np.isfinite(sat_time)) == 363


GAINED = ss.linear_growth(1.0).with_gain(0.5)

#: (model, dim, box radius, t_end, growth); the small boxes saturate up to
#: the box edge.
RUNNING_FIELD_CASES = {
    "1d-singular": ("singular", 1, 4.0, 3.0, None),
    "1d-generalized": ("generalized_singular", 1, 4.0, 3.0, GAINED),
    "1d-to-box-edge": ("singular", 1, 2.0, 6.0, None),
    "1d-box-below-stencil": ("singular", 1, 0.875, 2.0, None),
    "2d-singular": ("singular", 2, 2.5, 2.0, None),
    "2d-generalized": ("generalized_singular", 2, 2.5, 2.0, GAINED),
    "2d-to-box-edge": ("singular", 2, 1.5, 4.0, None),
}


class TestRunningMaskConvolution:
    """run() keeps K * 1_S as a running field; step() convolves directly."""

    @staticmethod
    def compare(case, kernel_kind, linear_g):
        model, dim, box, t_end, growth = RUNNING_FIELD_CASES[case]
        growth = growth or linear_g
        st = (weighted_stencil(lambda r: np.clip(1.0 - r, 0.0, None), dim, 0.125)
              if kernel_kind == "cone" else ss.build_kernel(kernel_kind, 1.0, dim, 0.125)[1])
        u0 = ss.grid_field(box, 0.125, dim, seed_plateau(0.5, 0.5))
        params = ss.ModelParams(model=model, dt=0.05, t_end=t_end)
        res = ss.run(u0, params, st, growth, snapshot_interval=0.5)
        final, sat_time, _, _ = direct_loop(u0, params, st, growth, round(t_end / 0.05))
        # the masks are derived from the saturation times
        assert len(res.masks) == len(res.snapshots) > 2
        for mask, snap in zip(res.masks, res.snapshots):
            assert np.array_equal(mask, ss.saturated_mask(snap))
        # the front must have moved, and the edge cases must reach the edge
        assert np.count_nonzero(np.isfinite(res.saturation_time)) > np.count_nonzero(
            u0.values >= 1.0)
        if "edge" in case:
            assert np.isfinite(res.saturation_time[0]).any()
        if "below-stencil" in case:
            assert u0.shape[0] < st.dense.shape[0]
        return res, final, sat_time

    @pytest.mark.parametrize("case", sorted(RUNNING_FIELD_CASES))
    def test_indicator_kernel_exact(self, case, linear_g):
        res, final, sat_time = self.compare(case, "indicator_ball", linear_g)
        assert np.array_equal(res.final.values, final.values)
        assert np.array_equal(res.saturation_time, sat_time)

    @pytest.mark.parametrize("case", ["1d-singular", "2d-singular", "2d-generalized"])
    def test_unequal_weights_within_rounding(self, case, linear_g):
        res, final, sat_time = self.compare(case, "cone", linear_g)
        assert np.max(np.abs(res.final.values - final.values)) <= 1e-14
        assert np.array_equal(np.isfinite(res.saturation_time), np.isfinite(sat_time))
        finite = np.isfinite(sat_time)
        assert np.max(np.abs(res.saturation_time[finite] - sat_time[finite])) <= 1e-14

    def test_shrinking_saturated_set_raises(self, small1d, linear_g, monkeypatch):
        _, st = small1d
        u0 = ss.grid_field(2.0, 0.125, 1, seed_plateau(0.5, 0.25))
        # The saturated models never step S; the gamma model's live box holds
        # it, and an rhs there that pulls the cells at 1.0 down must raise.
        params = ss.ModelParams(model="gamma", dt=0.1, t_end=1.0, gamma=1.0)
        assert np.count_nonzero(u0.values >= 1.0)
        monkeypatch.setattr(ss.dynamics, "model_rhs",
                            lambda u, params, stencil, growth, band, values:
                            -1.0 * (values >= 1.0))
        with pytest.raises(ss.InvariantViolation, match="left the saturated set"):
            ss.run(u0, params, st, linear_g)

    @staticmethod
    def patch_rhs(monkeypatch, rhs, on_step):
        """``model_rhs`` with ``rhs(values)`` added on step ``on_step`` (from 1)."""
        inner, calls = ss.dynamics.model_rhs, []

        def patched(u, params, stencil, growth, band, values):
            calls.append(u.time)
            out = inner(u, params, stencil, growth, band, values)
            return out + rhs(values) if len(calls) == on_step else out

        monkeypatch.setattr(ss.dynamics, "model_rhs", patched)

    @pytest.mark.parametrize("model", ["singular", "generalized_singular"])
    def test_negative_rhs_below_zero_raises_at_its_step(self, small1d, model,
                                                        monkeypatch):
        _, st = small1d
        growth = GAINED if model == "generalized_singular" else ss.linear_growth(1.0)
        u0 = ss.grid_field(2.0, 0.125, 1, seed_plateau(0.5, 0.25))
        params = ss.ModelParams(model=model, dt=0.05, t_end=0.5)
        self.patch_rhs(monkeypatch, lambda v: -100.0 * v, on_step=3)
        with pytest.raises(ss.InvariantViolation, match="left \\[0, 1\\] at t=0.15 "):
            ss.run(u0, params, st, growth)

    @pytest.mark.parametrize("model", ["singular", "generalized_singular"])
    def test_negative_rhs_above_zero_reports_the_exact_minimum(self, small1d, model,
                                                               monkeypatch):
        """A step whose rhs has entries below 0 reduces ``after``: a constant
        field at 0.6 (no cell saturated, so ``K * 1_S = 0`` and the rhs is
        ``g(u)``) pulled down by ``2 u`` on step 2 reads its exact minimum
        and gap."""
        _, st = small1d
        growth = GAINED if model == "generalized_singular" else ss.linear_growth(1.0)
        u0 = ss.grid_field(1.0, 0.125, 1, lambda r: np.full_like(r, 0.6))
        dt = 0.05
        params = ss.ModelParams(model=model, dt=dt, t_end=4 * dt)
        self.patch_rhs(monkeypatch, lambda v: -2.0 * v, on_step=2)
        res = ss.run(u0, params, st, growth, monitors=True)
        first = 0.6 + dt * 0.6
        second = first + dt * (first - 2.0 * first)
        assert second < first < 1.0
        assert res.monitors["min_u"] == second
        assert res.monitors["time_monotonicity_gap"] == first - second > 0.0
        assert res.monitors["max_u"] == float(res.final.values.max())

    @pytest.mark.parametrize("model", ss.dynamics.MODEL_KINDS)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_run_calls_model_rhs_once_per_step_with_the_whole_grid(
            self, small1d, small2d, model, dim, monkeypatch):
        """perfbench's traced gate counts cell updates as the cells of the
        field that ``model_rhs`` receives first, summed over its calls, and
        its span list expects ``convolve_field`` on a saturated run: so
        ``run`` calls ``model_rhs`` once per step with the whole grid, and the
        saturated models convolve their first mask with ``convolve_field``."""
        _, st = small1d if dim == 1 else small2d
        growth = GAINED if model == "generalized_singular" else ss.linear_growth(1.0)
        u0 = ss.grid_field(2.0, 0.125, dim, seed_plateau(0.5, 0.25))
        params = ss.ModelParams(model=model, dt=0.05, t_end=0.52, gamma=2.0)
        fields, masks = [], []
        rhs, conv = ss.dynamics.model_rhs, ss.dynamics.convolve_field
        monkeypatch.setattr(ss.dynamics, "model_rhs",
                            lambda u, *args: fields.append(u) or rhs(u, *args))
        monkeypatch.setattr(ss.dynamics, "convolve_field",
                            lambda stencil, values: masks.append(values) or conv(
                                stencil, values))
        res = ss.run(u0, params, st, growth)
        assert len(fields) == ss.dynamics._step_count(params)[0] == 11
        assert all(u is res.final for u in fields)
        assert res.final.values.shape == u0.shape
        assert len(masks) == (model != "gamma")

    @pytest.mark.parametrize("model", ["singular", "gamma"])
    def test_nan_in_the_run_raises(self, small1d, linear_g, model):
        _, st = small1d
        # NaN weights make every convolution NaN; min(x, nan) used to drop it
        broken = st._replace(dense=st.dense * np.nan)
        u0 = ss.grid_field(2.0, 0.125, 1, seed_plateau(0.5, 0.25))
        params = ss.ModelParams(model=model, dt=0.01, t_end=0.1, gamma=2.0)
        with pytest.raises(ss.InvariantViolation, match="left \\[0, 1\\]"):
            ss.run(u0, params, broken, linear_g)


class TestMassIdentity:
    @staticmethod
    def check_balance(stencil, cells):
        g = ss.logistic_growth(1.0, 3.0)
        rng = np.random.default_rng(7)
        gamma, dt = 4.0, 0.02
        params = ss.ModelParams(model="gamma", gamma=gamma, dt=dt, t_end=1.0)
        dim = stencil.dim
        for _ in range(5):
            vals = np.zeros((cells,) * dim)
            inner = (slice(stencil.reach + 2, cells - stencil.reach - 2),) * dim
            vals[inner] = 0.5 * rng.uniform(size=vals[inner].shape)
            u = field1d(vals) if dim == 1 else field2d(vals)
            u1, clamped = step(u, params, stencil, g)
            assert not clamped.any()
            cell = stencil.grid_spacing ** dim
            gained = float(np.sum(u1.values - u.values)) * cell
            produced = float(np.sum(local_production(u, stencil, g, gamma))) * cell
            # the rearrangement part sums to zero by stencil symmetry
            assert abs(gained - dt * produced) <= dt * 1e-10

    def test_interior_mass_balance_matches_local_production(self, small1d):
        self.check_balance(small1d[1], 129)

    def test_two_dimensional_mass_balance(self, small2d):
        self.check_balance(small2d[1], 41)


class TestSaturationTimes:
    def test_initially_saturated_cells_get_time_zero(self, small1d, linear_g):
        _, st = small1d
        u0 = ss.grid_field(4.0, 0.125, 1, seed_plateau(1.0, 0.5))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=1.0)
        res = ss.run(u0, params, st, linear_g)
        times = res.saturation_time
        assert np.all(times[u0.values >= 1.0] == 0.0)

    def test_seed_saturation_time_monotone_in_distance(self, small1d, linear_g):
        _, st = small1d
        u0 = ss.grid_field(4.0, 0.125, 1, seed_plateau(0.5, 0.25))
        params = ss.ModelParams(model="singular", dt=0.05, t_end=20.0)
        res = ss.run(u0, params, st, linear_g)
        times = res.saturation_time
        center = u0.shape[0] // 2
        right = times[center:]
        assert np.all(np.diff(right) >= 0.0)


class TestLipschitzPropagation:
    def test_discrete_lipschitz_stays_under_proven_bound(self, small1d, linear_g):
        _, st = small1d
        u0 = ss.grid_field(4.0, 0.125, 1, seed_plateau(1.0, 0.5))
        lip0 = ss.dynamics.discrete_lipschitz(u0)
        tv = gradient_tv_surrogate(st)
        params = ss.ModelParams(model="singular", dt=0.05, t_end=2.0)
        res = ss.run(u0, params, st, linear_g, monitors=True)
        bound = (lip0 + 2.0 * tv) * np.exp(linear_g.lipschitz * 2.0)
        assert res.monitors["max_lipschitz"] <= bound + st.grid_spacing

    def test_tv_surrogate_value_for_1d_indicator(self, bench40):
        _, st = bench40
        # two edge jumps of height 1/(2 ell) give total variation about 1/ell
        assert gradient_tv_surrogate(st) == pytest.approx(1.0, rel=0.05)


class TestObstacleResidual:
    def test_constant_states_have_zero_residual(self, small1d, linear_g):
        _, st = small1d
        params = ss.ModelParams(model="singular", dt=0.1, t_end=1.0)
        for vals in (np.zeros(33), np.ones(33)):
            u = field1d(vals)
            u1, _ = step(u, params, st, linear_g)
            res = obstacle_residual(u, u1, 0.1, st, linear_g)
            assert np.all(res == 0.0)

    def test_saturated_interior_residual_zero(self, small1d, linear_g):
        _, st = small1d
        vals = np.clip(np.linspace(1.8, -1.2, 65), 0, 1)
        u = field1d(vals)
        params = ss.ModelParams(model="singular", dt=0.05, t_end=1.0)
        u1, _ = step(u, params, st, linear_g)
        res = obstacle_residual(u, u1, 0.05, st, linear_g)
        saturated_both = (u.values >= 1.0) & (u1.values >= 1.0)
        assert np.all(res[saturated_both] == 0.0)
        assert np.all(res <= 1e-12)  # max-form residual is never positive here
