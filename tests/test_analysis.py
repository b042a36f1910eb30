"""Front tracking, speed estimation, comparison and convergence harnesses."""
from __future__ import annotations

import numpy as np
import pytest

import satspread as ss

from conftest import seed_plateau
from harnesses import comparison_counterexample, subsolution_gap, upper_envelope_gap


@pytest.fixture(scope="module")
def coarse1d():
    return ss.build_kernel("indicator_ball", 1.0, 1, 0.125)


def synthetic_translation(wave, speed, box_radius, spacing, times, start,
                          mirrored=False):
    """RunResult holding a rigidly translating sampled wave, no dynamics; with
    ``mirrored``, the wave at ``|x|``, which spreads both ways from the origin."""
    grid = ss.grid_field(box_radius, spacing, 1)
    x = grid.axis_coords(0)
    if mirrored:
        x = np.abs(x)
    snapshots = [ss.sample_wave(wave, x - speed * t - start, minimal=True)
                 for t in times]
    # first snapshot time at which each cell is saturated; masks derive from it
    saturated = np.array(snapshots) >= 1.0
    sat_time = np.where(saturated.any(axis=0),
                        np.asarray(times)[saturated.argmax(axis=0)], np.inf)
    final = ss.GridField(snapshots[-1], spacing, grid.origin, times[-1])
    return ss.RunResult(final=final, saturation_time=sat_time,
                        times=list(times), snapshots=snapshots,
                        clamped_total=0, monitors={})


class TestTrackAndSpeed:
    def test_vacuum_track_reports_sentinels(self, coarse1d, linear_g):
        _, st = coarse1d
        u0 = ss.grid_field(2.0, 0.125, 1)
        params = ss.ModelParams(model="singular", dt=0.1, t_end=1.0)
        res = ss.run(u0, params, st, linear_g, snapshot_interval=0.5)
        track = ss.track_fronts(res)
        assert np.all(np.isneginf(track.radius_saturated))
        assert np.all(np.isneginf(track.radius_support))

    def test_plateau_radius_recovered(self, coarse1d, linear_g):
        _, st = coarse1d
        u0 = ss.grid_field(4.0, 0.125, 1, seed_plateau(1.5, 0.5))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=0.0)
        res = ss.run(u0, params, st, linear_g)
        track = ss.track_fronts(res)
        assert abs(track.radius_saturated[0] - 1.5) <= 0.125
        assert abs(track.radius_support[0] - 2.0) <= 0.125

    def test_radii_nondecreasing_during_growth(self, coarse1d, linear_g):
        _, st = coarse1d
        u0 = ss.grid_field(6.0, 0.125, 1, seed_plateau(1.0, 0.5))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=6.0)
        res = ss.run(u0, params, st, linear_g, snapshot_interval=0.5)
        track = ss.track_fronts(res)
        assert np.all(np.diff(track.radius_saturated) >= 0.0)
        assert np.all(np.diff(track.radius_support) >= 0.0)

    def test_translating_wave_speed_recovered(self, minimal_wave):
        speed, spacing = 0.6, 0.025
        times = np.arange(0.0, 10.001, 0.5)
        res = synthetic_translation(minimal_wave, speed, 12.0, spacing, times,
                                    start=1.0, mirrored=True)
        track = ss.track_fronts(res)
        est = ss.estimate_speed(track, 0.5)
        window = times[-1] * 0.5
        assert abs(est.fitted_speed - speed) <= 2 * spacing / window

    def test_saturated_constant_run_flagged_degenerate(self, coarse1d, linear_g):
        _, st = coarse1d
        u0 = ss.grid_field(2.0, 0.125, 1, lambda r: np.ones_like(r))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=6.0)
        res = ss.run(u0, params, st, linear_g, snapshot_interval=0.25)
        est = ss.estimate_speed(ss.track_fronts(res), 0.5)
        assert est.degenerate and est.fitted_speed == 0.0

    @pytest.mark.parametrize("finite", [0, 9, 10])
    def test_window_without_10_saturated_radii_is_degenerate(self, finite):
        """A window of 11 snapshot times with fewer than 10 finite saturated
        radii (an empty set is -inf) gives the degenerate estimate."""
        times = np.arange(0.0, 10.001, 0.5)
        radii = np.where(np.arange(times.size) >= times.size - finite, times, -np.inf)
        est = ss.estimate_speed(ss.FrontTrack(times, radii, radii), 0.5)
        assert est.degenerate == (finite < 10)
        assert est.fit_window == (5.0, 10.0)
        assert est.fitted_speed == (0.0 if finite < 10 else pytest.approx(1.0))

    def test_window_needs_enough_snapshots(self, minimal_wave):
        times = np.arange(0.0, 2.001, 0.5)
        res = synthetic_translation(minimal_wave, 0.5, 6.0, 0.125, times, -2.0)
        with pytest.raises(ValueError, match="snapshots"):
            ss.estimate_speed(ss.track_fronts(res), 0.5)
        with pytest.raises(ValueError, match="window_fraction"):
            ss.estimate_speed(ss.track_fronts(res), 0.9)


class TestComparison:
    def test_equal_data_never_separate(self, coarse1d, linear_g):
        _, st = coarse1d
        u = ss.grid_field(4.0, 0.125, 1, seed_plateau(1.0, 0.5))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=2.0)
        report = ss.comparison_harness(u, u.copy(), params, st, linear_g)
        assert report.max_violation == 0.0 and report.passed

    def test_scaled_logistic_pair_stays_ordered(self, coarse1d):
        _, st = coarse1d
        g = ss.logistic_growth(1.0, 3.0)
        high = ss.grid_field(4.0, 0.125, 1, seed_plateau(1.0, 1.0))
        low = ss.GridField(0.5 * high.values, 0.125, high.origin)
        params = ss.ModelParams(model="singular", dt=0.1, t_end=3.0)
        report = ss.comparison_harness(low, high, params, st, g)
        assert report.max_violation <= 1e-12 and report.passed

    def test_horizon_off_the_step_grid_ends_with_a_short_step(self, coarse1d,
                                                              linear_g):
        _, st = coarse1d
        u = ss.grid_field(4.0, 0.125, 1, seed_plateau(1.0, 0.5))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=0.25)
        report = ss.comparison_harness(u, u.copy(), params, st, linear_g)
        assert report.n_steps == 2 + 1
        assert report.passed

    def test_preconditions(self, coarse1d, linear_g):
        _, st = coarse1d
        u = ss.grid_field(2.0, 0.125, 1, seed_plateau(0.5, 0.5))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=1.0)
        with pytest.raises(ValueError, match="u_low <= u_high"):
            ss.comparison_harness(u, ss.GridField(0.5 * u.values, 0.125,
                                                  u.origin), params, st, linear_g)
        with pytest.raises(ValueError, match="cap"):
            ss.comparison_harness(u, u, params, st, ss.logistic_growth(1.0, 1.2))


class TestCounterexample:
    def test_interior_maximum_breaks_ordering(self, bench40):
        kernel, st = bench40
        g = ss.logistic_growth(1.0, 1.2)
        report = comparison_counterexample(kernel, st, g, 0.6,
                                              box_radius=4.0, dt=0.05,
                                              horizon=1.0)
        assert report.crossed
        assert report.first_crossing_time <= 1.0
        assert report.min_probe_gap < 0.0
        assert report.rhs_gap_discrete < 0.0
        # the drag at the probe equals (g(1) - g(u0)) h(ell/2) analytically
        expected = (g.g1 - float(g(0.6))) * 0.25
        assert abs(report.rhs_gap_analytic - expected) <= 1e-12

    def test_capped_growth_rejected(self, bench40, linear_g):
        kernel, st = bench40
        with pytest.raises(ValueError, match="cap"):
            comparison_counterexample(kernel, st, linear_g, 0.6,
                                         box_radius=4.0, dt=0.05, horizon=1.0)

    def test_u0_without_excess_growth_rejected(self, bench40):
        kernel, st = bench40
        g = ss.logistic_growth(1.0, 1.2)
        with pytest.raises(ValueError, match="g\\(u0\\) > g\\(1\\)"):
            comparison_counterexample(kernel, st, g, 0.05, box_radius=4.0,
                                         dt=0.05, horizon=1.0)


class TestGammaConvergence:
    def test_trivial_data_give_zero_distances(self, coarse1d, linear_g):
        _, st = coarse1d
        for value in (0.0, 1.0):
            u0 = ss.grid_field(2.0, 0.125, 1, lambda r: np.full_like(r, value))
            study = ss.gamma_convergence_study(u0, [2.0, 4.0], st, linear_g,
                                               horizon=0.5)
            assert study.distances == (0.0, 0.0)

    def test_gamma_list_must_increase(self, coarse1d, linear_g):
        _, st = coarse1d
        u0 = ss.grid_field(2.0, 0.125, 1)
        with pytest.raises(ValueError):
            ss.gamma_convergence_study(u0, [8.0, 8.0], st, linear_g, horizon=1.0)

    def test_seed_distances_decrease(self, coarse1d, linear_g):
        _, st = coarse1d
        u0 = ss.grid_field(4.0, 0.125, 1, seed_plateau(1.0, 0.5))
        study = ss.gamma_convergence_study(u0, [4.0, 16.0, 64.0], st, linear_g,
                                           horizon=2.0)
        assert study.strictly_decreasing
        assert study.dts == tuple(0.1 / g for g in (4.0, 16.0, 64.0))
        assert study.reference_dt == study.dts[-1]

    def test_two_dimensional_distances_decrease(self, linear_g):
        _, st = ss.build_kernel("indicator_ball", 1.0, 2, 0.125)
        u0 = ss.grid_field(2.0, 0.125, 2, seed_plateau(0.75, 0.5))
        assert u0.shape == (33, 33)
        study = ss.gamma_convergence_study(u0, [8.0, 32.0, 128.0], st, linear_g,
                                           horizon=0.2)
        assert study.strictly_decreasing
        assert study.passed


class TestSupportConfinement:
    def test_seed_run_has_no_violations(self, coarse1d, linear_g):
        _, st = coarse1d
        u0 = ss.grid_field(6.0, 0.125, 1, seed_plateau(1.0, 0.5))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=6.0)
        res = ss.run(u0, params, st, linear_g, snapshot_interval=0.5)
        report = ss.support_confinement_check(res, st)
        assert report.total_violations == 0
        assert report.coverage_snapshot is not None
        assert report.max_annulus_after_coverage <= report.annulus_bound

    def test_initial_snapshot_trivially_contained(self, coarse1d, linear_g):
        _, st = coarse1d
        u0 = ss.grid_field(3.0, 0.125, 1, seed_plateau(0.5, 0.5))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=0.0)
        res = ss.run(u0, params, st, linear_g)
        report = ss.support_confinement_check(res, st)
        assert report.violations_per_snapshot == (0,)

    def test_two_dimensional_seed_confined(self, linear_g):
        _, st = ss.build_kernel("indicator_ball", 1.0, 2, 0.125)
        u0 = ss.grid_field(4.0, 0.125, 2, seed_plateau(0.5, 0.5))
        params = ss.ModelParams(model="singular", dt=0.1, t_end=4.0)
        res = ss.run(u0, params, st, linear_g, snapshot_interval=1.0)
        report = ss.support_confinement_check(res, st)
        assert report.total_violations == 0
        track = ss.track_fronts(res)
        assert track.radius_saturated[-1] > track.radius_saturated[0]


class TestEnvelopes:
    def test_translating_wave_respects_its_own_envelope(self, minimal_wave):
        times = np.arange(0.0, 6.001, 0.5)
        res = synthetic_translation(minimal_wave, minimal_wave.c, 10.0, 0.025,
                                    times, start=-3.0)
        gap = upper_envelope_gap(res, minimal_wave, [1.0], offset=-3.0)
        assert gap <= 1e-12

    def test_slower_subsolution_stays_below(self, minimal_wave):
        spacing, r0 = 0.025, 2.0
        grid = ss.grid_field(10.0, spacing, 1)
        radii = grid.radii()
        times = list(np.arange(0.0, 6.001, 0.5))
        snapshots = [ss.sample_wave(minimal_wave,
                                    radii - minimal_wave.c * t - r0,
                                    minimal=True) for t in times]
        final = ss.GridField(snapshots[-1], spacing, grid.origin, times[-1])
        res = ss.RunResult(final=final, saturation_time=np.zeros_like(radii),
                           times=times, snapshots=snapshots,
                           clamped_total=0, monitors={})
        # a radial sampler moving slower than the field stays dominated
        gap = subsolution_gap(res, minimal_wave, 0.9 * minimal_wave.c,
                                 radius_offset=r0)
        assert gap <= 1e-12
