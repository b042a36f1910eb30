"""Shooting profiles, the minimal speed, and wave samplers."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import satspread as ss
from satspread import waves

from conftest import growth_laws
from harnesses import monotone_in_c_check
from oracles import (C_STAR_LINEAR_1D, c_star_quadrature_root, find_c_star_bisection,
                     shoot_profile_direct)

#: One law of each kind ``shoot_profile`` can meet, each with the growth cap.
LAWS = {
    "linear": ss.linear_growth(1.0),
    "logistic-2": ss.logistic_growth(1.0, 2.0),
    "logistic-3.7": ss.logistic_growth(0.8, 3.7),
    "tabulated": ss.tabulated_growth([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.8, 1.0]),
    "scaled": ss.logistic_growth(1.0, 3.0).scaled(1.7),
}


def test_frozen_oracle_value_regenerates():
    assert abs(c_star_quadrature_root() - C_STAR_LINEAR_1D) <= 1e-9


class TestShootProfile:
    def test_tail_is_exact_exponential_decay(self, linear_g, front_profile_1d):
        wave = ss.shoot_profile(1.0, linear_g, front_profile_1d, s_max=2.0)
        tail = wave.s >= 1.0
        s_tail = wave.s[tail]
        phi_ell = wave.phi_at_ell
        expected = phi_ell * np.exp(-(s_tail - 1.0) / 1.0)
        assert np.max(np.abs(wave.phi[tail] - expected)) <= 1e-10

    def test_fast_profile_stays_above_napkin_bound(self, linear_g, front_profile_1d):
        wave = ss.shoot_profile(2.0, linear_g, front_profile_1d, s_max=1.0)
        assert wave.phi_at_ell > 0.0
        assert wave.phi_at_ell >= 1.0 - 1.0 * linear_g.sup / 2.0 - 1e-12

    def test_slow_profile_goes_negative_at_ell(self, linear_g, front_profile_1d):
        wave = ss.shoot_profile(0.2, linear_g, front_profile_1d, s_max=1.0)
        assert wave.phi_at_ell < 0.0

    def test_single_crossing_below_minimal_speed(self, linear_g, front_profile_1d):
        wave = ss.shoot_profile(0.35, linear_g, front_profile_1d, s_max=1.0)
        inside = (wave.s > 0) & (wave.s < 1.0)
        if np.any(wave.phi[inside] <= 0.0):
            assert wave.phi_at_ell < 0.0

    def test_derivative_strictly_negative_on_nonnegative_part(
            self, linear_g, front_profile_1d, c_star_result):
        wave = ss.shoot_profile(c_star_result.c_star, linear_g,
                                front_profile_1d, s_max=1.0)
        keep = wave.phi >= 0.0
        assert np.all(np.diff(wave.phi[keep]) < 0.0)

    def test_fourth_order_refinement_ratio(self, linear_g, front_profile_1d):
        c = 0.6
        values = [ss.shoot_profile(c, linear_g, front_profile_1d, s_max=1.0,
                                   ode_step=1.0 / n).phi_at_ell
                  for n in (200, 400, 800)]
        d1 = values[0] - values[1]
        d2 = values[1] - values[2]
        assert d2 != 0.0
        assert 10.0 <= d1 / d2 <= 24.0

    def test_preconditions(self, linear_g, front_profile_1d):
        with pytest.raises(ValueError):
            ss.shoot_profile(-1.0, linear_g, front_profile_1d)
        with pytest.raises(ValueError):
            ss.shoot_profile(1.0, linear_g, front_profile_1d, s_max=0.5)
        with pytest.raises(ValueError):
            ss.shoot_profile(1.0, linear_g, front_profile_1d, ode_step=0.25)


class TestFindCStar:
    def test_matches_independent_oracle(self, c_star_result):
        rel = abs(c_star_result.c_star - C_STAR_LINEAR_1D) / C_STAR_LINEAR_1D
        assert rel <= 1e-6

    def test_bracket_and_bounds_invariants(self, c_star_result):
        lo, hi = c_star_result.bracket
        assert hi - lo <= c_star_result.tol
        assert c_star_result.c_star == pytest.approx(0.5 * (lo + hi))
        b_lo, b_hi = c_star_result.analytic_bounds
        assert b_lo == pytest.approx(0.25, abs=1e-12)
        assert b_hi == pytest.approx(1.0, abs=1e-12)
        assert b_lo <= c_star_result.c_star <= b_hi
        assert c_star_result.phi_ell_lo < 0.0 < c_star_result.phi_ell_hi
        assert c_star_result.interior_min > 0.0

    def test_doubling_growth_doubles_speed(self, linear_g, front_profile_1d,
                                           c_star_result):
        doubled = ss.find_c_star(ss.linear_growth(2.0), front_profile_1d)
        assert abs(doubled.c_star - 2.0 * c_star_result.c_star) <= 1e-6

    def test_growth_without_cap_rejected(self, front_profile_1d):
        with pytest.raises(ValueError, match="cap"):
            ss.find_c_star(ss.logistic_growth(1.0, 1.2), front_profile_1d)

    def test_nan_arguments_rejected(self, linear_g, bench40, front_profile_1d):
        with pytest.raises(ValueError, match="tolerance"):
            ss.find_c_star(linear_g, front_profile_1d, tol=float("nan"))
        with pytest.raises(ValueError, match="ode_step"):
            ss.shoot_profile(1.0, linear_g, front_profile_1d, ode_step=float("nan"))
        with pytest.raises(ValueError, match="s_max"):
            ss.shoot_profile(1.0, linear_g, front_profile_1d, s_max=float("nan"))
        with pytest.raises(ss.KernelError, match="sample_spacing"):
            ss.front_profile(bench40[0], sample_spacing=float("nan"))


class TestMonotoneInC:
    def test_equal_speeds_give_zero_gap(self, linear_g, front_profile_1d):
        with pytest.raises(ValueError):
            monotone_in_c_check(0.5, 0.5, linear_g, front_profile_1d)

    def test_strict_ordering_above_minimal_speed(self, linear_g,
                                                 front_profile_1d,
                                                 c_star_result):
        c = c_star_result.c_star
        ordered, gap = monotone_in_c_check(c, 2 * c, linear_g,
                                              front_profile_1d)
        assert ordered and gap > 0.0

    def test_small_speed_increment_still_strict(self, linear_g,
                                                front_profile_1d,
                                                c_star_result):
        c = c_star_result.c_star
        ordered, gap = monotone_in_c_check(c, 1.01 * c, linear_g,
                                              front_profile_1d)
        assert ordered and gap > 0.0


class TestExportWave:
    def test_sampler_values_at_landmarks(self, minimal_wave):
        sampler = ss.export_wave(minimal_wave, [1.0], 3.0)
        x = np.array([3.0, 2.0, 4.0, 10.0])
        vals = sampler(x)
        assert vals[0] == 1.0          # at the offset the profile starts at 1
        assert vals[1] == 1.0          # behind the front
        assert vals[3] == 0.0          # far ahead
        assert vals[2] == pytest.approx(float(ss.sample_wave(minimal_wave, 1.0)),
                                        abs=1e-12)

    def test_minimal_profile_vanishes_at_support_edge(self, minimal_wave):
        sampler = ss.export_wave(minimal_wave, [1.0], 0.0)
        assert sampler(np.array([1.0]))[0] == 0.0

    def test_large_negative_offset_dominates_compact_data(self, minimal_wave):
        sampler = ss.export_wave(minimal_wave, [1.0], 5.0)
        x = np.linspace(-4.0, 4.0, 101)
        u0 = np.clip(1.0 - np.abs(x), 0.0, 1.0)
        assert np.all(sampler(x) >= u0)

    def test_direction_must_be_unit(self, minimal_wave):
        with pytest.raises(ValueError):
            ss.export_wave(minimal_wave, [2.0], 0.0)

    def test_planar_sampler_in_two_dimensions(self, minimal_wave):
        e = np.array([1.0, 0.0])
        sampler = ss.export_wave(minimal_wave, e, 0.0)
        pts = np.array([[-1.0, 3.0], [0.5, -2.0], [2.0, 0.0]])
        vals = sampler(pts)
        assert vals[0] == 1.0
        assert 0.0 < vals[1] < 1.0
        assert vals[2] == 0.0


@pytest.fixture(scope="module", params=[1, 2], ids=["1d", "2d"])
def indicator_profile(request, front_profile_1d):
    if request.param == 1:
        return front_profile_1d
    kernel, _ = ss.build_kernel("indicator_ball", 0.8, 2, 0.1)
    return ss.front_profile(kernel, sample_spacing=0.8 / 50)


@pytest.mark.parametrize("name", sorted(LAWS))
class TestFloatShooterAgainstArrayOracle:
    """The float RK4 loop against the same loop on numpy values, bit for bit."""

    def test_profiles_across_the_bracket(self, name, indicator_profile):
        law, ell = LAWS[name], indicator_profile.ell
        c_lo = law.g1 * indicator_profile.integral_zero_to_ell()
        c_hi = ell * law.sup
        for c in np.linspace(0.8 * c_lo, 1.2 * c_hi, 6):
            for s_max in (ell, 2.0 * ell):
                fast = ss.shoot_profile(c, law, indicator_profile, s_max=s_max,
                                        ode_step=ell / 230)
                direct = shoot_profile_direct(c, law, indicator_profile,
                                              s_max=s_max, ode_step=ell / 230)
                assert np.array_equal(fast.s, direct.s)
                assert np.array_equal(fast.phi, direct.phi)
                assert fast.phi_at_ell == direct.phi_at_ell

    def test_default_step_profile(self, name, indicator_profile):
        law, ell = LAWS[name], indicator_profile.ell
        c = 0.5 * ell * law.sup
        fast = ss.shoot_profile(c, law, indicator_profile)
        direct = shoot_profile_direct(c, law, indicator_profile)
        assert np.array_equal(fast.phi, direct.phi)
        assert fast.phi_at_ell == direct.phi_at_ell

    def test_minimal_speed_equals_oracle_bisection(self, name, indicator_profile,
                                                   monkeypatch):
        law, step = LAWS[name], indicator_profile.ell / 230
        fast = ss.find_c_star(law, indicator_profile, tol=1e-7, ode_step=step)
        monkeypatch.setattr(waves, "shoot_profile", shoot_profile_direct)
        direct = ss.find_c_star(law, indicator_profile, tol=1e-7, ode_step=step)
        assert fast == direct


def test_minimal_speed_at_default_step_equals_oracle_bisection(
        linear_g, front_profile_1d, c_star_result, monkeypatch):
    monkeypatch.setattr(waves, "shoot_profile", shoot_profile_direct)
    assert ss.find_c_star(linear_g, front_profile_1d) == c_star_result


#: Indicator front profiles and a shooting step for the replay oracle.  The
#: step is finer than the coarse locate step of the profiles sampled at ell/60
#: (ell/240), which the search takes on them, and coarser than that of the
#: default profiles (ell/400), whose search locates on the fine shots.
PROFILES = {dim: ss.front_profile(ss.build_kernel("indicator_ball", 1.0, dim, 0.125)[0])
            for dim in (1, 2)}
COARSE_PROFILES = {dim: ss.front_profile(
    ss.build_kernel("indicator_ball", 1.0, dim, 0.125)[0], sample_spacing=1.0 / 60)
    for dim in (1, 2)}
REPLAY_STEP = 1.0 / 250


def search_outcome(search, *args, **kwargs):
    """The search's result with every float as its bits, or its error."""
    try:
        result = search(*args, **kwargs)
    except ss.ScientificError as exc:
        return type(exc), str(exc)
    return tuple(tuple(map(float.hex, f)) if isinstance(f, tuple) else float.hex(f)
                 for f in result)


def counting_shots(monkeypatch, steps=None):
    """Patch ``waves.shoot_profile`` to record each speed shot; returns the
    list.  A ``steps`` list also records each shot's ``ode_step``."""
    speeds = []
    shoot = waves.shoot_profile

    def counted(c, *args, **kwargs):
        speeds.append(c)
        if steps is not None:
            steps.append(kwargs.get("ode_step"))
        return shoot(c, *args, **kwargs)

    monkeypatch.setattr(waves, "shoot_profile", counted)
    return speeds


class TestBisectionReplay:
    """``find_c_star`` against plain bisection that shoots every midpoint."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(growth_laws(), st.sampled_from([1, 2]), st.sampled_from([1e-6, 1e-8, 1e-10]))
    def test_equals_plain_bisection(self, law, dim, tol):
        profile = PROFILES[dim]
        assert (search_outcome(ss.find_c_star, law, profile, tol=tol, ode_step=REPLAY_STEP)
                == search_outcome(find_c_star_bisection, law, profile, tol=tol,
                                  ode_step=REPLAY_STEP))

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(growth_laws(), st.sampled_from([1, 2]), st.sampled_from([1e-6, 1e-8, 1e-10]))
    def test_coarse_locate_equals_plain_bisection(self, law, dim, tol):
        profile = COARSE_PROFILES[dim]
        assert waves._coarse_step(profile, REPLAY_STEP) == 1.0 / 240
        assert waves._coarse_step(PROFILES[dim], REPLAY_STEP) is None
        assert (search_outcome(ss.find_c_star, law, profile, tol=tol, ode_step=REPLAY_STEP)
                == search_outcome(find_c_star_bisection, law, profile, tol=tol,
                                  ode_step=REPLAY_STEP))

    def test_fewer_shots_than_plain_bisection(self, linear_g, monkeypatch):
        speeds = counting_shots(monkeypatch)
        ss.find_c_star(linear_g, PROFILES[1], ode_step=REPLAY_STEP)
        replayed = len(speeds)
        speeds.clear()
        find_c_star_bisection(linear_g, PROFILES[1], ode_step=REPLAY_STEP)
        assert replayed <= 20 < len(speeds)

    def test_speed1d_search_takes_5_fine_and_10_coarse_shots(self, linear_g, monkeypatch):
        """The ``speed1d`` benchmark's profile (1-d indicator, dx = ell/80) at
        the default step and tolerance: 5 shots at the default step ell/2000
        (the two bounds, the final cell's ends and the wave at c*) and 10 at
        the coarse step ell/400 (the bounds and 8 regula falsi shots).  A
        locate on the fine shots took 13, and Illinois' halving 16."""
        profile = ss.front_profile(ss.build_kernel("indicator_ball", 1.0, 1, 1.0 / 80)[0])
        steps = []
        counting_shots(monkeypatch, steps)
        ss.find_c_star(linear_g, profile)
        assert (steps.count(1.0 / 2000), steps.count(1.0 / 400), len(steps)) == (5, 10, 15)

    def test_unbracketing_coarse_shots_fall_through_to_the_fine_locate(self, linear_g,
                                                                      monkeypatch):
        """Coarse shots moved up by 0.5 stay positive at the lower bound: the
        coarse shooter does not bracket the root and locates nothing.  The
        fine shooter then locates it (8 shots) and certifies its cell: 13
        fine shots with the bounds, the cell's ends and the wave, and 2
        coarse ones.  The result is plain bisection's."""
        profile = COARSE_PROFILES[1]
        coarse = waves._coarse_step(profile, REPLAY_STEP)
        shoot = waves.shoot_profile

        def raised(c, *args, ode_step=None, **kwargs):
            wave = shoot(c, *args, ode_step=ode_step, **kwargs)
            if ode_step == coarse:
                return wave._replace(phi_at_ell=wave.phi_at_ell + 0.5)
            return wave

        monkeypatch.setattr(waves, "shoot_profile", raised)
        plain = search_outcome(find_c_star_bisection, linear_g, profile,
                               ode_step=REPLAY_STEP)
        steps = []
        counting_shots(monkeypatch, steps)
        assert search_outcome(ss.find_c_star, linear_g, profile,
                              ode_step=REPLAY_STEP) == plain
        assert (steps.count(REPLAY_STEP), steps.count(coarse)) == (13, 2)

    @pytest.mark.parametrize("shift,fine_shots", [(5 * waves.DEFAULT_SPEED_TOL, 7), (0.05, 19)],
                             ids=["near-miss", "far-miss"])
    def test_coarse_miss_takes_plain_bisections_result(self, linear_g, monkeypatch, shift,
                                                       fine_shots):
        """Coarse shots moved ``shift`` right of the root: the walked cell
        fails its certificate.  Five cells off, the secant through its two
        fine shots finds the root's cell (two more shots); 0.05 off, three
        cells miss and regula falsi runs on the fine shots.  Either way the
        result is plain bisection's."""
        profile = COARSE_PROFILES[1]
        coarse = waves._coarse_step(profile, REPLAY_STEP)
        shoot = waves.shoot_profile

        def shifted(c, *args, ode_step=None, **kwargs):
            if ode_step == coarse:
                c -= shift
            return shoot(c, *args, ode_step=ode_step, **kwargs)

        monkeypatch.setattr(waves, "shoot_profile", shifted)
        plain = search_outcome(find_c_star_bisection, linear_g, profile,
                               ode_step=REPLAY_STEP)
        steps = []
        counting_shots(monkeypatch, steps)
        assert search_outcome(ss.find_c_star, linear_g, profile,
                              ode_step=REPLAY_STEP) == plain
        assert (steps.count(REPLAY_STEP), steps.count(coarse)) == (fine_shots, 10)

    @pytest.mark.parametrize("profiles", [PROFILES, COARSE_PROFILES],
                             ids=["fine-locate", "coarse-locate"])
    def test_non_monotone_phi_falls_back_to_plain_bisection(self, linear_g, monkeypatch,
                                                            profiles):
        """phi(ell) forced negative at the midpoints right of the root, which
        plain bisection shoots and regula falsi does not: the located cell
        fails its certificate on either shooter, and the fallback returns
        what plain bisection returns under the same phi, not the monotone
        result."""
        profile = profiles[1]
        monotone = ss.find_c_star(linear_g, profile, ode_step=REPLAY_STEP)
        c_lo, c_hi = monotone.analytic_bounds
        assert (c_lo, c_hi) == (0.25, 1.0)  # so every midpoint is a multiple of 2**-40
        shoot = waves.shoot_profile

        def non_monotone(c, *args, **kwargs):
            wave = shoot(c, *args, **kwargs)
            if monotone.c_star < c < c_hi and (c * 2.0 ** 40).is_integer():
                return wave._replace(phi_at_ell=-1.0)
            return wave

        monkeypatch.setattr(waves, "shoot_profile", non_monotone)
        fast = search_outcome(ss.find_c_star, linear_g, profile, ode_step=REPLAY_STEP)
        plain = search_outcome(find_c_star_bisection, linear_g, profile,
                               ode_step=REPLAY_STEP)
        assert fast == plain != search_outcome(lambda: monotone)

    def test_tolerance_wider_than_the_bracket_takes_no_midpoint(self, linear_g,
                                                                 monkeypatch):
        speeds = counting_shots(monkeypatch)
        result = ss.find_c_star(linear_g, PROFILES[1], tol=1.0, ode_step=REPLAY_STEP)
        assert result.bracket == result.analytic_bounds == (0.25, 1.0)
        assert speeds == [0.25, 1.0, 0.625]  # the bounds, then the wave at c*
        assert (search_outcome(lambda: result)
                == search_outcome(find_c_star_bisection, linear_g, PROFILES[1], tol=1.0,
                                  ode_step=REPLAY_STEP))
