"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they are produced.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

import satspread as ss

from conftest import seed_plateau
from harnesses import (check_cap_inequality, comparison_counterexample, convolve_mask,
                       obstacle_residual, step, subsolution_gap, upper_envelope_gap)
from oracles import (C_STAR_LINEAR_1D, H2D_INDICATOR_HALF, h1d_indicator,
                     lipschitz_initial_data)

_cache: dict = {}


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _cached(key, builder):
    if key not in _cache:
        _cache[key] = builder()
    return _cache[key]


def _spreading_run(cells_per_ell: int, dt: float):
    def build():
        _, stencil = ss.build_kernel("indicator_ball", 1.0, 1,
                                     1.0 / cells_per_ell)
        u0 = ss.grid_field(40.0, 1.0 / cells_per_ell, 1, seed_plateau(2.0, 0.5))
        params = ss.ModelParams(model="singular", dt=dt,
                                t_end=30.0 / C_STAR_LINEAR_1D)
        growth = ss.linear_growth(1.0)
        return ss.run(u0, params, stencil, growth, snapshot_interval=1.0), stencil

    return _cached(("spread", cells_per_ell), build)


def test_criterion_01_minimal_speed_bracket_and_oracle(linear_g):
    tic = time.perf_counter()
    kernel, _ = ss.build_kernel("indicator_ball", 1.0, 1, 1.0 / 40)
    profile = ss.front_profile(kernel)
    result = ss.find_c_star(linear_g, profile)
    elapsed = time.perf_counter() - tic
    rel = abs(result.c_star - C_STAR_LINEAR_1D) / C_STAR_LINEAR_1D
    ok = (0.25 <= result.c_star <= 1.0) and rel <= 1e-4 and elapsed < 5.0
    _report(1, ok, f"c*={result.c_star:.8f} in [0.25, 1], oracle rel diff "
                   f"{rel:.2e} <= 1e-4, {elapsed:.2f}s < 5s")


def test_criterion_02_front_profile_values():
    tic = time.perf_counter()
    dx = 1.0 / 40
    kernel1, stencil1 = ss.build_kernel("indicator_ball", 1.0, 1, dx)
    prof1 = ss.front_profile(kernel1)
    kernel2, _ = ss.build_kernel("indicator_ball", 1.0, 2, 0.05)
    prof2 = ss.front_profile(kernel2)

    h0_err = max(abs(float(prof1(0.0)) - 0.5), abs(float(prof2(0.0)) - 0.5))
    endpoint_zero = float(prof1(1.0)) == 0.0 and float(prof2(1.0)) == 0.0

    s = np.linspace(0.0, 1.0, 201)
    closed_err = float(np.max(np.abs(prof1(s) - h1d_indicator(s))))
    n = 200
    x = (np.arange(2 * n + 1) - n) * dx
    conv = convolve_mask(stencil1, (x <= 0.0).astype(float))
    probe = (x >= 0.0) & (x <= 1.0)
    discrete_err = float(np.max(np.abs(conv[probe] - h1d_indicator(x[probe]))))

    seg_err = abs(float(prof2(0.5)) - H2D_INDICATOR_HALF)
    elapsed = time.perf_counter() - tic
    ok = (h0_err <= 1e-6 and endpoint_zero and closed_err <= dx
          and discrete_err <= dx and seg_err <= 1e-6 and elapsed < 5.0)
    _report(2, ok, f"h(0) err {h0_err:.1e} <= 1e-6, h(ell)=0 exact, closed-form "
                   f"err {closed_err:.1e} and stencil err {discrete_err:.1e} "
                   f"<= dx={dx}, segment err {seg_err:.1e} <= 1e-6, "
                   f"{elapsed:.2f}s < 5s")


def test_criterion_03_spreading_speed(c_star_result):
    tic = time.perf_counter()
    run40, _ = _spreading_run(40, dt=0.0125)
    run80, _ = _spreading_run(80, dt=0.00625)
    c_ref = c_star_result.c_star
    lo, hi = c_star_result.analytic_bounds
    ratios = {}
    in_bounds = True
    for label, res in (("40", run40), ("80", run80)):
        est = ss.estimate_speed(ss.track_fronts(res), 0.5)
        ratios[label] = est.fitted_speed / c_ref
        in_bounds = in_bounds and lo <= est.fitted_speed <= hi
    elapsed = time.perf_counter() - tic
    ok = (abs(ratios["40"] - 1.0) <= 0.05 and abs(ratios["80"] - 1.0) <= 0.02
          and in_bounds and elapsed < 120.0)
    _report(3, ok, f"speed/c* = {ratios['40']:.4f} (dx=ell/40, tol 5%) and "
                   f"{ratios['80']:.4f} (dx=ell/80, tol 2%), {elapsed:.1f}s < 120s")


def test_criterion_04_invariant_suite():
    tic = time.perf_counter()
    growth = ss.linear_growth(1.0)
    kernels = {1: ss.build_kernel("indicator_ball", 1.0, 1, 0.125),
               2: ss.build_kernel("indicator_ball", 1.0, 2, 0.125)}
    failures = []
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        dim = 1 + trial % 2
        model = "singular" if (trial // 2) % 2 == 0 else "gamma"
        _, stencil = kernels[dim]
        shape = 65 if dim == 1 else (33, 33)
        vals = lipschitz_initial_data(rng, shape, 0.125)
        origin = [-0.125 * (s // 2) for s in ((shape,) if dim == 1 else shape)]
        u0 = ss.GridField(vals, 0.125, origin)
        if model == "gamma":
            params = ss.ModelParams(model="gamma", gamma=8.0, dt=0.0125,
                                    t_end=25 * 0.0125)
        else:
            params = ss.ModelParams(model="singular", dt=0.1, t_end=2.5)
        res = ss.run(u0, params, stencil, growth)
        if not (res.monitors["min_u"] >= 0.0 and res.monitors["max_u"] <= 1.0):
            failures.append((trial, "bounds"))
        if res.monitors["time_monotonicity_gap"] != 0.0:
            failures.append((trial, "time monotonicity"))
        if res.monitors["mask_monotonicity_violations"] != 0.0:
            failures.append((trial, "mask monotonicity"))
        if model == "gamma":
            rhs = ss.rhs_gamma(u0, stencil, growth, 8.0)
            if rhs.min() < 0.0 or res.monitors["max_rhs"] > growth.lipschitz + 1e-12:
                failures.append((trial, "rhs bounds"))
    elapsed = time.perf_counter() - tic
    ok = not failures and elapsed < 120.0
    _report(4, ok, f"50 randomized Lipschitz runs (both models, d=1 and d=2): "
                   f"{len(failures)} invariant failures, {elapsed:.1f}s < 120s")


def test_criterion_05_comparison_principle(bench40):
    tic = time.perf_counter()
    kernel, stencil40 = bench40
    _, stencil8 = ss.build_kernel("indicator_ball", 1.0, 1, 0.125)
    laws = (ss.linear_growth(1.0), ss.logistic_growth(1.0, 3.0))
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        growth = laws[trial % 2]
        high_vals = lipschitz_initial_data(rng, 81, 0.125)
        factor = rng.uniform(0.2, 0.95)
        high = ss.GridField(high_vals, 0.125, [-5.0])
        low = ss.GridField(factor * high_vals, 0.125, [-5.0])
        params = ss.ModelParams(model="singular", dt=0.1, t_end=2.0)
        report = ss.comparison_harness(low, high, params, stencil8, growth)
        worst = max(worst, report.max_violation)

    bad = ss.logistic_growth(1.0, 1.2)
    cex = comparison_counterexample(kernel, stencil40, bad, 0.6,
                                       box_radius=4.0, dt=0.05,
                                       horizon=1.0 / 1.0)
    expected_gap = (bad.g1 - float(bad(0.6))) * 0.25
    gap_err = abs(cex.rhs_gap_analytic - expected_gap)
    elapsed = time.perf_counter() - tic
    ok = (worst <= 1e-12 and cex.crossed and cex.first_crossing_time <= 1.0
          and gap_err <= 1e-8 and elapsed < 60.0)
    _report(5, ok, f"20 ordered pairs: worst violation {worst:.1e} <= 1e-12; "
                   f"counterexample crossed at t={cex.first_crossing_time:.3f} "
                   f"<= 1, rhs gap err {gap_err:.1e} <= 1e-8, {elapsed:.1f}s < 60s")


def test_criterion_06_gamma_convergence(linear_g):
    tic = time.perf_counter()
    _, stencil = ss.build_kernel("indicator_ball", 1.0, 1, 1.0 / 20)
    u0 = ss.grid_field(10.0, 1.0 / 20, 1, seed_plateau(2.0, 0.5))
    study = ss.gamma_convergence_study(u0, [8.0, 32.0, 128.0, 512.0], stencil,
                                       linear_g, horizon=5.0, threshold=0.05)
    elapsed = time.perf_counter() - tic
    ok = study.strictly_decreasing and study.distances[-1] < 0.05 and elapsed < 180.0
    dists = ", ".join(f"{d:.2e}" for d in study.distances)
    _report(6, ok, f"sup distances strictly decreasing [{dists}], final "
                   f"{study.distances[-1]:.2e} < 0.05, {elapsed:.1f}s < 180s")


def test_criterion_07_support_sandwich():
    tic = time.perf_counter()
    details = []
    ok = True
    for cells, dt in ((40, 0.0125), (80, 0.00625)):
        res, stencil = _spreading_run(cells, dt)
        report = ss.support_confinement_check(res, stencil)
        ok = ok and report.total_violations == 0
        ok = ok and report.coverage_snapshot is not None
        ok = ok and report.max_annulus_after_coverage <= report.annulus_bound
        details.append(f"dx=ell/{cells}: {report.total_violations} violations, "
                       f"annulus {report.max_annulus_after_coverage:.4f} <= "
                       f"{report.annulus_bound:.4f}")
    elapsed = time.perf_counter() - tic
    _report(7, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_08_wave_envelope_sandwich(c_star_result, minimal_wave):
    tic = time.perf_counter()
    res, _ = _spreading_run(40, dt=0.0125)
    up_right = upper_envelope_gap(res, minimal_wave, [1.0], offset=2.5)
    up_left = upper_envelope_gap(res, minimal_wave, [-1.0], offset=2.5)
    sub = subsolution_gap(res, minimal_wave, 0.9 * c_star_result.c_star,
                             radius_offset=1.0)
    elapsed = time.perf_counter() - tic
    ok = (up_right <= 1e-10 and up_left <= 1e-10 and sub <= 1e-10
          and elapsed < 120.0)
    _report(8, ok, f"upper envelope gaps ({up_right:.1e}, {up_left:.1e}) and "
                   f"subsolution gap {sub:.1e} all <= 1e-10, {elapsed:.1f}s < 120s")


def test_criterion_09_cap_inequality():
    tic = time.perf_counter()
    kernel, _ = ss.build_kernel("indicator_ball", 1.0, 2, 0.05)
    report = check_cap_inequality(kernel, 0.5, [2.0, 5.0, 10.0, 50.0, 100.0])
    margins = report.max_violation
    monotone = all(b <= a + 1e-12 for a, b in zip(margins, margins[1:]))
    final_ok = margins[-1] <= report.tolerance
    elapsed = time.perf_counter() - tic
    ok = monotone and final_ok and elapsed < 60.0
    shown = ", ".join(f"{m:.2e}" for m in margins)
    _report(9, ok, f"violation margins non-increasing [{shown}], none at "
                   f"R=100 ell, {elapsed:.1f}s < 60s")


def test_criterion_10_obstacle_residual(linear_g):
    tic = time.perf_counter()

    def max_residual(cells: int, dt: float) -> float:
        _, stencil = ss.build_kernel("indicator_ball", 1.0, 1, 1.0 / cells)
        params = ss.ModelParams(model="singular", dt=dt, t_end=6.0)
        u = ss.grid_field(8.0, 1.0 / cells, 1, seed_plateau(2.0, 0.5))
        worst = 0.0
        for _ in range(int(round(6.0 / dt))):
            advanced, _ = step(u, params, stencil, linear_g)
            resid = obstacle_residual(u, advanced, dt, stencil, linear_g)
            worst = max(worst, float(np.max(np.abs(resid))))
            u = advanced
        return worst

    coarse = max_residual(40, 0.05)
    fine = max_residual(80, 0.025)
    ratio = coarse / fine
    elapsed = time.perf_counter() - tic
    ok = 1.5 <= ratio <= 3.0 and elapsed < 120.0
    _report(10, ok, f"max|residual| {coarse:.4f} -> {fine:.4f} under halving, "
                    f"ratio {ratio:.2f} in [1.5, 3], {elapsed:.1f}s < 120s")
