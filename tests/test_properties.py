"""Property tests: the banded Euler core of run() against a direct step() loop."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import satspread as ss

from conftest import growth_laws, sagging_growth, seed_plateau
from oracles import support_confinement_per_snapshot

DX = 0.125
#: Box radii: 0.5 and 0.875 give boxes shorter than the 17-tap 1-d stencil
#: (ell = 1, dx = 1/8); the small boxes saturate up to their edge.
BOXES = {1: (0.5, 0.875, 1.5, 2.5, 4.0), 2: (0.875, 1.25, 2.0)}
STENCILS = {dim: ss.build_kernel("indicator_ball", 1.0, dim, DX)[1] for dim in (1, 2)}
#: A radial kernel that vanishes on the annulus 0.3 <= rho <= 0.7: some taps
#: inside the stencil's reach are exactly 0.
HOLLOW = {dim: ss.build_kernel(
    "custom_radial", 1.0, dim, DX,
    profile=lambda rho: np.clip(np.abs(rho - 0.5) - 0.2, 0.0, None) ** 4)[1]
    for dim in (1, 2)}


@st.composite
def cases(draw):
    dim = draw(st.sampled_from([1, 1, 2]))
    box = draw(st.sampled_from(BOXES[dim]))
    radius = draw(st.floats(0.0, 1.5))
    ramp = draw(st.floats(0.05, 1.0))
    height = draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0)))
    growth = draw(growth_laws())
    model = draw(st.sampled_from(ss.dynamics.MODEL_KINDS))
    gamma = None
    if model == "generalized_singular":
        growth = growth.with_gain(draw(st.floats(0.1, 1.0)))
    if model == "gamma":
        gamma = draw(st.floats(1.0, 8.0))
    dt = ss.stability_cap(model, growth, gamma) * draw(st.sampled_from([1.0, 0.5]))
    n_steps = draw(st.integers(1, 40))
    params = ss.ModelParams(model=model, dt=dt, t_end=n_steps * dt, gamma=gamma)
    plateau = seed_plateau(radius, ramp)
    u0 = ss.grid_field(box, DX, dim, lambda r: height * plateau(r))
    if draw(st.booleans()):
        # A second plateau off centre along axis 0, possibly steep or low, so
        # that the two plateaus' fronts join S at different steps.
        centre = np.zeros(dim)
        centre[0] = draw(st.floats(-box, box))
        other = seed_plateau(draw(st.floats(0.0, 0.5)), draw(st.floats(0.05, 1.0)))
        values = draw(st.floats(0.1, 1.0)) * other(
            np.linalg.norm(u0.coords() - centre, axis=-1))
        u0 = ss.GridField(np.maximum(u0.values, values), DX, u0.origin)
    return u0, params, STENCILS[dim], growth, n_steps


def direct_loop(u0, params, stencil, growth, n_steps, record_lipschitz=False):
    """step() n times with full-grid monitors and first-crossing times; with
    ``record_lipschitz``, also the running max of ``discrete_lipschitz``."""
    u = u0
    sat_time = np.where(ss.saturated_mask(u.values), 0.0, np.inf)
    monitors = {"min_u": float(u.values.min()), "max_u": float(u.values.max()),
                "max_rhs": 0.0, "time_monotonicity_gap": 0.0}
    if record_lipschitz:
        monitors["max_lipschitz"] = ss.discrete_lipschitz(u)
    clamped_total = 0
    for _ in range(n_steps):
        rhs = ss.model_rhs(u, params, stencil, growth)
        new, clamped = ss.step(u, params, stencil, growth)
        clamped_total += int(np.count_nonzero(clamped))
        monitors["min_u"] = min(monitors["min_u"], float(new.values.min()))
        monitors["max_u"] = max(monitors["max_u"], float(new.values.max()))
        monitors["max_rhs"] = max(monitors["max_rhs"], float(rhs.max(initial=0.0)))
        monitors["time_monotonicity_gap"] = max(
            monitors["time_monotonicity_gap"], float((u.values - new.values).max()))
        u = new
        sat_time[ss.saturated_mask(u.values) & np.isinf(sat_time)] = u.time
        if record_lipschitz:
            monitors["max_lipschitz"] = max(monitors["max_lipschitz"],
                                            ss.discrete_lipschitz(u))
    return u, sat_time, monitors, clamped_total


@pytest.mark.parametrize("model", ["singular", "generalized_singular"])
def test_run_equals_direct_step_loop_where_density_falls(model):
    """A plateau at 0.8 under a law with g < 0 above 1/2 falls, so ``run``
    reduces ``before - after`` on those steps: its monitors, bits and clamp
    count are still the direct loop's, with a positive gap."""
    growth = sagging_growth()
    if model == "generalized_singular":
        growth = growth.with_gain(0.5)
    dt, n_steps = ss.stability_cap(model, growth), 12
    params = ss.ModelParams(model=model, dt=dt, t_end=n_steps * dt)
    plateau = seed_plateau(1.0, 0.5)
    u0 = ss.grid_field(2.5, DX, 1, lambda r: 0.8 * plateau(r))
    res = ss.run(u0, params, STENCILS[1], growth, record_lipschitz=True)
    final, sat_time, monitors, clamped_total = direct_loop(
        u0, params, STENCILS[1], growth, n_steps, record_lipschitz=True)
    assert np.array_equal(bits(res.final.values), bits(final.values))
    assert np.array_equal(res.saturation_time, sat_time)
    assert res.clamped_total == clamped_total
    for key, value in monitors.items():
        assert res.monitors[key] == value, key
    # the first step lowers the plateau by dt * 0.8 * 0.3
    assert monitors["time_monotonicity_gap"] == pytest.approx(0.012, rel=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(cases())
def test_run_equals_direct_step_loop(case):
    u0, params, stencil, growth, n_steps = case
    res = ss.run(u0, params, stencil, growth)
    final, sat_time, monitors, clamped_total = direct_loop(u0, params, stencil,
                                                           growth, n_steps)
    assert res.final.time == final.time
    assert np.array_equal(res.final.values, final.values)
    assert np.array_equal(res.saturation_time, sat_time)
    assert res.clamped_total == clamped_total
    for key, value in monitors.items():
        assert res.monitors[key] == value, key


def shifted(u, cells):
    """``u`` moved by ``cells`` along axis 0 and zero-filled: the data sit
    off centre, and one front may reach or cross the box edge."""
    values = np.zeros_like(u.values)
    cells = max(-len(values), min(cells, len(values)))
    if cells >= 0:
        values[cells:] = u.values[:len(values) - cells]
    else:
        values[:cells] = u.values[-cells:]
    return ss.GridField(values, u.spacing, u.origin, u.time)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(cases(), st.integers(-24, 24))
def test_lipschitz_monitor_equals_direct_running_max(case, shift):
    u0, params, stencil, growth, n_steps = case
    u0 = shifted(u0, shift)
    res = ss.run(u0, params, stencil, growth, record_lipschitz=True)
    final, _, monitors, _ = direct_loop(u0, params, stencil, growth, n_steps,
                                        record_lipschitz=True)
    assert np.array_equal(res.final.values, final.values)
    assert res.monitors["max_lipschitz"] == monitors["max_lipschitz"]


def bits(values):
    """The bit patterns of ``values``: equal bits, not just equal numbers."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(cases())
def test_euler_steps_yield_contract(case):
    """Each step writes ``min(proposed, 1)`` on the band it yields, where
    ``proposed`` is ``before + dt * rhs`` and ``before`` is the previous field
    there, ``lo`` is the least of ``after``, the rest of the field keeps its
    bits, and no entry point writes ``u0``."""
    u0, params, stencil, growth, n_steps = case
    kept = u0.values.copy()
    prev = u0.copy()
    n = 0
    for u, before, after, lo, rhs, proposed, newly, written in ss.dynamics._euler_steps(
            u0, params, stencil, growth):
        n += 1
        assert u.time == prev.time + params.dt
        assert np.array_equal(bits(before), bits(prev.values.ravel()[written]))
        assert np.array_equal(bits(proposed), bits(before + params.dt * rhs))
        assert np.array_equal(bits(after), bits(np.minimum(proposed, 1.0)))
        assert np.array_equal(bits(lo), bits(np.minimum.reduce(after, initial=np.inf)))
        assert np.array_equal(bits(u.values.ravel()[written]), bits(after))
        off = np.ones(u.values.size, dtype=bool)
        off[written] = False
        assert np.array_equal(bits(u.values.ravel()[off]),
                              bits(prev.values.ravel()[off]))
        joined = ss.saturated_mask(u.values) & ~ss.saturated_mask(prev.values)
        assert np.array_equal(np.sort(newly), joined.ravel().nonzero()[0])
        # a clamped cell joins S on its step, in every model, so ``run``
        # counts clamps on event steps only
        assert np.isin(written[proposed > 1.0], newly).all()
        prev = u.copy()
    assert n == n_steps

    lower = ss.GridField(0.5 * u0.values, u0.spacing, u0.origin)
    ss.run(u0, params, stencil, growth, record_lipschitz=True)
    ss.comparison_harness(lower, u0, params, stencil, growth)
    ss.gamma_convergence_study(u0, [1.0, 2.0], stencil, growth, horizon=params.dt)
    assert np.array_equal(bits(u0.values), bits(kept)) and u0.time == 0.0


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(cases(), st.floats(0.0, 1.0), st.integers(-24, 24))
def test_comparison_principle_on_ordered_pairs(case, scale, shift):
    """Under a capped law, data below ``u0`` stay below its run at every
    step of a saturated model, to ``COMPARISON_TOL``: the lower data are the
    least of ``u0`` scaled down and ``u0`` moved along axis 0.  The pairs of
    the finite-pressure model are run too, but that model does not keep the
    order (see ``test_finite_pressure_model_does_not_keep_the_order``)."""
    u0, params, stencil, growth, n_steps = case
    lower = ss.GridField(np.minimum(scale * u0.values, shifted(u0, shift).values),
                         u0.spacing, u0.origin)
    report = ss.comparison_harness(lower, u0, params, stencil, growth)
    assert report.n_steps == n_steps and report.tolerance == ss.analysis.COMPARISON_TOL
    assert report.passed or params.model == "gamma", report


def test_finite_pressure_model_does_not_keep_the_order():
    """A cell at 0.5 among neighbours at 0.1 grows more slowly than among
    empty ones: with ``p = u`` each neighbour ``j`` blocks ``g(0.5) p_j`` of
    its growth and sends back only ``g(u_j) p_j``.  So the pair crosses on the
    first step, by ``dt (1 - w0) 0.02`` (``w0`` the centre weight), in the
    finite-pressure model; the singular model keeps it ordered."""
    stencil = STENCILS[1]
    high = ss.grid_field(2.0, DX, 1, lambda r: np.where(r == 0.0, 0.5, 0.1))
    low = ss.GridField(np.where(high.values == 0.5, 0.5, 0.0), DX, high.origin)
    growth = ss.linear_growth(1.0)
    w0 = float(stencil.weights[stencil.offsets[:, 0] == 0][0])
    params = ss.ModelParams("gamma", dt=0.1, t_end=0.1, gamma=1.0)
    report = ss.comparison_harness(low, high, params, stencil, growth)
    assert not report.passed
    assert report.max_violation == pytest.approx(0.1 * (1 - w0) * 0.02, rel=1e-9)
    params = ss.ModelParams("singular", dt=0.1, t_end=2.0)
    assert ss.comparison_harness(low, high, params, stencil, growth).passed


@st.composite
def tabulated_cases(draw):
    """A saturated model under a random capped table (``g(0) = 0``, every
    value in ``(0, g(1)]``) from one or two plateaus in 1-d or 2-d."""
    nodes = [0.0, *sorted(draw(st.sets(st.floats(0.05, 0.95), max_size=4))), 1.0]
    g1 = draw(st.floats(0.2, 3.0))
    inner = [draw(st.floats(0.01, 1.0)) * g1 for _ in nodes[1:-1]]
    growth = ss.tabulated_growth(nodes, [0.0, *inner, g1])
    assert growth.monotone_cap
    model = draw(st.sampled_from(["singular", "generalized_singular"]))
    if model == "generalized_singular":
        growth = growth.with_gain(draw(st.floats(0.1, 1.0)))
    dim = draw(st.sampled_from([1, 2]))
    box = draw(st.sampled_from(BOXES[dim]))
    values = np.zeros(ss.grid_field(box, DX, dim).shape)
    for _ in range(draw(st.integers(1, 2))):
        centre = np.zeros(dim)
        centre[0] = draw(st.floats(-box, box))
        plateau = seed_plateau(draw(st.floats(0.0, 1.0)), draw(st.floats(0.05, 1.0)))
        height = draw(st.one_of(st.just(1.0), st.floats(0.1, 1.0)))
        grid = ss.grid_field(box, DX, dim)
        values = np.maximum(values, height * plateau(
            np.linalg.norm(grid.coords() - centre, axis=-1)))
    dt = ss.stability_cap(model, growth) * draw(st.sampled_from([1.0, 0.5]))
    params = ss.ModelParams(model=model, dt=dt, t_end=draw(st.integers(1, 40)) * dt)
    return ss.GridField(values, DX, grid.origin), params, STENCILS[dim], growth


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(tabulated_cases())
def test_exact_invariants_under_tabulated_laws(case):
    """On every step under a capped tabulated law: ``0 <= u <= 1``,
    ``rhs >= 0`` and ``after >= before`` on the band, exactly; and a cell of
    ``S`` stays at 1.0 and is never reported as joining it."""
    u0, params, stencil, growth = case
    sat = ss.saturated_mask(u0.values).ravel()
    for u, before, after, _, rhs, _, newly, _ in ss.dynamics._euler_steps(
            u0, params, stencil, growth):
        assert np.all(after >= 0.0) and np.all(after <= 1.0)
        assert np.all(rhs >= 0.0)
        assert np.all(after >= before)
        assert not sat[newly].any()
        assert np.all(u.values.ravel()[sat] == 1.0)
        assert np.all((u.values >= 0.0) & (u.values <= 1.0))
        sat = sat.copy()
        sat[newly] = True


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(cases(), st.booleans())
def test_band_after_each_event_equals_full_rebuild(case, negative_zeros):
    """The band that ``_euler_steps`` keeps, recomputed after an event only
    around the new cells, is the band rebuilt from scratch on the whole grid,
    apart from cells at +0.0 with ``K * 1_S = 0``, where the rhs is exactly 0:
    cells that started at -0.0 (so were live) and have stepped to 0.0 far
    from every event, and their neighbours."""
    u0, params, stencil, growth, n_steps = case
    if negative_zeros:
        u0 = ss.GridField(np.where(u0.values == 0.0, -0.0, u0.values), u0.spacing,
                          u0.origin)
    rebuilt = None
    for u, before, after, lo, rhs, proposed, newly, written in ss.dynamics._euler_steps(
            u0, params, stencil, growth):
        if rebuilt is not None:
            cells, values, conv = rebuilt
            assert np.isin(cells, written).all()
            kept = np.setdiff1d(written, cells)
            assert np.array_equal(bits(values[kept]), bits(np.zeros(kept.size)))
            assert not conv[kept].any()
            rebuilt = None
        if newly.size and params.model != "gamma":
            sat = ss.saturated_mask(u.values)
            conv = ss.convolve_field(stencil, sat.astype(float))
            band = ss.dynamics._band(sat, conv, u.values, np.zeros(sat.shape, dtype=bool),
                                     tuple(slice(0, n) for n in sat.shape), growth,
                                     params.model == "generalized_singular")
            rebuilt = band.cells, u.values.ravel().copy(), conv.ravel()


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(cases())
def test_negative_zero_vacuum_steps_as_positive_zero(case):
    """A run started from a -0.0 vacuum writes the band and every bit of the
    same run started from +0.0, from the first step on: the vacuum never
    enters the band."""
    u0, params, stencil, growth, n_steps = case
    signed = ss.GridField(np.where(u0.values == 0.0, -0.0, u0.values), u0.spacing,
                          u0.origin)
    steps = zip(ss.dynamics._euler_steps(u0, params, stencil, growth),
                ss.dynamics._euler_steps(signed, params, stencil, growth))
    for (u, before, *_, written), (v, before_signed, *_, written_signed) in steps:
        assert np.array_equal(written, written_signed)
        assert np.array_equal(bits(before), bits(before_signed))
        assert np.array_equal(bits(u.values), bits(v.values))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(cases(), st.booleans(), st.integers(0, 2), st.sampled_from([1, 3]),
       st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)))
def test_confinement_from_saturation_times_equals_per_snapshot(case, hollow, slack,
                                                               every, scramble):
    """The confinement report read off saturation times is the one that
    convolves the saturated set of every snapshot.  With ``scramble``, the
    snapshots after the first are thinned and sprinkled with random mass, so
    that supports cross the allowed set's edge wherever it lies."""
    u0, params, stencil, growth, n_steps = case
    if hollow:
        stencil = HOLLOW[u0.dim]
        assert np.count_nonzero(stencil.dense) < np.count_nonzero(STENCILS[u0.dim].dense)
    result = ss.run(u0, params, stencil, growth, snapshot_interval=every * params.dt)
    if scramble is not None:
        rng = np.random.default_rng(scramble)
        snapshots = [snap * (rng.uniform(size=snap.shape) < 0.2)
                     + rng.uniform(size=snap.shape) * (rng.uniform(size=snap.shape) < 0.1)
                     for snap in result.snapshots[1:]]
        result = ss.RunResult(result.final, result.saturation_time, result.times,
                              result.snapshots[:1] + snapshots, 0, {})
    assert (tuple(ss.support_confinement_check(result, stencil, slack_cells=slack))
            == support_confinement_per_snapshot(result, stencil, slack_cells=slack))
