"""Shared fixtures: benchmark kernels, minimal-speed result, spreading runs."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

import satspread as ss
# Hypothesis adds the literal constants of the loaded modules outside tests/
# to the values it draws. Only test_config_cli imports the CLI; loading it
# here gives every run, of one file or of the suite, the same draws.
import satspread.cli  # noqa: F401

from oracles import C_STAR_LINEAR_1D


def seed_plateau(radius: float, ramp: float):
    """Lipschitz compact seed: saturated ball with a linear ramp to zero."""
    return lambda r: np.clip((radius + ramp - r) / ramp, 0.0, 1.0)


def sagging_growth():
    """g(u) = u (1/2 - u), built directly: g(0) = 0, and g < 0 above 1/2, so a
    density above 1/2 falls and the time-monotonicity monitor reads > 0."""
    return ss.GrowthLaw(kind="sagging", params=(), r=0.0, lipschitz=2.0, sup=0.25,
                        g1=-0.5, monotone_cap=False, fn=lambda u: u * (0.5 - u))


@st.composite
def growth_laws(draw):
    kind = draw(st.sampled_from(["linear", "logistic", "tabulated"]))
    rate = draw(st.floats(0.5, 2.0))
    if kind == "linear":
        return ss.linear_growth(rate)
    if kind == "logistic":
        return ss.logistic_growth(rate, draw(st.floats(2.0, 5.0)))
    # A capped table: positive values with g(1) the largest, so g <= g(1).
    inner = draw(st.lists(st.sampled_from([0.2, 0.4, 0.6, 0.8]), max_size=3,
                          unique=True))
    nodes = [0.0, *sorted(inner), 1.0]
    values = draw(st.lists(st.floats(0.1, 2.0), min_size=len(nodes) - 1,
                           max_size=len(nodes) - 1))
    values[-1] = max(values)
    law = ss.tabulated_growth(nodes, [0.0, *values])
    assert law.monotone_cap
    return law


@pytest.fixture(scope="session")
def linear_g():
    return ss.linear_growth(1.0)


@pytest.fixture(scope="session")
def bench40():
    return ss.build_kernel("indicator_ball", 1.0, 1, 1.0 / 40)


@pytest.fixture(scope="session")
def bench80():
    return ss.build_kernel("indicator_ball", 1.0, 1, 1.0 / 80)


@pytest.fixture(scope="session")
def front_profile_1d(bench40):
    kernel, _ = bench40
    return ss.front_profile(kernel)


@pytest.fixture(scope="session")
def c_star_result(linear_g, front_profile_1d):
    return ss.find_c_star(linear_g, front_profile_1d)


@pytest.fixture(scope="session")
def minimal_wave(linear_g, front_profile_1d, c_star_result):
    return ss.shoot_profile(c_star_result.c_star, linear_g, front_profile_1d,
                            s_max=2.0)


def _spreading_run(stencil, growth, dt):
    t_end = 30.0 / C_STAR_LINEAR_1D
    u0 = ss.grid_field(40.0, stencil.grid_spacing, 1, seed_plateau(2.0, 0.5))
    params = ss.ModelParams(model="singular", dt=dt, t_end=t_end)
    return ss.run(u0, params, stencil, growth, snapshot_interval=1.0)


@pytest.fixture(scope="session")
def spreading_run_40(bench40, linear_g):
    _, stencil = bench40
    return _spreading_run(stencil, linear_g, dt=0.0125)


@pytest.fixture(scope="session")
def spreading_run_80(bench80, linear_g):
    _, stencil = bench80
    return _spreading_run(stencil, linear_g, dt=0.00625)
