"""Constructor contract of the result, descriptor and state classes."""
from __future__ import annotations

import numpy as np
import pytest

import satspread as ss

from harnesses import CAP_VIOLATION_TOL, CapInequalityReport, CounterexampleReport

ARRAY = np.linspace(0.0, 1.0, 5)
FIELD = ss.GridField(ARRAY, 0.25, np.zeros(1))
LAW = ss.linear_growth(1.0)
KERNEL, STENCIL = ss.build_kernel("indicator_ball", 1.0, 1, 0.25)

#: Each class with its fields in constructor order, sample values for all of
#: them, the defaults of the trailing optional ones, and whether it is frozen.
RECORDS = [
    (ss.GrowthLaw, dict(kind="linear", params=(1.0,), r=1.0, lipschitz=1.0, sup=1.0,
                        g1=1.0, monotone_cap=True, gain=0.5,
                        fn=abs), dict(gain=None, fn=None), True),
    (ss.Kernel, dict(kind="indicator_ball", radius=1.0, dim=1, profile=abs), {}, True),
    (ss.ConvolutionStencil, dict(offsets=ARRAY, weights=ARRAY, grid_spacing=0.25,
                                 dim=1, radius=1.0, dense=ARRAY), {}, True),
    (ss.FrontKernelProfile, dict(ell=1.0, s=ARRAY, samples=ARRAY), {}, True),
    (CapInequalityReport, dict(radii=(1.0,), max_violation=(0.0,),
                                  least_nonviolating_radius=1.0, tolerance=0.0),
     dict(tolerance=CAP_VIOLATION_TOL), True),
    (ss.WaveProfile, dict(c=1.0, s=ARRAY, phi=ARRAY, ell=1.0, phi_at_ell=0.5), {},
     True),
    (ss.MinimalSpeedResult, dict(c_star=1.0, bracket=(0.9, 1.1), tol=1e-8,
                                 analytic_bounds=(0.5, 2.0), phi_ell_lo=-0.1,
                                 phi_ell_hi=0.1, interior_min=0.2, ode_step=0.01),
     {}, True),
    (ss.FrontTrack, dict(times=ARRAY, radius_saturated=ARRAY, radius_support=ARRAY),
     {}, True),
    (ss.SpeedEstimate, dict(fitted_speed=1.0, fit_window=(0.5, 1.0), residual=0.0,
                            degenerate=True),
     dict(degenerate=False), True),
    (ss.ComparisonReport, dict(max_violation=0.0, passed=True, n_steps=3,
                               tolerance=1e-12), {}, True),
    (CounterexampleReport, dict(crossed=True, first_crossing_time=0.5,
                                   min_probe_gap=-0.1, rhs_gap_discrete=-0.2,
                                   rhs_gap_analytic=-0.2, probe_location=0.5),
     {}, True),
    (ss.GammaConvergenceStudy, dict(gammas=(1.0, 2.0), dts=(0.1, 0.05),
                                    distances=(0.2, 0.1), reference_dt=0.05,
                                    horizon=1.0, threshold=0.5,
                                    strictly_decreasing=True, passed=True), {}, True),
    (ss.ConfinementReport, dict(violations_per_snapshot=(0, 0), total_violations=0,
                                coverage_snapshot=1, max_annulus_after_coverage=0.5,
                                annulus_bound=1.25), {}, True),
    (ss.ModelParams, dict(model="singular", dt=0.05, t_end=1.0, gamma=2.0),
     dict(gamma=None), True),
    (ss.GridField, dict(values=ARRAY, spacing=0.25, origin=np.zeros(1), time=0.5),
     dict(time=0.0), False),
    (ss.RunResult, dict(final=FIELD, saturation_time=ARRAY, times=[0.0],
                        snapshots=[ARRAY], clamped_total=0, monitors={}), {}, False),
    (ss.RunConfig, dict(model=ss.ModelParams("singular", 0.05, 1.0), t_end=1.0,
                        kernel=KERNEL, stencil=STENCIL, growth=LAW, box_radius=1.0,
                        initial_spec={}, initial_high_spec=None, output_dir="out",
                        snapshot_interval=None, study={}, raw={"model": {}},
                        warnings=["w"]), dict(raw={}, warnings=[]), False),
]


@pytest.mark.parametrize("cls, fields, defaults, frozen", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_constructors(cls, fields, defaults, frozen):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    bare = cls(*list(fields.values())[:len(fields) - len(defaults)])
    for name, value in defaults.items():
        assert getattr(bare, name) == value
    first = next(iter(fields))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(by_keyword, first, fields[first])
    else:
        setattr(by_keyword, first, fields[first])


@pytest.mark.parametrize("cls, fields, defaults, frozen",
                         [r for r in RECORDS if r[3]],
                         ids=[r[0].__name__ for r in RECORDS if r[3]])
def test_frozen_records_are_named_tuples(cls, fields, defaults, frozen):
    """A frozen record is a named tuple of its fields in constructor order:
    it iterates, indexes and compares as that tuple, and ``_replace`` keeps
    its class."""
    record = cls(**fields)
    assert isinstance(record, tuple) and record._fields == tuple(fields)
    assert len(record) == len(fields) and record[0] is next(iter(fields.values()))
    assert all(a is b for a, b in zip(record, fields.values()))
    assert record == tuple(record)
    first = next(iter(fields))
    replaced = record._replace(**{first: fields[first]})
    assert type(replaced) is cls and replaced == record


def test_model_params_compare_by_value_and_check_when_built():
    params = ss.ModelParams("singular", 0.05, 1.0)
    assert params == ss.ModelParams(model="singular", dt=0.05, t_end=1.0)
    with pytest.raises(ValueError, match="gamma model requires gamma >= 1"):
        ss.ModelParams("gamma", 0.05, 1.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        params._replace(dt=-1.0)
    assert params._replace(t_end=2.0) == ss.ModelParams("singular", 0.05, 2.0)


def test_run_config_defaults_are_not_shared():
    cfg = RECORDS[-1][1]
    required = list(cfg.values())[:-2]
    a, b = ss.RunConfig(*required), ss.RunConfig(*required)
    assert a.raw is not b.raw and a.warnings is not b.warnings


def test_growth_law_with_gain_and_scaled():
    gain = 0.5
    gained = LAW.with_gain(gain)
    assert type(gained) is ss.GrowthLaw and gained.gain == gain
    assert gained == ss.GrowthLaw(kind=LAW.kind, params=LAW.params, r=LAW.r,
                                  lipschitz=LAW.lipschitz, sup=LAW.sup, g1=LAW.g1,
                                  monotone_cap=LAW.monotone_cap, gain=gain, fn=LAW.fn)
    scaled = LAW.scaled(2.0)
    assert type(scaled) is ss.GrowthLaw
    assert (scaled.kind, scaled.params, scaled.r, scaled.lipschitz, scaled.sup,
            scaled.g1, scaled.monotone_cap, scaled.gain) == (
        "linear", (1.0, 2.0), 2.0, 2.0, 2.0, 2.0, True, None)
    u = np.linspace(0.0, 1.0, 9)
    assert np.array_equal(scaled(u), 2.0 * LAW(u))
    with pytest.raises(ss.GrowthError):
        LAW.scaled(0.0)
    assert gained.scaled(2.0).gain == 1.0
