"""Growth-law constants and validation."""
from __future__ import annotations

import numpy as np
import pytest

import satspread as ss
from satspread.growth import _verify


class TestLinear:
    def test_certified_constants(self):
        g = ss.linear_growth(2.0)
        assert (g.r, g.lipschitz, g.sup, g.g1) == (2.0, 2.0, 2.0, 2.0)
        assert g.monotone_cap
        assert float(g(0.25)) == 0.5

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ss.GrowthError):
            ss.linear_growth(0.0)


class TestLogistic:
    def test_monotone_capacity(self):
        g = ss.logistic_growth(1.0, 3.0)
        assert g.monotone_cap
        assert g.g1 == pytest.approx(2.0 / 3.0)
        assert g.r == pytest.approx(2.0 / 3.0)
        assert g.sup == pytest.approx(g.g1)

    def test_interior_maximum_drops_the_cap(self):
        g = ss.logistic_growth(1.0, 1.2)
        assert not g.monotone_cap
        assert float(g(0.6)) == pytest.approx(0.3)
        assert g.sup == pytest.approx(0.3)
        assert g.g1 == pytest.approx(1.0 / 6.0)

    def test_capacity_at_most_one_rejected(self):
        with pytest.raises(ss.GrowthError):
            ss.logistic_growth(1.0, 1.0)

    def test_lipschitz_is_largest_slope(self):
        g = ss.logistic_growth(3.0, 1.5)
        u = np.linspace(0, 1, 5001)
        slopes = np.abs(np.diff(np.asarray(g(u)))) / np.diff(u)
        assert slopes.max() <= g.lipschitz * (1 + 1e-9)


class TestTabulated:
    def test_constants_from_table(self):
        u = np.array([0.0, 0.25, 0.5, 1.0])
        v = np.array([0.0, 0.3, 0.55, 1.0])
        g = ss.tabulated_growth(u, v)
        assert g.g1 == 1.0
        assert g.sup == 1.0
        assert g.monotone_cap
        assert g.r == pytest.approx(1.0)
        assert g.lipschitz == pytest.approx(1.2)
        assert float(g(0.125)) == pytest.approx(0.15)

    def test_bad_tables_rejected(self):
        with pytest.raises(ss.GrowthError):
            ss.tabulated_growth([0.0, 1.0], [0.1, 1.0])  # g(0) != 0
        with pytest.raises(ss.GrowthError):
            ss.tabulated_growth([0.1, 1.0], [0.0, 1.0])  # nodes not from 0
        with pytest.raises(ss.GrowthError):
            ss.tabulated_growth([0.0, 0.5, 1.0], [0.0, -0.1, 1.0])
        with pytest.raises(ss.GrowthError):
            # interior zero breaks the linear lower bound g(u) >= r u
            ss.tabulated_growth([0.0, 0.5, 1.0], [0.0, 0.0, 1.0])


def offset_linear_law(offset: float) -> ss.GrowthLaw:
    """Unit linear law plus a constant, built without the factory checks."""
    return ss.GrowthLaw(kind="linear", params=(1.0,), r=1.0, lipschitz=1.0,
                        sup=1.0 + offset, g1=1.0 + offset, monotone_cap=True,
                        fn=lambda u: 1.0 * u + offset)


def test_growth_must_vanish_exactly_at_zero():
    # 1e-16 used to pass as "zero"; the stepping band needs g(0) == 0.0.
    with pytest.raises(ss.GrowthError, match="vanish at zero density"):
        _verify(offset_linear_law(1e-16))
    assert _verify(offset_linear_law(0.0)).fn(0.0) == 0.0


class TestGain:
    def test_gain_must_be_positive_and_finite(self):
        law = ss.linear_growth(1.0)
        for bad in (np.nan, np.inf, 0.0, -0.5):
            with pytest.raises(ss.GrowthError, match="gain must be positive"):
                law.with_gain(bad)
        assert law.with_gain(1e300).gain == 1e300

    def test_scale_factor_must_be_positive_and_finite(self):
        law = ss.linear_growth(1.0)
        for bad in (np.nan, np.inf, -np.inf, 0.0, -0.5):
            with pytest.raises(ss.GrowthError, match="scale factor must be positive"):
                law.scaled(bad)
        assert law.scaled(1e300).r == 1e300

    def test_with_gain_keeps_growth_constants(self):
        g = ss.linear_growth(1.0).with_gain(0.3)
        assert type(g.gain) is float and g.gain == 0.3
        assert g.sup == 1.0


def test_scaling_rescales_all_constants():
    g = ss.logistic_growth(1.0, 3.0)
    doubled = g.scaled(2.0)
    assert doubled.g1 == pytest.approx(2 * g.g1)
    assert doubled.sup == pytest.approx(2 * g.sup)
    assert doubled.lipschitz == pytest.approx(2 * g.lipschitz)
    assert float(doubled(0.5)) == pytest.approx(2 * float(g(0.5)))


@pytest.mark.parametrize("law", [
    ss.linear_growth(1.3),
    ss.logistic_growth(1.0, 3.0),
    ss.logistic_growth(2.0, 1.2),
    ss.tabulated_growth([0.0, 0.25, 0.5, 1.0], [0.0, 0.3, 0.55, 1.0]),
    ss.logistic_growth(0.7, 2.5).scaled(1.9),
    ss.tabulated_growth([0.0, 0.4, 1.0], [0.0, 0.6, 0.9]).scaled(0.3),
], ids=["linear", "logistic", "logistic-uncapped", "tabulated", "scaled",
        "scaled-tabulated"])
def test_float_evaluation_equals_array_evaluation(law):
    rng = np.random.default_rng(7)
    u = np.concatenate([np.linspace(0.0, 1.0, 10001), rng.uniform(0.0, 1.0, 10000)])
    on_array = law(u)
    on_floats = np.array([law.fn(x) for x in u.tolist()])
    assert np.array_equal(on_floats, on_array)
