"""Growth-law constants and validation."""
from __future__ import annotations

import numpy as np
import pytest

import satspread as ss
from satspread.growth import _verify

from harnesses import table_law


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


class TestTableLaw:
    def test_constants_from_table(self):
        g = table_law([0.0, 0.25, 0.5, 1.0], [0.0, 0.3, 0.55, 1.0])
        assert g.g1 == 1.0
        assert g.sup == 1.0
        assert g.monotone_cap
        assert g.r == pytest.approx(1.0)
        assert g.lipschitz == pytest.approx(1.2)
        assert float(g(0.125)) == pytest.approx(0.15)


def hand_law(fn, r: float = 1.0, lipschitz: float = 1.0) -> ss.GrowthLaw:
    """The capped law ``fn`` with the given constants and ``sup = g1 = fn(1)``,
    built without the factory checks."""
    g1 = float(fn(1.0))
    return ss.GrowthLaw(kind="hand", params=(), r=r, lipschitz=lipschitz, sup=g1,
                        g1=g1, monotone_cap=True, fn=fn)


@pytest.mark.parametrize("law,message", [
    # 1e-16 used to pass as "zero"; the stepping band needs g(0) == 0.0.
    (hand_law(lambda u: 1.0 * u + 1e-16), "vanish at zero density"),
    (hand_law(lambda u: u * (u - 0.5)), "nonnegative"),
    (hand_law(lambda u: u, r=0.0), "r must be positive"),
    (hand_law(lambda u: u * u), "g\\(u\\) >= r\\*u fails"),
    (hand_law(lambda u: 2.0 * u, r=2.0), "Lipschitz bound fails"),
    (hand_law(lambda u: u * (1.5 - u), r=0.5, lipschitz=1.5),
     "monotone_cap set but g exceeds g\\(1\\)"),
], ids=["offset", "negative", "r-zero", "below-r-u", "lipschitz", "above-g1"])
def test_verify_rejects_each_broken_constant(law, message):
    with pytest.raises(ss.GrowthError, match=message):
        _verify(law)


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
    ss.logistic_growth(0.7, 2.5).scaled(1.9),
    table_law([0.0, 0.25, 0.5, 1.0], [0.0, 0.3, 0.55, 1.0]),
    table_law([0.0, 0.4, 1.0], [0.0, 0.6, 0.9]).scaled(0.3),
], ids=["linear", "logistic", "logistic-uncapped", "scaled", "table", "scaled-table"])
def test_float_evaluation_equals_array_evaluation(law):
    rng = np.random.default_rng(7)
    u = np.concatenate([np.linspace(0.0, 1.0, 10001), rng.uniform(0.0, 1.0, 10000)])
    on_array = law(u)
    on_floats = np.array([law.fn(x) for x in u.tolist()])
    assert np.array_equal(on_floats, on_array)
    # the shooter's g(1) branch and the stepping band's spill read g1 for fn(1)
    assert law.fn(1.0) == law.g1
