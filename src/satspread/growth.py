"""Growth laws with certified constants, plus an optional gain rate."""
from typing import Callable, NamedTuple

import numpy as np

#: Sample size used to verify certified constants on [0, 1].
_VERIFY_SAMPLES = 4097
_CAP_TOL = 1e-12


class GrowthError(ValueError):
    """Growth specification violates the model assumptions."""


class GrowthLaw(NamedTuple):
    """Rate of growth g on [0, 1] together with certified constants.

    ``r`` bounds g(u) >= r*u from below on (0, 1]; ``lipschitz`` bounds |g'|;
    ``monotone_cap`` certifies g(u) <= g(1) everywhere, the assumption behind
    the comparison principle.

    ``gain``, read by the generalized model only, is the constant rate, in
    ``(0, inf)``, of the mass that arrives from ``S`` (it multiplies ``K * 1_S``).

    ``fn`` is one expression, valid on a Python float and on a float array,
    with the same operations in the same order on either: ``fn(float(x)) ==
    self(x)[i]`` bit for bit.  The wave shooter calls ``fn`` on floats.
    """

    kind: str
    params: tuple
    r: float
    lipschitz: float
    sup: float
    g1: float
    monotone_cap: bool
    gain: float | None = None
    fn: Callable[[np.ndarray], np.ndarray] = None

    def __call__(self, u):
        return self.fn(np.asarray(u, dtype=float))

    def with_gain(self, gain: float) -> "GrowthLaw":
        # Written so that NaN fails the test: every comparison with NaN is False.
        if not 0.0 < gain < np.inf:
            raise GrowthError("gain must be positive at zero density")
        return self._replace(gain=float(gain))

    def scaled(self, factor: float) -> "GrowthLaw":
        """Multiply the rate by a positive factor (rescales time)."""
        if not 0.0 < factor < np.inf:
            raise GrowthError("scale factor must be positive and finite")
        return self._replace(params=self.params + (factor,), r=self.r * factor,
                             lipschitz=self.lipschitz * factor, sup=self.sup * factor,
                             g1=self.g1 * factor,
                             gain=None if self.gain is None else self.gain * factor,
                             fn=lambda u, _f=self.fn, _a=factor: _a * _f(u))


def _verify(law: GrowthLaw) -> GrowthLaw:
    u = np.linspace(0.0, 1.0, _VERIFY_SAMPLES)
    g = np.asarray(law(u), dtype=float)
    # Exactly: the Euler core's stepping band assumes that g(0) = 0.0.
    if float(g[0]) != 0.0:
        raise GrowthError("growth must vanish at zero density")
    if np.any(g < -1e-15):
        raise GrowthError("growth must be nonnegative on [0, 1]")
    if law.r <= 0:
        raise GrowthError("certified linear lower bound r must be positive")
    if np.any(g[1:] < law.r * u[1:] - 1e-12):
        raise GrowthError("certified bound g(u) >= r*u fails on [0, 1]")
    slopes = np.abs(np.diff(g)) / np.diff(u)
    if np.any(slopes > law.lipschitz * (1 + 1e-9) + 1e-12):
        raise GrowthError("certified Lipschitz bound fails on [0, 1]")
    if law.monotone_cap and float(g.max()) > law.g1 + _CAP_TOL:
        raise GrowthError("monotone_cap set but g exceeds g(1)")
    return law


def linear_growth(rate: float) -> GrowthLaw:
    """g(u) = rate * u."""
    if rate <= 0:
        raise GrowthError("linear rate must be positive")
    fn = lambda u, _r=rate: _r * u
    return _verify(GrowthLaw(kind="linear", params=(rate,), r=rate,
                             lipschitz=rate, sup=rate, g1=rate,
                             monotone_cap=True, fn=fn))


def logistic_growth(rate: float, capacity: float) -> GrowthLaw:
    """g(u) = rate * u * (1 - u/capacity), capacity > 1.

    The growth cap g(u) <= g(1) holds exactly when capacity >= 2; below that
    the law has an interior maximum and the comparison principle can fail.
    """
    if rate <= 0:
        raise GrowthError("logistic rate must be positive")
    if capacity <= 1:
        raise GrowthError("logistic capacity must exceed 1")
    fn = lambda u, _r=rate, _M=capacity: _r * u * (1.0 - u / _M)
    g1 = rate * (1.0 - 1.0 / capacity)
    sup = g1 if capacity >= 2 else rate * capacity / 4.0
    lip = rate * max(1.0, abs(1.0 - 2.0 / capacity))
    return _verify(GrowthLaw(kind="logistic", params=(rate, capacity),
                             r=rate * (1.0 - 1.0 / capacity), lipschitz=lip,
                             sup=sup, g1=g1, monotone_cap=capacity >= 2, fn=fn))

