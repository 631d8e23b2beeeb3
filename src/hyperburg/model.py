"""Physical parameters of the hyperbolic Burgers equation.

The model is

    mu * v_tt + v_t + v * v_x = nu * v_xx

with inertia ``mu > 0``, viscosity ``nu > 0``, and initial data compactly
supported in ``[-L, L]``.  Disturbances propagate no faster than the wave
speed ``c = sqrt(nu / mu)``, which makes the derived constants below the
backbone of every propagation and blow-up check in this package.
``validate_params`` is another name for :class:`ModelParams`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import HyperburgError, ParameterError

__all__ = [
    "ModelParams",
    "validate_params",
    "moment_thresholds",
]


def _real(value, name: str, error: type[HyperburgError]) -> float:
    """The package's one real-number rule: a real ``value`` (numpy scalars
    too), not a bool, as a Python float, an int past the largest double as
    inf; else ``error``, "<name> must be a number".  Floats skip the ABC test."""
    if type(value) is not float and (type(value) is bool or not isinstance(value, numbers.Real)):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration: each field passes :func:`_real` and must be
    finite and > 0, or a ParameterError names it.

    Attributes:
        mu: inertia coefficient (sets the damping time scale).
        nu: viscosity.
        L: half-width of the support of the initial data.
    """

    mu: float
    nu: float
    L: float

    def __post_init__(self):
        for name in ("mu", "nu", "L"):
            value = _real(getattr(self, name), name, ParameterError)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            if value <= 0.0:
                raise ParameterError(f"{name} must be positive, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def c(self) -> float:
        """Wave speed sqrt(nu / mu), the maximal signal speed."""
        return math.sqrt(self.nu / self.mu)


validate_params = ModelParams


def moment_thresholds(params: ModelParams) -> tuple[float, float]:
    """Certified blow-up thresholds on the initial moments.

    Initial data whose moments F(0) = int x*v0 dx and F'(0) = int x*v1 dx
    strictly exceed the returned pair

        F0_min = (16/3) * c * L * (L + 6*c*mu)
        F1_min = (64/3) * c**2 * (L + 6*c*mu)

    satisfy the sufficient condition under which the classical solution has
    a finite lifespan.

    Returns:
        ``(F0_min, F1_min)``.
    """
    c = params.c
    common = params.L + 6.0 * c * params.mu
    f0_min = (16.0 / 3.0) * c * params.L * common
    f1_min = (64.0 / 3.0) * c * c * common
    return f0_min, f1_min
