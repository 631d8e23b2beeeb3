"""Physical parameters of the hyperbolic Burgers equation.

The model is

    mu * v_tt + v_t + v * v_x = nu * v_xx

with inertia ``mu > 0``, viscosity ``nu > 0``, and initial data compactly
supported in ``[-L, L]``.  Disturbances propagate no faster than the wave
speed ``c = sqrt(nu / mu)``, which makes the derived constants below the
backbone of every propagation and blow-up check in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "ModelParams",
    "validate_params",
    "moment_thresholds",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration, checked however it is built: every field must
    be a finite, strictly positive number.

    Attributes:
        mu: inertia coefficient (sets the damping time scale).
        nu: viscosity.
        L: half-width of the support of the initial data.

    Raises:
        ParameterError: naming the offending field.
    """

    mu: float
    nu: float
    L: float

    def __post_init__(self):
        for name in ("mu", "nu", "L"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            if value <= 0.0:
                raise ParameterError(f"{name} must be positive, got {value!r}")

    @property
    def c(self) -> float:
        """Wave speed sqrt(nu / mu), the maximal signal speed."""
        return math.sqrt(self.nu / self.mu)


def validate_params(mu: float, nu: float, L: float) -> ModelParams:
    """:class:`ModelParams` from raw numbers, each converted with ``float``.

    Raises:
        ParameterError: naming the offending parameter.
    """
    values = []
    for name, value in (("mu", mu), ("nu", nu), ("L", L)):
        try:
            values.append(float(value))
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"{name} must be a number, got {value!r}") from exc
    return ModelParams(*values)


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
