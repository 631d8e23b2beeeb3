"""Smooth compactly supported initial data with prescribed moments.

The single profile family is the odd mollifier bump

    psi(x) = x * exp(1 / ((x/L)^2 - 1))   for |x| < L,   0 otherwise,

which is infinitely differentiable, vanishes identically outside [-L, L],
and has a strictly positive first moment m1 = int x*psi dx.  An even bump
would have m1 = 0, so the odd factor is the minimal choice that makes
positive moment targets reachable.  Both fields share this shape:

    v(x, 0) = a * psi(x),      dv/dt(x, 0) = b * psi(x),

and ``calibrated_profile`` picks (a, b) so the discrete moments hit their
targets, to a few ulps, under the trapezoidal rule the runtime diagnostics
use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CalibrationError, DomainError, ParameterError
from .model import ModelParams
from .operators import trapezoid
from .solver import Grid, GridState

__all__ = [
    "ProfileSpec",
    "bump_profile",
    "bump_max_abs",
    "amplitude_for_sup_norm",
    "calibrated_profile",
    "sample_initial_state",
]

PROFILE_FAMILIES = ("odd_bump",)


@dataclass(frozen=True)
class ProfileSpec:
    """Initial-condition profile: family plus amplitudes of v and dv/dt.

    ``a`` scales the initial velocity field, ``b`` its time derivative; both
    multiply the same bump of support half-width ``L``.
    """

    family: str
    a: float
    b: float
    L: float

    def __post_init__(self):
        if self.family not in PROFILE_FAMILIES:
            raise ParameterError(
                f"unknown profile family {self.family!r}; known: {PROFILE_FAMILIES}"
            )
        if not (self.L > 0.0) or not math.isfinite(self.L):
            raise ParameterError(f"L must be positive and finite, got {self.L!r}")


def bump_profile(x, L: float):
    """Odd smooth bump x * exp(1/((x/L)^2 - 1)) inside |x| < L, exactly 0 outside.

    Accepts scalars or arrays; vanishing outside the support is exact (the
    else-branch writes 0.0, not a rounded exponential).
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    xv = np.atleast_1d(arr)
    u = xv / L
    inside = np.abs(u) < 1.0
    out = np.zeros_like(xv)
    ui = u[inside]
    out[inside] = xv[inside] * np.exp(1.0 / (ui * ui - 1.0))
    return float(out[0]) if scalar else out


def bump_max_abs(L: float) -> float:
    """Peak value of |bump_profile|, attained at x* = L*sqrt(2 - sqrt(3)).

    Closed form: max |psi| = L * sqrt(2 - sqrt(3)) * exp(-(1 + sqrt(3)) / 2).
    """
    return L * math.sqrt(2.0 - math.sqrt(3.0)) * math.exp(-(1.0 + math.sqrt(3.0)) / 2.0)


def amplitude_for_sup_norm(sup: float, L: float) -> float:
    """Amplitude a such that a * psi has the requested peak magnitude."""
    return sup / bump_max_abs(L)


def calibrated_profile(
    family: str,
    L: float,
    grid: Grid,
    F0_target: float,
    F1_target: float,
) -> ProfileSpec:
    """Profile whose sampled moments hit the targets: a = F0/m1, b = F1/m1.

    The first moment m1 = trapz(x * psi) is evaluated on the run grid with
    ``numpy.trapezoid``.  The diagnostics apply the same rule as a dot
    product (:func:`~hyperburg.operators.trapezoid_dot`), which sums in
    another order, so int x*(a*psi) dx reproduces ``F0_target`` up to a few
    ulps, with no discretization offset between the calibrated data and the
    recorded moment series.

    Raises:
        ParameterError: for an unknown family or a bad L (checked first).
        CalibrationError: if the grid resolves no interior support nodes
            (m1 == 0) so the targets are unreachable.
    """
    spec = ProfileSpec(family=family, a=0.0, b=0.0, L=L)
    x = grid.nodes()
    m1 = float(trapezoid(x * bump_profile(x, L), dx=grid.dx))
    if not math.isfinite(m1) or m1 <= 0.0:
        raise CalibrationError(
            f"first moment of the profile is {m1!r} on this grid "
            f"(n={grid.n}, dx={grid.dx:.3g}); grid too coarse for L={L}"
        )
    return replace(spec, a=F0_target / m1, b=F1_target / m1)


def sample_initial_state(
    params: ModelParams,
    grid: Grid,
    profile: ProfileSpec,
) -> GridState:
    """Sample the profile on the grid as the t = 0 state.

    Raises:
        DomainError: unless the grid strictly contains the support [-L, L].
    """
    if not (grid.xmin < -profile.L and grid.xmax > profile.L):
        raise DomainError(
            f"grid [{grid.xmin}, {grid.xmax}] does not strictly contain "
            f"the initial support [-{profile.L}, {profile.L}]"
        )
    x = grid.nodes()
    psi = bump_profile(x, profile.L)
    return GridState(grid=grid, t=0.0, v=profile.a * psi, w=profile.b * psi)
