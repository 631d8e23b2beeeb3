"""Smooth compactly supported initial data with prescribed moments.

The single profile family is the odd mollifier bump

    psi(x) = x * exp(1 / ((x/L)^2 - 1))   for |x| < L,   0 otherwise,

which is infinitely differentiable, vanishes identically outside [-L, L],
and has a strictly positive first moment m1 = int x*psi dx.  An even bump
would have m1 = 0, so the odd factor is the minimal choice that makes
positive moment targets reachable.  Both fields share this shape:

    v(x, 0) = a * psi(x),      dv/dt(x, 0) = b * psi(x),

and ``calibrated_profile`` picks (a, b) so the discrete moments hit their
targets.  The initial data are described by a
:class:`~hyperburg.config.ICConfig`, amplitudes or targets, and L is always
the run's ``params.L``.  psi's support on a grid, and its first moment,
are computed once per grid and L.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import ICConfig
from .errors import CalibrationError, DomainError, ParameterError
from .model import ModelParams, _real
from .solver import Grid, GridState

__all__ = [
    "bump_profile",
    "amplitude_for_sup_norm",
    "calibrated_profile",
    "sample_initial_state",
]


def _half_width(L: float) -> float:
    """The profile's half-width L as a float.

    Raises:
        ParameterError: unless L is a positive, finite number.
    """
    L = _real(L, "L", ParameterError)
    if not (L > 0.0 and math.isfinite(L)):
        raise ParameterError(f"L must be positive and finite, got {L!r}")
    return L


def bump_profile(x, L: float):
    """Odd smooth bump x * exp(1/((x/L)^2 - 1)) inside |x| < L, exactly 0 outside.

    Accepts scalars or arrays; vanishing outside the support is exact (the
    else-branch writes 0.0, not a rounded exponential).  An L that is not a
    positive, finite number raises ParameterError.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    xv = np.atleast_1d(arr)
    u = xv / _half_width(L)
    inside = np.abs(u) < 1.0
    out = np.zeros_like(xv)
    ui = u[inside]
    out[inside] = xv[inside] * np.exp(1.0 / (ui * ui - 1.0))
    return float(out[0]) if scalar else out


# Keyed by value, like Grid.nodes; only the support is kept, to bound memory.
@functools.lru_cache(maxsize=16)
def _bump_support(grid: Grid, L: float) -> tuple[int, np.ndarray]:
    """(first column, values) of bump_profile on the grid's nodes with
    |x| < L, computed once per (grid, L); the array is read-only."""
    x = grid.nodes()
    inside = np.flatnonzero(np.abs(x / L) < 1.0)
    lo = int(inside[0]) if inside.size else 0
    part = bump_profile(x[lo:lo + inside.size], L)
    part.flags.writeable = False
    return lo, part


def _grid_bump(grid: Grid, L: float) -> np.ndarray:
    """bump_profile over the grid's nodes, bit for bit, from its support."""
    lo, part = _bump_support(grid, L)
    psi = np.zeros(grid.n)
    psi[lo:lo + part.size] = part
    return psi


# Beside _bump_support, and bounded alike: a sweep calibrates many targets
# on one grid.
@functools.lru_cache(maxsize=16)
def _first_moment(grid: Grid, L: float) -> float:
    """m1 = int x * psi dx by ``numpy.trapezoid`` on the grid, once per (grid, L)."""
    return float(np.trapezoid(grid.nodes() * _grid_bump(grid, L), dx=grid.dx))


def amplitude_for_sup_norm(sup: float, L: float) -> float:
    """Amplitude a such that a * psi has the requested peak magnitude: max |psi|
    is psi(x*) = x* exp(-(1 + sqrt(3)) / 2) at x* = L sqrt(2 - sqrt(3)).  A
    non-number sup, or an L that is not a positive, finite number, raises
    ParameterError."""
    sup, L = _real(sup, "sup", ParameterError), _half_width(L)
    return sup / (L * math.sqrt(2.0 - math.sqrt(3.0)) * math.exp(-(1.0 + math.sqrt(3.0)) / 2.0))


def calibrated_profile(
    family: str,
    L: float,
    grid: Grid,
    F0_target: float,
    F1_target: float,
) -> ICConfig:
    """Amplitudes whose sampled moments hit the targets: a = F0/m1, b = F1/m1.

    m1 = int x * psi dx is ``numpy.trapezoid`` on the run grid.  A record's
    moments apply the same rule as a dot product, summed in another order,
    so they reproduce the targets to a few ulps, with no discretization
    offset.

    Raises:
        ConfigError: for an unknown family or a non-finite target (checked
            first), or amplitudes past the largest double.
        ParameterError: for a bad L (checked before any moment).
        CalibrationError: if the grid resolves no interior support nodes
            (m1 == 0) so the targets are unreachable.
    """
    targets = ICConfig(family, F0_target=F0_target, F1_target=F1_target)  # checks them
    L = _half_width(L)
    m1 = _first_moment(grid, L)
    if not math.isfinite(m1) or m1 <= 0.0:
        raise CalibrationError(f"first moment of the profile is {m1!r} on this grid "
                               f"(n={grid.n}, dx={grid.dx:.3g}); grid too coarse for L={L}")
    return ICConfig(family, a=targets.F0_target / m1, b=targets.F1_target / m1)


def sample_initial_state(params: ModelParams, grid: Grid, ic: ICConfig) -> GridState:
    """Sample ``ic`` on the grid as the t = 0 state, with support half-width
    ``params.L``; a targets block is calibrated on this grid first.

    Raises:
        CalibrationError: see :func:`calibrated_profile`.
        DomainError: unless the grid strictly contains the support [-L, L].
    """
    L = params.L
    if ic.uses_targets:
        ic = calibrated_profile(ic.family, L, grid, ic.F0_target, ic.F1_target)
    if not (grid.xmin < -L and grid.xmax > L):
        raise DomainError(
            f"grid [{grid.xmin}, {grid.xmax}] does not strictly contain "
            f"the initial support [-{L}, {L}]"
        )
    psi = _grid_bump(grid, L)
    return GridState(grid, 0.0, np.stack((ic.a * psi, ic.b * psi)))
