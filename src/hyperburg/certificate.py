"""Blow-up certificates from the moment comparison argument.

The moment F(t) = int x v dx of a classical solution obeys the
differential inequality

    mu F'' + F' >= (3/4) (L + c t)^(-3) F^2,

and is bounded below by the solution G of the auxiliary scalar problem

    G' = eps (c t + L)^(-3) G^(3/2),     G(0) = F(0),

whenever eps > 0 satisfies three conditions:

  minorant blow-up (strict):  G(0) > 16 c^2 L^4 / eps^2,
  feasibility quadratic:      eps G(0)^(-1/2) + (3/2)(mu/L^3) eps^2 <= 3/4,
  initial slope (strict):     eps L^(-3) G(0)^(3/2) < F'(0).

G has the closed form

    G(t)^(-1/2) = G(0)^(-1/2) + (eps / 4 c^3) [ (t + L/c)^(-2) - (L/c)^(-2) ]

and diverges at T* = [ (c/L)^2 - (4 c^3/eps) G(0)^(-1/2) ]^(-1/2) - L/c,
which is then an upper bound for the lifespan of the classical solution.

Feasibility is decided by the joint system above, not by the standalone
moment thresholds of :func:`hyperburg.model.moment_thresholds`: the two
disagree away from the marginal case (the first and third conditions
jointly require F'(0) > 4 c G(0) / L, which outgrows the fixed threshold
once F(0) is large), so both verdicts are always reported.

Only :func:`aux_ode_oracle` (the ``certificate-oracle`` preset) needs
``scipy.integrate``; it loads on that function's first call, so importing
this module costs a bare ``import scipy`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy

from .errors import DomainError, ParameterError
from .model import ModelParams, moment_thresholds
from .diagnostics import DiagnosticsRecord

__all__ = [
    "Certificate",
    "OracleResult",
    "epsilon_conditions_hold",
    "epsilon_interval",
    "g_closed_form",
    "t_star",
    "aux_ode_oracle",
    "comparison_check",
    "build_certificate",
]

ORACLE_SAMPLES = 200


@dataclass(frozen=True)
class Certificate:
    """Threshold verdicts and the minorant construction for one run.

    ``eps_interval`` is the feasible interval (lower, upper] for eps, or
    None when the three conditions admit no eps.  Strict conditions are
    evaluated in exact floating point; when the strict initial-slope
    condition supplies the upper endpoint, that endpoint itself is
    infeasible by zero margin, so consumers should sample strictly inside
    (``eps_chosen`` is the midpoint).  ``T_star`` is the blow-up time of
    the minorant at ``eps_chosen``, and ``T_star_tightest`` the one at the
    interval's upper end, the least T* the construction reaches; both
    exist iff the interval is nonempty.  ``dict(vars(certificate))`` is the
    certificate block of ``report.json`` and of ``hyperburg certificate``.
    """

    F0: float
    F1: float
    thresholds_met: bool
    eps_interval: Optional[tuple[float, float]]
    eps_chosen: Optional[float]
    G0: float
    T_star: Optional[float]
    T_star_tightest: Optional[float]

    @property
    def feasible(self) -> bool:
        return self.eps_interval is not None

    def minorant(self, t: float, params: ModelParams) -> Optional[float]:
        """G(t) at ``eps_chosen``, or None where G does not exist: for an
        infeasible certificate, and outside [0, T*), to rounding (the closed
        form may already be past its blow-up a few ulps before ``T_star``)."""
        if not self.feasible or (self.T_star is not None and t >= self.T_star):
            return None
        try:
            return g_closed_form(t, self.eps_chosen, self.G0, params)
        except DomainError:
            return None


@dataclass(frozen=True)
class OracleResult:
    """Samples of the auxiliary problem from adaptive integration.

    ``diverged`` flags integration that could not continue to t_end
    (blow-up of G within the horizon), which is itself evidence.
    """

    t: np.ndarray
    G: np.ndarray
    diverged: bool


def epsilon_conditions_hold(
    eps: float | np.ndarray,
    params: ModelParams,
    G0: float,
    F1: float,
) -> bool | np.ndarray:
    """The three conditions at eps: elementwise for an array, a bool for a scalar."""
    eps = np.asarray(eps, dtype=float)
    c, L, mu = params.c, params.L, params.mu
    with np.errstate(divide="ignore", invalid="ignore"):
        minorant_blows_up = G0 > 16.0 * c * c * L**4 / (eps * eps)
    quadratic_ok = eps / math.sqrt(G0) + 1.5 * (mu / L**3) * eps * eps <= 0.75
    slope_ok = eps * G0**1.5 / L**3 < F1
    held = (eps > 0.0) & minorant_blows_up & quadratic_ok & slope_ok
    return bool(held) if held.ndim == 0 else held


def epsilon_interval(
    params: ModelParams,
    G0: float,
    F1: float,
) -> Optional[tuple[float, float]]:
    """Feasible eps interval for the minorant construction, or None.

    lower = 4 c L^2 / sqrt(G0) (strict, from the minorant blow-up
    condition); upper = min(positive root of the feasibility quadratic,
    F1 L^3 / G0^(3/2)); empty when lower >= upper.

    Raises:
        ParameterError: for non-positive G0 or F1.
    """
    if not (G0 > 0.0):
        raise ParameterError(f"G0 must be positive, got {G0}")
    if not (F1 > 0.0):
        raise ParameterError(f"F1 must be positive, got {F1}")
    c, L, mu = params.c, params.L, params.mu
    s = 1.0 / math.sqrt(G0)
    lower = 4.0 * c * L * L * s
    # Positive root of (3/2)(mu/L^3) e^2 + s e - 3/4 = 0, in the
    # cancellation-free form 3 / (2 (s + sqrt(s^2 + 3 q))), q = (3/2) mu/L^3.
    q = 1.5 * mu / L**3
    quad_root = 3.0 / (2.0 * (s + math.sqrt(s * s + 3.0 * q)))
    slope_cap = F1 * L**3 / G0**1.5
    upper = min(quad_root, slope_cap)
    if lower >= upper:
        return None
    return (lower, upper)


def g_closed_form(t: float, eps: float, G0: float, params: ModelParams) -> float:
    """Closed-form minorant G(t), strictly increasing toward its blow-up.

    Evaluated in the factored form G0 * (1 + sqrt(G0) * k)^(-2) with
    k = (eps / 4 c^3) [ (t + L/c)^(-2) - (L/c)^(-2) ], so G(0) == G0
    exactly.

    Raises:
        DomainError: for t < 0 or t at/beyond the blow-up time.
    """
    if t < 0.0:
        raise DomainError(f"G(t) is defined for t >= 0, got t={t}")
    c, L = params.c, params.L
    k = (eps / (4.0 * c**3)) * ((t + L / c) ** -2 - (L / c) ** -2)
    bracket = 1.0 + math.sqrt(G0) * k
    if bracket <= 0.0:
        raise DomainError(
            f"G(t) undefined at t={t}: past the minorant blow-up time"
        )
    return G0 / (bracket * bracket)


def t_star(eps: float, G0: float, params: ModelParams) -> Optional[float]:
    """Blow-up time of the minorant, or None when it stays bounded.

    Exists iff G0 > 16 c^2 L^4 / eps^2 strictly; then
    T* = [ (c/L)^2 - (4 c^3 / eps) G0^(-1/2) ]^(-1/2) - L/c.
    """
    if not (eps > 0.0):
        raise ParameterError(f"eps must be positive, got {eps}")
    if not (G0 > 0.0):
        raise ParameterError(f"G0 must be positive, got {G0}")
    c, L = params.c, params.L
    if not (G0 > 16.0 * c * c * L**4 / (eps * eps)):
        return None
    inv = (c / L) ** 2 - (4.0 * c**3 / eps) / math.sqrt(G0)
    return inv**-0.5 - L / c


def aux_ode_oracle(
    eps: float,
    G0: float,
    params: ModelParams,
    t_end: float,
) -> OracleResult:
    """Adaptive high-order integration of G' = eps (c t + L)^(-3) G^(3/2).

    Independent cross-check for :func:`g_closed_form`, run with relative
    tolerance 1e-10 and sampled at ORACLE_SAMPLES evenly spaced times.  If G
    escapes (or the integrator stalls) before t_end, the partial samples are
    returned with ``diverged`` set.
    """
    if not (t_end >= 0.0):
        raise ParameterError(f"t_end must be nonnegative, got {t_end}")
    c, L = params.c, params.L

    def rhs(t, y):
        return eps * (c * t + L) ** -3.0 * y ** 1.5

    escape = 1e15 * max(G0, 1.0)

    def escaped(t, y):
        return y[0] - escape

    escaped.terminal = True
    escaped.direction = 1.0

    t_eval = np.linspace(0.0, t_end, ORACLE_SAMPLES)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = scipy.integrate.solve_ivp(
            rhs,
            (0.0, t_end),
            [G0],
            method="DOP853",
            rtol=1e-10,
            atol=1e-12 * G0,
            t_eval=t_eval,
            events=escaped,
            dense_output=False,
        )
    diverged = (sol.status != 0) or (sol.t.size < ORACLE_SAMPLES)
    return OracleResult(t=sol.t, G=sol.y[0], diverged=diverged)


def comparison_check(
    records: Sequence[DiagnosticsRecord],
    certificate: Certificate,
    params: ModelParams,
) -> float:
    """Worst relative margin of the moment comparison F(t) >= G(t).

    For every record with t < T*, the margin (F(t) - G(t)) / (1 + G(t))
    is evaluated at the certificate's chosen eps; the minimum is
    returned, so the bound "F >= G - tol (1 + G)" holds along the whole
    series iff the result is >= -tol.

    Raises:
        ParameterError: when the certificate has no feasible eps.
    """
    if not certificate.feasible:
        raise ParameterError("certificate has an empty eps interval")
    if not records:
        raise ParameterError("need at least one record")
    worst = math.inf
    for rec in records:
        g = certificate.minorant(rec.t, params)
        if g is not None:
            worst = min(worst, (rec.F - g) / (1.0 + g))
    if math.isinf(worst):
        raise ParameterError("no records before the minorant blow-up time")
    return worst


def build_certificate(params: ModelParams, F0: float, F1: float) -> Certificate:
    """Assemble the certificate for initial moments (F0, F1).

    The threshold verdict (both moments strictly above
    :func:`~hyperburg.model.moment_thresholds`) is always computed; the eps
    interval only when both moments are positive (the construction needs
    G0 > 0 and F'(0) > 0).  G(0) = F0 by construction, so the t = 0
    comparison margin is exactly zero.
    """
    f0_min, f1_min = moment_thresholds(params)
    interval = epsilon_interval(params, F0, F1) if F0 > 0.0 and F1 > 0.0 else None
    eps_chosen = None if interval is None else interval[0] + 0.5 * (interval[1] - interval[0])
    return Certificate(
        F0=F0,
        F1=F1,
        thresholds_met=F0 > f0_min and F1 > f1_min,
        eps_interval=interval,
        eps_chosen=eps_chosen,
        G0=F0,
        T_star=None if eps_chosen is None else t_star(eps_chosen, F0, params),
        T_star_tightest=None if interval is None else t_star(interval[1], F0, params),
    )
