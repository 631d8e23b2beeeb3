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

:func:`aux_ode_oracle` (the ``certificate-oracle`` preset) checks the
closed form by adaptive integration with an embedded Dormand-Prince 5(4)
pair written here (Dormand & Prince, J. Comput. Appl. Math. 6, 1980;
Hairer, Norsett & Wanner, Solving ODEs I, II.4), so no SciPy subpackage
loads.  The bare SciPy import below serves only perfbench's version stamp,
which reads the module from ``sys.modules``; it can go once the benchmark
reads the version with ``importlib.metadata``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy  # noqa: F401  unused here: perfbench stamps sys.modules["scipy"]

from .errors import DomainError, ParameterError
from .model import ModelParams, _real, moment_thresholds
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

    ``eps_interval`` is the feasible interval (lower, upper] for eps, and
    ``eps_chosen`` its midpoint, an eps above ``lower`` that the three
    conditions (:func:`epsilon_conditions_hold`) accept.  ``T_star`` is the
    blow-up time of the minorant at ``eps_chosen``, and ``T_star_tightest``
    the one at the interval's upper end, the least T* the construction
    reaches.  The four are set together or are all None: the certificate is
    feasible iff its midpoint lies above ``lower``, passes the conditions
    and has a T*.  So an interval only a few ulps wide, whose midpoint
    rounds onto an end, certifies nothing, and ``hyperburg certificate``
    prints it with a null interval.  ``dict(vars(certificate))`` is the
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
        infeasible certificate, and at or past T*, to rounding (the closed
        form may already be past its blow-up a few ulps before ``T_star``).
        A t < 0 or NaN raises as in :func:`g_closed_form`."""
        if not self.feasible or t >= self.T_star:
            return None
        return g_closed_form(t, self.eps_chosen, self.G0, params)


@dataclass(frozen=True)
class OracleResult:
    """Samples of the auxiliary problem from :func:`aux_ode_oracle`.

    ``t`` holds the sample times reached, a prefix of ORACLE_SAMPLES evenly
    spaced times on [0, t_end], and ``G`` the Dormand-Prince 5(4) values
    there.  ``diverged`` flags integration that could not continue to t_end
    (blow-up of G within the horizon), which is itself evidence.
    """

    t: np.ndarray
    G: np.ndarray
    diverged: bool


def _minorant_blows_up(eps: float, params: ModelParams, G0: float) -> bool:
    """eps > 0 and the strict minorant blow-up condition: the part of the three
    conditions that, once it holds, holds at every larger double."""
    e2 = eps * eps  # 0.0 below about 1.5e-162: no blow-up, and no division by zero
    return eps > 0.0 and e2 > 0.0 and G0 > 16.0 * params.c * params.c * params.L**4 / e2


def _quadratic_and_slope_hold(eps: float, params: ModelParams, G0: float, F1: float) -> bool:
    """The feasibility quadratic and the strict initial slope: the part that,
    once it fails at a positive double, fails at every larger one."""
    L = params.L
    return (eps / math.sqrt(G0) + 1.5 * (params.mu / L**3) * eps * eps <= 0.75
            and eps * G0**1.5 / L**3 < F1)


def epsilon_conditions_hold(eps: float, params: ModelParams, G0: float, F1: float) -> bool:
    """Whether the three conditions accept eps, a float; False for eps <= 0 or NaN."""
    return _minorant_blows_up(eps, params, G0) and _quadratic_and_slope_hold(eps, params, G0, F1)


def epsilon_interval(
    params: ModelParams,
    G0: float,
    F1: float,
) -> Optional[tuple[float, float]]:
    """Feasible eps interval for the minorant construction, or None.

    lower = 4 c L^2 / sqrt(G0) (strict, from the minorant blow-up
    condition); upper = min(positive root of the feasibility quadratic,
    F1 L^3 / G0^(3/2)).  None unless the midpoint
    lower + (upper - lower) / 2, the eps a certificate is issued at, lies
    above lower and :func:`epsilon_conditions_hold` accepts it: an interval
    a few ulps wide may hold no double the conditions accept, or have its
    midpoint round onto the open end.

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
    mid = lower + 0.5 * (upper - lower)
    return (lower, upper) if lower < mid and epsilon_conditions_hold(mid, params, G0, F1) else None


def g_closed_form(t: float, eps: float, G0: float, params: ModelParams) -> Optional[float]:
    """Closed-form minorant G(t), strictly increasing toward its blow-up.

    Evaluated in the factored form G0 * (1 + sqrt(G0) * k)^(-2) with
    k = (eps / 4 c^3) [ (t + L/c)^(-2) - (L/c)^(-2) ], so G(0) == G0
    exactly.  None at or past the blow-up, where 1 + sqrt(G0) k <= 0, as
    :func:`t_star` returns None where there is no blow-up.

    Raises:
        DomainError: for t < 0 or NaN.
    """
    if not t >= 0.0:
        raise DomainError(f"G(t) is defined for t >= 0, got t={t}")
    c, L = params.c, params.L
    k = (eps / (4.0 * c**3)) * ((t + L / c) ** -2 - (L / c) ** -2)
    bracket = 1.0 + math.sqrt(G0) * k
    return G0 / (bracket * bracket) if bracket > 0.0 else None


def t_star(eps: float, G0: float, params: ModelParams) -> Optional[float]:
    """Blow-up time of the minorant, or None when it stays bounded.

    T* = [ (c/L)^2 - (4 c^3 / eps) G0^(-1/2) ]^(-1/2) - L/c exists iff the
    bracket, as evaluated here, is positive (in exact arithmetic, iff
    G0 > 16 c^2 L^4 / eps^2).  The sign of the bracket that is inverted
    decides, so an eps within an ulp of the edge gives None or a finite
    T* > 0, never a complex number or a division by zero.
    """
    if not (eps > 0.0):
        raise ParameterError(f"eps must be positive, got {eps}")
    if not (G0 > 0.0):
        raise ParameterError(f"G0 must be positive, got {G0}")
    c, L = params.c, params.L
    inv = (c / L) ** 2 - (4.0 * c**3 / eps) / math.sqrt(G0)
    return inv**-0.5 - L / c if inv > 0.0 else None


def _dopri5(f, y, ts, rtol: float, atol: float, escape: float):
    """Samples of y' = f(t, y), y(ts[0]) = y, at the increasing times ts.

    The embedded Dormand-Prince 5(4) pair with FSAL (Dormand & Prince,
    J. Comput. Appl. Math. 6, 1980), local extrapolation, and the step-size
    controller of Hairer, Norsett & Wanner, Solving ODEs I, section II.4: a
    step is accepted when the max-norm of its error estimate over
    atol + rtol max(|y|, |y_new|) is at most 1.  A step within 10% of the
    next sample time is stretched or cut to land on it exactly.  ``y`` is a
    float, kept as Python floats, or a 1-D float array; atol must be > 0.
    Returns (samples, diverged); ``diverged`` is set when max|y| exceeds
    ``escape`` or the step size falls below 10 ulps of t (a non-finite trial
    is rejected until it does), and the samples reached by then are returned.
    """
    scalar = isinstance(y, float)
    t, samples, h, grow = ts[0], [y], math.inf, 5.0
    k1 = f(t, y)
    for t_next in ts[1:]:
        while t < t_next:
            if h < 10.0 * math.ulp(t):
                return samples, True
            step, t_new = (t_next - t, t_next) if 1.1 * h >= t_next - t else (h, t + h)
            k2 = f(t + step / 5, y + step * (k1 / 5))
            k3 = f(t + step * 0.3, y + step * (3 / 40 * k1 + 9 / 40 * k2))
            k4 = f(t + step * 0.8, y + step * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
            k5 = f(t + step * 8 / 9, y + step * (19372 / 6561 * k1 - 25360 / 2187 * k2
                                                 + 64448 / 6561 * k3 - 212 / 729 * k4))
            k6 = f(t_new, y + step * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                                      + 49 / 176 * k4 - 5103 / 18656 * k5))
            y_new = y + step * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                                - 2187 / 6784 * k5 + 11 / 84 * k6)
            k7 = f(t_new, y_new)
            e = step * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                        - 17253 / 339200 * k5 + 22 / 525 * k6 - 1 / 40 * k7)
            if scalar:
                err = abs(e) / (atol + rtol * max(abs(y), abs(y_new)))
            else:
                err = float(np.max(np.abs(e) / (atol + rtol * np.maximum(np.abs(y), np.abs(y_new)))))
            if not err <= 1.0:  # a NaN error rejects too
                h, grow = step * max(0.2, 0.9 * err ** -0.2), 1.0
                continue
            h, grow = step * min(grow, 0.9 * max(err, 1e-10) ** -0.2), 5.0
            t, y, k1 = t_new, y_new, k7
            if not (abs(y) if scalar else float(np.max(np.abs(y)))) <= escape:
                return samples, True
        samples.append(y)
    return samples, False


def aux_ode_oracle(
    eps: float,
    G0: float,
    params: ModelParams,
    t_end: float,
) -> OracleResult:
    """Adaptive integration of G' = eps (c t + L)^(-3) G^(3/2) in-package.

    Independent cross-check for :func:`g_closed_form` by the embedded
    Dormand-Prince 5(4) pair of :func:`_dopri5`, with rtol 1e-10 and atol
    1e-12 G0, landing on ORACLE_SAMPLES evenly spaced times on [0, t_end].
    If G escapes 1e15 max(G0, 1) or the step size collapses before t_end,
    the samples reached are returned with ``diverged`` set.

    Raises:
        ParameterError: unless eps is finite and >= 0, G0 finite and > 0,
            and t_end finite and >= 0, each a number by ``model._real``.
    """
    eps, G0 = _real(eps, "eps", ParameterError), _real(G0, "G0", ParameterError)
    t_end = _real(t_end, "t_end", ParameterError)
    if not 0.0 <= eps < math.inf:
        raise ParameterError(f"eps must be finite and >= 0, got {eps}")
    if not 0.0 < G0 < math.inf:
        raise ParameterError(f"G0 must be finite and > 0, got {G0}")
    if not 0.0 <= t_end < math.inf:
        raise ParameterError(f"t_end must be finite and >= 0, got {t_end}")
    c, L = params.c, params.L
    times = np.linspace(0.0, t_end, ORACLE_SAMPLES)
    # g |g|^(1/2) stays real on a trial stage below zero; atol stays > 0 for subnormal G0.
    samples, diverged = _dopri5(lambda t, g: eps * (c * t + L) ** -3.0 * g * abs(g) ** 0.5, G0,
                                times.tolist(), 1e-10, max(1e-12 * G0, 5e-324), 1e15 * max(G0, 1.0))
    return OracleResult(t=times[: len(samples)], G=np.array(samples), diverged=diverged)


def comparison_check(
    records: Sequence[DiagnosticsRecord],
    certificate: Certificate,
    params: ModelParams,
) -> Optional[float]:
    """Worst relative margin of the moment comparison F(t) >= G(t).

    For every record with t < T*, the margin (F(t) - G(t)) / (1 + G(t))
    is evaluated at the certificate's chosen eps; the minimum is
    returned, so the bound "F >= G - tol (1 + G)" holds along the whole
    series iff the result is >= -tol.  None when no record has a G (no
    records, none before T*, or no feasible eps): nothing was checked.
    """
    return min(((rec.F - g) / (1.0 + g) for rec in records
                if (g := certificate.minorant(rec.t, params)) is not None), default=None)


def build_certificate(params: ModelParams, F0: float, F1: float) -> Certificate:
    """Assemble the certificate for initial moments (F0, F1).

    The threshold verdict (both moments strictly above
    :func:`~hyperburg.model.moment_thresholds`) is always computed; the eps
    interval only when both moments are positive (the construction needs
    G0 > 0 and F'(0) > 0).  The certificate is issued at the interval's
    midpoint, an eps above the open lower end that the three conditions
    accept (:func:`epsilon_interval` returns no interval otherwise), when
    :func:`t_star` gives it a T*; otherwise ``eps_interval``,
    ``eps_chosen``, ``T_star`` and ``T_star_tightest`` are all None, as for
    an interval a few ulps wide.  G(0) = F0 by construction, so the t = 0
    comparison margin is exactly zero.  F0 and F1 pass the real-number rule
    and are stored as floats; a non-number raises ParameterError.
    """
    F0, F1 = _real(F0, "F0", ParameterError), _real(F1, "F1", ParameterError)
    f0_min, f1_min = moment_thresholds(params)
    interval = epsilon_interval(params, F0, F1) if F0 > 0.0 and F1 > 0.0 else None
    eps = None if interval is None else interval[0] + 0.5 * (interval[1] - interval[0])
    T = None if eps is None else t_star(eps, F0, params)
    return Certificate(
        F0=F0,
        F1=F1,
        thresholds_met=F0 > f0_min and F1 > f1_min,
        G0=F0,
        # issued together, or not at all
        eps_interval=None if T is None else interval,
        eps_chosen=None if T is None else eps,
        T_star=T,
        T_star_tightest=None if T is None else t_star(interval[1], F0, params),
    )
