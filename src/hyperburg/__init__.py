"""Numerical laboratory for the hyperbolic Burgers equation.

Simulates mu v_tt + v_t + v v_x = nu v_xx for compactly supported initial
data and verifies, at desk scale, the computable objects of its blow-up
theory: finite propagation speed, the moment growth identity, the
Cauchy-Schwarz moment bound, blow-up certificates built from an explicit
ODE minorant, energy / Sobolev-type diagnostics, and sup-norm divergence
for certified initial data.
"""

from .errors import (
    CalibrationError,
    ConfigError,
    DomainError,
    HyperburgError,
    ParameterError,
)
from .model import (
    ModelParams,
    moment_thresholds,
    validate_params,
)
from .initial_data import (
    amplitude_for_sup_norm,
    bump_profile,
    calibrated_profile,
    sample_initial_state,
)
from .solver import (
    Grid,
    GridState,
    Refinement,
    RunOutcome,
    RunStatus,
    check_domain_margin,
    estimate_blowup_time,  # not in __all__: an alias of Refinement for old callers
    integrate,
    stable_dt,
    step_rk4,
)
from .diagnostics import (
    ConeMax,
    DiagnosticsRecord,
    gronwall_check_E1,
    identity_residual,
)
from .certificate import (
    Certificate,
    OracleResult,
    aux_ode_oracle,
    build_certificate,
    comparison_check,
    epsilon_conditions_hold,
    epsilon_interval,
    g_closed_form,
    t_star,
)
from .config import (ICConfig, OutputConfig, RunConfig, config_from_dict, load_config,
                     refinement_ladder)
from .runner import RunReport, execute_config
from .suite import PRESET_NAMES, SuiteCheck, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "HyperburgError", "ParameterError", "ConfigError", "CalibrationError",
    "DomainError",
    # model
    "ModelParams", "validate_params", "moment_thresholds",
    # initial data
    "bump_profile", "amplitude_for_sup_norm",
    "calibrated_profile", "sample_initial_state",
    # solver
    "Grid", "GridState", "RunStatus", "RunOutcome", "stable_dt",
    "step_rk4", "integrate", "Refinement",
    "check_domain_margin",
    # diagnostics
    "DiagnosticsRecord", "ConeMax", "identity_residual", "gronwall_check_E1",
    # certificate
    "Certificate", "OracleResult",
    "epsilon_conditions_hold", "epsilon_interval", "g_closed_form", "t_star",
    "aux_ode_oracle", "comparison_check", "build_certificate",
    # config / runner / suite
    "ICConfig", "OutputConfig", "RunConfig", "config_from_dict", "load_config",
    "refinement_ladder",
    "RunReport", "execute_config", "PRESET_NAMES", "SuiteCheck", "run_suite",
]
