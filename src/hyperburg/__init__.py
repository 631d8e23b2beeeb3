"""Numerical laboratory for the hyperbolic Burgers equation.

Simulates mu v_tt + v_t + v v_x = nu v_xx for compactly supported initial
data and verifies, at desk scale, the computable objects of its blow-up
theory: finite propagation speed, the moment growth identity, the
Cauchy-Schwarz moment bound, blow-up certificates built from an explicit
ODE minorant, energy / Sobolev-type diagnostics, and sup-norm divergence
for certified initial data.

The package exports what a run needs: the errors, the model, the initial
data, the solver's run types, the records, the certificate, the configs,
the runner and the suite.  Helpers live in their own modules' ``__all__``:
``solver.check_run``, ``solver.stable_dt``, ``solver.step_rk4``;
``diagnostics.identity_residual``, ``diagnostics.gronwall_check_E1``;
``certificate.epsilon_conditions_hold``, ``certificate.epsilon_interval``,
``certificate.g_closed_form``, ``certificate.t_star``,
``certificate.aux_ode_oracle``, ``certificate.OracleResult``,
``certificate.comparison_check``; ``initial_data.bump_profile``,
``initial_data.amplitude_for_sup_norm``.
"""

from .errors import CalibrationError, ConfigError, DomainError, HyperburgError, ParameterError
from .model import (
    ModelParams,
    moment_thresholds,
    validate_params,  # not in __all__: another name for ModelParams, for old callers
)
from .initial_data import calibrated_profile, sample_initial_state
from .solver import (
    Grid,
    GridState,
    Refinement,
    RunOutcome,
    RunStatus,
    estimate_blowup_time,  # not in __all__: an alias of Refinement for old callers
    integrate,
)
from .diagnostics import ConeMax, DiagnosticsRecord
from .certificate import Certificate, build_certificate
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
    "ModelParams", "moment_thresholds",
    # initial data
    "calibrated_profile", "sample_initial_state",
    # solver
    "Grid", "GridState", "RunStatus", "RunOutcome", "integrate", "Refinement",
    # diagnostics
    "DiagnosticsRecord", "ConeMax",
    # certificate
    "Certificate", "build_certificate",
    # config / runner / suite
    "ICConfig", "OutputConfig", "RunConfig", "config_from_dict", "load_config",
    "refinement_ladder",
    "RunReport", "execute_config", "PRESET_NAMES", "SuiteCheck", "run_suite",
]
