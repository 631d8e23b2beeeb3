"""Every name a module lists in ``__all__`` resolves on that module, and the
package exports exactly the names its README, CLI and benchmark reach."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import hyperburg

MODULES = ["hyperburg"] + [
    f"hyperburg.{info.name}" for info in pkgutil.iter_modules(hyperburg.__path__)
]

PACKAGE_NAMES = [
    "__version__",
    "HyperburgError", "ParameterError", "ConfigError", "CalibrationError", "DomainError",
    "ModelParams", "moment_thresholds", "calibrated_profile", "sample_initial_state",
    "Grid", "GridState", "RunStatus", "RunOutcome", "integrate", "Refinement",
    "DiagnosticsRecord", "ConeMax", "Certificate", "build_certificate",
    "ICConfig", "OutputConfig", "RunConfig", "config_from_dict", "load_config",
    "refinement_ladder", "RunReport", "execute_config", "PRESET_NAMES", "SuiteCheck",
    "run_suite",
]

# Helpers reached through their own module, not through ``hyperburg.``.
MODULE_HELPERS = {
    "solver": ["check_run", "stable_dt", "step_rk4"],
    "diagnostics": ["identity_residual", "gronwall_check_E1"],
    "certificate": ["comparison_check", "epsilon_conditions_hold", "epsilon_interval",
                    "g_closed_form", "t_star", "aux_ode_oracle", "OracleResult"],
    "initial_data": ["bump_profile", "amplitude_for_sup_norm"],
    "config": ["resolve_output_dir"],
}


@pytest.mark.parametrize(
    "name", [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]
)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing


def test_package_exports_exactly_its_public_names():
    assert sorted(hyperburg.__all__) == sorted(PACKAGE_NAMES)
    assert len(PACKAGE_NAMES) == 31


@pytest.mark.parametrize("module", sorted(MODULE_HELPERS))
def test_helpers_live_in_their_own_module(module):
    listed = importlib.import_module(f"hyperburg.{module}").__all__
    assert set(MODULE_HELPERS[module]) <= set(listed)


def top_level_names(module) -> set[str]:
    """The names a module's own source binds at top level: defs, classes and
    assignments, not imports."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("name", [m for m in MODULES[1:]
                                  if hasattr(importlib.import_module(m), "__all__")])
def test_package_exports_are_listed_where_defined(name):
    # ``from hyperburg.<module> import *`` reaches every package export the
    # module defines.
    module = importlib.import_module(name)
    defined = top_level_names(module) & set(hyperburg.__all__)
    assert defined <= set(module.__all__), sorted(defined - set(module.__all__))


def test_benchmark_aliases_stay_reachable_outside_all():
    # perfbench calls both through ``hyperburg.``; the exact list above
    # keeps them out of ``__all__``.
    assert hyperburg.validate_params is hyperburg.ModelParams
    assert callable(hyperburg.estimate_blowup_time)
