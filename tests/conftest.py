"""Shared fixtures: the suite preset runs, executed once per session."""

import pytest

from hyperburg import validate_params
from hyperburg.diagnostics import ConeMax
from hyperburg.runner import execute_config
from hyperburg.suite import (
    BLOWUP_LEVELS,
    CONE_APEX,
    IDENTITY_LEVELS,
    blowup_preset_config,
    cone_preset_config,
    identity_preset_config,
    propagation_preset_config,
    smalldata_preset_config,
)


@pytest.fixture(scope="session")
def params_unit():
    return validate_params(1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def propagation_report():
    return execute_config(propagation_preset_config())


@pytest.fixture(scope="session")
def cone_bundle():
    """(config, report, cone maximum observed during the run) of the cone preset."""
    config = cone_preset_config()
    cone = ConeMax(*CONE_APEX, config.params)
    report = execute_config(config, observe=cone)
    return config, report, cone


@pytest.fixture(scope="session")
def identity_reports():
    return [execute_config(identity_preset_config(n)) for n in IDENTITY_LEVELS]


@pytest.fixture(scope="session")
def blowup_reports():
    return [execute_config(blowup_preset_config(n)) for n in BLOWUP_LEVELS]


@pytest.fixture(scope="session")
def smalldata_report():
    return execute_config(smalldata_preset_config())


@pytest.fixture(scope="session")
def all_preset_reports(
    propagation_report, cone_bundle, identity_reports, blowup_reports, smalldata_report
):
    """Every executed suite-preset report, keyed by a readable tag."""
    reports = {
        "propagation": propagation_report,
        "cone": cone_bundle[1],
        "smalldata": smalldata_report,
    }
    for n, rep in zip(IDENTITY_LEVELS, identity_reports):
        reports[f"identity-n{n}"] = rep
    for n, rep in zip(BLOWUP_LEVELS, blowup_reports):
        reports[f"blowup-n{n}"] = rep
    return reports
