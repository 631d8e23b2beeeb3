"""Shared fixtures: the suite preset runs, executed once per session."""

import functools

import pytest

from hyperburg import validate_params
from hyperburg.suite import execute_preset


@pytest.fixture(scope="session")
def params_unit():
    return validate_params(1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def preset_run():
    """``preset_run(name)`` is ``execute_preset(name)``, run once per session."""
    return functools.cache(execute_preset)


@pytest.fixture(scope="session")
def propagation_report(preset_run):
    return preset_run("propagation").reports[0]


@pytest.fixture(scope="session")
def cone_bundle(preset_run):
    """(config, report, cone maximum observed during the run) of the cone preset."""
    run = preset_run("cone")
    return run.configs[0], run.reports[0], run.cone


@pytest.fixture(scope="session")
def identity_reports(preset_run):
    return preset_run("identity").reports


@pytest.fixture(scope="session")
def blowup_reports(preset_run):
    return preset_run("blowup").reports


@pytest.fixture(scope="session")
def smalldata_report(preset_run):
    return preset_run("smalldata").reports[0]


@pytest.fixture(scope="session")
def all_preset_reports(preset_run):
    """Every executed suite-preset report, keyed by a readable tag."""
    reports = {
        "propagation": preset_run("propagation").reports[0],
        "cone": preset_run("cone").reports[0],
        "smalldata": preset_run("smalldata").reports[0],
    }
    for name in ("identity", "blowup"):
        run = preset_run(name)
        for config, report in zip(run.configs, run.reports):
            reports[f"{name}-n{config.grid.n}"] = report
    return reports
