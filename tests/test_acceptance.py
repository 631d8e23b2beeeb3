"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned here exactly as stated; the expensive
simulation fixtures live in conftest.py and are shared across the suite.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hyperburg import (
    aux_ode_oracle,
    g_closed_form,
    moment_thresholds,
    t_star,
    validate_params,
)
from hyperburg import certificate as cert_mod
from hyperburg import solver
from hyperburg.config import ICConfig, config_from_dict
from hyperburg.diagnostics import gronwall_check_E1
from hyperburg.errors import ConfigError
from hyperburg.runner import execute_config, write_csv
from hyperburg.solver import Refinement, RunStatus
from hyperburg.suite import (
    BLOWUP_TSTAR_EPS,
    CONE_APEX,
    PRESET_NAMES,
    PresetRun,
    SCAN_INSTANCES,
    SCAN_SEED,
    check_preset,
    epsilon_scan_oracle,
    preset_configs,
    run_suite,
)

UNIT = validate_params(1.0, 1.0, 1.0)
# Presets that simulate; certificate-oracle checks pure mathematics.
RUN_PRESETS = [name for name in PRESET_NAMES if preset_configs(name)]


def check(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_threshold_arithmetic():
    f0_min, f1_min = moment_thresholds(UNIT)
    ok = (
        abs(f0_min - 112.0 / 3.0) <= 1e-12 * (112.0 / 3.0)
        and abs(f1_min - 448.0 / 3.0) <= 1e-12 * (448.0 / 3.0)
    )
    check(1, "moment thresholds equal (112/3, 448/3) to 1e-12 relative", ok,
          f"got ({f0_min!r}, {f1_min!r})")


def test_criterion_02_certificate_vs_brute_force():
    rng = np.random.default_rng(SCAN_SEED)
    mismatches = 0
    nonempty = 0
    for _ in range(SCAN_INSTANCES):
        g0 = float(rng.uniform(1.0, 400.0))
        f1 = float(rng.uniform(1.0, 1000.0))
        interval = cert_mod.epsilon_interval(UNIT, g0, f1)
        scanned = epsilon_scan_oracle(UNIT, g0, f1)
        if interval is None:
            mismatches += scanned is not None
            continue
        nonempty += 1
        if scanned is None:
            mismatches += 1
            continue
        if (abs(scanned[0] - interval[0]) > 1e-4 + 1e-9
                or abs(scanned[1] - interval[1]) > 1e-4 + 1e-9):
            mismatches += 1
    documented_empty = cert_mod.epsilon_interval(UNIT, 100.0, 200.0) is None
    documented_thresholds = cert_mod.build_certificate(UNIT, 100.0, 200.0).thresholds_met
    ok = mismatches == 0 and documented_empty and documented_thresholds
    check(2, "eps interval matches dense scan on 100 instances; documented "
             "threshold-passing case is infeasible", ok,
          f"{nonempty} feasible, {mismatches} mismatches, "
          f"G0=100/F1=200 empty={documented_empty}")


def test_criterion_03_closed_form_vs_ode_oracle():
    ts = t_star(1.0, 64.0, UNIT)
    ts_ok = abs(ts - (math.sqrt(2.0) - 1.0)) <= 1e-12
    oracle = aux_ode_oracle(1.0, 64.0, UNIT, 0.9 * ts)
    closed = np.array([g_closed_form(t, 1.0, 64.0, UNIT) for t in oracle.t])
    rel = float(np.max(np.abs(oracle.G - closed) / closed))
    ok = ts_ok and not oracle.diverged and rel <= 1e-8
    check(3, "closed-form minorant matches adaptive integration to 1e-8 "
             "on [0, 0.9 T*], T* = sqrt(2) - 1", ok,
          f"T*={ts!r}, max rel dev {rel:.3e}")


def test_criterion_04_moment_identity_convergence(identity_reports):
    residuals = [r.worst["identity_residual_max"] for r in identity_reports]
    ratios = [residuals[i - 1] / residuals[i] for i in range(1, len(residuals))]
    ok = all(r >= 3.0 for r in ratios)
    check(4, "discrete residual of mu F'' + F' = 1/2 int v^2 shrinks by "
             ">= 3x per (dx, dt) halving over n in {513, 1025, 2049}", ok,
          "residuals " + ", ".join(f"{r:.3e}" for r in residuals)
          + "; ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_05_schwartz_bound_everywhere(all_preset_reports):
    worst_tag, worst_val = None, math.inf
    for tag, report in all_preset_reports.items():
        for rec in report.outcome.records:
            margin = rec.schwartz_gap + 1e-10 * (1.0 + rec.F**2)
            rel = rec.schwartz_gap / (1.0 + rec.F**2)
            if rel < worst_val:
                worst_tag, worst_val = tag, rel
            if margin < 0.0:
                break
    ok = worst_val >= -1e-10
    check(5, "schwartz_gap >= -1e-10 (1+F^2) at every record of every "
             "suite preset", ok, f"worst {worst_val:.3e} in {worst_tag}")


def test_criterion_06_finite_propagation_speed(propagation_report, cone_bundle):
    excess = propagation_report.worst["support_excess"]
    support_ok = (
        propagation_report.status == RunStatus.COMPLETED.value
        and excess is not None
        and excess <= 0.0
    )
    _, cone_report, cone = cone_bundle
    assert (cone.x_c, cone.t_c) == CONE_APEX
    cm = cone.value
    gsup = max(rec.sup_norm for rec in cone_report.outcome.records)
    cone_ok = cm <= 1e-10 * (1.0 + gsup)
    check(6, "support stays inside [-(L+ct)-5dx, (L+ct)+5dx] to t=2 and "
             "max |v| <= 1e-10 (1+sup) on a data-free cone",
          support_ok and cone_ok,
          f"worst support excess {excess:.3e}, cone max {cm:.3e}")


def test_criterion_07_blowup_reproduction(blowup_reports):
    detected = all(
        r.status == RunStatus.BLOWUP_DETECTED.value for r in blowup_reports
    )
    refinement = Refinement(
        tuple(r.outcome.final_state.grid.n for r in blowup_reports),
        tuple(r.t_detect for r in blowup_reports),
    )
    estimate, converged = refinement.t_detect[-1], refinement.converged
    ts_ref = t_star(BLOWUP_TSTAR_EPS, 40.0, UNIT)
    time_ok = estimate <= 1.1 * ts_ref
    interval = blowup_reports[-1].certificate["eps_interval"]
    interval_ok = (
        abs(interval[0] - 0.6325) <= 5e-4 and abs(interval[1] - 0.6564) <= 5e-4
    )
    # per-record comparison F >= G - 1e-6 (1+G), eps = certificate midpoint
    comparison_ok = True
    worst_margin = math.inf
    for report in blowup_reports:
        cert = cert_mod.build_certificate(
            UNIT, report.certificate["F0"], report.certificate["F1"]
        )
        for rec in report.outcome.records:
            if rec.t >= cert.T_star:
                continue
            g = g_closed_form(rec.t, cert.eps_chosen, cert.G0, UNIT)
            margin = rec.F - g
            worst_margin = min(worst_margin, margin / (1.0 + g))
            if margin < -1e-6 * (1.0 + g):
                comparison_ok = False
    ok = detected and converged and time_ok and interval_ok and comparison_ok
    check(7, "certified preset blows up: converged t_detect <= 1.1 T* "
             "and F >= G - 1e-6 (1+G) before detection", ok,
          f"t_detect={estimate:.5f}, 1.1 T*={1.1 * ts_ref:.5f}, "
          f"eps interval ~ ({interval[0]:.4f}, {interval[1]:.4f}], "
          f"worst comparison margin {worst_margin:.3e}")


def test_criterion_08_small_data_regularity(smalldata_report):
    recs = smalldata_report.outcome.records
    ok = (
        smalldata_report.status == RunStatus.COMPLETED.value
        and smalldata_report.t_final >= 50.0
        and recs[-1].sup_norm <= recs[0].sup_norm
    )
    check(8, "small-data preset (sup 0.05, w0=0) completes to t=50 with "
             "non-increased sup norm", ok,
          f"sup(0)={recs[0].sup_norm:.4e}, sup(end)={recs[-1].sup_norm:.4e}")


def test_criterion_09_gronwall_energy_bound(
    propagation_report, cone_bundle, identity_reports, smalldata_report
):
    non_blowup = {
        "propagation": propagation_report,
        "cone": cone_bundle[1],
        "smalldata": smalldata_report,
    }
    for i, rep in enumerate(identity_reports):
        non_blowup[f"identity-{i}"] = rep
    worst_tag, worst = None, math.inf
    for tag, report in non_blowup.items():
        p = report.config["params"]
        params = validate_params(p["mu"], p["nu"], p["L"])
        e1_0 = report.outcome.records[0].E1
        margin = gronwall_check_E1(report.outcome.records, params)
        rel = margin / e1_0 if e1_0 > 0 else 0.0
        if rel < worst:
            worst_tag, worst = tag, rel
    ok = worst >= -1e-8
    check(9, "exp((M/mu c) t) E1(0) - E1(t) >= -1e-8 E1(0) on all "
             "non-blow-up presets", ok, f"worst {worst:.3e} in {worst_tag}")


def test_criterion_10_determinism(tmp_path, preset_run):
    # The session run of each preset's first member (its cheapest run) is
    # written to CSV here; a fresh run of its echoed config must match it.
    failures = []
    for tag in RUN_PRESETS:
        run = preset_run(tag)
        config, report = run.configs[0], run.reports[0]
        cert = cert_mod.build_certificate(
            config.params, report.certificate["F0"], report.certificate["F1"]
        )
        session_csv = tmp_path / f"{tag}-session.csv"
        write_csv(session_csv, report.outcome, cert, config.params)
        doc = config.to_dict()
        doc["output"] = {"directory": str(tmp_path / tag),
                         "emit_csv": True, "emit_report": True}
        rerun = execute_config(config_from_dict(doc))
        if Path(rerun.files["csv"]).read_bytes() != session_csv.read_bytes():
            failures.append(tag)
    ok = not failures
    check(10, "re-running every preset family reproduces bit-identical CSV",
          ok, f"checked {', '.join(RUN_PRESETS)}"
              + (f"; mismatches: {failures}" if failures else ""))


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_every_suite_preset_passes(preset, preset_run):
    failed = [f"{c.name}: {c.detail}" for c in check_preset(preset_run(preset)) if not c.passed]
    assert not failed, failed


@pytest.mark.parametrize("preset", RUN_PRESETS)
def test_check_preset_never_steps(preset, preset_run, monkeypatch):
    # Checking reads the session run's reports; it must not simulate again.
    run = preset_run(preset)

    def no_step(*args, **kwargs):
        raise AssertionError("check_preset stepped the solver")

    monkeypatch.setattr(solver, "step_rk4", no_step)
    checks = check_preset(run)
    assert checks
    failed = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    assert not failed, failed


def test_preset_table_steps_nothing(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("building the preset table stepped the solver")

    monkeypatch.setattr(solver, "step_rk4", no_step)
    for out_root in (None, Path("R")):
        for name in PRESET_NAMES:
            for config in preset_configs(name, out_root):
                assert config_from_dict(config.to_dict()) == config
                files = out_root is not None
                assert config.output.emit_csv is files and config.output.emit_report is files
    dirs = [c.output.directory for p in PRESET_NAMES for c in preset_configs(p, Path("R"))]
    tags = ["propagation", "cone", "identity-n513", "identity-n1025", "identity-n2049",
            "blowup-n1025", "blowup-n2049", "blowup-n4097", "smalldata"]
    assert dirs == [str(Path("R", tag)) for tag in tags]
    assert preset_configs("certificate-oracle") == []


def test_identity_check_fails_when_no_residual_was_checked():
    # Cut to t_end = 0.005 the members end after 2, 2 and 3 records, none of
    # which holds a uniform triple, so every identity residual is None.
    configs = [dataclasses.replace(c, t_end=0.005) for c in preset_configs("identity")]
    reports = [execute_config(c) for c in configs]
    assert [r.n_records for r in reports] == [2, 2, 3]
    assert all(r.worst["identity_residual_max"] is None for r in reports)
    failed = [c for c in check_preset(PresetRun("identity", configs, reports)) if not c.passed]
    assert [c.name for c in failed] == ["identity: residual checked at every level"]
    assert "n=[513, 1025, 2049]" in failed[0].detail


def test_energy_check_fails_when_no_margin_was_checked():
    # Zero data have E1(0) = 0, so the run gives no relative energy margin;
    # a check that skipped every run must not pass.
    base = preset_configs("smalldata")[0]
    config = dataclasses.replace(base, ic=ICConfig("odd_bump", a=0.0, b=0.0), t_end=1.0)
    report = execute_config(config)
    assert report.worst["gronwall_margin_rel"] is None
    failed = [c for c in check_preset(PresetRun("smalldata", [config], [report])) if not c.passed]
    assert [c.name for c in failed] == ["smalldata: exp energy bound margin >= -1e-8 E1(0)"]
    assert "n=[2048]" in failed[0].detail


def test_unknown_preset_lists_valid_ones():
    valid = "valid presets: " + ", ".join(PRESET_NAMES)
    with pytest.raises(ConfigError, match=re.escape(valid)):
        preset_configs("convergence")


def test_cone_preset_simulates_once(monkeypatch):
    # The cone maximum is observed during the preset's one run: 640 steps
    # to t=2 at n=2048, cfl 0.4, not a second pass over the same trajectory.
    calls = []
    real_step = solver.step_rk4

    def counting_step(*args, **kwargs):
        calls.append(None)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(solver, "step_rk4", counting_step)
    run_suite("cone")
    assert len(calls) == 640
