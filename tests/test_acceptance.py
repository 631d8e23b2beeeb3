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

from hyperburg import ModelParams, moment_thresholds
from hyperburg.certificate import aux_ode_oracle, g_closed_form, t_star
from hyperburg import certificate as cert_mod
from hyperburg import solver
from hyperburg import suite
from hyperburg.config import ICConfig, config_from_dict
from hyperburg.diagnostics import ConeMax, gronwall_check_E1
from hyperburg.errors import ConfigError
from hyperburg.runner import execute_config, write_csv
from hyperburg.solver import Refinement, RunStatus
from hyperburg.suite import (
    CONE_APEX,
    PRESET_NAMES,
    PresetRun,
    SCAN_INSTANCES,
    SuiteCheck,
    _bits,
    _oracle_instances,
    check_preset,
    epsilon_scan_oracle,
    preset_configs,
    run_suite,
)

UNIT = ModelParams(1.0, 1.0, 1.0)
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
    instances = _oracle_instances()
    assert len(instances) == SCAN_INSTANCES
    mismatches = 0
    nonempty = 0
    for g0, f1 in instances:
        interval = cert_mod.epsilon_interval(UNIT, g0, f1)
        accepted = epsilon_scan_oracle(UNIT, g0, f1)
        if interval is None:
            mismatches += accepted is not None
            continue
        nonempty += 1
        if accepted is None:
            mismatches += 1
            continue
        if (abs(_bits(accepted[0]) - _bits(interval[0])) > 2
                or abs(_bits(accepted[1]) - _bits(interval[1])) > 2):
            mismatches += 1
    documented_empty = cert_mod.epsilon_interval(UNIT, 100.0, 200.0) is None
    documented_thresholds = cert_mod.build_certificate(UNIT, 100.0, 200.0).thresholds_met
    one_ulp_empty = cert_mod.epsilon_interval(UNIT, 4190.59602884037, 16762.38411536148) is None
    ok = (nonempty > 0 and mismatches == 0 and documented_empty and documented_thresholds
          and one_ulp_empty)
    check(2, "eps interval ends within 2 ulps of the least and greatest accepted "
             "double on 100 instances; documented threshold-passing case and "
             "one-ulp case are infeasible", ok,
          f"{nonempty} feasible, {mismatches} mismatches, "
          f"G0=100/F1=200 empty={documented_empty}, one-ulp empty={one_ulp_empty}")


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
    bounds = [r.certificate["T_star_tightest"] for r in blowup_reports]
    time_ok = all(b is not None and r.t_detect <= b for r, b in zip(blowup_reports, bounds))
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
    check(7, "certified preset blows up: converged t_detect <= each level's T_star_tightest "
             "and F >= G - 1e-6 (1+G) before detection", ok,
          f"t_detect={estimate:.5f}, T_star_tightest={bounds}, "
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
        params = ModelParams(p["mu"], p["nu"], p["L"])
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
    # a check that skipped a run must not pass, alone or beside a checked one.
    data = dataclasses.replace(preset_configs("smalldata")[0], t_end=1.0)
    zero = dataclasses.replace(data, ic=ICConfig("odd_bump", a=0.0, b=0.0))
    reports = [execute_config(c) for c in (data, zero)]
    assert [r.worst["gronwall_margin_rel"] is None for r in reports] == [False, True]
    for configs, members in (([zero], reports[1:]), ([data, zero], reports)):
        checks = check_preset(PresetRun("smalldata", configs, members))
        failed = [c for c in checks if not c.passed]
        assert [c.name for c in failed] == ["smalldata: exp energy bound margin >= -1e-8 E1(0)"]
        assert "n=[2048]" in failed[0].detail


def test_blowup_checks_fail_without_a_certificate():
    # F0 = 10 is below F0_min: both levels still blow up, but no eps is
    # feasible, so there is no comparison margin and no T* to gate on.
    ic = ICConfig("odd_bump", F0_target=10.0, F1_target=400.0)
    configs = [dataclasses.replace(c, ic=ic) for c in preset_configs("blowup")[:2]]
    reports = [execute_config(c) for c in configs]
    assert [r.certificate["eps_interval"] for r in reports] == [None, None]
    checks = {c.name: c for c in check_preset(PresetRun("blowup", configs, reports))}
    assert checks["blowup: detected at every resolution"].passed
    comparison = checks["blowup: comparison margin (F-G)/(1+G) >= -1e-6 before detection"]
    assert not comparison.passed and "n=[1025, 2049]" in comparison.detail
    for n in (1025, 2049):
        gate = checks[f"blowup: t_detect <= T_star_tightest (n={n})"]
        assert not gate.passed and gate.detail == "no feasible certificate"


@pytest.mark.parametrize("excess_dx", [None, 2.0], ids=["unchecked", "outside"])
def test_propagation_check_fails_unchecked_or_outside(excess_dx, preset_run):
    # A support never detected gives no excess: the gate fails and names the
    # level, as every other worst-value gate does.  A positive excess fails.
    run = preset_run("propagation")
    dx = run.configs[0].grid.dx
    excess = None if excess_dx is None else excess_dx * dx
    reports = [dataclasses.replace(r, worst=r.worst | {"support_excess": excess})
               for r in run.reports]
    checks = {c.name: c for c in check_preset(dataclasses.replace(run, reports=reports))}
    gate = checks["propagation: support inside [-(L+ct)-5dx, (L+ct)+5dx]"]
    assert not gate.passed
    assert gate.detail == ("no support_excess checked at n=[4096]" if excess is None
                           else f"worst excess {excess:.3e} (+2.00 dx)")


def test_unknown_preset_lists_valid_ones():
    valid = "valid presets: " + ", ".join(PRESET_NAMES)
    with pytest.raises(ConfigError, match=re.escape(valid)):
        preset_configs("convergence")
    with pytest.raises(ConfigError, match=re.escape(valid)):
        check_preset(PresetRun("nope", [], []))


@pytest.mark.parametrize("preset, member, status, gate", [
    ("propagation", 0, RunStatus.NUMERICAL_FAILURE, "propagation: run completes"),
    ("cone", 0, RunStatus.BLOWUP_DETECTED, "cone: run completes"),
    ("identity", 1, RunStatus.NUMERICAL_FAILURE, "identity: all levels complete"),
    ("blowup", 2, RunStatus.NUMERICAL_FAILURE, "blowup: detected at every resolution"),
    ("smalldata", 0, RunStatus.BLOWUP_DETECTED, "smalldata: run completes to t=50"),
])
def test_status_gate_fails_on_one_member(preset, member, status, gate, preset_run):
    # The session run with one member's status changed: no new simulation.
    run = preset_run(preset)
    reports = list(run.reports)
    reports[member] = dataclasses.replace(reports[member], status=status.value)
    checks = {c.name: c for c in check_preset(dataclasses.replace(run, reports=reports))}
    assert not checks[gate].passed and status.value in checks[gate].detail
    assert [name for name, c in checks.items() if not c.passed] == [gate]


@pytest.mark.parametrize("preset, gate", [
    ("propagation", "propagation: run completes"),
    ("cone", "cone: run completes"),
    ("identity", "identity: all levels complete"),
    ("blowup", "blowup: detected at every resolution"),
    ("smalldata", "smalldata: run completes to t=50"),
])
def test_run_without_members_fails_its_status_gate_alone(preset, gate):
    # An empty run has nothing to check past its status gate, which fails.
    assert check_preset(PresetRun(preset, [], [])) == [SuiteCheck(gate, False, "no member ran")]


def test_blowup_with_a_completed_member_skips_refinement_gates(preset_run):
    run = preset_run("blowup")
    reports = [run.reports[0], dataclasses.replace(run.reports[1], status="completed"),
               run.reports[2]]
    checks = check_preset(dataclasses.replace(run, reports=reports))
    assert [c.name for c in checks] == [
        "blowup: detected at every resolution",
        "blowup: schwartz_gap >= -1e-10 (1+F^2) at every record",
    ]
    assert not checks[0].passed and "n=2049: completed@" in checks[0].detail


def test_one_level_blowup_fails_refinement_without_raising(preset_run):
    # One level detects blow-up but has no previous level to converge against.
    run = preset_run("blowup")
    checks = {c.name: c for c in check_preset(PresetRun("blowup", run.configs[:1],
                                                        run.reports[:1]))}
    refined = checks["blowup: refinement-converged detection time (<5% gap)"]
    assert not refined.passed
    assert refined.detail == f"estimate {run.reports[0].t_detect:.5f}"
    assert checks["blowup: detected at every resolution"].passed


def test_identity_levels_record_at_the_coarsest_times(identity_reports):
    # dt = 2^-8, 2^-9 and 2^-10 at one stride: no running sum of dt rounds,
    # so every level ends at t = 1.0 and records at each of level 0's times.
    times = [[rec.t for rec in r.outcome.records] for r in identity_reports]
    assert [t[-1] for t in times] == [1.0, 1.0, 1.0]
    assert all(set(times[0]) <= set(finer) for finer in times[1:])


def test_identity_shrink_of_zero_residuals():
    # Zero data cut to t_end = 0.05: every level's residual is exactly 0, so
    # no shrink can be measured and each pair fails rather than dividing by 0.
    configs = [dataclasses.replace(c, t_end=0.05, ic=ICConfig("odd_bump", a=0.0, b=0.0))
               for c in preset_configs("identity")]
    reports = [execute_config(c) for c in configs]
    assert [r.worst["identity_residual_max"] for r in reports] == [0.0, 0.0, 0.0]
    shrinks = [c for c in check_preset(PresetRun("identity", configs, reports))
               if c.name.startswith("identity: residual shrinks")]
    assert len(shrinks) == 2
    for check_ in shrinks:
        assert not check_.passed
        assert check_.detail == "0.000e+00 -> 0.000e+00, no shrink to measure"


def test_identity_shrink_to_zero_residual_passes(preset_run):
    # A finest residual of exactly 0 below a positive one shrinks without bound.
    run = preset_run("identity")
    finest = run.reports[-1]
    reports = run.reports[:-1] + [dataclasses.replace(
        finest, worst=finest.worst | {"identity_residual_max": 0.0})]
    checks = {c.name: c for c in check_preset(dataclasses.replace(run, reports=reports))}
    shrink = checks["identity: residual shrinks >= 3x (n 1025 -> 2049)"]
    assert shrink.passed and shrink.detail.endswith(", ratio inf")


def test_identity_finest_gate_is_strict(preset_run):
    # A finest residual equal to its bound fails; the next double below passes.
    run = preset_run("identity")
    finest = run.reports[-1]
    bound = 1e-4 * max(rec.half_int_v2 for rec in finest.outcome.records)
    name = "identity: finest residual < 1e-4 max(1/2 int v^2)"
    for residual, passed in ((bound, False), (math.nextafter(bound, 0.0), True)):
        reports = run.reports[:-1] + [dataclasses.replace(
            finest, worst=finest.worst | {"identity_residual_max": residual})]
        checks = {c.name: c for c in check_preset(dataclasses.replace(run, reports=reports))}
        assert checks[name].passed is passed
        assert checks[name].detail == f"residual {residual:.3e} vs bound {bound:.3e}"


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


@pytest.mark.parametrize("preset, names", [
    ("propagation", ["propagation: run completes",
                     "propagation: support inside [-(L+ct)-5dx, (L+ct)+5dx]",
                     "propagation: schwartz_gap >= -1e-10 (1+F^2) at every record",
                     "propagation: exp energy bound margin >= -1e-8 E1(0)"]),
    ("cone", ["cone: run completes",
              "cone: max |v| on a data-free cone <= 1e-10 (1+sup)",
              "cone: schwartz_gap >= -1e-10 (1+F^2) at every record",
              "cone: exp energy bound margin >= -1e-8 E1(0)"]),
    ("identity", ["identity: all levels complete",
                  "identity: residual shrinks >= 3x (n 513 -> 1025)",
                  "identity: residual shrinks >= 3x (n 1025 -> 2049)",
                  "identity: finest residual < 1e-4 max(1/2 int v^2)",
                  "identity: schwartz_gap >= -1e-10 (1+F^2) at every record",
                  "identity: exp energy bound margin >= -1e-8 E1(0)"]),
    ("blowup", ["blowup: detected at every resolution",
                "blowup: refinement-converged detection time (<5% gap)",
                "blowup: t_detect <= T_star_tightest (n=1025)",
                "blowup: t_detect <= T_star_tightest (n=2049)",
                "blowup: t_detect <= T_star_tightest (n=4097)",
                "blowup: comparison margin (F-G)/(1+G) >= -1e-6 before detection",
                "blowup: schwartz_gap >= -1e-10 (1+F^2) at every record"]),
    ("smalldata", ["smalldata: run completes to t=50",
                   "smalldata: final sup norm <= initial sup norm",
                   "smalldata: schwartz_gap >= -1e-10 (1+F^2) at every record",
                   "smalldata: exp energy bound margin >= -1e-8 E1(0)"]),
    ("certificate-oracle", [
        "certificate-oracle: interval matches the accepted doubles on 100 instances "
        "(endpoints within 2 ulps)",
        "certificate-oracle: documented (G0, F1) infeasible: (100, 200) threshold-passing; "
        "(4190.59602884037, 16762.38411536148) one ulp wide",
        "certificate-oracle: closed form vs adaptive integration (1e-8 relative on [0, 0.9 T*])",
        "certificate-oracle: integration past T* reports divergence"]),
])
def test_preset_checks_by_name_and_in_order(preset, names, preset_run):
    # The energy bound gates exactly the presets whose runs must complete:
    # blowup ends with the Cauchy-Schwarz gate, the other simulating presets
    # with the energy gate.
    assert [c.name for c in check_preset(preset_run(preset))] == names


def test_oracle_interval_gate_fails_with_no_feasible_instance(monkeypatch):
    # G0 = F1 = 1 is far below the thresholds: no instance is feasible, so the
    # oracle comparison checked no interval and must not pass.
    monkeypatch.setattr(suite, "_oracle_instances", lambda: [(1.0, 1.0)] * 3)
    gate = run_suite("certificate-oracle")[0]
    assert not gate.passed
    assert gate.detail == "0 feasible instances, 0 mismatches"


def test_oracle_interval_gate_fails_on_a_lower_end_moved_by_1e_12(monkeypatch):
    # Moved up by 1e-12 relative, thousands of ulps, every feasible instance's
    # lower end misses the least accepted double, which a 1e-4 bound cannot see.
    real = cert_mod.epsilon_interval

    def moved(params, G0, F1):
        interval = real(params, G0, F1)
        return None if interval is None else (interval[0] * (1.0 + 1e-12), interval[1])

    monkeypatch.setattr(cert_mod, "epsilon_interval", moved)
    checks = run_suite("certificate-oracle")
    assert not checks[0].passed
    assert checks[0].detail.startswith("24 feasible instances, 24 mismatches; first: ")
    assert [c.passed for c in checks[1:]] == [True, True, True]


def test_oracle_deviation_gate_fails_when_the_integration_diverges(monkeypatch):
    # Integrated to twice its horizon, the oracle diverges before it returns:
    # no deviation was measured on [0, 0.9 T*], so the gate fails and reads
    # the divergence time.
    real = cert_mod.aux_ode_oracle
    monkeypatch.setattr(cert_mod, "aux_ode_oracle",
                        lambda G0, F1, params, t_end: real(G0, F1, params, 2.0 * t_end))
    checks = {c.name: c for c in run_suite("certificate-oracle")}
    gate = checks["certificate-oracle: closed form vs adaptive integration "
                  "(1e-8 relative on [0, 0.9 T*])"]
    assert not gate.passed and gate.detail.startswith("diverged at t=")
    assert [name for name, c in checks.items() if not c.passed] == [gate.name]


@pytest.mark.parametrize("observer", [None, "unseen"], ids=["no_observer", "no_state_seen"])
def test_cone_check_fails_when_no_state_was_observed(observer, preset_run):
    # A run without a cone observer, or one whose observer saw no state at
    # t <= t_c, checked nothing on the cone: that gate fails and no check raises.
    run = preset_run("cone")
    if observer == "unseen":
        observer = ConeMax(*CONE_APEX, run.configs[0].params)
    checks = check_preset(PresetRun("cone", run.configs, run.reports, observer))
    gate = "cone: max |v| on a data-free cone <= 1e-10 (1+sup)"
    assert [c.name for c in checks if not c.passed] == [gate]
    assert {c.name: c.detail for c in checks}[gate] == "no state observed on the cone"
