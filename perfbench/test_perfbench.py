"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench -q

Every vacuity guard is forced to zero samples here and must fail.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import sweep_docs  # noqa: E402


def report(status="completed", times=(0.0, 1.0, 2.0, 3.0), feasible=False,
           T_star=None, gronwall=0.0, comparison=0.0, n_records=None):
    records = [SimpleNamespace(t=t) for t in times]
    return SimpleNamespace(
        status=status,
        t_final=times[-1],
        n_records=len(records) if n_records is None else n_records,
        worst={"schwartz_gap_rel": 0.0, "gronwall_margin_rel": gronwall,
               "comparison_margin_rel": comparison},
        certificate={"eps_interval": (0.1, 0.2) if feasible else None, "T_star": T_star},
        outcome=SimpleNamespace(records=records),
    )


def run(fn, *args):
    tally = checks.Tally()
    fn(tally, *args)
    return tally


@pytest.mark.parametrize("fn, args", [
    (checks.check_status, ([],)),
    (checks.check_schwartz, ([report(n_records=0)],)),
    (checks.check_gronwall, ([report(status="blowup_detected")],)),
    (checks.check_comparison, ([report(feasible=False)],)),
    (checks.check_theorem, ([report(feasible=False)],)),
    (checks.check_identity_coverage, ([report(times=(0.0, 1.0, 1.5))],)),
    (checks.check_refinement, ([report(status="blowup_detected")], (1.0, True))),
    (checks.check_suite, ("preset", [])),
])
def test_guard_fires_on_zero_samples(fn, args):
    tally = run(fn, *args)
    assert tally.failed >= 1
    assert any("sample count" in m for m in tally.messages)


def test_drift_guard_fires_without_reference_fields():
    tally = checks.Tally()
    checks.check_drift(tally, SimpleNamespace(F=1.0), {})
    assert tally.failed == 1 and "sample count" in tally.messages[0]


@pytest.mark.parametrize("fn, args", [
    (checks.check_status, ([report()],)),
    (checks.check_schwartz, ([report()],)),
    (checks.check_gronwall, ([report()],)),
    (checks.check_comparison, ([report(feasible=True)],)),
    (checks.check_theorem, ([report(status="blowup_detected", feasible=True, T_star=9.0)],)),
    (checks.check_identity_coverage, ([report()],)),
    (checks.check_refinement, ([report(status="blowup_detected", times=(0.0, 1.0)),
                                report(status="blowup_detected", times=(0.0, 1.02))],
                               (1.02, True))),
    (checks.check_suite, ("preset", [SimpleNamespace(passed=True, name="a", detail="")])),
])
def test_checks_pass_with_samples(fn, args):
    tally = run(fn, *args)
    assert tally.failed == 0 and tally.attempted >= 2


def test_checks_fail_on_bad_values():
    assert run(checks.check_status, [report(status="numerical_failure")]).failed == 1
    assert run(checks.check_gronwall, [report(gronwall=-1e-6)]).failed == 1
    assert run(checks.check_comparison, [report(feasible=True, comparison=-1e-3)]).failed == 1
    late = report(status="blowup_detected", feasible=True, T_star=2.0)
    assert run(checks.check_theorem, [late]).failed == 1
    far = [report(status="blowup_detected", times=(0.0, 1.0)),
           report(status="blowup_detected", times=(0.0, 1.2))]
    assert run(checks.check_refinement, far, (1.2, False)).failed == 2


def test_uniform_triples():
    assert checks.uniform_triples([0.0, 1.0, 2.0, 3.0]) == 2
    assert checks.uniform_triples([0.0, 1.0, 2.0, 2.5]) == 1
    assert checks.uniform_triples([0.0, 1.0, 1.5]) == 0
    assert checks.uniform_triples([0.0, 1.0]) == 0


def test_identity_coverage_fails_long_run_without_triples():
    nonuniform = report(times=(0.0, 1.0, 1.5, 3.0, 3.2))
    tally = run(checks.check_identity_coverage, [nonuniform, report()])
    assert tally.failed == 1


def test_identity_coverage_counts_short_vacuous_runs():
    tally = checks.Tally()
    short = report(times=(0.0, 1.0, 1.5))
    assert checks.check_identity_coverage(tally, [short, report()]) == 1
    assert tally.failed == 0


def test_drift_measures_relative_deviation():
    tally = checks.Tally()
    record = SimpleNamespace(F=1.0 + 1e-3, E1=2.0)
    worst = checks.check_drift(tally, record, {"F": 1.0, "E1": 2.0})
    assert worst == pytest.approx(1e-3)
    assert tally.failed == 1


def test_sweep_inputs_follow_the_seed():
    assert sweep_docs(3) == sweep_docs(3)
    assert sweep_docs(3) != sweep_docs(4)
    assert len(sweep_docs(3)) == 512


@pytest.fixture
def hb():
    import hyperburg

    return hyperburg


def small_state(hb):
    params = hb.validate_params(1.0, 1.0, 1.0)
    grid = hb.Grid(-8.0, 8.0, 256)
    profile = hb.calibrated_profile("odd_bump", 1.0, grid, 40.0, 200.0)
    return params, hb.sample_initial_state(params, grid, profile), grid


def test_tracer_spans_and_self_time(hb):
    params, state, grid = small_state(hb)
    original = hb.solver.step_rk4
    tracer = Tracer()
    tracer.iteration = 0
    tracer.install()
    try:
        assert hb.solver.step_rk4 is not original
        hb.solver.step_rk4(state, params, 0.4 * grid.dx)
    finally:
        tracer.uninstall()
    assert hb.solver.step_rk4 is original
    assert tracer.absent == []
    layers, roots, durations = tracer.aggregate()
    step = layers[0]["solver.step_rk4"]
    pde = layers[0]["operators.pde_rhs"]
    assert (step.calls, pde.calls) == (1, 4)
    assert pde.work == 4 * grid.n
    (step_ns,) = durations["solver.step_rk4"]
    assert step.self_ns == step_ns - sum(durations["operators.pde_rhs"])
    assert roots[0] == step_ns
    assert all(p == 0 for p, n in zip(tracer.parents, tracer.names) if n == "operators.pde_rhs")


def test_tracer_reports_missing_targets_as_absent(hb):
    tracer = Tracer(targets=(
        Target("solver.gone", "hyperburg.solver", "no_such_function"),
        Target("nowhere.gone", "hyperburg.no_such_module", "f"),
    ))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["solver.gone", "nowhere.gone"]
