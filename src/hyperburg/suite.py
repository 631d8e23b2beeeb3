"""Named experiment presets and the assertions they are checked against.

Each preset is a concrete configuration (or family of configurations) of
one verification experiment; ``run_suite`` executes it and evaluates the
corresponding acceptance checks, returning one result per assertion.
Tolerances are pinned here, once, for the whole package:

* Cauchy-Schwarz slack: schwartz_gap >= -1e-10 (1 + F^2) at every record;
* exponential energy bound: margin >= -1e-8 E1(0) on non-blow-up runs;
* moment-identity residual: halving (dx, dt) shrinks it by >= 3x, and at
  the finest level it stays below 1e-4 max(1/2 int v^2);
* support speed: within [-(L+ct)-5dx, (L+ct)+5dx] at relative level 1e-12;
* cone vanishing: max |v| on the cone <= 1e-10 (1 + sup);
* moment comparison F >= G: relative margin >= -1e-6 before detection;
* blow-up: detection at every resolution, <5% refinement gap, detection
  time <= 1.1 T*(eps=0.65) for the certified preset;
* certificate vs brute force: interval endpoints within 1e-4 of a dense
  eps scan on 100 seeded random instances;
* minorant closed form vs adaptive integration: 1e-8 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import certificate as cert_mod
from . import diagnostics
from .config import ICConfig, OutputConfig, RunConfig
from .errors import ConfigError
from .initial_data import amplitude_for_sup_norm
from .model import validate_params
from .runner import RunReport, execute_config
from .solver import Grid, RunStatus, estimate_blowup_time

__all__ = [
    "SuiteCheck",
    "run_suite",
    "PRESET_NAMES",
    "preset_configs",
    "propagation_preset_config",
    "cone_preset_config",
    "identity_preset_config",
    "blowup_preset_config",
    "smalldata_preset_config",
    "epsilon_scan_oracle",
    "IDENTITY_LEVELS",
    "BLOWUP_LEVELS",
]

SCHWARTZ_REL_TOL = -1e-10
GRONWALL_REL_TOL = -1e-8
COMPARISON_REL_TOL = -1e-6
IDENTITY_SHRINK_FACTOR = 3.0
CONE_REL_TOL = 1e-10
BLOWUP_TSTAR_EPS = 0.65
SCAN_STEP = 1e-4
SCAN_INSTANCES = 100
SCAN_SEED = 20240817

IDENTITY_LEVELS = (512, 1024, 2048)
BLOWUP_LEVELS = (1024, 2048, 4096)


@dataclass
class SuiteCheck:
    name: str
    passed: bool
    detail: str


def _output(subdir: Optional[str]) -> OutputConfig:
    if subdir is None:
        return OutputConfig(directory="unused", emit_csv=False, emit_report=False)
    return OutputConfig(directory=subdir, emit_csv=True, emit_report=True)


def propagation_preset_config(out: Optional[str] = None) -> RunConfig:
    # L = 6 at n = 4096 keeps the mollifier shoulder resolved; a steeper
    # front (L = 1) smears ~20 nodes past the cone at the 1e-12 level.
    a = amplitude_for_sup_norm(0.1, 6.0)
    return RunConfig(
        params=validate_params(1.0, 1.0, 6.0),
        grid=Grid(-9.5, 9.5, 4096),
        t_end=2.0,
        ic=ICConfig(family="odd_bump", a=a, b=0.0),
        output=_output(out),
        cfl=0.4,
        record_stride=4,
    )


def cone_preset_config(out: Optional[str] = None) -> RunConfig:
    a = amplitude_for_sup_norm(0.1, 1.0)
    return RunConfig(
        params=validate_params(1.0, 1.0, 1.0),
        grid=Grid(-8.0, 8.0, 2048),
        t_end=2.0,
        ic=ICConfig(family="odd_bump", a=a, b=0.0),
        output=_output(out),
        cfl=0.4,
        record_stride=4,
    )


# Apex of the data-free cone used by the cone preset: its base [3, 7] at
# t = 0 is disjoint from the initial support [-1, 1].
CONE_APEX = (5.0, 2.0)


def identity_preset_config(n: int, out: Optional[str] = None) -> RunConfig:
    a = amplitude_for_sup_norm(0.1, 1.0)
    return RunConfig(
        params=validate_params(1.0, 1.0, 1.0),
        grid=Grid(-2.5, 2.5, n),
        t_end=1.0,
        ic=ICConfig(family="odd_bump", a=a, b=0.0),
        output=_output(out),
        cfl=0.4,
        record_stride=4,
    )


def blowup_preset_config(n: int, out: Optional[str] = None) -> RunConfig:
    return RunConfig(
        params=validate_params(1.0, 1.0, 1.0),
        grid=Grid(-8.0, 8.0, n),
        t_end=6.5,
        ic=ICConfig(family="odd_bump", F0_target=40.0, F1_target=200.0),
        output=_output(out),
        cfl=0.4,
        record_stride=8,
    )


def smalldata_preset_config(out: Optional[str] = None) -> RunConfig:
    a = amplitude_for_sup_norm(0.05, 1.0)
    return RunConfig(
        params=validate_params(1.0, 1.0, 1.0),
        grid=Grid(-52.0, 52.0, 2048),
        t_end=50.0,
        ic=ICConfig(family="odd_bump", a=a, b=0.0),
        output=_output(out),
        cfl=0.4,
        record_stride=16,
    )


def preset_configs(name: str, out_root: Optional[Path] = None) -> list[RunConfig]:
    """Member configurations of a preset (empty for pure-math presets)."""

    def sub(tag: str) -> Optional[str]:
        return str(out_root / tag) if out_root is not None else None

    if name == "propagation":
        return [propagation_preset_config(sub("propagation"))]
    if name == "cone":
        return [cone_preset_config(sub("cone"))]
    if name == "identity":
        return [identity_preset_config(n, sub(f"identity-n{n}")) for n in IDENTITY_LEVELS]
    if name == "blowup":
        return [blowup_preset_config(n, sub(f"blowup-n{n}")) for n in BLOWUP_LEVELS]
    if name == "smalldata":
        return [smalldata_preset_config(sub("smalldata"))]
    if name == "certificate-oracle":
        return []
    raise ConfigError(
        f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
    )


def _schwartz_check(checks: list[SuiteCheck], reports: list[RunReport], tag: str) -> None:
    worst = min(r.worst["schwartz_gap_rel"] for r in reports)
    checks.append(
        SuiteCheck(
            name=f"{tag}: schwartz_gap >= -1e-10 (1+F^2) at every record",
            passed=worst >= SCHWARTZ_REL_TOL,
            detail=f"worst relative gap {worst:.3e}",
        )
    )


def _gronwall_check(checks: list[SuiteCheck], reports: list[RunReport], tag: str) -> None:
    rels = [
        r.worst["gronwall_margin_rel"]
        for r in reports
        if r.worst["gronwall_margin_rel"] is not None
    ]
    worst = min(rels) if rels else 0.0
    checks.append(
        SuiteCheck(
            name=f"{tag}: exp energy bound margin >= -1e-8 E1(0)",
            passed=worst >= GRONWALL_REL_TOL,
            detail=f"worst margin / E1(0) = {worst:.3e}",
        )
    )


def _run_propagation(out_root: Optional[Path]) -> list[SuiteCheck]:
    config = preset_configs("propagation", out_root)[0]
    report = execute_config(config)
    excess = report.worst["support_excess"]
    checks = [
        SuiteCheck(
            "propagation: run completes",
            report.status == RunStatus.COMPLETED.value,
            f"status {report.status}",
        ),
        SuiteCheck(
            "propagation: support inside [-(L+ct)-5dx, (L+ct)+5dx]",
            excess is not None and excess <= 0.0,
            f"worst excess {excess:.3e} ({excess / config.grid.dx:+.2f} dx)"
            if excess is not None
            else "support never detected",
        ),
    ]
    _schwartz_check(checks, [report], "propagation")
    _gronwall_check(checks, [report], "propagation")
    return checks


def _run_cone(out_root: Optional[Path]) -> list[SuiteCheck]:
    config = preset_configs("cone", out_root)[0]
    cone = diagnostics.ConeMax(*CONE_APEX, config.params)
    report = execute_config(config, observe=cone)
    cm = cone.value
    gsup = max(rec.sup_norm for rec in report.outcome.records)
    bound = CONE_REL_TOL * (1.0 + gsup)
    checks = [
        SuiteCheck(
            "cone: run completes",
            report.status == RunStatus.COMPLETED.value,
            f"status {report.status}",
        ),
        SuiteCheck(
            "cone: max |v| on a data-free cone <= 1e-10 (1+sup)",
            cm <= bound,
            f"cone_max {cm:.3e} vs bound {bound:.3e}",
        ),
    ]
    _schwartz_check(checks, [report], "cone")
    _gronwall_check(checks, [report], "cone")
    return checks


def _run_identity(out_root: Optional[Path]) -> list[SuiteCheck]:
    configs = preset_configs("identity", out_root)
    reports = [execute_config(c) for c in configs]
    residuals = [r.worst["identity_residual_max"] for r in reports]
    checks = [
        SuiteCheck(
            "identity: all levels complete",
            all(r.status == RunStatus.COMPLETED.value for r in reports),
            ", ".join(r.status for r in reports),
        )
    ]
    for i in range(1, len(residuals)):
        ratio = residuals[i - 1] / residuals[i]
        checks.append(
            SuiteCheck(
                f"identity: residual shrinks >= {IDENTITY_SHRINK_FACTOR:g}x "
                f"(n {configs[i - 1].grid.n} -> {configs[i].grid.n})",
                ratio >= IDENTITY_SHRINK_FACTOR,
                f"{residuals[i - 1]:.3e} -> {residuals[i]:.3e}, ratio {ratio:.2f}",
            )
        )
    fine = reports[-1]
    rhs_scale = max(rec.half_int_v2 for rec in fine.outcome.records)
    checks.append(
        SuiteCheck(
            "identity: finest residual < 1e-4 max(1/2 int v^2)",
            residuals[-1] < 1e-4 * rhs_scale,
            f"residual {residuals[-1]:.3e} vs bound {1e-4 * rhs_scale:.3e}",
        )
    )
    _schwartz_check(checks, reports, "identity")
    _gronwall_check(checks, reports, "identity")
    return checks


def _run_blowup(out_root: Optional[Path]) -> list[SuiteCheck]:
    configs = preset_configs("blowup", out_root)
    reports = [execute_config(c) for c in configs]
    checks = [
        SuiteCheck(
            "blowup: detected at every resolution",
            all(r.status == RunStatus.BLOWUP_DETECTED.value for r in reports),
            ", ".join(
                f"n={c.grid.n}: {r.status}@{r.t_final:.4f}"
                for c, r in zip(configs, reports)
            ),
        )
    ]
    if checks[0].passed:
        estimate, converged = estimate_blowup_time([r.outcome for r in reports])
        t_star_ref = cert_mod.t_star(BLOWUP_TSTAR_EPS, 40.0, configs[0].params)
        checks.append(
            SuiteCheck(
                "blowup: refinement-converged detection time (<5% gap)",
                converged,
                f"estimate {estimate:.5f}, previous {reports[-2].t_final:.5f}",
            )
        )
        checks.append(
            SuiteCheck(
                f"blowup: t_detect <= 1.1 T* (T* at eps={BLOWUP_TSTAR_EPS})",
                estimate <= 1.1 * t_star_ref,
                f"t_detect {estimate:.5f} vs 1.1 T* = {1.1 * t_star_ref:.5f}",
            )
        )
        worst_cmp = min(r.worst["comparison_margin_rel"] for r in reports)
        checks.append(
            SuiteCheck(
                "blowup: comparison margin (F-G)/(1+G) >= -1e-6 before detection",
                worst_cmp >= COMPARISON_REL_TOL,
                f"worst relative margin {worst_cmp:.3e}",
            )
        )
    _schwartz_check(checks, reports, "blowup")
    return checks


def _run_smalldata(out_root: Optional[Path]) -> list[SuiteCheck]:
    config = preset_configs("smalldata", out_root)[0]
    report = execute_config(config)
    recs = report.outcome.records
    sup0, supT = recs[0].sup_norm, recs[-1].sup_norm
    checks = [
        SuiteCheck(
            "smalldata: run completes to t=50",
            report.status == RunStatus.COMPLETED.value,
            f"status {report.status} at t={report.t_final:.3f}",
        ),
        SuiteCheck(
            "smalldata: final sup norm <= initial sup norm",
            supT <= sup0,
            f"sup(50) = {supT:.3e} vs sup(0) = {sup0:.3e}",
        ),
    ]
    _schwartz_check(checks, [report], "smalldata")
    _gronwall_check(checks, [report], "smalldata")
    return checks


def epsilon_scan_oracle(params, G0: float, F1: float) -> Optional[tuple[float, float]]:
    """Brute-force feasibility: dense eps scan of the three conditions.

    Evaluates eps in (0, 10] on a 1e-4 grid directly against the
    conditions (:func:`~hyperburg.certificate.epsilon_conditions_hold`, no
    interval algebra) and returns the (min, max) feasible grid values, or
    None.
    """
    eps = np.arange(1, int(10.0 / SCAN_STEP) + 1) * SCAN_STEP
    feasible = eps[cert_mod.epsilon_conditions_hold(eps, params, G0, F1)]
    if feasible.size == 0:
        return None
    return float(feasible[0]), float(feasible[-1])


def _run_certificate_oracle(out_root: Optional[Path]) -> list[SuiteCheck]:
    params = validate_params(1.0, 1.0, 1.0)
    rng = np.random.default_rng(SCAN_SEED)
    mismatches = []
    nonempty = 0
    for _ in range(SCAN_INSTANCES):
        g0 = float(rng.uniform(1.0, 400.0))
        f1 = float(rng.uniform(1.0, 1000.0))
        interval = cert_mod.epsilon_interval(params, g0, f1)
        scanned = epsilon_scan_oracle(params, g0, f1)
        if interval is None:
            if scanned is not None:
                mismatches.append((g0, f1, "empty interval but scan feasible"))
            continue
        nonempty += 1
        if scanned is None:
            mismatches.append((g0, f1, "nonempty interval but scan empty"))
            continue
        lo_err = abs(scanned[0] - interval[0])
        hi_err = abs(scanned[1] - interval[1])
        if lo_err > SCAN_STEP + 1e-9 or hi_err > SCAN_STEP + 1e-9:
            mismatches.append((g0, f1, f"endpoint errors {lo_err:.2e}/{hi_err:.2e}"))
    checks = [
        SuiteCheck(
            f"certificate-oracle: interval matches dense scan on "
            f"{SCAN_INSTANCES} instances (endpoints within 1e-4)",
            not mismatches,
            f"{nonempty} feasible instances, {len(mismatches)} mismatches"
            + (f"; first: {mismatches[0]}" if mismatches else ""),
        )
    ]

    doc_interval = cert_mod.epsilon_interval(params, 100.0, 200.0)
    doc_thresholds = cert_mod.check_moment_thresholds(params, 100.0, 200.0)
    checks.append(
        SuiteCheck(
            "certificate-oracle: documented case (G0=100, F1=200) is "
            "threshold-passing yet infeasible",
            doc_interval is None and doc_thresholds,
            f"interval={doc_interval}, thresholds_met={doc_thresholds}",
        )
    )

    t_star = cert_mod.t_star(1.0, 64.0, params)
    oracle = cert_mod.aux_ode_oracle(1.0, 64.0, params, 0.9 * t_star)
    closed = np.array(
        [cert_mod.g_closed_form(t, 1.0, 64.0, params) for t in oracle.t]
    )
    rel = float(np.max(np.abs(oracle.G - closed) / closed))
    checks.append(
        SuiteCheck(
            "certificate-oracle: closed form vs adaptive integration "
            "(1e-8 relative on [0, 0.9 T*])",
            (not oracle.diverged) and rel <= 1e-8,
            f"max relative deviation {rel:.3e}",
        )
    )
    past = cert_mod.aux_ode_oracle(1.0, 64.0, params, 1.2 * t_star)
    checks.append(
        SuiteCheck(
            "certificate-oracle: integration past T* reports divergence",
            past.diverged,
            f"diverged={past.diverged}, reached t={past.t[-1]:.6f} of T*={t_star:.6f}",
        )
    )
    return checks


_RUNNERS = {
    "propagation": _run_propagation,
    "cone": _run_cone,
    "identity": _run_identity,
    "blowup": _run_blowup,
    "smalldata": _run_smalldata,
    "certificate-oracle": _run_certificate_oracle,
}

PRESET_NAMES = tuple(_RUNNERS)


def run_suite(preset_name: str, out_root: Optional[str | Path] = None) -> list[SuiteCheck]:
    """Execute a named preset and evaluate its acceptance assertions.

    Raises:
        ConfigError: for an unknown preset name (the message lists the
            valid ones).
    """
    if preset_name not in _RUNNERS:
        raise ConfigError(
            f"unknown preset {preset_name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        )
    root = Path(out_root) if out_root is not None else None
    return _RUNNERS[preset_name](root)
