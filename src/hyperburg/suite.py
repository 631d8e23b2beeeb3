"""Named experiment presets and the assertions they are checked against.

Each preset is a family of run configurations, declared once in
``preset_configs``.  Running a preset and checking it are separate steps:
``execute_preset`` runs every member once and returns a ``PresetRun``, and
``check_preset`` evaluates the preset's acceptance assertions from that
run's reports alone, stepping nothing.  ``run_suite`` does both, returning
one result per assertion.  Tolerances are pinned here, once, for the whole
package:

* Cauchy-Schwarz slack: schwartz_gap >= -1e-10 (1 + F^2) at every record;
* exponential energy bound: margin >= -1e-8 E1(0) on non-blow-up runs,
  failed when no run has E1(0) > 0 to scale it;
* moment-identity residual: checked at every level of its ladder, halving
  (dx, dt) shrinks it by >= 3x, and at the finest level it stays below 1e-4
  max(1/2 int v^2);
* support speed: within [-(L+ct)-5dx, (L+ct)+5dx] at relative level 1e-12;
* cone vanishing: max |v| on the cone <= 1e-10 (1 + sup);
* moment comparison F >= G: relative margin >= -1e-6 before detection;
* blow-up: detection at every level of its ladder, <5% refinement gap,
  detection time <= 1.1 T*(eps=0.65) for the certified preset (the observed
  order and the Richardson estimate are reported, not gated);
* certificate vs brute force: interval endpoints within 1e-4 of a dense
  eps scan on 100 seeded random instances;
* minorant closed form vs adaptive integration: 1e-8 relative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import certificate as cert_mod
from . import diagnostics
from .config import ICConfig, OutputConfig, RunConfig, refinement_ladder
from .errors import ConfigError
from .initial_data import amplitude_for_sup_norm
from .model import validate_params
from .runner import RunReport, execute_config
from .solver import Grid, Refinement, RunStatus

__all__ = [
    "SuiteCheck",
    "PresetRun",
    "PRESET_NAMES",
    "preset_configs",
    "execute_preset",
    "check_preset",
    "run_suite",
    "epsilon_scan_oracle",
]

SCHWARTZ_REL_TOL = -1e-10
GRONWALL_REL_TOL = -1e-8
COMPARISON_REL_TOL = -1e-6
IDENTITY_SHRINK_FACTOR = 3.0
CONE_REL_TOL = 1e-10
BLOWUP_TSTAR_EPS = 0.65
SCAN_STEP = 1e-4
# 64 KiB of doubles: each scan temporary stays below malloc's default mmap
# threshold, so it reuses heap memory instead of faulting in fresh pages.
SCAN_CHUNK = 8192
SCAN_INSTANCES = 100
SCAN_SEED = 20240817

# Apex of the data-free cone observed by the cone preset: its base [3, 7]
# at t = 0 is disjoint from the initial support [-1, 1].
CONE_APEX = (5.0, 2.0)


@dataclass
class SuiteCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class PresetRun:
    """One execution of a preset: its member configs and their reports.

    ``cone`` is the :class:`~hyperburg.diagnostics.ConeMax` that observed
    the ``cone`` preset's run at ``CONE_APEX``; None for every other preset.
    """

    name: str
    configs: list[RunConfig]
    reports: list[RunReport]
    cone: Optional[diagnostics.ConeMax] = None


def _member(
    out_root: Optional[str | Path], tag: str, half_width: float, n: int,
    t_end: float, stride: int, ic: ICConfig, L: float = 1.0,
) -> RunConfig:
    """One preset run: mu = nu = 1, the default cfl, files (if any) in out_root/tag."""
    files = out_root is not None
    output = OutputConfig(str(Path(out_root, tag)) if files else "unused", files, files)
    return RunConfig(
        params=validate_params(1.0, 1.0, L),
        grid=Grid(-half_width, half_width, n),
        t_end=t_end,
        ic=ic,
        output=output,
        record_stride=stride,
    )


def _small(sup: float, L: float = 1.0) -> ICConfig:
    return ICConfig(family="odd_bump", a=amplitude_for_sup_norm(sup, L), b=0.0)


def preset_configs(name: str, out_root: Optional[Path] = None) -> list[RunConfig]:
    """Member configurations of a preset (empty for pure-math presets).

    This is the one place each preset's runs are declared.  With
    ``out_root`` every member writes its CSV and report to
    ``out_root/<tag>``; without it, nothing is written.

    Raises:
        ConfigError: for an unknown preset name (the message lists the
            valid ones).
    """
    if name == "propagation":
        # L = 6 at n = 4096 keeps the mollifier shoulder resolved; a steeper
        # front (L = 1) smears ~20 nodes past the cone at the 1e-12 level.
        ic = _small(0.1, L=6.0)
        return [_member(out_root, "propagation", 9.5, 4096, 2.0, 4, ic, L=6.0)]
    if name == "cone":
        return [_member(out_root, "cone", 8.0, 2048, 2.0, 4, _small(0.1))]
    if name == "identity":
        base = _member(out_root, "identity", 2.5, 513, 1.0, 4, _small(0.1))
        return refinement_ladder(base, 3)
    if name == "blowup":
        ic = ICConfig(family="odd_bump", F0_target=40.0, F1_target=200.0)
        return refinement_ladder(_member(out_root, "blowup", 8.0, 1025, 6.5, 8, ic), 3)
    if name == "smalldata":
        return [_member(out_root, "smalldata", 52.0, 2048, 50.0, 16, _small(0.05))]
    if name == "certificate-oracle":
        return []
    raise ConfigError(
        f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
    )


def execute_preset(name: str, out_root: Optional[str | Path] = None) -> PresetRun:
    """Run every member of a preset once (nothing for pure-math presets).

    Raises:
        ConfigError: for an unknown preset name.
    """
    configs = preset_configs(name, out_root)
    cone = diagnostics.ConeMax(*CONE_APEX, configs[0].params) if name == "cone" else None
    reports = [execute_config(c, observe=cone) for c in configs]
    return PresetRun(name, configs, reports, cone)


def _schwartz_check(reports: list[RunReport], tag: str) -> SuiteCheck:
    worst = min(r.worst["schwartz_gap_rel"] for r in reports)
    return SuiteCheck(
        name=f"{tag}: schwartz_gap >= -1e-10 (1+F^2) at every record",
        passed=worst >= SCHWARTZ_REL_TOL,
        detail=f"worst relative gap {worst:.3e}",
    )


def _gronwall_check(reports: list[RunReport], tag: str) -> SuiteCheck:
    """Fails, rather than passes unchecked, when no run has E1(0) > 0."""
    name = f"{tag}: exp energy bound margin >= -1e-8 E1(0)"
    rels = [r.worst["gronwall_margin_rel"] for r in reports]
    if all(rel is None for rel in rels):
        levels = [r.config["grid"]["n"] for r in reports]
        return SuiteCheck(name, False, f"E1(0) = 0, no margin checked at n={levels}")
    worst = min(rel for rel in rels if rel is not None)
    return SuiteCheck(name, worst >= GRONWALL_REL_TOL, f"worst margin / E1(0) = {worst:.3e}")


def _check_propagation(run: PresetRun) -> list[SuiteCheck]:
    config, report = run.configs[0], run.reports[0]
    excess = report.worst["support_excess"]
    return [
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


def _check_cone(run: PresetRun) -> list[SuiteCheck]:
    report = run.reports[0]
    cm = run.cone.value
    gsup = max(rec.sup_norm for rec in report.outcome.records)
    bound = CONE_REL_TOL * (1.0 + gsup)
    return [
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


def _check_identity(run: PresetRun) -> list[SuiteCheck]:
    configs, reports = run.configs, run.reports
    residuals = [r.worst["identity_residual_max"] for r in reports]
    checks = [
        SuiteCheck(
            "identity: all levels complete",
            all(r.status == RunStatus.COMPLETED.value for r in reports),
            ", ".join(r.status for r in reports),
        )
    ]
    unchecked = [c.grid.n for c, res in zip(configs, residuals) if res is None]
    if unchecked:
        return checks + [SuiteCheck("identity: residual checked at every level", False,
                                    f"no uniformly spaced record triple at n={unchecked}")]
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
    rhs_scale = max(rec.half_int_v2 for rec in reports[-1].outcome.records)
    return checks + [
        SuiteCheck(
            "identity: finest residual < 1e-4 max(1/2 int v^2)",
            residuals[-1] < 1e-4 * rhs_scale,
            f"residual {residuals[-1]:.3e} vs bound {1e-4 * rhs_scale:.3e}",
        )
    ]


def _check_blowup(run: PresetRun) -> list[SuiteCheck]:
    configs, reports = run.configs, run.reports
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
        ref = Refinement(tuple(c.grid.n for c in configs), tuple(r.t_detect for r in reports))
        estimate = ref.t_detect[-1]
        detail = f"estimate {estimate:.5f}, previous {ref.t_detect[-2]:.5f}"
        if ref.t_inf is not None:
            detail += (f", order p {ref.order:.3f}, "
                       f"t_inf {ref.t_inf:.5f} +- {ref.t_inf_error:.5f}")
        t_star_ref = cert_mod.t_star(
            BLOWUP_TSTAR_EPS, configs[0].ic.F0_target, configs[0].params
        )
        worst_cmp = min(r.worst["comparison_margin_rel"] for r in reports)
        checks += [
            SuiteCheck(
                "blowup: refinement-converged detection time (<5% gap)",
                ref.converged,
                detail,
            ),
            SuiteCheck(
                f"blowup: t_detect <= 1.1 T* (T* at eps={BLOWUP_TSTAR_EPS})",
                estimate <= 1.1 * t_star_ref,
                f"t_detect {estimate:.5f} vs 1.1 T* = {1.1 * t_star_ref:.5f}",
            ),
            SuiteCheck(
                "blowup: comparison margin (F-G)/(1+G) >= -1e-6 before detection",
                worst_cmp >= COMPARISON_REL_TOL,
                f"worst relative margin {worst_cmp:.3e}",
            ),
        ]
    return checks


def _check_smalldata(run: PresetRun) -> list[SuiteCheck]:
    report = run.reports[0]
    recs = report.outcome.records
    sup0, supT = recs[0].sup_norm, recs[-1].sup_norm
    return [
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


@functools.cache
def _scan_grid() -> np.ndarray:
    """The eps grid (0, 10] at SCAN_STEP, built once per process, read-only."""
    eps = np.arange(1, int(10.0 / SCAN_STEP) + 1) * SCAN_STEP
    eps.flags.writeable = False
    return eps


def epsilon_scan_oracle(params, G0: float, F1: float) -> Optional[tuple[float, float]]:
    """Brute-force feasibility: dense eps scan of the three conditions.

    Evaluates eps in (0, 10] on a 1e-4 grid directly against the
    conditions (:func:`~hyperburg.certificate.epsilon_conditions_hold`, no
    interval algebra) and returns the (min, max) feasible grid values, or
    None.
    """
    grid = _scan_grid()
    chunks = (grid[i:i + SCAN_CHUNK] for i in range(0, grid.size, SCAN_CHUNK))
    feasible = np.concatenate(
        [eps[cert_mod.epsilon_conditions_hold(eps, params, G0, F1)] for eps in chunks])
    if feasible.size == 0:
        return None
    return float(feasible[0]), float(feasible[-1])


def _check_certificate_oracle(run: PresetRun) -> list[SuiteCheck]:
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
    doc_interval = cert_mod.epsilon_interval(params, 100.0, 200.0)
    doc_thresholds = cert_mod.build_certificate(params, 100.0, 200.0).thresholds_met
    t_star = cert_mod.t_star(1.0, 64.0, params)
    oracle = cert_mod.aux_ode_oracle(1.0, 64.0, params, 0.9 * t_star)
    closed = np.array([cert_mod.g_closed_form(t, 1.0, 64.0, params) for t in oracle.t])
    rel = float(np.max(np.abs(oracle.G - closed) / closed))
    past = cert_mod.aux_ode_oracle(1.0, 64.0, params, 1.2 * t_star)
    return [
        SuiteCheck(
            f"certificate-oracle: interval matches dense scan on "
            f"{SCAN_INSTANCES} instances (endpoints within 1e-4)",
            not mismatches,
            f"{nonempty} feasible instances, {len(mismatches)} mismatches"
            + (f"; first: {mismatches[0]}" if mismatches else ""),
        ),
        SuiteCheck(
            "certificate-oracle: documented case (G0=100, F1=200) is "
            "threshold-passing yet infeasible",
            doc_interval is None and doc_thresholds,
            f"interval={doc_interval}, thresholds_met={doc_thresholds}",
        ),
        SuiteCheck(
            "certificate-oracle: closed form vs adaptive integration "
            "(1e-8 relative on [0, 0.9 T*])",
            (not oracle.diverged) and rel <= 1e-8,
            f"max relative deviation {rel:.3e}",
        ),
        SuiteCheck(
            "certificate-oracle: integration past T* reports divergence",
            past.diverged,
            f"diverged={past.diverged}, reached t={past.t[-1]:.6f} of T*={t_star:.6f}",
        ),
    ]


_CHECKS = {
    "propagation": _check_propagation,
    "cone": _check_cone,
    "identity": _check_identity,
    "blowup": _check_blowup,
    "smalldata": _check_smalldata,
    "certificate-oracle": _check_certificate_oracle,
}

PRESET_NAMES = tuple(_CHECKS)


def check_preset(run: PresetRun) -> list[SuiteCheck]:
    """Evaluate a preset's acceptance assertions from an executed run.

    Reads ``run``'s configs, reports and cone observer only; steps nothing.
    Every simulating preset also gets the Cauchy-Schwarz check over all its
    records, and every one but ``blowup`` the exponential energy bound.
    """
    checks = _CHECKS[run.name](run)
    if run.reports:
        checks.append(_schwartz_check(run.reports, run.name))
        if run.name != "blowup":
            checks.append(_gronwall_check(run.reports, run.name))
    return checks


def run_suite(preset_name: str, out_root: Optional[str | Path] = None) -> list[SuiteCheck]:
    """Execute a named preset once and evaluate its acceptance assertions.

    Raises:
        ConfigError: for an unknown preset name (the message lists the
            valid ones).
    """
    return check_preset(execute_preset(preset_name, out_root))
