"""Named experiment presets and the assertions they are checked against.

Each preset is one entry of the ``_PRESETS`` table, and one rule makes
every end-status gate.  Running a preset and checking it are separate
steps: ``execute_preset`` runs every member once and returns a
``PresetRun``, and ``check_preset`` evaluates the preset's assertions from
that run's reports alone, stepping nothing.  ``run_suite`` does both,
returning one result per assertion.  Tolerances are pinned here, once, for
the whole package:

* Cauchy-Schwarz slack: schwartz_gap >= -1e-10 (1 + F^2) at every record;
* exponential energy bound: margin >= -1e-8 E1(0) on the presets whose
  status gate expects their runs to complete;
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
  eps scan on 100 seeded random instances, drawn with
  ``random.Random(SCAN_SEED)`` (the package never loads NumPy's random
  subpackage; tests may);
* minorant closed form vs adaptive integration: 1e-8 relative.

One rule, ``_gate``, compares a checked value with its bound in every gate
but the status gates.  A value that is missing (a margin no record gave, a
T* with no feasible eps, a cone no state reached, an identity residual no
level gave) fails its gate: a gate that saw no sample does not pass
unchecked.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import certificate as cert_mod
from . import diagnostics
from .config import ICConfig, OutputConfig, RunConfig, refinement_ladder
from .errors import ConfigError, DomainError
from .initial_data import amplitude_for_sup_norm
from .model import ModelParams
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

    ``observer`` is what the preset entry's ``observer`` made to observe the
    runs (the ``cone`` preset's :class:`~hyperburg.diagnostics.ConeMax` at
    ``CONE_APEX``); None for a preset without one.
    """

    name: str
    configs: list[RunConfig]
    reports: list[RunReport]
    observer: Optional[Callable[..., None]] = None


def _member(
    out_root: Optional[str | Path], tag: str, half_width: float, n: int,
    t_end: float, stride: int, ic: ICConfig, L: float = 1.0,
) -> RunConfig:
    """One preset run: mu = nu = 1, the default cfl, files (if any) in out_root/tag."""
    files = out_root is not None
    output = OutputConfig(str(Path(out_root, tag)) if files else "unused", files, files)
    return RunConfig(
        params=ModelParams(1.0, 1.0, L),
        grid=Grid(-half_width, half_width, n),
        t_end=t_end,
        ic=ic,
        output=output,
        record_stride=stride,
    )


def _small(sup: float, L: float = 1.0) -> ICConfig:
    return ICConfig(family="odd_bump", a=amplitude_for_sup_norm(sup, L), b=0.0)


def _preset(name: str) -> _Preset:
    """The entry of preset ``name``; ConfigError, listing the valid names, if none."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}")
    return _PRESETS[name]


def preset_configs(name: str, out_root: Optional[Path] = None) -> list[RunConfig]:
    """Member configurations of a preset (empty for pure-math presets).

    With ``out_root`` every member writes its CSV and report to
    ``out_root/<tag>``; without it, nothing is written.

    Raises:
        ConfigError: for an unknown preset name (the message lists the
            valid ones).
    """
    return _preset(name).members(functools.partial(_member, out_root, name))


def execute_preset(name: str, out_root: Optional[str | Path] = None) -> PresetRun:
    """Run every member of a preset once (nothing for pure-math presets).

    Raises:
        ConfigError: for an unknown preset name.
    """
    preset = _preset(name)
    configs = preset_configs(name, out_root)
    observe = preset.observer(configs[0].params) if preset.observer else None
    reports = [execute_config(c, observe=observe) for c in configs]
    return PresetRun(name, configs, reports, observe)


def _status_gate(run: PresetRun, status: RunStatus, label: str, member: str) -> SuiteCheck:
    """The gate ``<preset>: <label>`` that the members, at least one, ended with ``status``;
    the detail joins ``member.format(c=config, r=report)`` or reads "no member ran"."""
    detail = ", ".join(member.format(c=c, r=r) for c, r in zip(run.configs, run.reports))
    return SuiteCheck(f"{run.name}: {label}", bool(run.reports) and all(
        r.status == status.value for r in run.reports), detail or "no member ran")


def _gate(name: str, value: Optional[float], bound: float, detail: Callable[[float], str],
          missing: str, upper: bool = False) -> SuiteCheck:
    """The gate ``value >= bound`` or, with ``upper``, ``value <= bound``;
    ``detail`` formats the value.  A None value was never checked: the gate
    fails with the detail ``missing``, rather than passing unchecked."""
    if value is None:
        return SuiteCheck(name, False, missing)
    return SuiteCheck(name, value <= bound if upper else value >= bound, detail(value))


def _worst_gate(reports: list[RunReport], key: str, bound: float, name: str,
                detail: Callable[[float], str], upper: bool = False) -> SuiteCheck:
    """The :func:`_gate` on the min over ``reports`` of ``worst[key]`` or, with
    ``upper``, their max; missing when any report has no value for ``key``,
    naming those levels."""
    unchecked = [r.config["grid"]["n"] for r in reports if r.worst[key] is None]
    worst = None if unchecked else (max if upper else min)(r.worst[key] for r in reports)
    return _gate(name, worst, bound, detail, f"no {key} checked at n={unchecked}", upper)


def _check_propagation(run: PresetRun) -> list[SuiteCheck]:
    dx = run.configs[0].grid.dx
    return [_worst_gate(run.reports, "support_excess", 0.0,
                        "propagation: support inside [-(L+ct)-5dx, (L+ct)+5dx]",
                        lambda e: f"worst excess {e:.3e} ({e / dx:+.2f} dx)", upper=True)]


def _check_cone(run: PresetRun) -> list[SuiteCheck]:
    try:
        cm = run.observer.value if run.observer else None
    except DomainError:  # the observer saw no state at t <= t_c
        cm = None
    gsup = max(rec.sup_norm for rec in run.reports[0].outcome.records)
    bound = CONE_REL_TOL * (1.0 + gsup)
    return [_gate("cone: max |v| on a data-free cone <= 1e-10 (1+sup)", cm, bound,
                  lambda cm: f"cone_max {cm:.3e} vs bound {bound:.3e}",
                  "no state observed on the cone", upper=True)]


def _check_identity(run: PresetRun) -> list[SuiteCheck]:
    configs, reports = run.configs, run.reports
    residuals = [r.worst["identity_residual_max"] for r in reports]
    unchecked = [c.grid.n for c, res in zip(configs, residuals) if res is None]
    if unchecked:  # no level pair to shrink and no finest residual to gate
        return [_gate("identity: residual checked at every level", None, 0.0, str,
                      f"no uniformly spaced record triple at n={unchecked}")]
    checks = []
    for i, (coarse, fine) in enumerate(zip(residuals, residuals[1:]), 1):
        # A residual that falls to zero shrinks without bound; zero to zero
        # shows no shrink at all, and a NaN ratio fails the gate.
        ratio = coarse / fine if fine else np.inf if coarse else np.nan
        checks.append(_gate(
            f"identity: residual shrinks >= {IDENTITY_SHRINK_FACTOR:g}x "
            f"(n {configs[i - 1].grid.n} -> {configs[i].grid.n})", ratio, IDENTITY_SHRINK_FACTOR,
            lambda ratio: f"{coarse:.3e} -> {fine:.3e}, "
            + (f"ratio {ratio:.2f}" if coarse or fine else "no shrink to measure"), ""))
    bound = 1e-4 * max(rec.half_int_v2 for rec in reports[-1].outcome.records)
    # strict: value < bound is value <= the next double below bound
    return checks + [_gate("identity: finest residual < 1e-4 max(1/2 int v^2)", residuals[-1],
                           math.nextafter(bound, -math.inf),
                           lambda res: f"residual {res:.3e} vs bound {bound:.3e}", "", upper=True)]


def _check_blowup(run: PresetRun) -> list[SuiteCheck]:
    configs, reports = run.configs, run.reports
    if any(r.status != RunStatus.BLOWUP_DETECTED.value for r in reports):  # the gate fails
        return []
    ref = Refinement(tuple(c.grid.n for c in configs), tuple(r.t_detect for r in reports))
    estimate = ref.t_detect[-1]
    detail = f"estimate {estimate:.5f}" + (
        f", previous {ref.t_detect[-2]:.5f}" if len(configs) > 1 else "")
    if ref.t_inf is not None:
        detail += (f", order p {ref.order:.3f}, "
                   f"t_inf {ref.t_inf:.5f} +- {ref.t_inf_error:.5f}")
    t_star = cert_mod.t_star(BLOWUP_TSTAR_EPS, configs[0].ic.F0_target, configs[0].params)
    return [
        SuiteCheck(
            "blowup: refinement-converged detection time (<5% gap)",
            ref.converged,
            detail,
        ),
        _gate(f"blowup: t_detect <= 1.1 T* (T* at eps={BLOWUP_TSTAR_EPS})",
              None if t_star is None else 1.1 * t_star, estimate,
              lambda bound: f"t_detect {estimate:.5f} vs 1.1 T* = {bound:.5f}",
              f"no T* at eps={BLOWUP_TSTAR_EPS}"),
        _worst_gate(reports, "comparison_margin_rel", COMPARISON_REL_TOL,
                    "blowup: comparison margin (F-G)/(1+G) >= -1e-6 before detection",
                    "worst relative margin {:.3e}".format),
    ]


def _check_smalldata(run: PresetRun) -> list[SuiteCheck]:
    recs = run.reports[0].outcome.records
    sup0 = recs[0].sup_norm
    return [_gate("smalldata: final sup norm <= initial sup norm", recs[-1].sup_norm, sup0,
                  lambda supT: f"sup(50) = {supT:.3e} vs sup(0) = {sup0:.3e}",
                  "no record", upper=True)]


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


def _oracle_instances() -> list[tuple[float, float]]:
    """The SCAN_INSTANCES seeded (G0, F1) pairs, uniform on [1, 400] x [1, 1000].

    Drawn with the standard library's Mersenne Twister, whose stream for an
    int seed is the same on every Python 3, so NumPy's random subpackage
    is never loaded.
    """
    rng = random.Random(SCAN_SEED)
    return [(rng.uniform(1.0, 400.0), rng.uniform(1.0, 1000.0))
            for _ in range(SCAN_INSTANCES)]


def _check_certificate_oracle(run: PresetRun) -> list[SuiteCheck]:
    params = ModelParams(1.0, 1.0, 1.0)
    mismatches = []
    nonempty = 0
    for g0, f1 in _oracle_instances():
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
            nonempty > 0 and not mismatches,
            f"{nonempty} feasible instances, {len(mismatches)} mismatches"
            + (f"; first: {mismatches[0]}" if mismatches else ""),
        ),
        SuiteCheck(
            "certificate-oracle: documented case (G0=100, F1=200) is "
            "threshold-passing yet infeasible",
            doc_interval is None and doc_thresholds,
            f"interval={doc_interval}, thresholds_met={doc_thresholds}",
        ),
        _gate("certificate-oracle: closed form vs adaptive integration "
              "(1e-8 relative on [0, 0.9 T*])", None if oracle.diverged else rel, 1e-8,
              "max relative deviation {:.3e}".format,
              f"diverged at t={oracle.t[-1]:.6f} of 0.9 T*={0.9 * t_star:.6f}", upper=True),
        SuiteCheck(
            "certificate-oracle: integration past T* reports divergence",
            past.diverged,
            f"diverged={past.diverged}, reached t={past.t[-1]:.6f} of T*={t_star:.6f}",
        ),
    ]


@dataclass(frozen=True)
class _Preset:
    """A ``_PRESETS`` entry.  ``members(member)`` builds the runs, ``member`` being
    ``_member`` with the output root and the preset's name (the tag) bound; ``gate``
    is the :func:`_status_gate` arguments after ``run`` (None for a preset without
    runs); ``observer(params)`` makes the observer of its runs, kept as
    ``PresetRun.observer``."""

    members: Callable[[Callable[..., RunConfig]], list[RunConfig]]
    check: Callable[[PresetRun], list[SuiteCheck]]
    gate: Optional[tuple[RunStatus, str, str]] = None
    observer: Optional[Callable[[ModelParams], Callable[..., None]]] = None


_COMPLETES = (RunStatus.COMPLETED, "run completes", "status {r.status}")
_PRESETS = {
    # L = 6 at n = 4096 keeps the mollifier shoulder resolved; a steeper
    # front (L = 1) smears ~20 nodes past the cone at the 1e-12 level.
    "propagation": _Preset(
        lambda member: [member(9.5, 4096, 2.0, 4, _small(0.1, L=6.0), L=6.0)],
        _check_propagation, _COMPLETES),
    "cone": _Preset(lambda member: [member(8.0, 2048, 2.0, 4, _small(0.1))], _check_cone,
                    _COMPLETES, observer=functools.partial(diagnostics.ConeMax, *CONE_APEX)),
    "identity": _Preset(
        lambda member: refinement_ladder(member(2.5, 513, 1.0, 4, _small(0.1)), 3),
        _check_identity, (RunStatus.COMPLETED, "all levels complete", "{r.status}")),
    "blowup": _Preset(
        lambda member: refinement_ladder(member(8.0, 1025, 6.5, 8, ICConfig(
            family="odd_bump", F0_target=40.0, F1_target=200.0)), 3),
        _check_blowup, (RunStatus.BLOWUP_DETECTED, "detected at every resolution",
                        "n={c.grid.n}: {r.status}@{r.t_final:.4f}")),
    "smalldata": _Preset(lambda member: [member(52.0, 2048, 50.0, 16, _small(0.05))],
                         _check_smalldata, (RunStatus.COMPLETED, "run completes to t=50",
                                            "status {r.status} at t={r.t_final:.3f}")),
    "certificate-oracle": _Preset(lambda member: [], _check_certificate_oracle),
}

PRESET_NAMES = tuple(_PRESETS)


def check_preset(run: PresetRun) -> list[SuiteCheck]:
    """Evaluate a preset's acceptance assertions from an executed run.

    Reads ``run``'s configs, reports and observer only; steps nothing.  A
    simulating preset's checks open with its status gate (alone on a run without
    members) and end with the Cauchy-Schwarz check over all records, then the
    energy bound if its status gate expects ``RunStatus.COMPLETED``.  A check
    that saw no sample fails, it does not raise.  Raises ConfigError for an
    unknown name.
    """
    preset = _preset(run.name)
    if not preset.gate:
        return preset.check(run)
    checks = [_status_gate(run, *preset.gate)]
    if not run.reports:
        return checks
    checks += preset.check(run) + [_worst_gate(
        run.reports, "schwartz_gap_rel", SCHWARTZ_REL_TOL,
        f"{run.name}: schwartz_gap >= -1e-10 (1+F^2) at every record",
        "worst relative gap {:.3e}".format)]
    if preset.gate[0] is RunStatus.COMPLETED:
        checks.append(_worst_gate(run.reports, "gronwall_margin_rel", GRONWALL_REL_TOL,
                                  f"{run.name}: exp energy bound margin >= -1e-8 E1(0)",
                                  "worst margin / E1(0) = {:.3e}".format))
    return checks


def run_suite(preset_name: str, out_root: Optional[str | Path] = None) -> list[SuiteCheck]:
    """Execute a named preset once and evaluate its acceptance assertions.

    Raises:
        ConfigError: for an unknown preset name (the message lists the
            valid ones).
    """
    return check_preset(execute_preset(preset_name, out_root))
