"""The benchmark workloads and the parts they are made of.

Each part builds its inputs once (``build``: the part timed as set-up),
runs one iteration through the package's public functions (``run``) and
checks the outputs of that iteration (``check``).  Inputs depend only on
the seed; the program sees only the generated configurations.

A workload runs two parts back to back in every iteration.  Host speed
drifts by 10-20% over tens of seconds, so the benchmark needs long runs
to be steady, and the run budget allows two long workloads rather than
four short ones.  The parts are paired by what they stress: few large
runs that write files (``decay-refine``) and many short runs without
files (``sweep-suite``).

Calls go through attributes of the ``hyperburg`` package looked up at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks

# Amplitude giving sup|v0| = 0.05 for the odd bump with L = 1: the peak of
# x exp(1/(x^2 - 1)) is sqrt(2 - sqrt 3) exp(-(1 + sqrt 3)/2).
DECAY_AMPLITUDE = 0.05 / (math.sqrt(2.0 - math.sqrt(3.0)) * math.exp(-(1.0 + math.sqrt(3.0)) / 2.0))

REFINE_LEVELS = (2048, 4096, 8192, 16384)
SUITE_PRESETS = (
    "propagation", "cone", "identity", "blowup", "smalldata",
    "certificate-oracle", "convergence",
)
SWEEP_MUS = (1.0, 0.25)
SWEEP_CELLS = 16
SWEEP_LO, SWEEP_HI = 0.1, 2.0


@dataclass
class Iteration:
    """What one iteration produced."""

    units_s: list[float] = field(default_factory=list)
    reports: list = field(default_factory=list)
    estimate: tuple = ()
    suite: dict = field(default_factory=dict)
    parts: list = field(default_factory=list)
    part_walls: list = field(default_factory=list)


def _doc(params, grid, t_end, stride, ic, out=None):
    output = (
        {"directory": str(out), "emit_csv": True, "emit_report": True}
        if out is not None
        else {"directory": "unused", "emit_csv": False, "emit_report": False}
    )
    return {
        "params": params,
        "grid": grid,
        "cfl": 0.4,
        "t_end": t_end,
        "record_stride": stride,
        "ic": ic,
        "output": output,
    }


def moment_thresholds(mu, nu, L):
    """The paper's certified-blow-up thresholds (F0_min, F1_min)."""
    c = math.sqrt(nu / mu)
    common = L + 6.0 * c * mu
    return (16.0 / 3.0) * c * L * common, (64.0 / 3.0) * c * c * common


def output_stats(reports) -> tuple[int, int]:
    """(bytes of CSV and JSON written, CSV data rows) for these runs."""
    size = 0
    rows = 0
    for r in reports:
        for kind, path in (getattr(r, "files", None) or {}).items():
            if path is None:
                continue
            p = Path(path)
            size += p.stat().st_size
            if kind == "csv":
                with p.open("rb") as fh:
                    rows += sum(1 for _ in fh) - 1
    return size, rows


class Decay:
    name = "decay"

    def build(self, hb, seed, tmp):
        doc = _doc(
            {"mu": 1.0, "nu": 1.0, "L": 1.0},
            {"xmin": -52.0, "xmax": 52.0, "n": 4096},
            50.0,
            16,
            {"family": "odd_bump", "a": DECAY_AMPLITUDE, "b": 0.0},
            tmp / "decay",
        )
        return hb.config_from_dict(doc)

    def run(self, hb, config):
        t0 = perf_counter()
        report = hb.execute_config(config)
        return Iteration([perf_counter() - t0], [report])

    def check(self, tally, it, reference):
        checks.check_status(tally, it.reports)
        checks.check_schwartz(tally, it.reports)
        checks.check_gronwall(tally, it.reports)
        vacuous = checks.check_identity_coverage(tally, it.reports)
        drift = checks.check_drift(tally, it.reports[-1].outcome.records[-1], reference)
        return {"record_drift_rel": drift, "identity_vacuous_runs": vacuous}


class BlowupRefine:
    name = "blowup-refine"

    def build(self, hb, seed, tmp):
        return [
            hb.config_from_dict(_doc(
                {"mu": 1.0, "nu": 1.0, "L": 1.0},
                {"xmin": -8.0, "xmax": 8.0, "n": n},
                6.5,
                1,
                {"family": "odd_bump", "F0_target": 40.0, "F1_target": 200.0},
                tmp / f"blowup-n{n}",
            ))
            for n in REFINE_LEVELS
        ]

    def run(self, hb, configs):
        units = []
        reports = []
        for config in configs:
            t0 = perf_counter()
            reports.append(hb.execute_config(config))
            units.append(perf_counter() - t0)
        estimate = hb.estimate_blowup_time([r.outcome for r in reports])
        return Iteration(units, reports, estimate=estimate)

    def check(self, tally, it, reference):
        checks.check_status(tally, it.reports)
        checks.check_schwartz(tally, it.reports)
        checks.check_comparison(tally, it.reports)
        checks.check_refinement(tally, it.reports, it.estimate)
        vacuous = checks.check_identity_coverage(tally, it.reports)
        return {"identity_vacuous_runs": vacuous}


def sweep_docs(seed):
    """16 x 16 stratified (F0, F1) points per mu, jittered by the seed."""
    rng = random.Random(seed)
    span = SWEEP_HI - SWEEP_LO
    docs = []
    for mu in SWEEP_MUS:
        f0_min, f1_min = moment_thresholds(mu, 1.0, 1.0)
        for i in range(SWEEP_CELLS):
            for j in range(SWEEP_CELLS):
                s0 = SWEEP_LO + span * (i + rng.random()) / SWEEP_CELLS
                s1 = SWEEP_LO + span * (j + rng.random()) / SWEEP_CELLS
                docs.append(_doc(
                    {"mu": mu, "nu": 1.0, "L": 1.0},
                    {"xmin": -8.0, "xmax": 8.0, "n": 512},
                    2.0,
                    8,
                    {"family": "odd_bump", "F0_target": s0 * f0_min, "F1_target": s1 * f1_min},
                ))
    return docs


class Sweep:
    name = "sweep"

    def build(self, hb, seed, tmp):
        docs = sweep_docs(seed)
        for doc in docs:  # reject bad inputs before anything is timed
            hb.config_from_dict(doc)
        return docs

    def run(self, hb, docs):
        units = []
        reports = []
        for doc in docs:
            t0 = perf_counter()
            reports.append(hb.execute_config(hb.config_from_dict(doc)))
            units.append(perf_counter() - t0)
        return Iteration(units, reports)

    def check(self, tally, it, reference):
        checks.check_status(tally, it.reports)
        checks.check_schwartz(tally, it.reports)
        checks.check_comparison(tally, it.reports)
        checks.check_theorem(tally, it.reports)
        vacuous = checks.check_identity_coverage(tally, it.reports)
        mix: dict[str, int] = {}
        for r in it.reports:
            mix[r.status] = mix.get(r.status, 0) + 1
        feasible = sum(1 for r in it.reports if r.certificate.get("eps_interval") is not None)
        return {"status_mix": mix, "feasible": feasible, "identity_vacuous_runs": vacuous}


class Suite:
    """The presets present at the benchmark's definition, as far as the
    package still lists them; presets added later are not run, so a new
    preset does not change the workload."""

    name = "suite"

    def build(self, hb, seed, tmp):
        listed = set(hb.suite.PRESET_NAMES)
        names = tuple(n for n in SUITE_PRESETS if n in listed)
        preset_configs = getattr(hb.suite, "preset_configs", None)
        if preset_configs is not None:
            for name in names:
                preset_configs(name)
        return names

    def run(self, hb, names):
        units = []
        results = {}
        for name in names:
            t0 = perf_counter()
            results[name] = hb.run_suite(name)
            units.append(perf_counter() - t0)
        return Iteration(units, suite=results)

    def check(self, tally, it, reference):
        for name, suite_checks in it.suite.items():
            checks.check_suite(tally, name, suite_checks)
        tally.guard("suite presets", len(it.suite))
        absent = [n for n in SUITE_PRESETS if n not in it.suite]
        return {"presets": len(it.suite), "absent_presets": absent}


class Workload:
    """Parts run back to back; one iteration runs every part once."""

    def __init__(self, name, *parts):
        self.name = name
        self.parts = parts

    def build(self, hb, seed, tmp):
        return [p.build(hb, seed, tmp) for p in self.parts]

    def run(self, hb, inputs, after_part=None):
        """One iteration; ``after_part`` runs after each part, untimed."""
        its, walls = [], []
        for part, part_inputs in zip(self.parts, inputs):
            t0 = perf_counter()
            its.append(part.run(hb, part_inputs))
            walls.append(perf_counter() - t0)
            if after_part is not None:
                after_part()
        return Iteration(
            units_s=[u for it in its for u in it.units_s],
            reports=[r for it in its for r in it.reports],
            parts=its,
            part_walls=walls,
        )

    def check(self, tally, it, reference):
        info = {}
        for part, part_it in zip(self.parts, it.parts):
            for key, value in part.check(tally, part_it, reference).items():
                info[f"{part.name}.{key}"] = value
        return info


WORKLOADS = {
    w.name: w for w in (
        Workload("decay-refine", Decay(), BlowupRefine()),
        Workload("sweep-suite", Sweep(), Suite()),
    )
}
