"""Execute one configured run: integrate, aggregate diagnostics, persist.

Outputs per run:

* ``records.csv`` with exactly the columns ``CSV_COLUMNS``: record fields
  and G_lower_bound (empty where no minorant exists) - everything an
  acceptance check needs is recomputable from this file alone;
* ``report.json`` with the config echo, the certificate (the fields of
  :class:`~hyperburg.certificate.Certificate`, in their order), the
  outcome, the worst-case value of every monitored inequality margin,
  ``resolution`` (see :func:`_resolution`) and ``perf`` (see
  :func:`execute_config`).

Numbers are serialized with round-trip precision (repr), so re-running the
report's echoed config reproduces the CSV bit for bit; only the ``perf``
timings of ``report.json`` vary between runs.  ``report.json`` and every
JSON document the CLI prints are strict JSON (see :func:`json_text`).
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from . import diagnostics
from .certificate import Certificate, build_certificate, comparison_check
from .config import RunConfig, resolve_output_dir
from .initial_data import sample_initial_state
from .model import ModelParams
from .solver import GridState, RunOutcome, integrate

__all__ = ["RunReport", "execute_config", "write_csv", "json_text", "CSV_COLUMNS"]

# Every column but G_lower_bound is the DiagnosticsRecord field of its name.
CSV_COLUMNS = ("t", "sup_norm", "F", "Fprime", "E1", "E2", "E3", "support_left",
               "support_right", "schwartz_gap", "G_lower_bound", "half_int_v2")


@dataclass
class RunReport:
    """Self-contained summary of one executed configuration.

    ``outcome`` is the live integration result for in-process consumers
    (suite assertions, tests); it is not part of the serialized report.
    """

    config: dict
    status: str
    t_final: float
    t_detect: Optional[float]
    certificate: dict
    worst: dict
    sobolev: dict
    n_records: int
    files: dict
    resolution: dict = dataclasses.field(default_factory=dict)
    perf: dict = dataclasses.field(default_factory=dict, compare=False)
    outcome: Optional[RunOutcome] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> dict:
        """The serialised fields, copied; the outcome is never visited."""
        return {f.name: copy.deepcopy(getattr(self, f.name))
                for f in dataclasses.fields(self) if f.name != "outcome"}


def json_text(doc) -> str:
    """``doc`` as indented strict JSON (RFC 8259): a non-finite float, which
    JSON cannot hold, is written as null.  ``doc`` itself is not changed."""
    # json writes non-finite floats as Infinity and NaN tokens; read them back as null.
    strict = json.loads(json.dumps(doc), parse_constant=lambda token: None)
    return json.dumps(strict, indent=2, allow_nan=False)


def _fmt(x: float) -> str:
    """Round-trip decimal form (repr) of a CSV cell."""
    return repr(float(x))


def write_csv(path: Path, outcome: RunOutcome, certificate: Certificate,
              params: ModelParams) -> None:
    """Write the record series in the column order of ``CSV_COLUMNS``;
    ``G_lower_bound`` is the certificate's minorant, empty where G does not exist."""
    lines = [",".join(CSV_COLUMNS)]
    for rec in outcome.records:
        g = certificate.minorant(rec.t, params)
        g_cell = "" if g is None else _fmt(g)
        lines.append(",".join(g_cell if col == "G_lower_bound" else _fmt(getattr(rec, col))
                              for col in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _worst_case(outcome: RunOutcome, cert: Certificate, params: ModelParams) -> dict:
    """Worst observed value of every monitored inequality margin.

    Margins with a record-dependent tolerance are reported relative to
    their own scale: schwartz_gap_rel = min gap / (1 + F^2) and
    comparison_margin_rel = min (F - G) / (1 + G), so the corresponding
    bounds read ``>= -1e-10`` and ``>= -1e-6``.
    """
    records = outcome.records
    worst: dict[str, Optional[float]] = {}

    worst["schwartz_gap_rel"] = min(
        r.schwartz_gap / (1.0 + r.F * r.F) for r in records
    )

    if len(records) >= 3:
        worst["identity_residual_max"] = diagnostics.identity_residual(records, params)
    else:
        worst["identity_residual_max"] = None

    gron = diagnostics.gronwall_check_E1(records, params)
    worst["gronwall_margin"] = gron
    e1_0 = records[0].E1
    worst["gronwall_margin_rel"] = gron / e1_0 if e1_0 > 0.0 else None

    if cert.feasible:
        worst["comparison_margin_rel"] = comparison_check(records, cert, params)
    else:
        worst["comparison_margin_rel"] = None

    excess = None
    dx = outcome.final_state.grid.dx
    for rec in records:
        if (rec.support_left, rec.support_right) == (0.0, 0.0):
            continue
        allowed = params.L + params.c * rec.t + 5.0 * dx
        e = max(rec.support_right - allowed, -allowed - rec.support_left)
        excess = e if excess is None else max(excess, e)
    worst["support_excess"] = excess
    return worst


def _resolution(outcome: RunOutcome, params: ModelParams) -> dict:
    """Largest recorded sup|v| / c and cell Peclet number sup|v| dx / nu, and
    the final-state nodes with |v| > max|v| / 10 (None if not finite)."""
    peak = max(r.sup_norm for r in outcome.records)
    final = outcome.final_state
    width = None
    if np.isfinite(final.u).all():
        size = np.abs(final.v)
        width = int(np.count_nonzero(size > 0.1 * size.max()))
    return {"max_sup_over_c": peak / params.c,
            "max_cell_peclet": peak * final.grid.dx / params.nu,
            "spike_width_nodes": width}


def execute_config(
    config: RunConfig,
    observe: Optional[Callable[[GridState], None]] = None,
) -> RunReport:
    """Sample ``config.ic``, integrate, certify, aggregate, and persist.

    Files go to :func:`~hyperburg.config.resolve_output_dir` of ``config``.
    ``observe`` is handed to :func:`~hyperburg.solver.integrate`.
    Validation problems raise before any file is written.  ``perf`` holds
    the steps, dt, the share of columns stepped, and the wall seconds of
    set-up (initial data), stepping, records and output (the certificate,
    the margins and the files).
    """
    t_setup = perf_counter()
    params = config.params
    state0 = sample_initial_state(params, config.grid, config.ic)

    t_run = perf_counter()
    outcome = integrate(
        state0,
        params,
        t_end=config.t_end,
        blowup_threshold=config.blowup_threshold,
        record_stride=config.record_stride,
        cfl=config.cfl,
        observe=observe,
    )
    t_output = perf_counter()
    # integrate always records state0, with the whole-grid moments' bits.
    cert = build_certificate(params, outcome.records[0].F, outcome.records[0].Fprime)

    target = resolve_output_dir(config)
    report_path = target / "report.json" if config.output.emit_report else None
    files: dict[str, Optional[str]] = {
        "csv": None, "report": None if report_path is None else str(report_path)}
    report = RunReport(
        config=config.to_dict(),
        status=outcome.status.value,
        t_final=outcome.t_final,
        t_detect=outcome.t_detect,
        certificate=dict(vars(cert)),
        worst=_worst_case(outcome, cert, params),
        sobolev=dict(zip(("H2", "H3"), diagnostics.sobolev_norms(outcome.records, params))),
        n_records=len(outcome.records),
        files=files,
        resolution=_resolution(outcome, params),
        outcome=outcome,
    )

    if config.output.emit_csv or config.output.emit_report:
        target.mkdir(parents=True, exist_ok=True)
    if config.output.emit_csv:
        csv_path = target / "records.csv"
        write_csv(csv_path, outcome, cert, params)
        files["csv"] = str(csv_path)
    report.perf = dict(n_steps=outcome.n_steps, dt=outcome.dt,
                       stepped_frac=outcome.stepped_frac, setup_s=t_run - t_setup,
                       stepping_s=t_output - t_run - outcome.record_s,
                       records_s=outcome.record_s, output_s=perf_counter() - t_output)
    if report_path is not None:
        report_path.write_text(json_text(report.to_dict()) + "\n", encoding="utf-8")
    return report
