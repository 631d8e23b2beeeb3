"""Correctness checks applied to every workload iteration.

Each check counts one attempt per sample it judges and, through
``Tally.guard``, one more attempt for its sample count: a check that saw
no samples fails instead of passing vacuously.  ``failed / attempted`` is
the benchmark's failure fraction.

The checks read what the program reports (``RunReport`` fields, the
record series in ``report.outcome.records`` and ``SuiteCheck`` results)
and never call back into the package, so they judge the program without
trusting its own aggregation where a recount is cheap.
"""

from __future__ import annotations

import math

SCHWARTZ_REL_TOL = -1e-10
GRONWALL_REL_TOL = -1e-8
COMPARISON_REL_TOL = -1e-6
REFINE_GAP_REL = 0.05
DRIFT_REL_TOL = 1e-6

# Final-record fields compared against the committed decay reference.
DRIFT_FIELDS = ("F", "Fprime", "E1", "E2", "E3", "half_int_v2", "sup_norm")


class Tally:
    """Attempted and failed check counts, with the first failure messages."""

    MAX_MESSAGES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(f"{name}: {detail}" if detail else name)
        return ok

    def guard(self, name: str, samples: int) -> bool:
        """Vacuity guard: fail when a check judged zero samples."""
        return self.check(f"{name}: sample count", samples > 0, "no samples")


def uniform_triples(times) -> int:
    """Consecutive record triples with equal spacing, as the identity uses.

    Same rule as the package's moment-identity residual: spacing equal to
    the first gap within 1e-9 relative.
    """
    if len(times) < 3:
        return 0
    dt = times[1] - times[0]
    count = 0
    for i in range(1, len(times) - 1):
        if abs((times[i] - times[i - 1]) - dt) > 1e-9 * dt:
            continue
        if abs((times[i + 1] - times[i]) - dt) > 1e-9 * dt:
            continue
        count += 1
    return count


def _feasible(report) -> bool:
    return report.certificate.get("eps_interval") is not None


def check_status(tally: Tally, reports) -> None:
    """No run ends in numerical failure."""
    for r in reports:
        tally.check("status", r.status != "numerical_failure", f"status {r.status}")
    tally.guard("status", len(reports))


def check_schwartz(tally: Tally, reports) -> None:
    """Every record satisfies schwartz_gap / (1 + F^2) >= -1e-10."""
    records = 0
    for r in reports:
        records += r.n_records
        gap = r.worst["schwartz_gap_rel"]
        tally.check("schwartz_gap_rel", gap >= SCHWARTZ_REL_TOL, f"{gap:.3e}")
    tally.guard("schwartz_gap_rel", records)


def check_gronwall(tally: Tally, reports) -> None:
    """Completed runs keep the exponential energy bound to -1e-8 E1(0)."""
    completed = [r for r in reports if r.status == "completed"]
    for r in completed:
        margin = r.worst["gronwall_margin_rel"]
        tally.check(
            "gronwall_margin_rel",
            margin is not None and margin >= GRONWALL_REL_TOL,
            f"{margin!r}",
        )
    tally.guard("gronwall_margin_rel", len(completed))


def check_comparison(tally: Tally, reports) -> None:
    """F >= G to -1e-6 (1 + G) wherever a certificate is feasible."""
    feasible = [r for r in reports if _feasible(r)]
    for r in feasible:
        margin = r.worst["comparison_margin_rel"]
        tally.check(
            "comparison_margin_rel",
            margin is not None and margin >= COMPARISON_REL_TOL,
            f"{margin!r}",
        )
    tally.guard("comparison_margin_rel", len(feasible))


def check_identity_coverage(tally: Tally, reports) -> int:
    """The moment-identity check covers at least one uniform triple.

    A run with four or more records was stepped past two full record
    strides, so at fixed dt it holds a uniform triple; if none is found
    the identity residual it reports checked nothing and the run fails.
    A three-record run whose last record is off the stride holds no
    uniform triple under any scheme; it is counted, not failed, and
    returned so the caller can report it.  The workload fails when its
    runs hold no triple at all.
    """
    total = 0
    short_vacuous = 0
    for r in reports:
        times = [rec.t for rec in r.outcome.records]
        n = uniform_triples(times)
        total += n
        if len(times) >= 4:
            tally.check("identity triples", n > 0, f"{len(times)} records, 0 triples")
        elif n == 0:
            short_vacuous += 1
    tally.guard("identity triples", total)
    return short_vacuous


def check_refinement(tally: Tally, reports, estimate) -> None:
    """Blow-up at every level; the last two detection times within 5%."""
    for r in reports:
        tally.check("refine: blowup at level", r.status == "blowup_detected", r.status)
    tally.guard("refine level pairs", max(len(reports) - 1, 0))
    if len(reports) >= 2:
        t_prev, t_last = reports[-2].t_final, reports[-1].t_final
        gap = abs(t_prev - t_last)
        tally.check(
            "refine: last two levels within 5%",
            gap < REFINE_GAP_REL * abs(t_last),
            f"{t_prev:.6f} vs {t_last:.6f}",
        )
    value, converged = estimate
    tally.check("refine: estimator converged", bool(converged), f"estimate {value!r}")


def check_theorem(tally: Tally, reports) -> None:
    """Every certificate-feasible run is detected blowing up by T*."""
    feasible = [r for r in reports if _feasible(r)]
    for r in feasible:
        t_star = r.certificate["T_star"]
        ok = (
            r.status == "blowup_detected"
            and t_star is not None
            and r.t_final <= t_star
        )
        tally.check("theorem: blow-up by T*", ok, f"{r.status} at {r.t_final} vs T* {t_star}")
    tally.guard("theorem feasible points", len(feasible))


def check_suite(tally: Tally, preset: str, suite_checks) -> None:
    """Every assertion of the preset passes."""
    for c in suite_checks:
        tally.check(f"suite {preset}", bool(c.passed), f"{c.name}: {c.detail}")
    tally.guard(f"suite {preset}", len(suite_checks))


def check_drift(tally: Tally, record, reference: dict) -> float:
    """Final decay record within 1e-6 relative of the committed reference.

    Returns the largest relative deviation over the reference's fields.
    """
    worst = 0.0
    compared = 0
    for key in DRIFT_FIELDS:
        if key not in reference:
            continue
        ref = reference[key]
        compared += 1
        dev = abs(getattr(record, key) - ref) / (abs(ref) if ref != 0.0 else 1.0)
        worst = max(worst, dev if math.isfinite(dev) else math.inf)
    if compared:
        tally.check("record drift", worst <= DRIFT_REL_TOL, f"max relative drift {worst:.3e}")
    tally.guard("record drift fields", compared)
    return worst
