"""Command-line interface.

Subcommands:

* ``run --config FILE [--out DIR]``: execute one configured run; --out DIR
  replaces the configured output directory, and the report echoes DIR.  Exit
  status encodes the outcome: 0 completed, 2 blow-up detected, 3 numerical
  failure, 1 usage or validation error.
* ``thresholds --mu --nu --L --F0 --F1``: print the certified-blow-up
  moment thresholds and the strict verdict as JSON.
* ``certificate --mu --nu --L --F0 --F1``: print the full certificate
  (eps interval, chosen eps, T*) as JSON.
* ``suite PRESET [--out DIR]``: run a named verification preset; one
  PASS/FAIL line per assertion; exit 0 iff all pass.
* ``convergence --config FILE --levels K [--out DIR]``: refinement study of
  the blow-up detection time on the nested ladder n_k = (n0 - 1) 2^k + 1,
  K >= 2; prints each level's time, the <5% convergence flag, the observed
  order and the Richardson estimate t_inf +- t_inf_error (null below 3) as JSON.
  Level k writes to ``<config directory>-n<n_k>``; --out DIR moves it under DIR.

The HYPERBURG_OUT environment variable, when set, roots all relative
output directories.  Numeric output is round-trip double precision, and
every JSON document printed is strict JSON: non-finite numbers are null.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .certificate import build_certificate
from .config import load_config, refinement_ladder
from .errors import HyperburgError
from .model import ModelParams, moment_thresholds
from .runner import execute_config, json_text
from .solver import Refinement, RunStatus
from .suite import PRESET_NAMES, run_suite

__all__ = ["main", "entry"]

_STATUS_EXIT = {
    RunStatus.COMPLETED.value: 0,
    RunStatus.BLOWUP_DETECTED.value: 2,
    RunStatus.NUMERICAL_FAILURE.value: 3,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperburg",
        description=(
            "Simulate the hyperbolic Burgers equation "
            "mu v_tt + v_t + v v_x = nu v_xx and verify its propagation, "
            "moment, energy, and blow-up certificates numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", default=None, help="output directory override")

    def add_moment_args(p):
        p.add_argument("--mu", type=float, required=True)
        p.add_argument("--nu", type=float, required=True)
        p.add_argument("--L", type=float, required=True)
        p.add_argument("--F0", type=float, required=True, help="initial moment int x v dx")
        p.add_argument("--F1", type=float, required=True, help="initial moment int x v_t dx")

    p_thr = sub.add_parser("thresholds", help="print moment thresholds and verdict")
    add_moment_args(p_thr)

    p_cert = sub.add_parser("certificate", help="print the blow-up certificate")
    add_moment_args(p_cert)

    p_suite = sub.add_parser("suite", help="run a verification preset")
    p_suite.add_argument("preset", help=f"one of: {', '.join(PRESET_NAMES)}")
    p_suite.add_argument("--out", default=None, help="output root for member runs")

    p_conv = sub.add_parser("convergence", help="blow-up time refinement study")
    p_conv.add_argument("--config", required=True, help="base JSON config file")
    p_conv.add_argument("--levels", type=int, required=True,
                        help="number of refinement levels (n doubles per level)")
    p_conv.add_argument("--out", default=None, help="output root override")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.out is not None:
        config = replace(config, output=replace(config.output, directory=args.out))
    report = execute_config(config)
    print(json_text(report.to_dict()))
    return _STATUS_EXIT[report.status]


def _cmd_thresholds(args) -> int:
    params = ModelParams(args.mu, args.nu, args.L)
    f0_min, f1_min = moment_thresholds(params)
    met = build_certificate(params, args.F0, args.F1).thresholds_met
    print(json_text({"F0_min": f0_min, "F1_min": f1_min, "F0": args.F0, "F1": args.F1,
                     "thresholds_met": met}))
    return 0


def _cmd_certificate(args) -> int:
    params = ModelParams(args.mu, args.nu, args.L)
    print(json_text(dict(vars(build_certificate(params, args.F0, args.F1)))))
    return 0


def _cmd_suite(args) -> int:
    checks = run_suite(args.preset, out_root=args.out)
    for check in checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    failed = sum(not c.passed for c in checks)
    print(f"{len(checks) - failed}/{len(checks)} assertions passed")
    return 0 if failed == 0 else 1


def _cmd_convergence(args) -> int:
    base = load_config(args.config)
    if args.out is not None:
        directory = Path(args.out) / Path(base.output.directory).name
        base = replace(base, output=replace(base.output, directory=str(directory)))
    ladder = refinement_ladder(base, args.levels)
    reports = [execute_config(c) for c in ladder]
    ref = Refinement(tuple(c.grid.n for c in ladder), tuple(r.t_detect for r in reports))
    doc: dict = {"levels": [{"n": n, "status": r.status, "t_detect": r.t_detect}
                            for n, r in zip(ref.n, reports)]}
    missed = None in ref.t_detect
    if missed:
        doc["error"] = "not every level detected blow-up; no estimate"
    else:
        doc.update(t_m_estimate=ref.t_detect[-1], converged=ref.converged, order=ref.order,
                   t_inf=ref.t_inf, t_inf_error=ref.t_inf_error)
    print(json_text(doc))
    return 1 if missed else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "thresholds": _cmd_thresholds,
        "certificate": _cmd_certificate,
        "suite": _cmd_suite,
        "convergence": _cmd_convergence,
    }
    try:
        return handlers[args.command](args)
    except HyperburgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
