"""Print one bit-level fingerprint per simulated run, for diffing two checkouts.

Runs every member of the simulating suite presets, writing their files
under a temporary directory, plus the ``blowup`` ladder at record stride 1
and two certified blow-up runs shaped like a point of the benchmark sweep:
``c2`` at mu = 0.25 (c = 2) and ``mu07`` at mu = 0.7, nu = 1.3, where 1/mu
is inexact, so that ``--compare`` shows, field by field, what rounding
1/mu changes in records; every preset has c = 1.  It also prints ``step <sha256>``
over the bytes of one whole-grid ``step_rk4`` from a seeded random state
that is nonzero at the grid ends, as no run's state is, ``record <sha256>``
over the ``float.hex`` of the ``RECORD_FIELDS`` of ``compute_record`` on that
state, the only record here whose span ends at the grid ends, and ``cli <sha256>``
over the stdout and exit codes of ``hyperburg certificate`` and
``hyperburg thresholds``, run in-process on the inputs ``CLI_MOMENTS``.
Each run prints ``<name> <sha256>``, the hash over ``float.hex`` of the
record fields named in ``RECORD_FIELDS``, the status, ``t_final``, the bytes
of the final ``v`` and ``w``, the CSV bytes, the report's ``sobolev``,
``worst``, ``certificate`` and ``resolution`` blocks, and the ``report.json``
bytes without their ``perf`` block, with the temporary directory's path
replaced by ``ROOT``; the ``cone`` preset's cone maximum is printed as
``float.hex``.  Each preset also prints ``<preset> suite <sha256>``, the hash
over the ``passed``, ``name`` and ``detail`` of every ``check_preset`` result
for the run it executed, so the script covers ``hyperburg suite`` output too.
Only these record fields and ``v`` and ``w`` of a state are read, so the
same script runs on any checkout that has them.  Usage, from the checkout
root::

    python tools/fingerprint.py > new.txt   # then diff against an old output

``--dump FILE`` also writes every record of those runs, as ``float.hex``,
to the JSON file FILE, together with the records of the ``blowup``
ladder's levels above 4097 nodes (8193 to 65537, stride 1), whose record
integrals split at a DOT_SPLIT column.  ``--compare OLD NEW`` reads two such
dumps, say from two checkouts, and prints the worst relative drift
|new - old| / |old| (|new - old| where old is 0) of each record field over
the records both dumps hold, then the worst drift of each run.  Equal
``float.hex`` strings drift 0, NaN included; a NaN or an infinity on one side
only drifts inf, and so does a run whose record counts differ or that only
one dump holds.  The command exits 1 when any drift is nonzero, else 0::

    python tools/fingerprint.py --dump old.json      # in the old checkout
    python tools/fingerprint.py --dump new.json      # in the new one
    python tools/fingerprint.py --compare old.json new.json

``--against OLD`` does all three in one command, OLD being the root of
another checkout: it runs ``OLD/tools/fingerprint.py`` and this script,
each with ``--dump``, in subprocesses, prints each fingerprint line that
differs (``- `` for OLD's, ``+ `` for this one's), then the ``--compare``
drift of the two dumps, and exits 1 on any difference, else 0::

    python tools/fingerprint.py --against ../old-checkout

Imports ``hyperburg`` from this checkout's ``src/``, not an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import difflib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from hyperburg.cli import main as cli_main  # noqa: E402
from hyperburg.config import config_from_dict, refinement_ladder  # noqa: E402
from hyperburg.diagnostics import compute_record  # noqa: E402
from hyperburg.model import ModelParams  # noqa: E402
from hyperburg.runner import execute_config  # noqa: E402
from hyperburg.solver import Grid, GridState, stable_dt, step_rk4  # noqa: E402
from hyperburg.suite import (  # noqa: E402
    PRESET_NAMES, check_preset, execute_preset, preset_configs)

RECORD_FIELDS = ("t", "F", "Fprime", "E1", "E2", "E3", "sup_norm", "support_left",
                 "support_right", "schwartz_gap", "half_int_v2", "int_vxt2", "int_vxtt2",
                 "int_vxxt2")
REPORT_BLOCKS = ("sobolev", "worst", "certificate", "resolution")
# n = 512 on [-8, 8] to t = 2 at stride 8, like a sweep point.  F0 and F1 are
# 1.125 and 1.875 times the thresholds (F0_min, F1_min) = (128/3, 1024/3),
# where the eps interval is not empty, so the run is certified.
C2_RUN = {
    "params": {"mu": 0.25, "nu": 1.0, "L": 1.0},
    "grid": {"xmin": -8.0, "xmax": 8.0, "n": 512},
    "cfl": 0.4,
    "t_end": 2.0,
    "record_stride": 8,
    "ic": {"family": "odd_bump", "F0_target": 48.0, "F1_target": 640.0},
}
# The same shape at mu = 0.7, nu = 1.3 (c = 1.36): F0 and F1 are 1.13 and
# 1.88 times the thresholds (48.87, 266.38), inside a nonempty eps interval.
MU07_RUN = {**C2_RUN, "params": {"mu": 0.7, "nu": 1.3, "L": 1.0},
            "ic": {"family": "odd_bump", "F0_target": 55.0, "F1_target": 500.0}}
# (mu, F0, F1) at nu = L = 1 for the certificate and thresholds commands: the
# certified blowup data; a pair past both thresholds with an empty eps
# interval; the C2_RUN moments at c = 2; a negative F0.
CLI_MOMENTS = ((1.0, 40.0, 200.0), (1.0, 100.0, 200.0), (0.25, 48.0, 640.0),
               (1.0, -3.0, 200.0))
# The ``perf`` block of report.json: the only run-to-run varying bytes.
PERF_BLOCK = re.compile(r',\n  "perf": \{[^}]*\}')
# The dump's extra levels: the blowup ladder from 1025 nodes, up to 65537.
LARGE_LEVELS = 7


def _hexed(x):
    """``x`` with every float replaced by its ``float.hex``, for exact JSON."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hexed(v) for v in x]
    return x


def record_hex(rec) -> list[str]:
    """The ``float.hex`` of each of the record's RECORD_FIELDS."""
    return [float(getattr(rec, name)).hex() for name in RECORD_FIELDS]


def fingerprint(report, root: Path) -> str:
    outcome = report.outcome
    h = hashlib.sha256()
    for rec in outcome.records:
        h.update(" ".join(record_hex(rec)).encode())
    h.update(f"{outcome.status.value} {float(outcome.t_final).hex()}".encode())
    h.update(outcome.final_state.v.tobytes())
    h.update(outcome.final_state.w.tobytes())
    h.update(Path(report.files["csv"]).read_bytes())
    blocks = {name: getattr(report, name) for name in REPORT_BLOCKS}
    h.update(json.dumps(_hexed(blocks), sort_keys=True).encode())
    written, blocks_cut = PERF_BLOCK.subn("", Path(report.files["report"]).read_text("utf-8"))
    if blocks_cut != 1:
        raise SystemExit(f"fingerprint: no single perf block in {report.files['report']}")
    h.update(written.replace(str(root), "ROOT").encode())
    return h.hexdigest()


def seeded_state() -> tuple[ModelParams, GridState]:
    """A seeded random state, nonzero at both grid ends, at mu = 0.7,
    nu = 1.3 (c != 1)."""
    grid = Grid(-4.0, 4.0, 257)
    u = np.random.default_rng(2024).standard_normal((2, grid.n))
    return ModelParams(0.7, 1.3, 1.0), GridState(grid, 0.0, u)


def step_fingerprint() -> str:
    """sha256 of one whole-grid step from the seeded state."""
    params, state = seeded_state()
    new = step_rk4(state, params, stable_dt(state.grid, params, 0.4))
    h = hashlib.sha256(float(new.t).hex().encode())
    h.update(new.v.tobytes())
    h.update(new.w.tobytes())
    return h.hexdigest()


def record_fingerprint() -> str:
    """sha256 of the record fields of ``compute_record`` on the seeded state."""
    params, state = seeded_state()
    return hashlib.sha256(" ".join(record_hex(compute_record(state, params))).encode()).hexdigest()


def cli_fingerprint() -> str:
    """sha256 of the stdout and exit codes of ``certificate`` and ``thresholds``
    on every input of CLI_MOMENTS."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for mu, f0, f1 in CLI_MOMENTS:
            for command in ("certificate", "thresholds"):
                args = ["--mu", mu, "--nu", 1.0, "--L", 1.0, "--F0", f0, "--F1", f1]
                print("exit", cli_main([command, *map(str, args)]))
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def suite_fingerprint(run) -> str:
    """sha256 of the passed flag, name and detail of each check of ``run``."""
    h = hashlib.sha256()
    for check in check_preset(run):
        h.update(f"{check.passed}\n{check.name}\n{check.detail}\n".encode())
    return h.hexdigest()


def record_rows(report) -> list[list[str]]:
    return [record_hex(rec) for rec in report.outcome.records]


def fingerprint_runs(dump: dict | None) -> None:
    """Print the fingerprints; with ``dump``, also fill it with every run's records."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        def emit(config, report):
            name = str(Path(config.output.directory).relative_to(root))
            print(name, fingerprint(report, root), flush=True)
            if dump is not None:
                dump[name] = record_rows(report)

        for name in PRESET_NAMES:
            run = execute_preset(name, root)
            for config, report in zip(run.configs, run.reports):
                emit(config, report)
            if run.observer is not None:
                print(f"{name} cone_max {run.observer.value.hex()}")
            print(name, "suite", suite_fingerprint(run), flush=True)
        for config in preset_configs("blowup", root / "stride1"):
            emit(config, execute_config(dataclasses.replace(config, record_stride=1)))
        for name, doc in (("c2", C2_RUN), ("mu07", MU07_RUN)):
            output = {"directory": str(root / name), "emit_csv": True, "emit_report": True}
            config = config_from_dict({**doc, "output": output})
            emit(config, execute_config(config))
        print("step", step_fingerprint(), flush=True)
        print("record", record_fingerprint(), flush=True)
        print("cli", cli_fingerprint(), flush=True)
        if dump is not None:
            base = preset_configs("blowup", root / "large")[0]
            for config in refinement_ladder(base, LARGE_LEVELS)[3:]:
                report = execute_config(dataclasses.replace(config, record_stride=1))
                dump[str(Path(config.output.directory).relative_to(root))] = record_rows(report)


def relative_drift(old: float, new: float) -> float:
    """|new - old| / |old|, or |new - old| where old is 0 (as perfbench's record drift)."""
    return abs(new - old) / (abs(old) if old != 0.0 else 1.0)


def field_drift(old: str, new: str) -> float:
    """Drift between two ``float.hex`` strings: 0 when they are equal, else
    the relative drift, or inf where that is NaN (a NaN or an infinity on one
    side only)."""
    if old == new:
        return 0.0
    d = relative_drift(float.fromhex(old), float.fromhex(new))
    return math.inf if math.isnan(d) else d


def compare(old_path: str, new_path: str) -> int:
    """Print the drift between two dumps; 1 when any is nonzero, else 0."""
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    worst = {name: (0.0, None) for name in RECORD_FIELDS}
    per_run = {}
    for run in sorted(old.keys() & new.keys()):
        a, b = old[run], new[run]
        run_worst = 0.0 if len(a) == len(b) else math.inf
        for row_a, row_b in zip(a, b):
            for name, x, y in zip(RECORD_FIELDS, row_a, row_b):
                d = field_drift(x, y)
                run_worst = max(run_worst, d)
                if d > worst[name][0]:
                    worst[name] = (d, run)
        per_run[run] = (run_worst, len(a), len(b))
    only = sorted(old.keys() ^ new.keys())
    print(f"# worst relative drift per record field over {len(per_run)} runs")
    for name, (d, run) in worst.items():
        print(f"{name} {d:.3e}" + (f" {run}" if run else ""))
    print("# worst relative drift per run (records old new)")
    for run, (d, n_old, n_new) in per_run.items():
        print(f"{run} {d:.3e} {n_old} {n_new}")
    for run in only:
        print(f"{run} only in {old_path if run in old else new_path}")
    drifted = only + [run for run, (d, _, _) in per_run.items() if d != 0.0]
    print(f"# {len(drifted)} of {len(per_run) + len(only)} runs drift")
    return 1 if drifted else 0


def against(old: str) -> int:
    """Fingerprint and dump ``OLD/tools/fingerprint.py`` and this script in
    subprocesses; print the fingerprint lines that differ, then the drift of
    the dumps.  1 on any difference, else 0."""
    outputs, dumps = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for side, script in (("old", Path(old, "tools", "fingerprint.py")),
                             ("new", Path(__file__).resolve())):
            dumps.append(str(Path(tmp, f"{side}.json")))
            out = subprocess.run([sys.executable, str(script), "--dump", dumps[-1]],
                                 capture_output=True, text=True, check=True)
            outputs.append(out.stdout.splitlines())
        changed = [line for line in difflib.ndiff(*outputs) if line[:2] in ("- ", "+ ")]
        print(f"# {len(changed)} fingerprint lines differ")
        for line in changed:
            print(line)
        drift = compare(*dumps)
    return 1 if changed or drift else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dump", metavar="FILE", help="also write every run's records to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print the record drift between two dumps, run nothing")
    parser.add_argument("--against", metavar="OLD",
                        help="fingerprint and dump OLD's checkout and this one, print the difference")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.against:
        return against(args.against)
    dump = None if args.dump is None else {}
    fingerprint_runs(dump)
    if dump is not None:
        Path(args.dump).write_text(json.dumps(dump))
    return 0


if __name__ == "__main__":
    sys.exit(main())
