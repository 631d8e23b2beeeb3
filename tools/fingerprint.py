"""Print one bit-level fingerprint per simulated run, for diffing two checkouts.

Runs every member of the simulating suite presets, writing their files
under a temporary directory, plus the ``blowup`` ladder at record stride 1.
Each run prints ``<name> <sha256>``, the hash over ``float.hex`` of the
record fields named in ``RECORD_FIELDS``, the status, ``t_final``, the bytes
of the final ``v`` and ``w``, the CSV bytes, and the report's ``sobolev``,
``worst``, ``certificate`` and ``resolution`` blocks; the ``cone`` preset's
cone maximum is printed as ``float.hex``.  Only these record fields and
``v`` and ``w`` of a state are read, so the same script runs on any
checkout that has them.  Usage, from the checkout root::

    python tools/fingerprint.py > new.txt   # then diff against an old output

Imports ``hyperburg`` from this checkout's ``src/``, not an installed copy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hyperburg.runner import execute_config  # noqa: E402
from hyperburg.suite import PRESET_NAMES, execute_preset, preset_configs  # noqa: E402

RECORD_FIELDS = ("t", "F", "Fprime", "E1", "E2", "E3", "sup_norm", "support_left",
                 "support_right", "schwartz_gap", "half_int_v2", "int_vxt2", "int_vxtt2",
                 "int_vxxt2")
REPORT_BLOCKS = ("sobolev", "worst", "certificate", "resolution")


def _hexed(x):
    """``x`` with every float replaced by its ``float.hex``, for exact JSON."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hexed(v) for v in x]
    return x


def fingerprint(report) -> str:
    outcome = report.outcome
    h = hashlib.sha256()
    for rec in outcome.records:
        h.update(" ".join(float(getattr(rec, name)).hex() for name in RECORD_FIELDS).encode())
    h.update(f"{outcome.status.value} {float(outcome.t_final).hex()}".encode())
    h.update(outcome.final_state.v.tobytes())
    h.update(outcome.final_state.w.tobytes())
    h.update(Path(report.files["csv"]).read_bytes())
    blocks = {name: getattr(report, name) for name in REPORT_BLOCKS}
    h.update(json.dumps(_hexed(blocks), sort_keys=True).encode())
    return h.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in PRESET_NAMES:
            run = execute_preset(name, root)
            for config, report in zip(run.configs, run.reports):
                print(Path(config.output.directory).relative_to(root), fingerprint(report))
            if run.cone is not None:
                print(f"{name} cone_max {run.cone.value.hex()}")
        for config in preset_configs("blowup", root / "stride1"):
            report = execute_config(dataclasses.replace(config, record_stride=1))
            print(Path(config.output.directory).relative_to(root), fingerprint(report))


if __name__ == "__main__":
    main()
