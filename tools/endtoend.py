"""Print end-to-end wall times, one ``name seconds`` line each.

Each time is the median over REPEATS fresh processes: ``import
hyperburg.cli``; ``hyperburg run`` on the ``blowup`` preset's finest member
config and on the ``smalldata`` config; ``hyperburg suite P`` for each suite
preset P.  Configs and run outputs go to a temporary directory.  Usage:
``python tools/endtoend.py``.  Imports ``hyperburg`` from this checkout's
``src/``, not an installed copy.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from hyperburg.suite import PRESET_NAMES, preset_configs  # noqa: E402

REPEATS = 5
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def median_wall(args: list[str], status: int) -> float:
    """Median wall time of REPEATS fresh processes that must exit with ``status``."""
    walls = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        done = subprocess.run([sys.executable, *args], env=ENV, capture_output=True)
        walls.append(perf_counter() - t0)
        if done.returncode != status:
            raise SystemExit(f"{args} exited {done.returncode}, not {status}: {done.stderr}")
    return statistics.median(walls)


def main() -> None:
    cli = ["-m", "hyperburg.cli"]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        items = [("import", ["-c", "import hyperburg.cli"], 0)]
        # `hyperburg run` exits 2 on a detected blow-up and 0 on completion.
        for name, config, status in (("run-blowup", preset_configs("blowup", root)[-1], 2),
                                     ("run-smalldata", preset_configs("smalldata", root)[0], 0)):
            path = root / f"{name}.json"
            path.write_text(json.dumps(config.to_dict()))
            items.append((name, [*cli, "run", "--config", str(path)], status))
        items += [(f"suite-{p}", [*cli, "suite", p], 0) for p in PRESET_NAMES]
        for name, args, status in items:
            print(f"{name} {median_wall(args, status):.3f}", flush=True)


if __name__ == "__main__":
    main()
