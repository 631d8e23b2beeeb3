"""Print end-to-end wall time and peak memory, one ``name seconds peak_mb`` line each.

Each entry is a fresh process per repeat: ``import hyperburg.cli``;
``hyperburg run`` on the ``blowup`` preset's finest member config and on the
``smalldata`` config; ``hyperburg suite P`` for each suite preset P.
``seconds`` is the median wall time over REPEATS processes and ``peak_mb``
the median of each process's own peak resident set, its ``ru_maxrss`` from
``os.wait4`` in units of 2**20 bytes (as perfbench's ``peak_rss_mb``).
Configs and run outputs go to a temporary directory.  Usage: ``python
tools/endtoend.py``.  Imports ``hyperburg`` from this checkout's ``src/``,
not an installed copy.
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


def run_once(args: list[str], status: int = 0) -> tuple[float, float]:
    """(wall seconds, peak RSS in MiB) of one fresh ``python ARGS`` process,
    which must exit with ``status``.  The peak is the child's own, from
    ``os.wait4``, not the maximum over every child this process has reaped."""
    with tempfile.TemporaryFile() as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=ENV,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, wait_status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        # Popen must know the child is reaped, or it waits for it again.
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        if proc.returncode != status:
            err.seek(0)
            raise SystemExit(f"{args} exited {proc.returncode}, not {status}: {err.read()}")
    return wall, usage.ru_maxrss / 1024.0


def entry(name: str, args: list[str], status: int = 0) -> str:
    """``name seconds peak_mb``: medians over REPEATS runs of :func:`run_once`."""
    walls, peaks = zip(*(run_once(args, status) for _ in range(REPEATS)))
    return f"{name} {statistics.median(walls):.3f} {statistics.median(peaks):.1f}"


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
            print(entry(name, args, status), flush=True)


if __name__ == "__main__":
    main()
