"""Time two checkouts against each other in one process, run by run.

    python tools/interleave.py OLD NEW [--rounds R] [--seed S] [--groups G,...]

OLD and NEW are checkout roots holding ``src/hyperburg``.  Each tree's
package is copied into a temporary directory under its own name
(``hb_old``, ``hb_new``) and both are imported into this process, so
the two see the same host at the same moment: host speed drifts by up to
2x over minutes, far more than the differences worth measuring, and two
benchmark runs minutes apart cannot tell them apart.

Every round runs the units of each group with the two trees alternating
unit by unit, the tree that goes first swapping every round.  The units
are those of the benchmark's workloads (``perfbench/workloads.py``):

- ``sweep``: the 512 seeded sweep points, each ``config_from_dict`` plus
  ``execute_config``;
- ``decay``: the ``decay`` run of ``decay-refine``;
- ``refine``: its blow-up levels, n = 2048 ... 16384;
- ``suite``: the suite presets the benchmark runs.

For each group the script prints, over the rounds, the median of the
ratio new/old of the median unit time and of the total time, each with
the interquartile range of the per-round ratios (inclusive quartiles) and
the number of rounds in which the new tree was faster.  A ratio whose
range holds 1 is unresolved: the rounds disagree on which tree is faster,
and the trees cannot be told apart at that many rounds.  A group of at
most PER_UNIT units also prints each unit's median ratio new/old with its
win count, so one level of ``refine`` shows by itself.  The ``sweep``,
``decay`` and ``refine`` groups also print the mean number of record
flushes per unit (``perf["record_batches"]`` of the unit's report) of each
tree, and each tree's median per unit, over every unit of every round, of
the report's ``perf`` phases ``PHASES``, and for ``sweep`` of the unit's
``config_from_dict`` as well; so a saving shows in the phase that holds
it.  A ratio below 1 means the new tree is faster.  Files the runs write
go to the temporary directory, and nothing is written under ``perfbench/``.

The two trees share one process, and so one allocator and one resident
set: a ratio here cannot show what a change does to allocation or to
memory.  The ``certificate-oracle`` preset's unchunked eps scan (one
100,000-element pass in place of ``suite.SCAN_CHUNK`` pieces) reads faster
here, yet raised ``sweep-suite`` ``wall_s`` and ``peak_rss_mb`` in fresh
benchmark processes (see CHANGES.md).  A change to allocation sizes needs
pairs of ``perfbench/run.py`` runs.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# As the benchmark does, before numpy is first imported.
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
sys.dont_write_bytecode = True  # keep perfbench/ and the checkouts clean

ROOT = Path(__file__).resolve().parents[1]
GROUPS = ("sweep", "decay", "refine", "suite")
# Groups whose units return a run report, whose perf block counts flushes
# and times the phases of a run.
RUNS = ("sweep", "decay", "refine")
PHASES = ("setup_s", "stepping_s", "records_s", "output_s")
# The phase a sweep unit spends outside execute_config, which it adds to perf.
PARSE = "config_from_dict"
# Groups of at most this many units print a line per unit.
PER_UNIT = 8


def load(checkout: Path, name: str, into: Path):
    """Import ``checkout``'s ``src/hyperburg`` as the package ``name``."""
    source = checkout / "src" / "hyperburg"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"interleave: no package source at {source}")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def units(hb, group: str, seed: int, out: Path) -> list:
    """The group's units for package ``hb``: (label, zero-argument callable)."""
    import workloads

    if group == "sweep":
        return [(f"point {i}", lambda doc=doc: parse_and_run(hb, doc))
                for i, doc in enumerate(workloads.sweep_docs(seed))]
    if group == "decay":
        config = workloads.Decay().build(hb, seed, out)
        return [("decay", lambda: hb.execute_config(config))]
    if group == "refine":
        return [(f"n={config.grid.n}", lambda config=config: hb.execute_config(config))
                for config in workloads.BlowupRefine().build(hb, seed, out)]
    listed = set(hb.suite.PRESET_NAMES)
    return [(name, lambda name=name: hb.run_suite(name))
            for name in workloads.SUITE_PRESETS if name in listed]


def parse_and_run(hb, doc):
    """``execute_config(config_from_dict(doc))``, the parse's seconds in its perf."""
    t0 = perf_counter()
    config = hb.config_from_dict(doc)
    parse_s = perf_counter() - t0
    report = hb.execute_config(config)
    report.perf[PARSE] = parse_s
    return report


def ratio_line(label: str, ratios: list[float]) -> str:
    """``label``, the median of ``ratios``, their interquartile range and the
    count of ratios below 1 (rounds in which the new tree was faster)."""
    wins = sum(r < 1.0 for r in ratios)
    q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                 if len(ratios) > 1 else ratios * 3)
    return (f"{label} {statistics.median(ratios):.3f} "
            f"(IQR {q1:.3f}-{q3:.3f}, {wins}/{len(ratios)} faster)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=15015)
    parser.add_argument("--groups", default=",".join(GROUPS),
                        help=f"comma-separated subset of {','.join(GROUPS)}")
    args = parser.parse_args(argv)
    groups = args.groups.split(",")
    unknown = set(groups) - set(GROUPS)
    if unknown or args.rounds < 1:
        parser.error(f"unknown groups {sorted(unknown)}" if unknown else "need --rounds >= 1")

    sys.path.insert(0, str(ROOT / "perfbench"))
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp / "pkgs"))
        (tmp / "pkgs").mkdir()
        trees = [load(args.old.resolve(), "hb_old", tmp / "pkgs"),
                 load(args.new.resolve(), "hb_new", tmp / "pkgs")]
        print(f"# old {args.old}  new {args.new}  rounds {args.rounds}  seed {args.seed}")
        for group in groups:
            work = [units(hb, group, args.seed, tmp / f"{side}-{group}")
                    for side, hb in zip(("old", "new"), trees)]
            labels = [label for label, _ in work[0]]
            median_ratios, total_ratios, seconds = [], [], [[], []]
            unit_ratios = [[] for _ in labels]
            flushes = [[], []]
            phases = [{}, {}]  # per tree, each phase's seconds over units and rounds
            for r in range(args.rounds):
                times = [[], []]
                order = (0, 1) if r % 2 == 0 else (1, 0)
                for pair in zip(*work):
                    for side in order:
                        t0 = perf_counter()
                        result = pair[side][1]()
                        times[side].append(perf_counter() - t0)
                        if group in RUNS:
                            if r == 0:
                                flushes[side].append(result.perf.get("record_batches", math.nan))
                            for phase in (*PHASES, PARSE):
                                if phase in result.perf:
                                    phases[side].setdefault(phase, []).append(result.perf[phase])
                old, new = times
                for ratios, o, n in zip(unit_ratios, old, new):
                    ratios.append(n / o)
                median_ratios.append(statistics.median(new) / statistics.median(old))
                total_ratios.append(sum(new) / sum(old))
                seconds[0].append(statistics.median(old))
                seconds[1].append(statistics.median(new))
            print(f"{group:<7} units {len(work[0]):>3}  median unit "
                  f"{1e3 * statistics.median(seconds[0]):.3f} -> "
                  f"{1e3 * statistics.median(seconds[1]):.3f} ms  "
                  + ratio_line("median-unit ratio", median_ratios) + "  "
                  + ratio_line("total ratio", total_ratios), flush=True)
            if group in RUNS:
                print(f"  flushes per unit {statistics.mean(flushes[0]):.3f} -> "
                      f"{statistics.mean(flushes[1]):.3f}", flush=True)
                print("  median per unit, us:" + "".join(
                    f"  {phase} {1e6 * statistics.median(phases[0][phase]):.1f} -> "
                    f"{1e6 * statistics.median(phases[1][phase]):.1f}"
                    for phase in (*PHASES, PARSE) if phase in phases[0] and phase in phases[1]),
                    flush=True)
            if len(labels) <= PER_UNIT:
                for label, ratios in zip(labels, unit_ratios):
                    print(f"  {label:<20} " + ratio_line("ratio", ratios), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
