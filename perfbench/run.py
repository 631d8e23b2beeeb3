"""hyperburg benchmark: one workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout holding ``src/hyperburg``; the package is imported
from that source tree.  Workloads, metrics and bounds are listed in
``BENCHMARK.json``; ``perfbench/README.md`` explains them.

``--trace 0`` measures the end-to-end metrics with no tracing: set-up
time in fresh processes, then whole iterations for ``--seconds``.  Each
timing is reported at the reference host speed: raw seconds times
``REF_S / ref_kernel_s``, with ``micro.ref_kernel_s`` run after each
set-up probe and around each part of an iteration.  The host's speed
drifts by 10-40% over minutes; the raw medians are printed on detail lines.
``--trace 1`` times the layer table, then alternates untraced and traced
iterations for ``--seconds`` and reports the per-layer metrics.  Both
check every iteration's outputs.  Detail lines start with ``#``; the last
line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before numpy is imported, here and in probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

# micro and tracer import numpy, so they are imported only after the
# set-up probes' clock starts (see probe_setup).
import checks  # noqa: E402
from workloads import WORKLOADS, output_stats  # noqa: E402

SETUP_PROBES = 5
# Reference kernel seconds that define the reported speed: about its time
# on the 2-core Xeon host where the baseline was taken.
REF_S = 0.04
PROBE_TIMEOUT_S = 120
MIN_ITERATIONS = 3
MIN_TRACED = 2


def import_package():
    """Import hyperburg from this checkout's source tree, or exit non-zero."""
    init = SRC / "hyperburg" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no package source at {init.parent}")
    sys.path.insert(0, str(SRC))
    import hyperburg

    if Path(hyperburg.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported hyperburg from {hyperburg.__file__}, not {init}")
    return hyperburg


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def probe_setup(workload: str, seed: int) -> None:
    """Set-up time of a fresh process (import, then build and validate
    inputs), followed by one reference kernel run."""
    t0 = perf_counter()
    hb = import_package()
    WORKLOADS[workload].build(hb, seed, TMP_ROOT / "probe")
    setup_s = perf_counter() - t0
    import micro

    print(json.dumps({"setup_s": setup_s, "ref_s": micro.ref_kernel_s()}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    """SETUP_PROBES timed probes after one untimed probe that fills caches."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        if i:
            times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return times


def untraced(hb, wl, inputs, seconds, tally, reference, refs, setup_probes):
    import micro

    walls, scaled, p50s, p90s = [], [], [], []
    info = {}
    refs.append(micro.ref_kernel_s())
    deadline = perf_counter() + seconds
    while len(walls) < MIN_ITERATIONS or perf_counter() < deadline:
        it = wl.run(hb, inputs, after_part=lambda: refs.append(micro.ref_kernel_s()))
        # Each part at the speed of the reference runs just before and after it.
        bracket = refs[-len(it.parts) - 1:]
        speed = [2.0 * REF_S / (a + b) for a, b in zip(bracket, bracket[1:])]
        units = [u * f for part, f in zip(it.parts, speed) for u in part.units_s]
        walls.append(sum(it.part_walls))
        scaled.append(sum(w * f for w, f in zip(it.part_walls, speed)))
        p50s.append(quantile(units, 0.5))
        p90s.append(quantile(units, 0.9))
        info = wl.check(tally, it, reference)
    metrics = {
        "wall_s": statistics.median(scaled),
        "setup_s": statistics.median(p["setup_s"] * REF_S / p["ref_s"] for p in setup_probes),
        "run_ms.p50": 1e3 * statistics.median(p50s),
        "run_ms.p90": 1e3 * statistics.median(p90s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"raw wall_s n={len(walls)} median={statistics.median(walls):.4f} "
        f"min={min(walls):.4f} max={max(walls):.4f} (10 samples beyond p90 need n>=100)",
        f"raw setup_s probes={[round(p['setup_s'], 4) for p in setup_probes]}",
        f"ref_kernel_s min={min(refs):.4f} max={max(refs):.4f} (REF_S={REF_S})",
        f"run_ms per-iteration p50 over {len(p50s)} iterations of "
        f"{len(it.units_s)} calls each",
        f"info {json.dumps(info)}",
    ]
    return metrics, notes


def _layer_metrics(layers, its, durations, walls_traced, walls_plain, roots, io):
    """Per-layer metrics as medians over traced iterations."""

    def med(fn):
        return statistics.median(fn(layers[i], i) for i in its)

    def calls(name):
        return med(lambda L, i: L[name].calls)

    def self_s(*names):
        return med(lambda L, i: sum(L[n].self_ns for n in names) / 1e9)

    pde, step, rec = "operators.pde_rhs", "solver.step_rk4", "diagnostics.compute_record"
    step_us = sorted(d / 1e3 for d in durations.get(step, [])) or [0.0]
    m = {
        f"{pde}.calls": calls(pde),
        f"{pde}.self_s": self_s(pde),
        f"{pde}.ns_per_node": med(lambda L, i: ratio(L[pde].self_ns, L[pde].work)),
        f"{pde}.gbps_min": med(lambda L, i: ratio(32.0 * L[pde].work, L[pde].self_ns)),
        f"{pde}.calls_per_step": med(lambda L, i: ratio(L[pde].calls, L[step].calls)),
        f"{step}.calls": calls(step),
        f"{step}.self_s": self_s(step),
        f"{step}.p50_us": quantile(step_us, 0.5),
        f"{step}.p99_us": quantile(step_us, 0.99),
        f"{rec}.calls": calls(rec),
        f"{rec}.self_s": self_s(rec),
        "diagnostics.records_per_step": med(lambda L, i: ratio(L[rec].calls, L[step].calls)),
        "diagnostics.margins.self_s": self_s(
            "diagnostics.identity_residual", "diagnostics.gronwall_check_E1"),
        "certificate.g_closed_form.calls": calls("certificate.g_closed_form"),
        "runner.write_csv.us_per_row": med(
            lambda L, i: ratio(L["runner.write_csv"].self_ns / 1e3, io[i][1])),
        "runner.output.bytes": med(lambda L, i: io[i][0]),
        "trace.overhead_frac": statistics.median(walls_traced) / statistics.median(walls_plain) - 1.0,
        "trace.unattributed_s": statistics.median(
            w - roots[i] / 1e9 for i, w in zip(its, walls_traced)),
        "trace.wall_s": statistics.median(walls_traced),
    }
    for name in (
        "solver.integrate", "solver.sample_trajectory", "diagnostics.cone_max",
        "certificate.comparison_check", "certificate.build_certificate",
        "certificate.aux_ode_oracle", "initial_data.calibrated_profile",
        "initial_data.sample_initial_state", "config.config_from_dict",
        "runner.execute_config", "runner.write_csv", "suite.run_suite",
        "suite.epsilon_scan_oracle",
    ):
        m[f"{name}.self_s"] = self_s(name)
    return m


# Derived metrics that need more than their own prefix's target.
DEPENDS = {
    "diagnostics.records_per_step": ("diagnostics.compute_record", "solver.step_rk4"),
    "diagnostics.margins.self_s": ("diagnostics.identity_residual", "diagnostics.gronwall_check_E1"),
}


def traced(hb, wl, inputs, seconds, tally, reference, refs):
    import micro
    from tracer import Tracer

    start = perf_counter()
    table, absent, reasons = micro.layer_table(hb)
    tracer = Tracer()
    walls_plain, walls_traced, its, io = [], [], [], {}
    info = {}
    k = 0
    while len(walls_traced) < MIN_TRACED or perf_counter() < start + seconds:
        # Order untraced, traced, traced, untraced, ...: each pair of
        # iterations holds one of each, and neither always goes first.
        traced_turn = k % 4 in (1, 2)
        if k % 2 == 0:
            refs.append(micro.ref_kernel_s())
        if traced_turn:
            tracer.iteration = k
            tracer.install()
        try:
            t0 = perf_counter()
            it = wl.run(hb, inputs)
            wall = perf_counter() - t0
        finally:
            if traced_turn:
                tracer.uninstall()
        info = wl.check(tally, it, reference)
        if traced_turn:
            walls_traced.append(wall)
            its.append(k)
            io[k] = output_stats(it.reports)
        else:
            walls_plain.append(wall)
        k += 1
    layers, roots, durations = tracer.aggregate()
    metrics = _layer_metrics(layers, its, durations, walls_traced, walls_plain, roots, io)
    metrics.update(table)
    metrics["record_drift_rel"] = info.get("decay.record_drift_rel", 0.0)
    metrics["diagnostics.identity_vacuous_runs"] = sum(
        v for key, v in info.items() if key.endswith(".identity_vacuous_runs"))
    for target in tracer.absent:
        absent += [m for m in metrics if m.startswith(target + ".")]
    absent += [m for m, deps in DEPENDS.items() if all(d in tracer.absent for d in deps)]
    for key in absent:
        metrics[key] = 0.0
    notes = [
        f"traced iterations={len(walls_traced)} untraced={len(walls_plain)} spans={len(tracer.starts)}",
        f"absent {json.dumps(sorted(set(absent)))}",
        f"info {json.dumps(info)}",
    ] + [f"absent reason {r}" for r in reasons]
    return metrics, notes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.probe_setup and (args.seconds is None or args.seconds <= 0):
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reference = json.loads((HERE / "reference.json").read_text())["decay_final_record"]
    hb = import_package()
    setup_probes = [] if args.trace else measure_setup(args.workload, args.seed)
    wl = WORKLOADS[args.workload]
    tmp = TMP_ROOT / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    tally = checks.Tally()
    try:
        inputs = wl.build(hb, args.seed, tmp)
        wl.check(tally, wl.run(hb, inputs), reference)  # warm-up, checked too
        refs = []  # host reference kernel seconds, one per iteration or pair
        if args.trace:
            values, notes = traced(hb, wl, inputs, args.seconds, tally, reference, refs)
        else:
            values, notes = untraced(hb, wl, inputs, args.seconds, tally, reference, refs, setup_probes)
        values["host.ref_kernel_s"] = statistics.median(refs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_PINS, "host.ref_kernel_s": values["host.ref_kernel_s"],
    }
    print("# stamp " + json.dumps(stamp))
    for line in notes + [f"failure {m}" for m in tally.messages]:
        print("# " + line)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
