"""Single-call layer timings and the host reference kernel.

The layer table times one ``pde_rhs``, ``step_rk4``, ``compute_record``
and ``build_certificate`` at each grid size.  At n = 65536 one float64
array is 512 KiB; the measuring host has 2 MiB of L2 per core, so the
sizes step from cache-resident to a working set (v, w, slopes and stage
temporaries) several times the L2.

A layer whose function is missing or no longer accepts these arguments
is reported absent rather than failing the run.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

LAYER_SIZES = (512, 2048, 4096, 16384, 65536)
LAYERS = (
    "operators.pde_rhs",
    "solver.step_rk4",
    "diagnostics.compute_record",
    "certificate.build_certificate",
)
SAMPLE_S = 0.002
CELL_BUDGET_S = 0.12
REF_STENCILS = ((512, 500), (4096, 250), (16384, 50))
REF_PY_LOOP = 100_000


def per_call_us(fn, budget_s: float = CELL_BUDGET_S) -> float:
    """Median per-call time (us) over samples of >= SAMPLE_S each."""
    fn()
    t0 = perf_counter()
    fn()
    once = max(perf_counter() - t0, 1e-7)
    batch = max(1, int(SAMPLE_S / once))
    samples = []
    deadline = perf_counter() + budget_s
    while len(samples) < 3 or perf_counter() < deadline:
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        samples.append((perf_counter() - t0) / batch)
    return 1e6 * statistics.median(samples)


def _calls(hb, n):
    """Zero-argument callables for each layer on a blow-up state at n nodes."""
    params = hb.validate_params(1.0, 1.0, 1.0)
    grid = hb.Grid(-8.0, 8.0, n)
    profile = hb.calibrated_profile("odd_bump", params.L, grid, 40.0, 200.0)
    state = hb.sample_initial_state(params, grid, profile)
    dt = 0.4 * grid.dx / params.c
    f0 = float(np.trapezoid(grid.nodes() * state.v, dx=grid.dx))
    f1 = float(np.trapezoid(grid.nodes() * state.w, dx=grid.dx))
    ops, solver, diag, cert = hb.operators, hb.solver, hb.diagnostics, hb.certificate
    return {
        "operators.pde_rhs": lambda: ops.pde_rhs(state.v, state.w, grid.dx, params.mu, params.nu),
        "solver.step_rk4": lambda: solver.step_rk4(state, params, dt),
        "diagnostics.compute_record": lambda: diag.compute_record(state, params),
        "certificate.build_certificate": lambda: cert.build_certificate(params, f0, f1),
    }


def layer_table(hb):
    """({metric name: us per call}, [absent metric names], [reasons])."""
    values, absent, reasons = {}, [], []
    for n in LAYER_SIZES:
        try:
            calls = _calls(hb, n)
        except Exception as exc:  # package API changed: report, keep running
            calls = {}
            reasons.append(f"n={n}: state set-up failed: {exc!r}")
        for layer in LAYERS:
            key = f"{layer}.us.n{n}"
            fn = calls.get(layer)
            try:
                if fn is None:
                    raise LookupError("no callable")
                values[key] = per_call_us(fn)
            except Exception as exc:  # missing or re-signatured function
                absent.append(key)
                reasons.append(f"{key}: {exc!r}")
    return values, absent, reasons


def ref_kernel_s() -> float:
    """Seconds for a fixed loop of numpy stencils and plain Python.

    Stencils shaped like pde_rhs at n = 512, 4096 and 16384, then an
    interpreter-bound loop: a mix like the package's, but independent of
    it, so its time follows only the host's speed.
    """
    t0 = perf_counter()
    for n, repeats in REF_STENCILS:
        x = np.linspace(0.0, 6.0, n)
        v, w = np.sin(x), np.cos(x)
        for _ in range(repeats):
            a = np.zeros_like(v)
            a[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) * 3.0
            b = np.zeros_like(v)
            b[1:-1] = (0.5 * v[2:] * v[2:] - 0.5 * v[:-2] * v[:-2]) * 0.5
            a -= b + w
    acc = 0.0
    for i in range(REF_PY_LOOP):
        acc += i * 0.5
    return perf_counter() - t0
