import dataclasses
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from hyperburg import (
    ConfigError,
    ModelParams,
    ParameterError,
    Refinement,
    RunStatus,
    calibrated_profile,
    integrate,
    sample_initial_state,
)
from hyperburg.initial_data import amplitude_for_sup_norm, bump_profile
from hyperburg.config import ICConfig, RunConfig
from hyperburg import operators, solver
from hyperburg.diagnostics import RecordWorkspace, compute_record
from hyperburg.operators import DOT_SPLIT, RhsKernel, pde_rhs
from hyperburg.solver import (
    Grid,
    estimate_blowup_time,
    GridState,
    RunOutcome,
    StepWorkspace,
    check_run,
    stable_dt,
    step_rk4,
)
from hyperburg.suite import preset_configs


def small_state(n=256, dom=2.5, sup=0.1, L=1.0):
    params = ModelParams(1, 1, L)
    grid = Grid(-dom, dom, n)
    a = amplitude_for_sup_norm(sup, L)
    return params, sample_initial_state(params, grid, ICConfig("odd_bump", a=a, b=0.0))


class TestStableDt:
    def test_wave_bound(self):
        p = ModelParams(1, 1, 1)  # c = 1
        assert stable_dt(Grid(0.0, 0.01 * 99, 100), p, 0.4) == pytest.approx(0.004)

    def test_faster_wave_shrinks_dt(self):
        p = ModelParams(0.25, 1, 1)  # c = 2
        assert stable_dt(Grid(0.0, 0.01 * 99, 100), p, 0.4) == pytest.approx(0.002)

    def test_damping_cap_binds(self):
        p = ModelParams(0.1, 1e-7, 1)  # c = 1e-3, dx/c huge
        assert stable_dt(Grid(0.0, 99.0, 100), p, 0.5) == pytest.approx(0.1)

    @pytest.mark.parametrize("cfl", [0.0, -0.1, 1.5])
    def test_cfl_range(self, cfl):
        # stable_dt is the formula only; check_run holds its cfl range.
        p = ModelParams(1, 1, 1)
        with pytest.raises(ConfigError, match="cfl"):
            check_run(Grid(-8.0, 8.0, 1024), p, 6.5, cfl, None, 1)


class TestStepRK4:
    def test_zero_state_is_fixed_point(self):
        params = ModelParams(1, 1, 1)
        grid = Grid(-2.0, 2.0, 64)
        z = np.zeros(64)
        state = GridState(grid, 0.0, np.stack((z, z)))
        nxt = step_rk4(state, params, 0.01)
        assert nxt.t == 0.01
        assert np.all(nxt.v == 0.0) and np.all(nxt.w == 0.0)

    def test_deterministic_bitwise(self):
        params, state = small_state()
        dt = stable_dt(state.grid, params, 0.4)
        a = step_rk4(step_rk4(state, params, dt), params, dt)
        b = step_rk4(step_rk4(state, params, dt), params, dt)
        assert np.array_equal(a.v, b.v) and np.array_equal(a.w, b.w)

    def test_boundary_pinned(self):
        params, state = small_state()
        out = state
        for _ in range(10):
            out = step_rk4(out, params, 0.001)
        assert out.v[0] == out.v[-1] == 0.0
        assert out.w[0] == out.w[-1] == 0.0

    def test_temporal_order_four(self):
        # Self-convergence in dt on a frozen spatial grid against a
        # dt=1e-4 reference; log-log slope of the terminal error ~ 4.
        params, state0 = small_state(n=128, dom=2.0, sup=0.5)

        def advance(dt, T=0.4):
            state = state0
            for _ in range(round(T / dt)):
                state = step_rk4(state, params, dt)
            return state

        ref = advance(1e-4)
        dts = [4e-3, 2e-3, 1e-3]
        errs = [float(np.max(np.abs(advance(dt).v - ref.v))) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.5 <= slope <= 4.5


class TestStepWorkspace:
    def test_reused_workspace_matches_fresh_bitwise(self):
        # One workspace across ten steps, with a foreign state's stages and
        # slopes left in every buffer before some of them: every step equals
        # a fresh-workspace step.
        params, state = small_state()
        dt = stable_dt(state.grid, params, 0.4)
        work = StepWorkspace(state.grid.n)
        other = GridState(state.grid, state.t, np.stack((2.0 * state.v, state.w + 1.0)))
        reused = fresh = state
        for i in range(10):
            if i % 3 != 2:
                step_rk4(other, params, dt, work)
            reused = step_rk4(reused, params, dt, work)
            fresh = step_rk4(fresh, params, dt, StepWorkspace(fresh.grid.n))
            assert np.array_equal(reused.v, fresh.v)
            assert np.array_equal(reused.w, fresh.w)
        # A second step from the same state must not take the first one's
        # leftovers for its stages.
        first = step_rk4(state, params, dt, work)
        again = step_rk4(state, params, dt, work)
        assert np.array_equal(first.v, again.v) and np.array_equal(first.w, again.w)

    @pytest.mark.parametrize("fitted", [False, True], ids=["whole-grid", "window"])
    def test_kept_slope_is_the_input_states_slope(self, fitted):
        # After a step, k1 holds pde_rhs of the state it stepped from on the
        # window, bit for bit, whatever the buffers held before.
        params, state = sharp_state()
        dt = stable_dt(state.grid, params, 0.4)
        work = StepWorkspace(state.grid.n, state if fitted else None)
        a, b = work.window
        assert (0 < a and b < state.grid.n) == fitted
        step_rk4(GridState(state.grid, 0.0, 3.0 * state.u), params, dt, work)
        step_rk4(state, params, dt, work)
        want = pde_rhs(state.v, state.w, state.grid.dx, params.mu, params.nu)[..., a:b]
        assert work.k1.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [512, 4096, 16384])
    def test_standalone_step_allocates_only_what_it_steps_with(self, n):
        # A step without a workspace allocates the step buffer's 12 n + 8
        # doubles and the new state's 2 n, plus small views: no record buffer.
        params = ModelParams(0.7, 1.3, 1.0)
        grid = Grid(-4.0, 4.0, n)
        state = GridState(grid, 0.0, np.random.default_rng(n).standard_normal((2, n)))
        dt = stable_dt(grid, params, 0.4)
        step_rk4(state, params, dt)
        tracemalloc.start()
        try:
            step_rk4(state, params, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (14 * n + 8) * 8 + 16 * 1024

    def test_stepped_state_fields_are_rows_of_its_block(self):
        params, state = small_state()
        nxt = step_rk4(state, params, 0.001)
        assert nxt.u.shape == (2, state.grid.n)
        nxt.u[:, 40] = (7.0, -7.0)  # writing the block writes v and w
        assert (nxt.v[40], nxt.w[40]) == (7.0, -7.0)
        with pytest.raises(AttributeError):  # the fields are rows, not attributes
            nxt.v = nxt.v.copy()

    def test_slope_boundaries_stay_zero(self, monkeypatch):
        # Binding zeroes the dw/dt boundary once, the kernels write only
        # interiors, and the step pins the w edges of stage 1's copy, which
        # every stage slope takes as its dv/dt row: fields that are nonzero
        # at the boundary must not leak into any stage slope, over 50 steps
        # with a foreign state stepped now and then.
        params, state = small_state()
        rng = np.random.default_rng(5)
        state = GridState(state.grid, 0.0,
                          np.stack((state.v + 0.01 * rng.standard_normal(state.grid.n),
                                    0.01 * rng.standard_normal(state.grid.n))))
        other = GridState(state.grid, 0.0, rng.standard_normal(state.u.shape))
        assert state.v[0] != 0.0 and state.w[-1] != 0.0
        slopes, rows = spy_slopes(monkeypatch)
        dt = stable_dt(state.grid, params, 0.4)
        work = StepWorkspace(state.grid.n)
        for i in range(50):
            if i % 7 == 0:
                step_rk4(other, params, dt, work)
            slopes.clear()
            rows.clear()
            state = step_rk4(state, params, dt, work)
            assert rows == [2, 2] and len(slopes) == 4 and slopes[0][0] is work.k1
            for k, edges in slopes:
                assert k.shape == (2, state.grid.n)
                assert np.all(edges == 0.0) and not np.signbit(edges).any()
        assert np.isfinite(state.u).all()

    def test_step_equals_written_out_rk4_bitwise(self):
        # A step is classical RK4 from pde_rhs on the whole grid, summed in
        # the same order, bit for bit: on random states that are nonzero at
        # the grid ends (the stage inputs keep the state's boundary v and the
        # slopes' boundary columns are zero), and on states zero outside a
        # narrow fitted window, at three mu.
        rng = np.random.default_rng(17)
        for mu in (1.0, 0.25, 0.7):
            params = ModelParams(mu, 1.3, 1.0)
            for fitted in (False, True):
                grid = Grid(-2.0, 2.0, 400 if fitted else 96)
                dx, nu = grid.dx, params.nu
                dt = stable_dt(grid, params, 0.4)
                for _ in range(20):
                    if fitted:
                        u = np.zeros((2, grid.n))
                        u[:, 180:220] = rng.standard_normal((2, 40))
                    else:
                        u = rng.standard_normal((2, grid.n))
                        assert (u[:, [0, -1]] != 0.0).all()
                    state = GridState(grid, 0.0, u)
                    work = StepWorkspace(grid.n, state if fitted else None)
                    a, b = work.window
                    assert (0 < a and b < grid.n and b - a < 150) == fitted
                    k1 = pde_rhs(*u, dx, mu, nu)
                    k2 = pde_rhs(*(u + 0.5 * dt * k1), dx, mu, nu)
                    k3 = pde_rhs(*(u + 0.5 * dt * k2), dx, mu, nu)
                    k4 = pde_rhs(*(u + dt * k3), dx, mu, nu)
                    want = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    want[:, 0] = want[:, -1] = 0.0
                    got = step_rk4(state, params, dt, work)
                    assert got.u.tobytes() == want.tobytes()
                    assert work.k1.tobytes() == k1[:, a:b].tobytes()


def spy_slopes(monkeypatch):
    """Wrap the slope kernel's two parts: ``rows`` gets the number of slopes
    each F call serves, ``slopes`` each completed slope block with a copy of
    its boundary columns as it was made."""
    slopes, rows = [], []
    kernel, damp = RhsKernel.__call__, RhsKernel.damp

    def counted_kernel(self, *args):
        rows.append(self.rows)
        return kernel(self, *args)

    def recorded_damp(*args):
        k = damp(*args)
        slopes.append((k, k[:, [0, -1]].copy()))
        return k

    monkeypatch.setattr(RhsKernel, "__call__", counted_kernel)
    monkeypatch.setattr(RhsKernel, "damp", staticmethod(recorded_damp))
    return slopes, rows


def sharp_state(n=1024, dom=16.0, lo=500, width=20, seed=3, scale=1.0):
    """Random (v, w) on nodes [lo, lo + width), zero elsewhere: the nonzeros
    spread the full REACH nodes per step for a hundred steps before the
    front underflows, so every window refit is tight."""
    params = ModelParams(1, 1, 1)
    grid = Grid(-dom, dom, n)
    rng = np.random.default_rng(seed)
    v, w = np.zeros(n), np.zeros(n)
    v[lo:lo + width] = scale * rng.standard_normal(width)
    w[lo:lo + width] = scale * rng.standard_normal(width)
    return params, GridState(grid, 0.0, np.stack((v, w)))


def same_bits(a: GridState, b: GridState) -> bool:
    return (a.t == b.t and a.v.tobytes() == b.v.tobytes()
            and a.w.tobytes() == b.w.tobytes())


def record_hex(rec):
    return [float(x).hex() for x in vars(rec).values()]


class TestActiveWindow:
    """integrate steps and records on a column window; every state and
    record equals the whole-grid computation bit for bit (zero signs too)."""

    @staticmethod
    def run_spied(monkeypatch, state0, params, t_end, **kwargs):
        """integrate, returning (outcome, observed states, windows bound)."""
        windows = []

        class Spy(StepWorkspace):
            __slots__ = ()

            def _bind(self, a, b):
                windows.append((a, b))
                super()._bind(a, b)

        monkeypatch.setattr(solver, "StepWorkspace", Spy)
        seen = []
        out = integrate(state0, params, t_end=t_end, observe=seen.append, **kwargs)
        return out, seen, windows

    @staticmethod
    def full_grid_chain(state0, params, dt, steps):
        states = [state0]
        for _ in range(steps):
            states.append(step_rk4(states[-1], params, dt))
        return states

    def test_states_and_records_equal_full_grid_over_window_growths(self, monkeypatch):
        params, state0 = sharp_state()
        out, seen, windows = self.run_spied(monkeypatch, state0, params, 0.85,
                                            record_stride=1)
        assert out.status is RunStatus.COMPLETED and out.n_steps >= 4 * solver.REFIT_STEPS
        # the initial window and at least three growths, none the whole grid
        assert len(windows) >= 4 and all(0 < a and b < state0.grid.n for a, b in windows)
        # the initial window is the nonzero extent padded for REFIT_STEPS - 1 steps
        live = np.flatnonzero(state0.u.any(axis=0))
        pad = solver.MARGIN + solver.REACH * (solver.REFIT_STEPS - 1)
        assert windows[0] == (live[0] - pad, live[-1] + 1 + pad)
        assert all(a1 < a0 and b1 > b0 for (a0, b0), (a1, b1) in zip(windows, windows[1:]))
        assert 0.0 < out.stepped_frac < 0.5
        chain = self.full_grid_chain(state0, params, out.dt, out.n_steps)
        assert len(seen) == len(chain) == len(out.records)
        for got, want, rec in zip(seen, chain, out.records):
            assert same_bits(got, want)
            assert record_hex(rec) == record_hex(compute_record(want, params))

    def test_large_grid_records_equal_whole_grid_records(self, monkeypatch):
        # On 16385 nodes the blow-up data straddle the DOT_SPLIT column in the
        # grid's middle, so every record integral is reduced in two pieces.
        params = ModelParams(1, 1, 1)
        grid = Grid(-8.0, 8.0, 16385)
        state0 = sample_initial_state(
            params, grid, calibrated_profile("odd_bump", 1.0, grid, 40.0, 200.0))
        out, seen, windows = self.run_spied(monkeypatch, state0, params, 0.02,
                                            record_stride=1)
        assert len(out.records) == len(seen) > 40
        assert all(0 < a < DOT_SPLIT < b < grid.n for a, b in windows)
        for state, rec in zip(seen, out.records):
            assert record_hex(rec) == record_hex(compute_record(state, params))

    @staticmethod
    def spy_flushes(monkeypatch):
        """(records, slots) of each record flush that computes something."""
        flushes = []
        real_flush = RecordWorkspace.flush

        def flush(self):
            if self.staged:
                flushes.append((len(self.staged), self.slots))
            real_flush(self)

        monkeypatch.setattr(RecordWorkspace, "flush", flush)
        return flushes

    @staticmethod
    def spy_binds(monkeypatch):
        """(slots staged, whether it flushed) of each record bind."""
        binds = []
        real_bind = RecordWorkspace.bind

        def bind(self, a, b):
            staged, batches = len(self.staged), self.batches
            real_bind(self, a, b)
            binds.append((staged, self.batches > batches))

        monkeypatch.setattr(RecordWorkspace, "bind", bind)
        return binds

    def test_batched_records_equal_whole_grid_records(self, monkeypatch):
        # At stride 1 on 8193 nodes, up to n // span records are computed in
        # one flush; each equals the whole-grid record of its state.
        params = ModelParams(1, 1, 1)
        grid = Grid(-8.0, 8.0, 8193)
        state0 = sample_initial_state(
            params, grid, calibrated_profile("odd_bump", 1.0, grid, 40.0, 200.0))
        flushes = self.spy_flushes(monkeypatch)
        seen = []
        out = integrate(state0, params, t_end=6.5, observe=seen.append)
        sizes = [k for k, _ in flushes]
        assert out.status is RunStatus.BLOWUP_DETECTED
        assert max(sizes) >= 2 and len(sizes) == out.record_batches < len(out.records)
        assert sum(sizes) == len(out.records) == len(seen)
        for state, rec in zip(seen, out.records):
            assert record_hex(rec) == record_hex(compute_record(state, params))

    def test_failure_flushes_the_staged_records(self, monkeypatch):
        # The run breaks with two records staged in three slots: the flush
        # at the end computes both.  The last, of the final healthy state,
        # overflows in its integrals, and its neighbour in the batch keeps
        # its own bits: one record per healthy state, each the whole-grid one.
        # On 1024 nodes the run passes a refit first, whose bind moves one
        # staged slot onto the wider span, and the run breaks with it staged.
        params = ModelParams(1, 1, 1)
        flushes = self.spy_flushes(monkeypatch)
        binds = self.spy_binds(monkeypatch)
        for n, a, moved in ((2048, 1e7, []), (1024, 1e4, [1])):
            grid = Grid(-4.0, 4.0, n)
            state0 = sample_initial_state(params, grid, ICConfig("odd_bump", a=a, b=0.0))
            flushes.clear()
            binds.clear()
            seen = []
            out = integrate(state0, params, t_end=1.0, blowup_threshold=1e307,
                            observe=seen.append)
            staged, slots = flushes[-1]
            assert out.status is RunStatus.NUMERICAL_FAILURE
            assert 2 <= staged < slots and out.record_batches == len(flushes)
            assert sum(k for k, _ in flushes) == len(out.records) == len(seen) == out.n_steps
            assert not all(map(math.isfinite, vars(out.records[-1]).values()))
            assert all(map(math.isfinite, vars(out.records[-2]).values()))
            assert [k for k, flushed in binds if k] == moved and not any(f for _, f in binds)
            for state, rec in zip(seen, out.records):
                assert record_hex(rec) == record_hex(compute_record(state, params))

    def test_sweep_run_records_in_one_flush(self, monkeypatch):
        # A run shaped like a benchmark sweep point (n = 512 on [-8, 8],
        # stride 8, the blowup moments) rebinds its window with records
        # staged, which move onto the wider span, and computes all its
        # records in one flush at the end; each is the whole-grid record.
        params = ModelParams(1, 1, 1)
        grid = Grid(-8.0, 8.0, 512)
        state0 = sample_initial_state(
            params, grid, calibrated_profile("odd_bump", 1.0, grid, 40.0, 200.0))
        binds = self.spy_binds(monkeypatch)
        seen = []
        out = integrate(state0, params, t_end=2.0, record_stride=8, observe=seen.append)
        assert out.status is RunStatus.BLOWUP_DETECTED
        assert any(staged and not flushed for staged, flushed in binds)
        assert out.record_batches == 1
        states = seen[:out.n_steps:8] + [seen[-1]]
        assert len(out.records) == len(states) >= 3
        for state, rec in zip(states, out.records):
            assert record_hex(rec) == record_hex(compute_record(state, params))

    @pytest.mark.parametrize("lo", [0, 1004], ids=["left", "right"])
    def test_data_nonzero_at_the_boundary(self, monkeypatch, lo):
        params, state0 = sharp_state(lo=lo)
        out, seen, windows = self.run_spied(monkeypatch, state0, params, 0.5,
                                            record_stride=3)
        a, b = windows[0]
        assert (a == 0) if lo == 0 else (b == state0.grid.n)
        chain = self.full_grid_chain(state0, params, out.dt, out.n_steps)
        assert all(same_bits(got, want) for got, want in zip(seen, chain))
        assert out.final_state.v[0] == out.final_state.v[-1] == 0.0

    def test_negative_amplitude_and_signed_zeros(self, monkeypatch):
        # A negative odd bump samples v to -0.0 outside its support; the
        # whole-grid step turns those to +0.0, and so must the window.
        params = ModelParams(1, 1, 1)
        grid = Grid(-13.0, 13.0, 1024)
        state0 = sample_initial_state(params, grid, ICConfig("odd_bump", a=-2.0, b=0.5))
        assert np.signbit(state0.v[state0.v == 0.0]).any()
        out, seen, _ = self.run_spied(monkeypatch, state0, params, 1.0, record_stride=5)
        chain = self.full_grid_chain(state0, params, out.dt, out.n_steps)
        assert all(same_bits(got, want) for got, want in zip(seen, chain))

    def test_zero_data_steps_the_whole_grid(self, monkeypatch):
        params = ModelParams(1, 1, 1)
        grid = Grid(-13.0, 13.0, 256)
        state0 = GridState(grid, 0.0, np.zeros((2, 256)))
        out, seen, windows = self.run_spied(monkeypatch, state0, params, 0.5)
        assert windows == [(0, 256)] and out.stepped_frac == 1.0
        assert all(not s.v.any() and not s.w.any() for s in seen)

    def test_data_filling_the_grid_step_every_column(self):
        params, state = small_state()
        rng = np.random.default_rng(7)
        state0 = GridState(state.grid, 0.0,
                           np.stack((state.v + 1e-3 * rng.standard_normal(state.grid.n),
                                     1e-3 * rng.standard_normal(state.grid.n))))
        assert integrate(state0, params, t_end=0.2).stepped_frac == 1.0

    @pytest.mark.parametrize("lo", [500, 0], ids=["inside", "left"])
    def test_window_edges_inside_the_grid_stay_zero(self, monkeypatch, lo):
        # The health check takes the window's extremes for the whole state's,
        # with no 0.0 folded in: after every step, each window edge that is
        # not a grid edge is a zero column, even when the nonzeros come
        # within one column of it just before a refit.
        params, state0 = sharp_state(lo=lo)
        n = state0.grid.n
        real_step = solver.step_rk4
        edges, gaps = [], []

        def checked_step(state, params, dt, work):
            nxt = real_step(state, params, dt, work)
            a, b = work.window
            live = np.flatnonzero(nxt.u.any(axis=0))
            assert b - a < n and a <= live[0] and live[-1] < b
            if a > 0:
                edges.append(nxt.u[:, a].copy())
                gaps.append(live[0] - a)
            edges.append(nxt.u[:, b - 1].copy())
            gaps.append(b - 1 - live[-1])
            return nxt

        monkeypatch.setattr(solver, "step_rk4", checked_step)
        out = integrate(state0, params, t_end=0.85)
        assert out.status is RunStatus.COMPLETED
        assert len(edges) == (2 if lo else 1) * out.n_steps
        assert all(not e.any() for e in edges)
        assert min(gaps) == 1

    def test_nan_inside_the_window_is_numerical_failure(self, monkeypatch):
        params, state0 = sharp_state()
        real_step = solver.step_rk4

        def broken_step(state, *args):
            nxt = real_step(state, *args)
            if nxt.t > 0.2:
                nxt.v[510] = np.nan
            return nxt

        monkeypatch.setattr(solver, "step_rk4", broken_step)
        seen = []
        out = integrate(state0, params, t_end=0.85, observe=seen.append)
        assert out.status is RunStatus.NUMERICAL_FAILURE
        assert np.isnan(out.final_state.v[510]) and 0.2 < out.t_final < 0.22
        assert all(np.isfinite(s.v).all() for s in seen)


@pytest.mark.parametrize("ends", [(-np.inf, np.inf), (-1.0, np.inf), (np.nan, 1.0), (1.0, -1.0)],
                         ids=["infinite", "right-infinite", "nan", "reversed"])
def test_grid_needs_finite_ordered_ends(ends):
    with pytest.raises(ParameterError, match="grid needs finite ends with xmax > xmin"):
        Grid(*ends, 256)


@pytest.mark.parametrize("n", [512.5, np.int64(512)], ids=["float", "numpy-int"])
def test_grid_needs_python_int_nodes(n):
    with pytest.raises(ParameterError, match="grid.n must be a Python int"):
        Grid(-8.0, 8.0, n)


def test_grid_nodes_computed_once_and_read_only():
    grid = Grid(-2.0, 2.0, 64)
    x = grid.nodes()
    assert x is grid.nodes() and x is Grid(-2.0, 2.0, 64).nodes()
    assert np.array_equal(x, np.linspace(-2.0, 2.0, 64))
    with pytest.raises(ValueError):
        x[0] = 1.0


class TestIntegrate:
    def test_zero_data_completes_with_zero_records(self):
        params = ModelParams(1, 1, 1)
        grid = Grid(-13.0, 13.0, 256)
        state0 = sample_initial_state(params, grid, ICConfig("odd_bump", a=0.0, b=0.0))
        out = integrate(state0, params, t_end=1.0, record_stride=16)
        assert out.status is RunStatus.COMPLETED
        for rec in out.records:
            assert rec.F == 0.0 and rec.Fprime == 0.0
            assert rec.E1 == rec.E2 == rec.E3 == 0.0
            assert rec.sup_norm == 0.0
            assert (rec.support_left, rec.support_right) == (0.0, 0.0)
            assert rec.schwartz_gap == 0.0

    def test_outcomes_compare_equal_bitwise(self):
        # Identical inputs give equal outcomes; a final state one ulp away,
        # or with a zero of the other sign, makes them unequal.
        params, state0 = small_state()
        out = integrate(state0, params, t_end=0.2, record_stride=4)
        assert out == integrate(state0, params, t_end=0.2, record_stride=4)
        final = out.final_state
        for i, nudged in ((100, np.nextafter(final.v[100], np.inf)), (0, -0.0)):
            u = final.u.copy()
            u[0, i] = nudged
            changed = dataclasses.replace(out, final_state=GridState(final.grid, final.t, u))
            assert changed != out and changed.final_state != final

    @staticmethod
    def recycled_runs():
        """A blowup level, a smalldata-shaped run at mu = 0.25, and a
        sweep-shaped blow-up run at mu = 0.7, as RunConfigs."""
        blowup = preset_configs("blowup")[0]
        smalldata = dataclasses.replace(preset_configs("smalldata")[0],
                                        params=ModelParams(0.25, 1.0, 1.0), t_end=5.0)
        sweep = RunConfig(ModelParams(0.7, 1.3, 1.0), Grid(-8.0, 8.0, 512), 2.0,
                          ICConfig("odd_bump", F0_target=55.0, F1_target=500.0),
                          record_stride=8)
        return blowup, smalldata, sweep

    @pytest.mark.parametrize("run", range(3), ids=["blowup", "smalldata-mu0.25", "mu0.7"])
    def test_recycled_block_gives_the_bits_of_a_fresh_one(self, monkeypatch, run):
        # Without an observer, every step from the third on writes into the
        # block of the state two steps back; with one, each state keeps its
        # own block.  Both runs give equal outcomes, state0 is never written,
        # and states an observer keeps stay as they were observed.
        config = self.recycled_runs()[run]
        params = config.params
        state0 = sample_initial_state(params, config.grid, config.ic)
        u0 = state0.u.copy()
        spares = []
        real_step = solver.step_rk4
        monkeypatch.setattr(solver, "step_rk4", lambda state, params, dt, work: (
            spares.append(work.spare is not None) or real_step(state, params, dt, work)))

        def run_with(observe):
            spares.clear()
            return integrate(state0, params, config.t_end, config.blowup_threshold,
                             config.record_stride, config.cfl, observe)

        plain = run_with(None)
        assert spares == [False, False] + [True] * (plain.n_steps - 2)
        assert plain.n_steps > 10 and plain.stepped_frac < 1.0
        assert run_with(lambda state: None) == plain
        assert not any(spares)
        kept = []
        assert run_with(lambda state: kept.append((state, state.u.copy()))) == plain
        assert len(kept) == plain.n_steps + 1 and kept[0][0] is state0
        assert all(state.u.tobytes() == copy.tobytes() for state, copy in kept)
        assert state0.u.tobytes() == u0.tobytes()

    def test_records_strictly_increasing_and_deterministic(self):
        params, state0 = small_state()
        out1 = integrate(state0, params, t_end=0.5, record_stride=8)
        out2 = integrate(state0, params, t_end=0.5, record_stride=8)
        ts = [r.t for r in out1.records]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert out1.records == out2.records

    def test_margin_violation_rejected_before_stepping(self):
        params, state0 = small_state(dom=2.5)
        with pytest.raises(ConfigError, match="grid"):
            integrate(state0, params, t_end=10.0)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_bad_t_end_rejected_before_stepping(self, t_end):
        # Blow-up data, so that a run which ignored t_end would still stop.
        params = ModelParams(1, 1, 1)
        grid = Grid(-8.0, 8.0, 512)
        state0 = sample_initial_state(
            params, grid, calibrated_profile("odd_bump", 1.0, grid, 40.0, 200.0))
        with pytest.raises(ConfigError, match=r"t_end must be a finite number > 0, got"):
            integrate(state0, params, t_end=t_end)

    def test_state_of_another_shape_rejected_before_stepping(self, monkeypatch):
        # A state is one (2, n) pair: a stack of B states, a block one node
        # short and a single field are each rejected where the state is
        # built, so integrate never steps them.
        params, state = small_state()
        n = state.grid.n
        monkeypatch.setattr(solver, "step_rk4", None)  # any step would fail
        for u in (np.stack((state.u, 2.0 * state.u), axis=1), state.u[:, :n - 1], state.v):
            with pytest.raises(ParameterError, match=rf"shape \(2, {n}\).*np\.stack"):
                GridState(state.grid, 0.0, u)
            with pytest.raises(ParameterError, match=rf"got {re.escape(str(u.shape))}"):
                integrate(GridState(state.grid, 0.0, u), params, t_end=0.5)

    @pytest.mark.parametrize("threshold", [1.0, "sup0"])
    def test_threshold_at_or_below_initial_sup_rejected(self, monkeypatch, threshold):
        # The certified data start at sup|v0| = 75.2: a threshold at or below
        # it would report blow-up after one step.
        params = ModelParams(1, 1, 1)
        grid = Grid(-8.0, 8.0, 1025)
        state0 = sample_initial_state(
            params, grid, calibrated_profile("odd_bump", 1.0, grid, 40.0, 200.0))
        sup0 = state0.sup_norm()
        assert sup0 > 75.0
        monkeypatch.setattr(solver, "step_rk4", None)
        with pytest.raises(ConfigError, match=f"sup\\|v0\\| = {sup0!r}.*null"):
            integrate(state0, params, t_end=6.5,
                      blowup_threshold=sup0 if threshold == "sup0" else threshold)

    def test_integrate_never_copies_a_state(self, monkeypatch):
        # A state is its one (v, w) block: no step, record or observer call
        # stacks the fields into a new one.
        params, state0 = small_state()

        def no_stack(*args, **kwargs):
            raise AssertionError("numpy.stack called inside integrate")

        monkeypatch.setattr(np, "stack", no_stack)
        seen = []
        out = integrate(state0, params, t_end=0.5, record_stride=1, observe=seen.append)
        assert out.status is RunStatus.COMPLETED
        assert len(out.records) == len(seen) == out.n_steps + 1

    def test_blowup_detection_on_certified_preset(self, blowup_reports):
        for report in blowup_reports:
            assert report.status == RunStatus.BLOWUP_DETECTED.value
            assert report.t_detect <= report.certificate["T_star_tightest"]
            last = report.outcome.records[-1]
            threshold = 1e6 * max(1.0, report.outcome.records[0].sup_norm)
            assert last.sup_norm >= threshold

    def test_numerical_failure_flagged(self):
        # Amplitude far into the unstable regime with an unreachably high
        # threshold: the run must end as a failure, not a detection.
        params = ModelParams(1, 1, 1)
        grid = Grid(-4.0, 4.0, 512)
        state0 = sample_initial_state(
            params, grid, ICConfig("odd_bump", a=1e9, b=0.0)
        )
        seen = []
        out = integrate(state0, params, t_end=1.0, blowup_threshold=1e307,
                        observe=seen.append)
        assert out.status is RunStatus.NUMERICAL_FAILURE
        assert out.final_state is not None
        final = out.final_state
        assert not (np.isfinite(final.v).all() and np.isfinite(final.w).all())
        # records and observed states only cover the healthy prefix
        for rec in out.records:
            assert np.isfinite(rec.sup_norm)
        assert len(seen) > 1 and all(s is not final for s in seen)
        for s in seen:
            assert np.isfinite(s.v).all() and np.isfinite(s.w).all()

    @pytest.mark.parametrize(
        "field, bad", [("w", np.nan), ("v", np.inf), ("v", np.nan), ("w", -np.inf)])
    def test_nonfinite_field_is_numerical_failure(self, monkeypatch, field, bad):
        # A step that leaves one non-finite entry in one field, the other
        # finite: inf in v must not read as a threshold crossing.  The entry
        # is inside the step's window: outside it a step leaves exact zeros,
        # so the health check reads the window only.
        params, state0 = small_state()
        real_step = solver.step_rk4

        def broken_step(state, *args):
            nxt = real_step(state, *args)
            getattr(nxt, field)[state0.grid.n // 2] = bad
            return nxt

        monkeypatch.setattr(solver, "step_rk4", broken_step)
        seen = []
        out = integrate(state0, params, t_end=0.5, blowup_threshold=1e3,
                        observe=seen.append)
        assert out.status is RunStatus.NUMERICAL_FAILURE
        assert len(out.records) == 1
        # the broken state is never observed
        assert len(seen) == 1 and seen[0] is state0

    def test_negative_data_detected_at_the_first_crossing(self):
        # With v <= 0 in every state, max v over the window is a zero column
        # and sup|v| = -min v: the run stops at the first state whose
        # max |v| reaches the threshold, and at no earlier one.
        params = ModelParams(1, 1, 1)
        grid = Grid(-13.0, 13.0, 1024)
        psi = bump_profile(grid.nodes(), 1.0)
        bump = psi * psi / np.max(psi * psi)
        state0 = GridState(grid, 0.0, np.stack((-5.0 * bump, -50.0 * bump)))
        threshold = 4.0 * state0.sup_norm()
        seen = []
        out = integrate(state0, params, t_end=3.0, blowup_threshold=threshold,
                        observe=seen.append)
        assert out.status is RunStatus.BLOWUP_DETECTED and out.stepped_frac < 0.5
        assert all((s.v <= 0.0).all() for s in seen)
        sups = [float(np.max(np.abs(s.v))) for s in seen]
        first = next(i for i, sup in enumerate(sups) if sup >= threshold)
        assert first == len(seen) - 1 == out.n_steps > 10
        assert out.t_final == seen[first].t and seen[first] is out.final_state

    @pytest.mark.parametrize(
        "stride, observed",
        [(1, False), (16, False), (1, True), (16, True)],
        ids=["1", "16", "1-observed", "16-observed"],
    )
    def test_one_slope_per_step_plus_one(self, monkeypatch, stride, observed):
        # The record's slope is the next step's stage 1: 4 * steps + 1
        # slope evaluations in all, whatever the record stride, with or
        # without an observer.  Every slope, bound or through pde_rhs, is one
        # row of a kernel call (a paired call serves two) and one damp.
        params, state0 = small_state()
        seen = []
        steps = []
        slopes, rows = spy_slopes(monkeypatch)
        real_step = solver.step_rk4
        monkeypatch.setattr(solver, "step_rk4",
                            lambda *args: steps.append(1) or real_step(*args))
        out = integrate(state0, params, t_end=0.5, record_stride=stride,
                        observe=seen.append if observed else None)
        assert out.status is RunStatus.COMPLETED
        assert len(steps) == out.n_steps > 2 * stride
        assert sum(rows) == len(slopes) == 4 * out.n_steps + 1
        if observed:
            # state0 first, then one state per step in increasing t,
            # ending at the final state
            assert len(seen) == out.n_steps + 1
            assert seen[0] is state0 and seen[-1] is out.final_state
            assert all(a.t < b.t for a, b in zip(seen, seen[1:]))

    @pytest.mark.parametrize("sup", [0.1, 20.0])
    def test_records_match_standalone_records(self, sup):
        # Records built from the reused stage-1 slope agree with records
        # computed from scratch on the same states.
        params, state0 = small_state(sup=sup)
        states = []
        out = integrate(state0, params, t_end=0.3, record_stride=1,
                        observe=states.append)
        assert len(states) == len(out.records)
        assert np.array_equal(states[-1].v, out.final_state.v)
        for state, rec in zip(states, out.records):
            alone = compute_record(state, params)
            for name, value in vars(alone).items():
                assert getattr(rec, name) == pytest.approx(value, rel=1e-13, abs=0.0), name

    def test_terminal_record_off_the_stride(self, monkeypatch):
        # Blow-up at stride 7 ends off the stride: the terminal record
        # evaluates its own slope, the others take their step's stage 1.
        # Every record equals a standalone record bit for bit, and the run
        # evaluates 4 * steps + 1 slopes.
        params = ModelParams(1, 1, 1)
        grid = Grid(-8.0, 8.0, 513)
        state0 = sample_initial_state(
            params, grid, calibrated_profile("odd_bump", 1.0, grid, 40.0, 200.0))
        slopes, rows = spy_slopes(monkeypatch)
        states = []
        out = integrate(state0, params, t_end=6.5, record_stride=7, observe=states.append)
        assert out.status is RunStatus.BLOWUP_DETECTED and out.n_steps % 7 != 0
        assert sum(rows) == len(slopes) == 4 * out.n_steps + 1
        assert rows == [2, 2] * out.n_steps + [1]
        want = states[::7] + [out.final_state]
        assert [r.t for r in out.records] == [s.t for s in want]
        for state, rec in zip(want, out.records):
            assert record_hex(rec) == record_hex(compute_record(state, params))

    def test_pde_rhs_is_a_reference_only(self, monkeypatch):
        # Steps and records make every slope with bound kernels: pde_rhs,
        # wrapped wherever a hyperburg module holds it, is never called by a
        # blowup level ending off its stride 7, by a sweep-shaped run at
        # mu = 0.7, or by compute_record.
        calls = []
        reference = operators.pde_rhs

        def counted(*args):
            calls.append(1)
            return reference(*args)

        held = [(module, name) for key, module in list(sys.modules.items())
                if key == "hyperburg" or key.startswith("hyperburg.")
                for name, value in list(vars(module).items()) if value is reference]
        assert (operators, "pde_rhs") in held
        for module, name in held:
            monkeypatch.setattr(module, name, counted)
        blowup = dataclasses.replace(preset_configs("blowup")[0], record_stride=7)
        sweep = self.recycled_runs()[2]
        ends = []
        for config in (blowup, sweep):
            state0 = sample_initial_state(config.params, config.grid, config.ic)
            out = integrate(state0, config.params, config.t_end, config.blowup_threshold,
                            config.record_stride, config.cfl)
            assert out.status is RunStatus.BLOWUP_DETECTED and len(out.records) >= 3
            assert calls == []
            ends.append(out.n_steps % config.record_stride)
        assert ends[0] != 0
        compute_record(out.final_state, sweep.params)
        assert calls == []
        operators.pde_rhs(*out.final_state.u, 0.1, 1.0, 1.0)  # the wrapper counts
        assert len(calls) == 1

    def test_smalldata_decay(self, smalldata_report):
        recs = smalldata_report.outcome.records
        assert smalldata_report.status == RunStatus.COMPLETED.value
        assert recs[-1].sup_norm <= recs[0].sup_norm

    def test_support_growth_rate_between_records(self, propagation_report):
        # between consecutive records the detected edge moves at most
        # c * dt_record + 5 dx
        config_grid_dx = propagation_report.outcome.final_state.grid.dx
        recs = propagation_report.outcome.records
        c = 1.0
        for a, b in zip(recs, recs[1:]):
            if (a.support_left, a.support_right) == (0.0, 0.0):
                continue
            dt_rec = b.t - a.t
            assert b.support_right - a.support_right <= c * dt_rec + 5 * config_grid_dx
            assert a.support_left - b.support_left <= c * dt_rec + 5 * config_grid_dx


def placed_at(offset, offsets):
    """A stand-in for ``_line_placed`` whose array has element 1 ``offset``
    doubles past a 64-byte line (0 is the helper's own placement); it
    appends each array's offset to ``offsets``."""
    def placed(size):
        raw = np.empty(size + 8)
        skip = (offset - 1 - raw.ctypes.data // 8) % 8
        offsets.append(raw[skip + 1:].ctypes.data % 64 // 8)
        return raw[skip:skip + size]
    return placed


class TestPlacement:
    @pytest.mark.parametrize("n", [8, 512, 4097, 16384])
    def test_step_buffer_element_one_starts_a_line(self, n):
        # Element 1, the first interior column of row 0, starts a 64-byte
        # line, with rows of odd length (n = 4097) too; a refit views the
        # same buffer.
        params, state = sharp_state(n=n, lo=n // 2 - 2, width=4)
        for work in (StepWorkspace(n), StepWorkspace(n, state)):
            buffer = work.buffer
            assert buffer.size == solver.STEP_ROWS * n and buffer.flags.writeable
            assert buffer[1:].ctypes.data % 64 == 0
            step_rk4(state, params, 1e-3, work)
            work.fit(state)
            assert work.buffer is buffer and work.u0.base is buffer.base

    @staticmethod
    def placement_runs():
        """A blowup level at stride 1, a smalldata-shaped run and a sweep
        point at mu = 0.7, as RunConfigs."""
        blowup, _, sweep = TestIntegrate.recycled_runs()
        return (dataclasses.replace(blowup, record_stride=1),
                dataclasses.replace(preset_configs("smalldata")[0], t_end=5.0), sweep)

    @pytest.mark.parametrize("run", range(3), ids=["blowup-stride1", "smalldata", "mu0.7"])
    def test_bits_do_not_depend_on_the_step_buffers_placement(self, monkeypatch, run):
        # Element-wise ufuncs give the same bits at any alignment: a run with
        # its step buffer at each of the 8 offsets from a line equals the
        # default run, states and records alike.
        config = self.placement_runs()[run]
        params = config.params
        state0 = sample_initial_state(params, config.grid, config.ic)

        def go():
            return integrate(state0, params, config.t_end, config.blowup_threshold,
                             config.record_stride, config.cfl)

        default = go()
        assert default.n_steps > 10 and default.records
        for offset in range(8):
            offsets = []
            monkeypatch.setattr(solver, "_line_placed", placed_at(offset, offsets))
            assert go() == default, offset
            assert offsets == [offset]


class TestRefinement:
    def test_identical_times_converged(self):
        ref = Refinement((513, 1025), (2.0, 2.0))
        assert ref.t_detect[-1] == 2.0 and ref.converged

    def test_large_gap_not_converged(self):
        ref = Refinement((513, 1025), (5.0, 4.0))
        assert ref.t_detect[-1] == 4.0 and not ref.converged

    def test_missed_detection_not_converged(self):
        ref = Refinement((513, 1025, 2049), (1.0, None, 1.0))
        assert not ref.converged
        assert ref.order is None and ref.t_inf is None and ref.t_inf_error is None

    def test_single_level_not_converged(self):
        assert not Refinement((513,), (1.0,)).converged

    def test_richardson_recovers_second_order(self):
        # Synthetic detection times t = t_inf + C h^2 on dx = 1/64, 1/128, 1/256.
        t_inf, C = 0.17, 3.0
        h = [1.0 / 64, 1.0 / 128, 1.0 / 256]
        ref = Refinement((1025, 2049, 4097), tuple(t_inf + C * hk * hk for hk in h))
        assert abs(ref.order - 2.0) <= 1e-12
        assert abs(ref.t_inf - t_inf) <= 1e-12
        assert ref.t_inf_error == abs(ref.t_inf - ref.t_detect[-1])

    @pytest.mark.parametrize(
        "times",
        [(2.0, 1.0), (3.0, 2.0, 2.0), (2.0, 2.0, 1.0), (3.0, 2.0, 2.5)],
        ids=["two-levels", "zero-fine-gap", "zero-coarse-gap", "sign-change"],
    )
    def test_no_order(self, times):
        ref = Refinement(tuple(range(len(times))), times)
        assert ref.order is None and ref.t_inf is None and ref.t_inf_error is None

    def test_no_extrapolation_when_gaps_do_not_shrink(self):
        ref = Refinement((513, 1025, 2049), (3.0, 2.0, 1.0))
        assert ref.order == 0.0 and ref.t_inf is None and ref.t_inf_error is None

    def test_blowup_preset_converges(self, blowup_reports):
        ref = Refinement(
            tuple(r.outcome.final_state.grid.n for r in blowup_reports),
            tuple(r.t_detect for r in blowup_reports),
        )
        assert ref.n == (1025, 2049, 4097)
        assert ref.converged
        assert ref.t_detect[-1] == blowup_reports[-1].t_final
        assert ref.order is not None and ref.t_inf < ref.t_detect[-1]


class TestEstimateBlowupTime:
    """The alias kept for existing callers of the refinement summary."""

    def _outcome(self, t, status=RunStatus.BLOWUP_DETECTED):
        params, state = small_state()
        return RunOutcome(status=status, t_final=t, records=[], final_state=state, n_steps=0,
                          dt=stable_dt(state.grid, params, 0.4), stepped_frac=1.0, record_s=0.0)

    def test_requires_blowup_outcomes(self):
        with pytest.raises(ConfigError, match="outcome 1 is completed, not blowup_detected"):
            estimate_blowup_time(
                [self._outcome(1.0), self._outcome(1.0, RunStatus.COMPLETED)]
            )

    def test_requires_two_outcomes(self):
        with pytest.raises(ConfigError, match="need at least 2 outcomes"):
            estimate_blowup_time([self._outcome(1.0)])

    def test_refinement_study_converges(self, blowup_reports):
        est, conv = estimate_blowup_time([r.outcome for r in blowup_reports])
        assert conv
        assert est == blowup_reports[-1].t_final


def test_check_domain_margin_accepts_adequate_grid():
    params = ModelParams(1, 1, 1)
    check_run(Grid(-8.0, 8.0, 1024), params, 6.5, 0.4, None, 1)
    with pytest.raises(ConfigError):
        check_run(Grid(-8.0, 8.0, 1024), params, 7.2, 0.4, None, 1)


@pytest.mark.parametrize("bad", [
    {"cfl": 0}, {"cfl": 1.5}, {"record_stride": 0}, {"record_stride": 2.5},
    {"record_stride": True}, {"blowup_threshold": 0}, {"blowup_threshold": -5},
    {"blowup_threshold": math.inf}, {"t_end": 0}, {"t_end": math.nan},
], ids=lambda bad: "{}={}".format(*next(iter(bad.items()))))
def test_run_config_and_integrate_reject_alike(bad):
    # One owner of the run arguments' rules: a config and a direct call give
    # the same error, naming the argument, for the same bad value.
    params = ModelParams(1, 1, 1)
    grid = Grid(-8.0, 8.0, 512)
    ic = ICConfig("odd_bump", F0_target=40.0, F1_target=200.0)
    args = {"t_end": 2.0, **bad}
    with pytest.raises(ConfigError, match=next(iter(bad))) as from_config:
        RunConfig(params, grid, ic=ic, **args)
    with pytest.raises(ConfigError) as from_integrate:
        integrate(sample_initial_state(params, grid, ic), params, **args)
    assert str(from_integrate.value) == str(from_config.value)
