"""Semi-discrete integration of the hyperbolic Burgers equation.

Method of lines: second-order central differences in space (conservative
flux form for the advection term), classical 4-stage Runge-Kutta in time
with dt = min(cfl * dx / c, mu).  The domain is sized so the exact support
{|x| <= L + c t} never reaches the boundary; the two boundary nodes are
pinned to zero, which substitutes for boundary conditions entirely.

Stepping kernel: :func:`integrate` is the one stepping loop.  A state is one
``(2, n)`` block ``u`` of rows v and w (:class:`GridState` rejects any other
shape).  A run binds one :class:`StepWorkspace`, and :func:`step_rk4`
steps on its contiguous copy of the state's window.

Active window: a run steps and records only on a column window [a, b)
holding every nonzero of (v, w) with MARGIN zero columns on each side (see
:class:`StepWorkspace`).  A slope spreads v into dw/dt by one node and
dv/dt = w spreads nothing, so no stage (nor a record stencil) reaches past
REACH nodes beyond the nonzeros of its input.  Outside the window every field, stage and slope is
therefore exactly zero in the whole-grid computation too, so the bits are
the same, signs of zeros included.  A record's integrals keep the
whole-grid bits as well (see :func:`~hyperburg.operators.trapezoid_dot`).

Records are staged: a due record's (v, w) and v_tt are copied into a slot
of the run's :class:`~hyperburg.diagnostics.RecordWorkspace`, and the
staged records are computed as one block when its slots are full and when
the run ends, by failure too.  A window rebind moves the staged slots onto
the wider span, and flushes them only when they do not fit its slots.

Blow-up is reported as the first time the sup norm crosses a threshold, not
as an extrapolated singularity time: the model supplies no blow-up rate to
extrapolate with.  :class:`Refinement` extrapolates detection times in dx.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .diagnostics import DiagnosticsRecord, RecordWorkspace
from .errors import ConfigError, ParameterError
from .model import ModelParams, _real
from .operators import RhsKernel, _line_placed

__all__ = [
    "Grid",
    "GridState",
    "RunStatus",
    "RunOutcome",
    "stable_dt",
    "StepWorkspace",
    "step_rk4",
    "integrate",
    "Refinement",
    "estimate_blowup_time",
    "check_run",
]

# Nodes of slack the support of a healthy run may spill past L + c t.
SUPPORT_SLACK_NODES = 10
# How far a step reaches past its input's nonzeros (see the module docstring);
# MARGIN adds the window edge the kernel pins to zero.
REACH = 2
MARGIN = REACH + 1
# Steps between two measurements of the nonzero extent.
REFIT_STEPS = 16
# Rows of a step's workspace block (see StepWorkspace).
STEP_ROWS = 12


@dataclass(frozen=True)
class Grid:
    """Uniform spatial mesh on [xmin, xmax] with n nodes, n a Python int."""

    xmin: float
    xmax: float
    n: int

    def __post_init__(self):
        if type(self.n) is not int:
            raise ParameterError(f"grid.n must be a Python int, got {self.n!r}; pass int(n)")
        if self.n < 8:
            raise ParameterError(f"grid needs n >= 8 nodes, got {self.n}")
        for end in ("xmin", "xmax"):
            object.__setattr__(self, end, _real(getattr(self, end), f"grid.{end}", ParameterError))
        if not (-math.inf < self.xmin < self.xmax < math.inf):
            raise ParameterError(f"grid needs finite ends with xmax > xmin, "
                                 f"got [{self.xmin}, {self.xmax}]")

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / (self.n - 1)

    # Keyed by value: equal grids share one array, and the bound keeps the
    # memory flat however many grids a process creates.
    @functools.lru_cache(maxsize=16)
    def nodes(self) -> np.ndarray:
        """Node coordinates, computed once per grid; the array is read-only."""
        x = np.linspace(self.xmin, self.xmax, self.n)
        x.flags.writeable = False
        return x


@dataclass
class GridState:
    """Field pair (v, w = dv/dt) on a grid at one time instant, held as one
    ``(2, grid.n)`` block ``u``; ``v`` and ``w`` are its rows, read-only.

    Raises:
        ParameterError: for any other shape of ``u``, a stack of states included.
    """

    grid: Grid
    t: float
    u: np.ndarray

    def __post_init__(self):
        if self.u.shape != (2, self.grid.n):
            raise ParameterError(f"GridState needs u of shape (2, {self.grid.n}), one (v, w) "
                                 f"pair on its grid, got {self.u.shape}; build one per state "
                                 f"as np.stack((v, w)) from fields of {self.grid.n} nodes")

    @property
    def v(self) -> np.ndarray:
        return self.u[0]

    @property
    def w(self) -> np.ndarray:
        return self.u[1]

    def __eq__(self, other) -> bool:
        """Bitwise: same grid and t, and ``u``'s dtype and bytes (signs of zero count)."""
        if not isinstance(other, GridState):
            return NotImplemented
        return (self.grid, self.t, self.u.dtype, self.u.tobytes()) == (
            other.grid, other.t, other.u.dtype, other.u.tobytes())

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.v)))


class RunStatus(enum.Enum):
    COMPLETED = "completed"
    BLOWUP_DETECTED = "blowup_detected"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class RunOutcome:
    """Terminal status of an integration plus the recorded diagnostics.

    ``t_final`` is the horizon actually reached: the detection time for
    BLOWUP_DETECTED, the time of the first non-finite state for
    NUMERICAL_FAILURE, and the first time >= t_end otherwise.
    ``n_steps`` steps of ``dt`` were taken on ``stepped_frac`` of the
    columns on average.  ``record_s`` is the wall time spent staging records
    and computing them, in ``record_batches`` flushes of the run's
    :class:`~hyperburg.diagnostics.RecordWorkspace`.
    """

    status: RunStatus
    t_final: float
    records: list[DiagnosticsRecord]
    final_state: GridState
    n_steps: int
    dt: float
    stepped_frac: float
    record_s: float = field(compare=False)
    record_batches: int = field(default=0, compare=False)

    @property
    def t_detect(self) -> Optional[float]:
        return self.t_final if self.status is RunStatus.BLOWUP_DETECTED else None


def stable_dt(grid: Grid, params: ModelParams, cfl: float) -> float:
    """Explicit time step: wave CFL bound capped by the damping time.

    dt = min(cfl * dx / c, mu).  The wave bound dominates at practical
    resolutions; the mu cap guards the stiff strongly-damped limit.
    :func:`check_run`, not this formula, holds cfl in (0, 1].
    """
    return min(cfl * grid.dx / params.c, params.mu)


class StepWorkspace:
    """Buffers and bound views for one run's steps and records.

    ``window`` = (a, b) is the columns of a grid of ``n`` nodes that steps
    and records compute on: the whole grid, or with ``state`` its padded
    nonzero extent (see :meth:`fit`).  A step runs on the ``(STEP_ROWS,
    b - a)`` view at the head of the flat ``buffer``, whose element 1 starts a
    64-byte line, as does row r's first interior column when r (b - a) is a
    multiple of 8: at numpy's own offsets a step on 3,200 columns read 9-17%
    slower.  Its rows are

        0 v2 | 1 v0 | 2 w0 | 3 dw1 | 4 v4 | 5 v3 | 6 w3 | 7 dw3 |
        8-9 the weighted slope sum | 10 w2, then w4 | 11 dw2, then dw4,

    for stage inputs (v_s, w_s) and slopes k_s = (w_s, dw_s): ``u0``, the
    step's copy of the state's window, is rows [1:3], ``k1`` rows [2:4],
    and ``edges`` the copy's two w edge columns.  The ``pairs`` of
    :class:`~hyperburg.operators.RhsKernel` evaluate F from rows [0:2]
    into rows [4:6] and back, with the sum's rows as scratch; ``slopes``
    and ``rows`` hold the other views a step uses.  Binding zeroes the dw
    rows' boundary columns, which no kernel writes.  The scalar operands
    are 0-d arrays, refilled by :meth:`set_step` only when dt or the model
    changes.  ``record`` is the records' workspace, on the same window;
    rebinding moves the records staged there onto it.
    """

    __slots__ = ("buffer", "window", "u0", "k1", "edges", "rows", "pairs", "slopes",
                 "coefficients", "half", "full", "sixth", "key", "record", "spare")

    def __init__(self, n: int, state: Optional[GridState] = None):
        self.buffer = _line_placed(STEP_ROWS * n)
        self.record = RecordWorkspace(n)
        self.coefficients = tuple(np.zeros(()) for _ in range(4))
        self.half, self.full, self.sixth = (np.zeros(()) for _ in range(3))
        self.key = self.spare = None
        self.window = (n, 0)  # empty until bound
        if state is None:
            self._bind(0, n)
        else:
            self.fit(state)

    def _bind(self, a: int, b: int) -> None:
        self.window = (a, b)
        m = b - a
        block = self.buffer[:STEP_ROWS * m].reshape(STEP_ROWS, m)
        first, second, acc, k = block[0:4], block[4:8], block[8:10], block[10:12]
        block[3::4, ::m - 1] = 0.0  # the boundary columns of the dw rows 3, 7 and 11
        self.u0, self.k1, self.edges = first[1:3], first[2:4], first[2, ::m - 1]
        self.rows = (first[0], first[1], first[2], first[3], k[0], second[1:3], second[2],
                     second[0], second[3], first[0:2], acc)
        self.pairs = (RhsKernel(first[0:2], second[0:2], acc),
                      RhsKernel(second[0:2], first[0:2], acc))
        self.slopes = (RhsKernel.slope_views(self.k1, second[1]),
                       RhsKernel.slope_views(k, second[0]),
                       RhsKernel.slope_views(second[2:4], first[1]),
                       RhsKernel.slope_views(k, first[0]))
        self.record.bind(a, b)

    def set_step(self, grid: Grid, params: ModelParams, dt: float) -> None:
        """Fill the step's 0-d scalar operands, unless they hold these values.
        A run passes the same three objects every step, which compare by
        identity first."""
        key = (grid, params, dt)
        if key != self.key:
            for operand, value in zip(self.coefficients,
                                      RhsKernel.coefficients(grid.dx, params.mu, params.nu)):
                operand[...] = value
            self.half[...], self.full[...], self.sixth[...] = 0.5 * dt, dt, dt / 6.0
            self.key = key

    def slope(self, state: GridState) -> np.ndarray:
        """dw/dt of ``state`` on the window, with the bits of a step's first
        slope, from a one-row kernel on the spent rows.  The scalar operands
        are those of the last :meth:`set_step`.  Returns the ``k1`` row the
        next step overwrites."""
        a, b = self.window
        block = self.buffer[:STEP_ROWS * (b - a)].reshape(STEP_ROWS, b - a)
        np.copyto(self.u0, state.u[:, a:b])
        RhsKernel(block[1], block[5], block[8])(self.coefficients)  # F(v0) where step 1 puts it
        return RhsKernel.damp(self.slopes[0], self.coefficients[3])[1]

    def fit(self, state: GridState) -> None:
        """Grow the window to the nonzeros of ``state`` (the whole grid if it
        has none), padded so the next REFIT_STEPS - 1 steps keep MARGIN.  It
        never shrinks.  The step after those still leaves MARGIN - REACH
        zero columns inside each window edge that is not a grid edge, which
        the run-health check relies on."""
        n = state.grid.n
        live = np.flatnonzero(state.u.any(axis=0))
        if live.size == 0:
            a, b = 0, n
        else:
            pad = MARGIN + REACH * (REFIT_STEPS - 1)
            a, b = max(0, int(live[0]) - pad), min(n, int(live[-1]) + 1 + pad)
        a, b = min(a, self.window[0]), max(b, self.window[1])
        if (a, b) != self.window:
            self._bind(a, b)


def step_rk4(
    state: GridState,
    params: ModelParams,
    dt: float,
    work: Optional[StepWorkspace] = None,
) -> GridState:
    """Advance one classical Runge-Kutta step; boundary nodes re-pinned.

    ``work`` supplies the stage rows, the window (a fresh whole-grid workspace
    when None; inside each edge that is not a grid edge the state needs MARGIN
    zero columns) and ``work.spare``, None or a block zero outside the window
    that the step takes for the new state, else its one allocation.  It leaves the
    first of its four slopes, that of ``state`` on the window, in ``work.k1``.

    Each slope is dw/dt = F(v) - w * (1/mu) (see
    :class:`~hyperburg.operators.RhsKernel`).  v2 = v0 + h/2 w0 needs no
    slope, so F(v0) and F(v2) run as one call; once k2 is known so are v3
    and v4, and F(v3) and F(v4) run as a second.  Each stage input takes
    the IEEE operations of u + h k, row by row.  The slopes are combined as
    u + dt/6 * (k1 + 2 k2 + 2 k3 + k4), summed in that order; k4's weight
    of 1.0 is exact and so is not multiplied out, and 2 k is formed as
    k + k, which is exact too.  Every ufunc call passes its output
    positionally: the ``out=`` keyword costs 50-70 ns more per call.
    """
    if work is None:
        work = StepWorkspace(state.grid.n)
    work.set_step(state.grid, params, dt)
    u = state.u
    a, b = work.window
    win = u[:, a:b]
    v2, v0, w0, dw1, w, u3, w3, v4, dw3, twice, acc = work.rows
    first, second = work.pairs
    slope1, slope2, slope3, slope4 = work.slopes
    coefficients, half, full = work.coefficients, work.half, work.full
    damp, inv_mu = RhsKernel.damp, coefficients[3]

    np.copyto(work.u0, win)
    # The copy's w is k1's dv/dt row, whose edge columns a slope holds at
    # +0.0; no kernel writes them.  Every later stage's w edges are then
    # +0.0 + h * (+-0.0) = +0.0 as well.  The final update reads the
    # state's own window, edges included.
    work.edges[...] = 0.0
    np.multiply(w0, half, v2)
    np.add(v0, v2, v2)
    first(coefficients)
    k1 = damp(slope1, inv_mu)
    np.multiply(dw1, half, w)
    np.add(w0, w, w)
    k2 = damp(slope2, inv_mu)
    np.multiply(k2, half, u3)
    np.add(work.u0, u3, u3)
    np.multiply(w3, full, v4)
    np.add(v0, v4, v4)
    second(coefficients)  # v0 and v2 are spent: F(v4), F(v3) overwrite them
    k3 = damp(slope3, inv_mu)
    # The sum was the pairs' scratch; k2's rows are stage 4's next.
    np.add(k2, k2, acc)
    np.add(k1, acc, acc)
    np.multiply(dw3, full, w)
    np.add(w0, w, w)
    k4 = damp(slope4, inv_mu)
    np.add(k3, k3, twice)
    np.add(acc, twice, acc)
    np.add(acc, k4, acc)

    np.multiply(acc, work.sixth, acc)
    u_new, work.spare = np.zeros(u.shape) if work.spare is None else work.spare, None
    np.add(win, acc, u_new[:, a:b])
    if a == 0 or b == u.shape[1]:  # else both boundary columns are outside the window
        u_new[:, 0] = u_new[:, -1] = 0.0
    return GridState(state.grid, state.t + dt, u_new)


def check_run(grid: Grid, params: ModelParams, t_end: float, cfl: float,
              blowup_threshold: Optional[float],
              record_stride: int) -> tuple[float, float, Optional[float]]:
    """The one check of run arguments, for ``RunConfig`` and :func:`integrate`.

    Numbers pass :func:`~hyperburg.model._real`, then in order: cfl in (0, 1];
    blowup_threshold None or finite and > 0; record_stride an ``int`` (not a
    bool) >= 1; a finite t_end > 0; a grid SUPPORT_SLACK_NODES spacings past
    the support's reach +-(L + c t_end).  Returns ``(t_end, cfl, blowup_threshold)``.

    Raises:
        ConfigError: for the first rule broken.
    """
    cfl, t_end = _real(cfl, "cfl", ConfigError), _real(t_end, "t_end", ConfigError)
    if not (0.0 < cfl <= 1.0):
        raise ConfigError(f"cfl must lie in (0, 1], got {cfl}")
    if blowup_threshold is not None:
        blowup_threshold = _real(blowup_threshold, "blowup_threshold", ConfigError)
        if not (0.0 < blowup_threshold < math.inf):
            raise ConfigError(f"blowup_threshold must be finite and > 0, got {blowup_threshold}")
    if type(record_stride) is not int or record_stride < 1:
        raise ConfigError(f"record_stride must be an integer >= 1, got {record_stride!r}")
    if not (0.0 < t_end < math.inf):
        raise ConfigError(f"t_end must be a finite number > 0, got {t_end!r}; "
                          "give the run a positive, finite end time")
    reach = params.L + params.c * t_end + SUPPORT_SLACK_NODES * grid.dx
    if grid.xmax < reach or grid.xmin > -reach:
        raise ConfigError(f"grid [{grid.xmin}, {grid.xmax}] too small: support may reach "
                          f"+-{reach:.6g} by t={t_end} (speed c={params.c:.6g}, "
                          f"slack {SUPPORT_SLACK_NODES} nodes)")
    return t_end, cfl, blowup_threshold


def integrate(
    state0: GridState,
    params: ModelParams,
    t_end: float,
    blowup_threshold: Optional[float] = None,
    record_stride: int = 1,
    cfl: float = 0.4,
    observe: Optional[Callable[[GridState], None]] = None,
) -> RunOutcome:
    """Step from state0 until completion, blow-up detection, or failure.

    A diagnostics record is emitted for the initial state, after every
    ``record_stride`` steps, and for the terminal state.  Detection
    semantics: the run stops at the first state whose sup norm reaches
    ``blowup_threshold`` (by default 1e6 * max(1, sup|v0|), far above any
    bounded-solution scale at desk parameters and far below overflow), at
    the first non-finite state (NUMERICAL_FAILURE; no record is emitted for
    a broken state), or at the first time >= t_end.

    Run health is one max and one min per row of the new state on the
    step's window, which holds its extremes (see :meth:`StepWorkspace.fit`).
    NaN propagates through both and +-inf shows in one, so they are finite
    exactly when v and w are; sup|v| = max(max v, -min v).

    ``observe``, when given, is called with state0 before stepping and then
    with every finite state, in order; never with a non-finite state.  It
    must not change the states' arrays, and may keep them.  Without it, each
    state but state0 lends its block to the step after its own (``work.spare``).

    A record of a state the run steps from takes v_tt from that step's
    ``work.k1``, copied when the record is staged (see the module
    docstring), so only the terminal record evaluates its own slope, with
    :meth:`StepWorkspace.slope`: a run makes 4 * steps + 1 slope evaluations
    (a paired call makes two) whatever the stride.  Pure function of its
    arguments: identical inputs give bit-identical outcomes and records.

    Raises:
        ConfigError: with :func:`check_run`'s message wherever a ``RunConfig`` of
            these arguments would raise, or for a threshold at or below sup|v0|,
            which would report blow-up at the first step.
    """
    t_end, cfl, blowup_threshold = check_run(state0.grid, params, t_end, cfl,
                                             blowup_threshold, record_stride)
    sup0 = state0.sup_norm()
    if blowup_threshold is None:
        blowup_threshold = 1e6 * max(1.0, sup0)
    elif not blowup_threshold > sup0:
        raise ConfigError(f"blowup_threshold {blowup_threshold!r} must exceed sup|v0| = "
                          f"{sup0!r}; raise it, or set it null for the default")
    if observe is not None:
        observe(state0)

    dt = stable_dt(state0.grid, params, cfl)
    n = state0.grid.n
    work = StepWorkspace(n, state0)
    state, steps, stepped, status = state0, 0, 0, None
    maximum, minimum, isfinite = np.maximum.reduce, np.minimum.reduce, math.isfinite

    # Overflow past the threshold is handled explicitly below; silence the
    # transient warnings the last pre-detection steps would otherwise spew.
    with np.errstate(over="ignore", invalid="ignore"):
        while status is None:
            new_state = step_rk4(state, params, dt, work)
            a, b = work.window
            if steps % record_stride == 0:
                work.record.stage(state, params, work.k1[1])
            # Zero outside the window, which never shrinks; no caller holds it.
            work.spare = state.u if observe is None and state is not state0 else None
            state = new_state
            steps += 1
            stepped += b - a

            stepped_u = state.u[:, a:b]
            hi_v, hi_w = maximum(stepped_u, 1).tolist()
            lo_v, lo_w = minimum(stepped_u, 1).tolist()
            if not (isfinite(hi_v) and isfinite(hi_w) and isfinite(lo_v) and isfinite(lo_w)):
                # Keep the last healthy record; return the broken state as-is.
                status = RunStatus.NUMERICAL_FAILURE
                break
            if steps % REFIT_STEPS == 0:
                work.fit(state)
            if observe is not None:
                observe(state)

            blown = max(hi_v, -lo_v) >= blowup_threshold
            if blown or state.t >= t_end:
                status = RunStatus.BLOWUP_DETECTED if blown else RunStatus.COMPLETED
        if status is not RunStatus.NUMERICAL_FAILURE:
            work.record.stage(state, params, work.slope(state))
        work.record.flush()
    return RunOutcome(status=status, t_final=state.t, records=work.record.records,
                      final_state=state, n_steps=steps, dt=dt, stepped_frac=stepped / (steps * n),
                      record_s=work.record.seconds, record_batches=work.record.batches)


@dataclass(frozen=True)
class Refinement:
    """Blow-up detection times on a refinement ladder, coarse to fine.

    ``t_detect[k]`` is None where level ``n[k]`` missed blow-up.  ``order`` and
    ``t_inf`` assume each level halves dx, as ``refinement_ladder`` builds them.
    """

    n: tuple[int, ...]
    t_detect: tuple[Optional[float], ...]

    @property
    def converged(self) -> bool:
        """At least 2 levels, all detected, the two finest within 5% of the finest."""
        t = self.t_detect
        return len(t) >= 2 and None not in t and abs(t[-2] - t[-1]) < 0.05 * abs(t[-1])

    @property
    def order(self) -> Optional[float]:
        """Observed order p = log2(gap_{K-1} / gap_K) of the last three levels, or None."""
        t = self.t_detect[-3:]
        if len(t) < 3 or None in t or (t[0] - t[1]) * (t[1] - t[2]) <= 0.0:
            return None
        return math.log2((t[0] - t[1]) / (t[1] - t[2]))

    @property
    def t_inf(self) -> Optional[float]:
        """Richardson t_inf = t_K + (t_K - t_{K-1}) / (2^p - 1); None unless p > 0."""
        p, t = self.order, self.t_detect
        return None if p is None or p <= 0.0 else t[-1] + (t[-1] - t[-2]) / (2.0**p - 1.0)

    @property
    def t_inf_error(self) -> Optional[float]:
        """Error bar |t_inf - t_K| of the Richardson estimate."""
        return None if self.t_inf is None else abs(self.t_inf - self.t_detect[-1])


def estimate_blowup_time(outcomes_by_resolution: list[RunOutcome]) -> tuple[float, bool]:
    """(finest detection time, converged) of the outcomes' :class:`Refinement`.

    Kept for existing callers; raises ConfigError for fewer than 2 outcomes
    or one that is not BLOWUP_DETECTED.
    """
    if len(outcomes_by_resolution) < 2:
        raise ConfigError("need at least 2 outcomes at increasing resolution")
    for i, outcome in enumerate(outcomes_by_resolution):
        if outcome.status is not RunStatus.BLOWUP_DETECTED:
            raise ConfigError(f"outcome {i} is {outcome.status.value}, not blowup_detected")
    refinement = Refinement(tuple(o.final_state.grid.n for o in outcomes_by_resolution),
                            tuple(o.t_detect for o in outcomes_by_resolution))
    return refinement.t_detect[-1], refinement.converged
