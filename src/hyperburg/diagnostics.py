"""Functionals and inequality gaps monitored along a trajectory.

Everything here uses the solver's own stencils (see
:mod:`~hyperburg.operators`), and higher time derivatives (v_tt, v_ttt) are
reconstructed from the equation instead of stored: v_tt is the first slope
of the step that starts from the record's state, or, where no step does,
made in its slot (:meth:`RecordWorkspace.stage`).  Every record integral is
a :func:`~hyperburg.operators.trapezoid_dot` over its workspace's columns.

Records are staged, then computed in batches.  A record is a function of one
state, and nothing in a run reads it before the run ends, so the solver
copies each due record's inputs into a slot of its workspace, and up to
K = max(n, RECORD_COLUMNS_MIN) // span staged records are computed as one
stacked block, each with the bits it has alone; :func:`compute_record` is a
batch of one.

Monitored quantities (all but the cone maximum are fields of the record
that :func:`compute_record` assembles; the cone maximum is a streaming
observer, :class:`ConeMax`, that the solver calls with each state):

* the moments F = int x v dx and F' = int x w dx, whose growth identity
  mu F'' + F' = 1/2 int v^2 dx drives the blow-up argument; the certificate
  reads them from the t = 0 record;
* the energies E1, E2, E3 (half-sums of squares of first, second, and
  third derivatives, weighted by powers of c);
* the sup norm, the support interval, and the cone maximum for
  finite-propagation-speed checks;
* the Cauchy-Schwarz gap (2/3)(L + c t)^3 int v^2 - F^2;
* the cross-derivative integrals that complete the space integrals of the
  space-time Sobolev-type norms with mu^2/mu^4 (and, for H3, mu^6) weights;
  the norms themselves, like the identity residual and the Gronwall margin,
  are functions of the record series (:func:`sobolev_norms`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .model import ModelParams, _real
from .operators import RhsKernel, d1_central, d2_central, trapezoid_dot

if TYPE_CHECKING:  # solver imports diagnostics at runtime
    from .solver import Grid, GridState

__all__ = [
    "DiagnosticsRecord",
    "ConeMax",
    "identity_residual",
    "gronwall_check_E1",
    "sobolev_norms",
    "RecordWorkspace",
    "compute_record",
    "SUPPORT_REL_THRESHOLD",
]

# Relative support-detection threshold: scheme tails decay but never vanish.
SUPPORT_REL_THRESHOLD = 1e-12
# A record's columns start and end at multiples of RECORD_ALIGN (or at a grid
# end), as trapezoid_dot needs for the whole-grid bits.
RECORD_ALIGN = 32
# Rows of the record block, in order: v*w, v_tt, v, w, v_xx, w_xx; then the
# first differences of the first five, (v w)_x, v_xtt, v_x, w_x, v_xxx; v_ttt.
# Each row holds one column span per slot.  A flush squares rows 1:12 in one
# call and drops the squares of (v w)_x.
RECORD_ROWS = 12
# Fewest columns a record stack holds, whatever the grid: below about 2048
# columns a flush's fixed cost, about 33 us, outweighs its work per record, so
# a short run on a small grid keeps all its records for one flush.
RECORD_COLUMNS_MIN = 2048


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time sample of every monitored functional.

    The cross-derivative integrals (``int_vxt2`` and friends) carry the
    pieces of the Sobolev space integrals (see :func:`sobolev_norms`) that
    the energies alone do not.
    """

    t: float
    F: float
    Fprime: float
    E1: float
    E2: float
    E3: float
    sup_norm: float
    support_left: float
    support_right: float
    schwartz_gap: float
    half_int_v2: float
    int_vxt2: float
    int_vxtt2: float
    int_vxxt2: float


def _outermost(magnitude: np.ndarray, thresholds, x: np.ndarray) -> list[tuple[float, float]]:
    """For each slot j of the ``(2, k, m)`` ``magnitude``, the first and last
    ``x`` whose column exceeds ``thresholds[j]`` in either row, or (0.0, 0.0),
    the empty-support marker.  ``np.fmax`` skips a NaN in one row, as
    ``(magnitude > threshold).any(axis=0)`` would; ``np.maximum`` would not.
    The row maximum overwrites ``magnitude[0]``, so that a flush allocates
    no ``(k, m)`` block for it.

    Raises:
        ParameterError: unless every threshold is positive.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if not all([t > 0.0 for t in thresholds.tolist()]):  # NaN fails too
        raise ParameterError(f"support threshold must be positive, got {thresholds.tolist()}")
    over = np.fmax(magnitude[0], magnitude[1], magnitude[0]) > thresholds[:, None]
    last = over.shape[1] - 1
    return [(float(x[i]), float(x[last - j])) if row[i] else (0.0, 0.0)
            for row, i, j in zip(over, over.argmax(axis=1).tolist(),
                                 over[:, ::-1].argmax(axis=1).tolist())]


def identity_residual(
    records: Sequence[DiagnosticsRecord],
    params: ModelParams,
) -> Optional[float]:
    """Max defect of the discrete moment identity mu F'' + F' = 1/2 int v^2.

    F'' and F' are centered differences of the recorded F samples; only
    uniformly spaced consecutive triples are used (a terminal record may
    sit off the stride).  None when there are fewer than 3 records or no
    triple is uniform: nothing checked.
    """
    if len(records) < 3:
        return None
    t = [r.t for r in records]
    f = [r.F for r in records]
    rhs_half_v2 = [r.half_int_v2 for r in records]
    dt = t[1] - t[0]
    worst = 0.0
    checked = False
    for i in range(1, len(records) - 1):
        if abs((t[i] - t[i - 1]) - dt) > 1e-9 * dt:
            continue
        if abs((t[i + 1] - t[i]) - dt) > 1e-9 * dt:
            continue
        f_tt = (f[i + 1] - 2.0 * f[i] + f[i - 1]) / (dt * dt)
        f_t = (f[i + 1] - f[i - 1]) / (2.0 * dt)
        worst = max(worst, abs(params.mu * f_tt + f_t - rhs_half_v2[i]))
        checked = True
    return worst if checked else None


def gronwall_check_E1(
    records: Sequence[DiagnosticsRecord],
    params: ModelParams,
) -> float:
    """Worst margin of the exponential energy bound.

    For each record, margin = exp(M t / (mu c)) * E1(0) - E1(t) with M the
    running max of the sup norm up to that record.  The bound proved by
    the energy/Gronwall argument makes every margin nonnegative up to
    discretization error; the minimum over records is returned.
    """
    if not records:
        raise ParameterError("need at least one record")
    e1_0 = records[0].E1
    scale = 1.0 / (params.mu * params.c)
    running_max = 0.0
    worst = math.inf
    for rec in records:
        running_max = max(running_max, rec.sup_norm)
        bound = math.exp(min(running_max * scale * rec.t, 709.0)) * e1_0
        worst = min(worst, bound - rec.E1)
    return worst


def sobolev_norms(records: Sequence[DiagnosticsRecord], params: ModelParams) -> tuple[float, float]:
    """Space-time Sobolev-type norms (H2, H3) over [t_0, t_last] of the records.

    Each is the square root of the trapezoid rule over the record times of
    a weighted space integral: for H2,
    mu^4 int (v_tt^2 + c^2 v_xt^2 + c^4 v_xx^2) + mu^2 int (v_t^2 + c^2 v_x^2)
    + int v^2, and for H3 that plus mu^6 int (v_ttt^2 + c^2 v_xtt^2
    + c^4 v_xxt^2 + c^6 v_xxx^2).  Both records of each interval weigh 1/2,
    so the sums converge at second order in the record spacing.
    """
    mu2, c2 = params.mu * params.mu, params.c * params.c
    h2 = h3 = 0.0
    for i, rec in enumerate(records):
        # int (v_tt^2 + c^2 v_xt^2 + c^4 v_xx^2) = 2 E2 + c^2 int v_xt^2, etc.
        second = 2.0 * rec.E2 + c2 * rec.int_vxt2
        third = 2.0 * rec.E3 + c2 * rec.int_vxtt2 + c2 * c2 * rec.int_vxxt2
        s2 = mu2 * mu2 * second + mu2 * (2.0 * rec.E1) + 2.0 * rec.half_int_v2
        s3 = s2 + mu2 * mu2 * mu2 * third
        if i:
            h2 += 0.5 * (rec.t - t_prev) * (s2_prev + s2)
            h3 += 0.5 * (rec.t - t_prev) * (s3_prev + s3)
        t_prev, s2_prev, s3_prev = rec.t, s2, s3
    return math.sqrt(max(h2, 0.0)), math.sqrt(max(h3, 0.0))


class ConeMax:
    """Max |v| over the backward cone {|x - x_c| <= c (t_c - t)}, streamed.

    Pass an instance as the ``observe`` callback of
    :func:`~hyperburg.solver.integrate`; it keeps the running maximum, not
    the states.  Only states with t <= t_c contribute.

    The offsets x - x_c of the last grid seen are kept.  They are sorted, as
    the nodes are, so the cone's nodes {|x - x_c| <= r} are the one index
    range {-r <= x - x_c <= r}, found by bisection: the same nodes as a
    whole-grid mask, and so the same maximum.

    Raises:
        ParameterError: unless x_c and t_c are real numbers and t_c > 0.
    """

    def __init__(self, x_c: float, t_c: float, params: ModelParams):
        x_c, t_c = _real(x_c, "x_c", ParameterError), _real(t_c, "t_c", ParameterError)
        if not (t_c > 0.0):
            raise ParameterError(f"cone apex time must be positive, got {t_c}")
        self.x_c, self.t_c, self.c = x_c, t_c, params.c
        self._worst: Optional[float] = None
        self._grid, self._offsets = None, None

    def __call__(self, state: GridState) -> None:
        """Fold one state into the maximum.

        Raises:
            DomainError: when the cone base at t = 0 pokes outside a new grid.
        """
        if state.t > self.t_c:
            return
        grid = state.grid
        if grid is not self._grid:
            base_left = self.x_c - self.c * self.t_c
            base_right = self.x_c + self.c * self.t_c
            if not (grid.xmin <= base_left and base_right <= grid.xmax):
                raise DomainError(f"cone base [{base_left:.6g}, {base_right:.6g}] outside grid "
                                  f"[{grid.xmin}, {grid.xmax}]")
            self._grid, self._offsets = grid, grid.nodes() - self.x_c
        radius = self.c * (self.t_c - state.t)
        lo = int(self._offsets.searchsorted(-radius, "left"))
        hi = int(self._offsets.searchsorted(radius, "right"))
        peak = float(np.max(np.abs(state.v[lo:hi]))) if lo < hi else 0.0
        self._worst = peak if self._worst is None else max(self._worst, peak)

    @property
    def value(self) -> float:
        """The maximum over every state seen at t <= t_c.

        Raises:
            DomainError: when no such state was seen (nothing was checked).
        """
        if self._worst is None:
            raise DomainError("no trajectory states at times <= the cone apex time")
        return self._worst


class RecordWorkspace:
    """The one buffer one run's records are computed in, for ``grid`` and ``params``.

    The workspace belongs to one grid and one model by construction, and
    records on the solver window ``window`` = (a, b), whose columns hold
    every nonzero of the state, until :meth:`bind` widens it.  ``span`` =
    (lo, hi) is that window widened outward to multiples of RECORD_ALIGN
    columns, capped at the grid's end.  A record is staged: :meth:`stage`
    copies a state's (v, w) on the span and its v_tt into the next of
    ``slots`` = max(n, RECORD_COLUMNS_MIN) // (hi - lo) slots of the
    ``(RECORD_ROWS, slots, hi - lo)`` stack at the head of the flat
    ``buffer``, and each slot is complete when it is staged: its v_tt is
    +0.0 outside the window.  :meth:`flush` computes the k staged slots as
    one ``(RECORD_ROWS, k, hi - lo)`` block there and appends their records
    to ``records``, in staging order.  Staging flushes when the slots are
    full.  Binding moves the staged slots onto the new span, or flushes them
    first when they do not fit its slots, so every staged slot is on one
    span.  ``batches`` counts the flushes, and ``seconds`` the wall time
    spent staging, moving and flushing.  Rebinding allocates nothing, and a
    flush overwrites its whole block.  No method silences floating-point
    warnings: a caller whose states may overflow holds
    ``np.errstate(over="ignore", invalid="ignore")``, as
    :func:`~hyperburg.solver.integrate` and :func:`compute_record` do, so
    that a flush does not pay for its own.
    """

    __slots__ = ("buffer", "grid", "params", "window", "span", "slots", "stack", "staged",
                 "records", "batches", "seconds")

    def __init__(self, grid: Grid, params: ModelParams, window: tuple[int, int]):
        self.buffer = np.empty(RECORD_ROWS * max(grid.n, RECORD_COLUMNS_MIN))
        self.grid, self.params = grid, params
        self.staged: list[float] = []  # the t of each staged slot
        self.records: list[DiagnosticsRecord] = []
        self.batches, self.seconds = 0, 0.0
        self.bind(*window)

    def bind(self, a: int, b: int) -> None:
        """Record on the solver window [a, b), which holds the current one.

        Staged slots that fit the new span's slots move onto it: a record
        computed on a wider span that is still RECORD_ALIGN-aligned keeps
        its bits (see :func:`~hyperburg.operators.trapezoid_dot`).  Staged
        slots that do not fit are flushed first."""
        columns = self.buffer.size // RECORD_ROWS
        lo, hi = a - a % RECORD_ALIGN, min(self.grid.n, -(-b // RECORD_ALIGN) * RECORD_ALIGN)
        slots = columns // (hi - lo)
        if len(self.staged) >= slots:
            self.flush()
        stack = self.buffer[:RECORD_ROWS * slots * (hi - lo)].reshape(RECORD_ROWS, slots, hi - lo)
        if self.staged:
            t0 = perf_counter()
            lo0, hi0 = self.span
            staged = self.stack[1:4, :len(self.staged)]
            # Rows 1:4 of either stack lie in the buffer's first 4 * columns
            # doubles, so the slots wait past them while the stack moves.
            held = self.buffer[4 * columns:4 * columns + staged.size].reshape(staged.shape)
            np.copyto(held, staged)
            moved = stack[1:4, :len(self.staged)]
            moved[..., :lo0 - lo] = moved[..., hi0 - lo:] = 0.0
            np.copyto(moved[..., lo0 - lo:hi0 - lo], held)
            self.seconds += perf_counter() - t0
        self.window, self.span, self.slots, self.stack = (a, b), (lo, hi), slots, stack

    def stage(self, state: GridState, v_tt: Optional[np.ndarray] = None) -> None:
        """Copy the state's record inputs into the next slot, which is then
        complete, and flush when the slots are full.  ``v_tt`` is dw/dt on
        the columns of ``window``, copied; when None, the slot makes it on
        the span as a step's first slope, with F(v) in its rows 4-5 (a
        flush's), and pins its edges to +0.0.  Either way the slot's v_tt is
        +0.0 outside the window."""
        t0 = perf_counter()
        (a, b), (lo, hi) = self.window, self.span
        slot = self.stack[:, len(self.staged)]
        slot[2:4] = state.u[:, lo:hi]
        if v_tt is None:
            coefficients = RhsKernel.coefficients(self.grid.dx, self.params.mu, self.params.nu)
            RhsKernel(slot[2], slot[4], slot[5])(coefficients)
            RhsKernel.damp(RhsKernel.slope_views(slot[3:0:-2], slot[4]), coefficients[3])
            slot[1, ::hi - lo - 1] = 0.0
        else:
            slot[1, a - lo:b - lo] = v_tt
        slot[1, :a - lo] = slot[1, b - lo:] = 0.0
        self.staged.append(state.t)
        self.seconds += perf_counter() - t0
        if len(self.staged) == self.slots:
            self.flush()

    def flush(self) -> None:
        """Compute the records of every staged slot, as one block."""
        k = len(self.staged)
        if k == 0:
            return
        t0 = perf_counter()
        lo, hi = self.span
        m = hi - lo
        block = self.buffer[:RECORD_ROWS * k * m].reshape(RECORD_ROWS, k, m)
        if k < self.slots:  # close the staged rows up into the k-slot block
            block[1:4] = self.stack[1:4, :k]
        grid, params = self.grid, self.params
        dx, mu, nu, n = grid.dx, params.mu, params.nu, grid.n
        c, L = params.c, params.L
        c2 = c * c
        c4, c6 = c2**2, c2**3
        v_tt, v_ttt = block[1], block[11]
        d2_central(block[2:4], dx, out=block[4:6])
        np.multiply(block[2], block[3], block[0])  # v * w
        d1_central(block[:5], dx, out=block[6:11])
        # d/dt of the w-equation (flux v^2/2 differentiates to v*w), in place.
        np.multiply(block[5], nu, v_ttt)  # w_xx
        np.subtract(v_ttt, block[6], v_ttt)  # (v w)_x
        np.subtract(v_ttt, v_tt, v_ttt)
        np.multiply(v_ttt, 1.0 / mu, v_ttt)  # as RhsKernel.damp
        v_ttt[:, 0] = v_ttt[:, -1] = 0.0

        squares = zip(*trapezoid_dot(block[1:], block[1:], dx, lo, n))
        x = grid.nodes()[lo:hi]
        moments = zip(*trapezoid_dot(x, block[2:4], dx, lo, n))
        # The differences are spent: |u| goes where v_x and w_x were.
        magnitude = np.abs(block[2:4], block[8:10])
        sups = magnitude[0].max(axis=1)
        edges = _outermost(magnitude, SUPPORT_REL_THRESHOLD * (1.0 + sups), x)

        # Positional fields, in DiagnosticsRecord's order.
        append = self.records.append
        for t, integrals, (f, fp), sup, (left, right) in zip(
                self.staged, squares, moments, sups.tolist(), edges):
            (int_vtt2, int_v2, int_w2, int_vxx2, int_vxxt2, _, int_vxtt2, int_vx2,
             int_vxt2, int_vxxx2, int_vttt2) = integrals
            half_v2 = 0.5 * int_v2
            radius = L + c * t
            append(DiagnosticsRecord(
                t, f, fp, 0.5 * (int_w2 + c2 * int_vx2), 0.5 * (int_vtt2 + c4 * int_vxx2),
                0.5 * (int_vttt2 + c6 * int_vxxx2), sup, left, right,
                (2.0 / 3.0) * radius**3 * (2.0 * half_v2) - f * f, half_v2,
                int_vxt2, int_vxtt2, int_vxxt2))
        self.staged.clear()
        self.batches += 1
        self.seconds += perf_counter() - t0


def compute_record(state: GridState, params: ModelParams) -> DiagnosticsRecord:
    """Assemble the full diagnostics record for one state: a batch of one.

    The record's workspace is built for the state's grid and ``params`` on
    the whole grid, and its v_tt is made in the record's slot
    (:meth:`RecordWorkspace.stage`), complete when staged.
    """
    work = RecordWorkspace(state.grid, params, (0, state.grid.n))
    with np.errstate(over="ignore", invalid="ignore"):
        work.stage(state)
        work.flush()
    return work.records.pop()
