"""Shared finite-difference stencils and the semi-discrete right-hand side.

Both the time integrator and the diagnostics use exactly these operators and
the trapezoidal rule, so discrete identities (moment growth, integration by
parts) hold to roundoff, not to quadrature error.  All stencils are
second-order central differences on a uniform grid, zero at the two
boundary nodes (see :mod:`~hyperburg.solver`).

Every stencil acts on the last axis, so a ``(B, n)`` stack of B rows is
differenced row by row, bit for bit as each row alone.  A C-contiguous stack
and its ``out`` buffer run as one flat row, and the seam columns computed
across rows are then zeroed.  The stencils take an optional ``out=`` buffer
shaped like their input, which must not overlap it; with it the call
allocates no array.  :class:`RhsKernel` holds the one copy of the slope
arithmetic, which steps and record slots use; :func:`pde_rhs`, which
allocates, is the reference that tests and the benchmark call.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "trapezoid_dot",
    "d1_central",
    "d2_central",
    "RhsKernel",
    "pde_rhs",
]


# trapezoid_dot splits its dot at the grid columns that are multiples of this.
DOT_SPLIT = 8192


def trapezoid_dot(a: np.ndarray, b: np.ndarray, dx: float, lo: int = 0,
                  n: int | None = None) -> float | list[float]:
    """Trapezoidal rule for int a*b dx on a uniform grid of ``n`` nodes.

    ``a`` and ``b`` hold the grid columns [lo, lo + m) on their last axis, the
    whole grid by default; outside them the integrand must be zero.  1-D
    operands give a Python float.  Stacked operands, such as ``(k, m)`` or
    ``(k, j, m)``, broadcast as ``np.vecdot`` does, give nested lists of
    floats shaped like the stack, each with the bits of its row passed
    alone (``np.vecdot`` equals ``np.dot`` row by row).

    Why a record's integrals are the whole-grid bits, whatever its window:
    OpenBLAS threads a dot above 10,000 elements, and then its bits depend
    on the thread count.  So the dot is split at the grid columns that are
    multiples of DOT_SPLIT, and its pieces are added left to right; no piece
    is threaded, and no split point depends on the columns passed.  When
    their edges are multiples of 32 or grid ends (as
    :class:`~hyperburg.diagnostics.RecordWorkspace` takes them), each piece
    sums a whole number of the blocks OpenBLAS's dot kernel sums in SIMD
    lanes, so the zero columns left out change no lane.  On a grid of at
    most DOT_SPLIT nodes the sum is one whole-grid ``np.dot``.  The
    half-weight end correction, dx * (a.b - (a[0] b[0] + a[-1] b[-1]) / 2),
    enters only at the grid ends the columns reach.
    """
    m = a.shape[-1]
    n = lo + m if n is None else n
    cut = DOT_SPLIT - lo % DOT_SPLIT
    total = np.vecdot(a[..., :cut], b[..., :cut])
    for start in range(cut, m, DOT_SPLIT):
        total += np.vecdot(a[..., start:start + DOT_SPLIT], b[..., start:start + DOT_SPLIT])
    if lo == 0 or lo + m == n:
        ends = ((a[..., 0] * b[..., 0] if lo == 0 else 0.0)
                + (a[..., -1] * b[..., -1] if lo + m == n else 0.0))
        total -= 0.5 * ends
    return np.multiply(total, dx).tolist()


def _line_placed(size: int) -> np.ndarray:
    """An empty float64 array of ``size`` elements whose element 1 starts a
    64-byte cache line: 8 doubles more are allocated, and the view skips
    the 0-7 that put it there."""
    raw = np.empty(size + 8)
    skip = (-1 - raw.ctypes.data // 8) % 8
    return raw[skip:skip + size]


def _as_rows(*arrays: np.ndarray) -> tuple[np.ndarray, ...] | list[np.ndarray]:
    """The arrays as one flat row each when all are C-contiguous stacks,
    else as given; the caller zeroes or skips the seam columns."""
    if arrays[0].ndim > 1 and all([x.flags.c_contiguous for x in arrays]):
        return [x.reshape(-1) for x in arrays]
    return arrays


def d1_central(f: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """First derivative, (f[i+1] - f[i-1]) * (1 / (2 dx)), zero at the boundary."""
    if out is None:
        out = np.empty_like(f)
    src, dst = _as_rows(f, out)
    inner = dst[..., 1:-1]
    np.subtract(src[..., 2:], src[..., :-2], out=inner)
    np.multiply(inner, 0.5 / dx, out=inner)
    out[..., 0] = out[..., -1] = 0.0
    return out


def d2_central(f: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Second derivative, (f[i+1] - 2 f[i] + f[i-1]) * (1 / dx^2), zero at the boundary."""
    if out is None:
        out = np.empty_like(f)
    src, dst = _as_rows(f, out)
    inner = dst[..., 1:-1]
    np.multiply(src[..., 1:-1], 2.0, out=inner)
    np.subtract(src[..., 2:], inner, out=inner)
    np.add(inner, src[..., :-2], out=inner)
    np.multiply(inner, 1.0 / (dx * dx), out=inner)
    out[..., 0] = out[..., -1] = 0.0
    return out


class RhsKernel:
    """The two parts of :func:`pde_rhs`'s dw/dt, bound to buffers.

    A call writes F(v) to the interior of every row of ``f``, using the
    interior of ``scratch``; ``v``, ``f`` and ``scratch`` are shaped alike
    and do not overlap.  C-contiguous stacks run as one flat row, as in the
    stencils.  ``rows`` is the number of slopes a call serves.  :meth:`damp`
    completes one slope from its F and writes only the dw/dt interior.  Both
    pass each ufunc's output positionally, as
    :func:`~hyperburg.solver.step_rk4` does.
    Like the stencils, it multiplies by reciprocals, at half a division's cost:
    within one ulp of the quotient, and its bits when mu (dx) is a power of two.
    """

    __slots__ = ("rows", "views", "f", "scratch")

    def __init__(self, v: np.ndarray, f: np.ndarray, scratch: np.ndarray):
        self.rows = v.size // v.shape[-1]
        src, dst, tmp = _as_rows(v, f, scratch)
        self.views = src[..., 2:], src[..., :-2], src[..., 1:-1]
        self.f, self.scratch = dst[..., 1:-1], tmp[..., 1:-1]

    @staticmethod
    def coefficients(dx: float, mu: float, nu: float) -> tuple[float, float, float, float]:
        """The scalar operands (-b, a, 2a, 1/mu); see :func:`pde_rhs`."""
        a = nu / (mu * dx * dx)
        b = 1.0 / (4.0 * mu * dx)
        return -b, a, 2.0 * a, 1.0 / mu

    def __call__(self, coefficients) -> None:
        """F for these :meth:`coefficients`, as floats or as 0-d arrays,
        which numpy takes without converting them on every call."""
        v_right, v_left, v_mid = self.views
        neg_b, a, two_a, _ = coefficients
        f, scratch = self.f, self.scratch
        np.subtract(v_right, v_left, scratch)
        np.multiply(scratch, neg_b, scratch)
        np.add(scratch, a, scratch)
        np.add(v_right, v_left, f)
        np.multiply(f, scratch, f)
        np.multiply(v_mid, two_a, scratch)
        np.subtract(f, scratch, f)

    @staticmethod
    def slope_views(k: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, ...]:
        """:meth:`damp`'s views of the slope block ``k`` = (w, dw/dt) and of
        its F row ``f``, which does not overlap it."""
        return k, k[0, ..., 1:-1], f[..., 1:-1], k[1, ..., 1:-1]

    @staticmethod
    def damp(slope: tuple[np.ndarray, ...], inv_mu) -> np.ndarray:
        """dw/dt = F - w * inv_mu on these :meth:`slope_views`; returns ``k``."""
        k, w, f, dw = slope
        np.multiply(w, inv_mu, dw)
        np.subtract(f, dw, dw)
        return k


def pde_rhs(v: np.ndarray, w: np.ndarray, dx: float, mu: float, nu: float) -> np.ndarray:
    """Right-hand side of the first-order system for the hyperbolic model.

    The equation mu*v_tt + v_t + v*v_x = nu*v_xx is advanced as

        dv/dt = w
        dw/dt = (nu * v_xx - d/dx(v^2/2) - w) / mu

    with v_xx = d2_central(v) and the flux difference d1_central(v^2/2).
    With s = v[i+1] + v[i-1] and d = v[i+1] - v[i-1] the interior of
    dw/dt factors as

        F(v) - w[i] * (1/mu),   F(v) = (a - b*d) * s - 2a * v[i],
        a = nu / (mu dx^2),   b = 1 / (4 mu dx),

    which a :class:`RhsKernel` evaluates in its two parts.  Returns the
    ``(2, ...)`` block of dv/dt and dw/dt, rows shaped like v; boundary
    entries of both are zero (pinned nodes).
    """
    out = np.empty((2, *v.shape))
    f = np.empty_like(v)
    RhsKernel(v, f, out[1])(RhsKernel.coefficients(dx, mu, nu))
    np.copyto(out[0], w)
    out[..., 0] = out[..., -1] = 0.0
    return RhsKernel.damp(RhsKernel.slope_views(out, f), 1.0 / mu)
