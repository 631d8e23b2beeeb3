"""Shared finite-difference stencils and the semi-discrete right-hand side.

Both the time integrator and the diagnostics use exactly these operators, so
discrete identities (moment growth, integration by parts) hold to roundoff
instead of mixing inconsistent approximations.  All stencils are second-order
central differences on a uniform grid; the two boundary nodes are forced to
zero, which is exact as long as the support never reaches them.

Every stencil acts on the last axis (``f[..., 1:-1]``), so a ``(B, n)``
stack of B rows is differenced row by row with the same arithmetic as a
single row, bit for bit: a diagnostics record differences its (v, w) rows in
one call and five more rows in another.  The two stencils take an optional
``out=`` buffer shaped like their input; with it the call allocates no
array.  An ``out`` buffer must not overlap the inputs.

:func:`pde_rhs` evaluates the slope of (v, w) as one ``(2, ...)`` block, like
a solver state's ``(2, n)`` ``u``, in one fused sequence of in-place ufunc
passes, held once by :class:`RhsKernel`: the solver's workspace binds two
kernels per window, :func:`pde_rhs` one per call.
"""

from __future__ import annotations

import numpy as np

try:
    from numpy import trapezoid
except ImportError:  # numpy < 2.0
    from numpy import trapz as trapezoid  # type: ignore[attr-defined]

__all__ = [
    "trapezoid",
    "trapezoid_dot",
    "d1_central",
    "d2_central",
    "stencil_views",
    "RhsKernel",
    "pde_rhs",
]


# OpenBLAS runs a dot on several threads above 10,000 elements, and then its
# bits depend on the thread count.  trapezoid_dot reduces in pieces that end
# at grid columns that are multiples of DOT_SPLIT, so no piece is threaded and
# no split point depends on which columns the caller passes.
DOT_SPLIT = 8192


def trapezoid_dot(a: np.ndarray, b: np.ndarray, dx: float, lo: int = 0,
                  n: int | None = None) -> float:
    """Trapezoidal rule for int a*b dx on a uniform grid of ``n`` nodes.

    ``a`` and ``b`` are 1-D and hold the grid columns [lo, lo + len(a)), the
    whole grid by default; outside them the integrand must be zero.  The dot
    product is split at the grid columns that are multiples of DOT_SPLIT and
    its pieces are added left to right, so its bits do not depend on the
    BLAS thread count.  Nor do they depend on the columns passed, as long as
    their edges are multiples of 32 or grid ends (as
    :class:`~hyperburg.diagnostics.RecordWorkspace` takes them): each piece
    then keeps the SIMD lanes of OpenBLAS's dot kernel, and on a grid of at
    most DOT_SPLIT nodes the sum is one whole-grid ``np.dot``.  The
    half-weight end correction, dx * (a.b - (a[0] b[0] + a[-1] b[-1]) / 2),
    enters only at the grid ends the columns reach.  Returns a Python float.

    Two other reductions were measured and rejected: an ``np.einsum`` sum
    over the columns often differs from the whole-grid sum, and an unsplit
    dot over them differs from the whole-grid dot once OpenBLAS threads it,
    above 10,000 columns.
    """
    m = a.shape[-1]
    n = lo + m if n is None else n
    cut = DOT_SPLIT - lo % DOT_SPLIT
    if cut >= m:
        # The general path gives the same bits, but its slices and empty loop
        # made stride-1 runs at n = 4096 to 8192 about 5% slower (numpy 2.4,
        # 2 x86-64 cores).
        total = float(np.dot(a, b))
    else:
        total = float(np.dot(a[:cut], b[:cut]))
        for start in range(cut, m, DOT_SPLIT):
            total += float(np.dot(a[start:start + DOT_SPLIT], b[start:start + DOT_SPLIT]))
    if lo == 0 or lo + m == n:
        ends = (a[0] * b[0] if lo == 0 else 0.0) + (a[-1] * b[-1] if lo + m == n else 0.0)
        total -= 0.5 * ends
    return float(dx * total)


def d1_central(f: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """First derivative, (f[i+1] - f[i-1]) / (2 dx), zero at the boundary."""
    if out is None:
        out = np.empty_like(f)
    inner = out[..., 1:-1]
    np.subtract(f[..., 2:], f[..., :-2], out=inner)
    np.divide(inner, 2.0 * dx, out=inner)
    out[..., 0] = out[..., -1] = 0.0
    return out


def d2_central(f: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Second derivative, (f[i+1] - 2 f[i] + f[i-1]) / dx^2, zero at the boundary."""
    if out is None:
        out = np.empty_like(f)
    inner = out[..., 1:-1]
    np.multiply(f[..., 1:-1], 2.0, out=inner)
    np.subtract(f[..., 2:], inner, out=inner)
    np.add(inner, f[..., :-2], out=inner)
    np.divide(inner, dx * dx, out=inner)
    out[..., 0] = out[..., -1] = 0.0
    return out


def stencil_views(fields) -> tuple[np.ndarray, ...]:
    """v[i+1], v[i-1], v[i], w[i] over the interior, from a (v, w) block or pair."""
    v, w = fields[0], fields[1]
    return v[..., 2:], v[..., :-2], v[..., 1:-1], w[..., 1:-1]


class RhsKernel:
    """The arithmetic of :func:`pde_rhs`, bound to one ``(2, ..., n)`` slope block ``out``.

    Construction zeroes the boundary of ``out`` and keeps views of its
    interiors; a call writes only those interiors and returns ``out``, so
    the boundary stays zero while no one else writes to it.
    """

    __slots__ = ("out", "dv", "dw")

    def __init__(self, out: np.ndarray):
        self.out = out
        out[..., 0] = out[..., -1] = 0.0
        self.dv, self.dw = out[0, ..., 1:-1], out[1, ..., 1:-1]

    def __call__(self, views: tuple[np.ndarray, ...], dx: float, mu: float, nu: float):
        """Slope of the fields with these :func:`stencil_views`; the dv/dt
        interior serves as scratch before w is copied into it."""
        v_right, v_left, v_mid, w_mid = views
        a = nu / (mu * dx * dx)
        b = 1.0 / (4.0 * mu * dx)
        s, scratch = self.dw, self.dv
        np.subtract(v_right, v_left, out=scratch)
        np.multiply(scratch, -b, out=scratch)
        np.add(scratch, a, out=scratch)
        np.add(v_right, v_left, out=s)
        np.multiply(s, scratch, out=s)
        np.multiply(v_mid, 2.0 * a, out=scratch)
        np.subtract(s, scratch, out=s)
        np.divide(w_mid, mu, out=scratch)
        np.subtract(s, scratch, out=s)
        np.copyto(scratch, w_mid)
        return self.out


def pde_rhs(v: np.ndarray, w: np.ndarray, dx: float, mu: float, nu: float) -> np.ndarray:
    """Right-hand side of the first-order system for the hyperbolic model.

    The equation mu*v_tt + v_t + v*v_x = nu*v_xx is advanced as

        dv/dt = w
        dw/dt = (nu * v_xx - d/dx(v^2/2) - w) / mu

    with v_xx = d2_central(v) and the flux difference d1_central(v^2/2).
    With s = v[i+1] + v[i-1] and d = v[i+1] - v[i-1] the interior of
    dw/dt factors as

        (a - b*d) * s - 2a * v[i] - w[i] / mu,
        a = nu / (mu dx^2),   b = 1 / (4 mu dx),

    which a :class:`RhsKernel` bound to a fresh result block evaluates in
    place.  Returns the ``(2, ...)`` block of dv/dt and dw/dt, rows shaped
    like v; boundary entries of both are zero (pinned nodes).
    """
    return RhsKernel(np.empty((2, *v.shape)))(stencil_views((v, w)), dx, mu, nu)
