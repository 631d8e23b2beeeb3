import numpy as np
import pytest

from hyperburg import operators
from hyperburg.operators import (
    DOT_SPLIT, RhsKernel, d1_central, d2_central, pde_rhs, trapezoid_dot)


def test_d1_exact_on_quadratic():
    x = np.linspace(0.0, 1.0, 11)
    out = d1_central(x * x, 0.1)
    assert out[0] == 0.0 and out[-1] == 0.0
    assert out[1:-1] == pytest.approx(2.0 * x[1:-1], rel=1e-12)


def test_d2_exact_on_quadratic():
    x = np.linspace(0.0, 1.0, 11)
    out = d2_central(3.0 * x * x, 0.1)
    assert out[0] == 0.0 and out[-1] == 0.0
    assert out[1:-1] == pytest.approx(6.0, rel=1e-10)


def test_d1_central_of_half_v_squared_matches_v_vx_for_smooth_field():
    x = np.linspace(-1.0, 1.0, 2001)
    dx = x[1] - x[0]
    v = np.sin(x)
    expected = v * np.cos(x)  # v * v_x
    got = d1_central(0.5 * v * v, dx)  # the flux difference d/dx(v^2/2)
    assert got[1:-1] == pytest.approx(expected[1:-1], abs=5e-7)


def test_pde_rhs_zero_state():
    v = np.zeros(64)
    w = np.zeros(64)
    dv, dw = pde_rhs(v, w, 0.1, 1.0, 1.0)
    assert np.all(dv == 0.0) and np.all(dw == 0.0)


def test_pde_rhs_three_point_impulse():
    # v nonzero at one interior node: dw there is (nu * (-2 v) / dx^2) / mu,
    # and the flux difference vanishes because both neighbours are zero.
    n = 9
    v = np.zeros(n)
    v[4] = 1.0
    w = np.zeros(n)
    dv, dw = pde_rhs(v, w, 1.0, 1.0, 1.0)
    assert dw[4] == -2.0
    # neighbours see the diffusion flank and the flux of v^2/2
    assert dw[3] == pytest.approx(1.0 - 0.25)
    assert dw[5] == pytest.approx(1.0 + 0.25)


def test_pde_rhs_linear_telegraph_limit():
    # At sup ~ 1e-8 the advection term is ~1e-16-relative: dw agrees with
    # the linear operator (nu v_xx - w)/mu to 1e-6 relative.
    rng = np.random.default_rng(7)
    n = 257
    dx = 0.01
    v = 1e-8 * rng.standard_normal(n)
    w = 1e-8 * rng.standard_normal(n)
    v[0] = v[-1] = w[0] = w[-1] = 0.0
    mu, nu = 2.0, 3.0
    _, dw = pde_rhs(v, w, dx, mu, nu)
    linear = (nu * d2_central(v, dx) - w) / mu
    linear[0] = linear[-1] = 0.0
    scale = np.max(np.abs(linear))
    assert np.max(np.abs(dw - linear)) <= 1e-6 * scale


def test_boundary_always_pinned():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(32)
    w = rng.standard_normal(32)
    slope = pde_rhs(v, w, 0.5, 1.0, 1.0)
    assert slope.shape == (2, 32)  # one (dv/dt, dw/dt) block, like a state's u
    dv, dw = slope
    assert dv[0] == dv[-1] == 0.0
    assert dw[0] == dw[-1] == 0.0


def _fields(rows=3, n=97, seed=11):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, n)), rng.standard_normal((rows, n))


def test_out_buffers_match_allocating_calls_bitwise():
    v = _fields(rows=1)[0][0]
    for stencil in (d1_central, d2_central):
        out = np.full_like(v, np.nan)  # dirty buffer: every entry is written
        got = stencil(v, 0.3, out=out)
        assert got is out
        assert np.array_equal(out, stencil(v, 0.3))


def test_stacked_rows_match_single_rows_bitwise():
    # A C-contiguous stack runs as one flat row with its seams re-zeroed; a
    # strided one (columns of a wider block), or a strided out buffer, row
    # by row.  Both give each row's own bits.
    v, w = _fields(rows=3)
    wide = _fields(rows=3, n=97 + 9, seed=12)[0]
    for stencil in (d1_central, d2_central):
        for stack in (v, wide[:, 4:-5]):
            assert stack.flags.c_contiguous == (stack is v)
            strided_out = np.full((3, stack.shape[1] + 3), np.nan)[:, 1:-2]
            for out in (None, strided_out):
                stacked = stencil(stack, 0.3, out=out)
                for i in range(3):
                    assert stacked[i].tobytes() == stencil(stack[i].copy(), 0.3).tobytes()
    dv, dw = pde_rhs(v, w, 0.3, 0.7, 1.3)
    for i in range(3):
        row_dv, row_dw = pde_rhs(v[i], w[i], 0.3, 0.7, 1.3)
        assert np.array_equal(dv[i], row_dv) and np.array_equal(dw[i], row_dw)


def test_pde_rhs_matches_unfused_form():
    # The fused interior (a - b d) s - 2a v - w/mu reorders the arithmetic
    # of (nu v_xx - d/dx(v^2/2) - w) / mu; on O(1) data the two agree to a
    # few ulps of the largest term, a/dx^2-scaled.
    v, w = _fields(rows=1)
    v, w = v[0], w[0]
    dx, mu, nu = 0.3, 0.7, 1.3
    _, dw = pde_rhs(v, w, dx, mu, nu)
    unfused = (nu * d2_central(v, dx) - d1_central(0.5 * v * v, dx) - w) / mu
    unfused[0] = unfused[-1] = 0.0
    scale = nu / (mu * dx * dx) * np.max(np.abs(v))
    assert np.max(np.abs(dw - unfused)) <= 1e-14 * scale


def test_trapezoid_dot_on_columns_equals_whole_grid_bitwise():
    # Data zero outside [a, b): trapezoid_dot over any columns [lo, hi) that
    # hold [a, b), with lo and hi multiples of 32 or grid ends, equals the
    # whole-grid call bit for bit, and that is its DOT_SPLIT pieces added
    # left to right, plus the end terms.
    rng = np.random.default_rng(5)
    n, dx = 2 * DOT_SPLIT + 1000, 0.01
    for _ in range(40):
        a = int(rng.integers(0, n - 4000))
        b = a + int(rng.integers(1, 4000))
        f, g = np.zeros(n), np.zeros(n)
        f[a:b], g[a:b] = rng.standard_normal((2, b - a))
        whole = trapezoid_dot(f, g, dx)
        pieces = [np.dot(f[i:i + DOT_SPLIT], g[i:i + DOT_SPLIT]) for i in range(0, n, DOT_SPLIT)]
        total = pieces[0]
        for piece in pieces[1:]:
            total += piece
        assert whole == dx * (total - 0.5 * (f[0] * g[0] + f[-1] * g[-1]))
        lo, hi = a - a % 32, min(n, b + (-b) % 32)
        for cols in (slice(lo, hi), slice(0, hi), slice(lo, n)):
            got = trapezoid_dot(f[cols], g[cols], dx, cols.start, n)
            assert got.hex() == whole.hex(), (a, b, cols)
        # Stacked (k, m) rows, and a 1-D row against a stack, in one call:
        # each row gives its own call's bits, on every choice of columns.
        rows = np.stack((f, g, f * g, np.roll(g, 7)))
        for cols in (slice(0, n), slice(lo, hi), slice(0, hi), slice(lo, n)):
            block = rows[:, cols]
            got = trapezoid_dot(block, block[::-1], dx, cols.start, n)
            want = [trapezoid_dot(r, q, dx, cols.start, n) for r, q in zip(block, block[::-1])]
            assert [x.hex() for x in got] == [x.hex() for x in want], (a, b, cols)
            got = trapezoid_dot(f[cols], block[1:3], dx, cols.start, n)
            want = [trapezoid_dot(f[cols], r, dx, cols.start, n) for r in block[1:3]]
            assert [x.hex() for x in got] == [x.hex() for x in want], (a, b, cols)


def _at_offset(x, offset):
    """A copy of the 1-D ``x`` whose element 0 lies ``offset`` doubles past a
    64-byte line."""
    raw = np.empty(x.size + 8)
    skip = (offset - raw.ctypes.data // 8) % 8
    out = raw[skip:skip + x.size]
    out[...] = x
    return out


@pytest.mark.parametrize("offset", range(8))
def test_trapezoid_dot_bits_do_not_depend_on_placement(offset):
    # A dot kernel that peeled elements to reach an aligned load would sum
    # other lanes at other offsets.  On a grid of at most DOT_SPLIT nodes,
    # the whole grid and a 32-aligned column range holding the data give the
    # contiguous whole-grid np.dot's bits, at every offset of either operand.
    rng = np.random.default_rng(29)
    n, dx, lo, hi = 4097, 0.01, 992, 3104
    f, g = np.zeros(n), np.zeros(n)
    f[1000:3100], g[1000:3100] = rng.standard_normal((2, 2100))
    want = (dx * (np.dot(f, g) - 0.5 * (f[0] * g[0] + f[-1] * g[-1]))).hex()
    for other in (0, offset, 7 - offset):
        got = trapezoid_dot(_at_offset(f, offset), _at_offset(g, other), dx)
        assert got.hex() == want, other
        got = trapezoid_dot(_at_offset(f[lo:hi], offset), _at_offset(g[lo:hi], other), dx, lo, n)
        assert got.hex() == want, other


@pytest.mark.parametrize("size", [2, 7, 8, 9, 96, 6144, 12 * 4097, 12 * 16384])
def test_line_placed_array_starts_element_one_on_a_line(size):
    # Exactly size writable doubles, element 1 on a 64-byte boundary, at
    # whatever address the allocator hands out (a few allocations each).
    for _ in range(4):
        x = operators._line_placed(size)
        assert x.shape == (size,) and x.dtype == np.float64
        assert x.flags.writeable and x.flags.c_contiguous
        assert x[1:].ctypes.data % 64 == 0
        x[...] = 1.0
        assert x.sum() == size


def _wide_field(rng, n):
    """Random signs on three magnitudes, mixed: normal numbers from 1e-300 to
    1e300, subnormals, and numbers within 2x of overflow."""
    normal = 10.0 ** rng.uniform(-300.0, 300.0, n)
    subnormal = rng.integers(1, 2**52, n) * 5e-324
    huge = rng.uniform(0.5, 1.0, n) * np.finfo(float).max
    return np.choose(rng.integers(0, 3, n), [normal, subnormal, huge]) * rng.choice([-1.0, 1.0], n)


def _damped(w, f, mu):
    """RhsKernel.damp's dw/dt interior from a (w, dw/dt) block and an F row."""
    k = np.stack((w, np.zeros_like(w)))
    RhsKernel.damp(RhsKernel.slope_views(k, f), RhsKernel.coefficients(0.1, mu, 1.0)[3])
    return k[1, 1:-1]


@pytest.mark.parametrize("mu", [0.25, 0.5, 1.0, 4.0])
def test_damp_by_an_exact_reciprocal_equals_the_division_bitwise(mu):
    # 1/mu is exact for mu a power of two, so w * (1/mu) and w / mu round
    # the same real: the bits agree, subnormal and overflowing ones included.
    rng = np.random.default_rng(28)
    w, f = _wide_field(rng, 4096), _wide_field(rng, 4096)
    with np.errstate(over="ignore"):
        want = f[1:-1] - w[1:-1] / mu
        got = _damped(w, f, mu)
    assert not np.isfinite(want).all() and (np.abs(want[np.isfinite(want)]) < 1e-307).any()
    assert got.tobytes() == want.tobytes()


def test_damp_by_an_inexact_reciprocal_is_within_one_spacing():
    # 1/0.7 is rounded, so w * (1/mu) may sit one spacing from w / mu.  The
    # subtraction carries that spacing: where f and w / mu are within 2x of
    # each other it is exact, and the result's own spacing can be smaller.
    mu = 0.7
    rng = np.random.default_rng(28)
    w, f = _wide_field(rng, 4096), _wide_field(rng, 4096)
    with np.errstate(over="ignore"):
        quotient = w[1:-1] / mu
        want = f[1:-1] - quotient
        got = _damped(w, f, mu)
        product = w[1:-1] * RhsKernel.coefficients(0.1, mu, 1.0)[3]
    # Overflow, in the quotient or in the subtraction, reads alike on both sides.
    assert (np.isfinite(product) == np.isfinite(quotient)).all()
    finite = np.isfinite(want)
    assert not finite.all() and got[~finite].tobytes() == want[~finite].tobytes()
    got, want, product, quotient = got[finite], want[finite], product[finite], quotient[finite]
    assert (product != quotient).any() and (got != want).any()
    assert (np.abs(product - quotient) <= np.abs(np.spacing(quotient))).all()
    spacing = np.maximum(np.abs(np.spacing(want)), np.abs(np.spacing(quotient)))
    assert (np.abs(got - want) <= spacing).all()
