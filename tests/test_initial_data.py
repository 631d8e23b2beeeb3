import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from hyperburg import (
    CalibrationError,
    ConfigError,
    DomainError,
    ParameterError,
    amplitude_for_sup_norm,
    bump_profile,
    calibrated_profile,
    sample_initial_state,
    validate_params,
)
from hyperburg.diagnostics import compute_record
from hyperburg import initial_data
from hyperburg.config import ICConfig
from hyperburg.solver import Grid


class TestBumpProfile:
    def test_zero_at_origin_and_support_edge(self):
        assert bump_profile(0.0, 1.0) == 0.0
        assert bump_profile(1.0, 1.0) == 0.0
        assert bump_profile(-1.0, 1.0) == 0.0

    def test_vanishes_outside_support_exactly(self):
        x = np.linspace(-5, 5, 401)
        psi = bump_profile(x, 1.0)
        assert np.all(psi[np.abs(x) >= 1.0] == 0.0)

    @given(st.floats(-3.0, 3.0), st.floats(0.5, 4.0))
    def test_odd(self, x, L):
        assert bump_profile(-x, L) == -bump_profile(x, L)

    def test_peak_closed_form_matches_dense_scan(self):
        # amplitude_for_sup_norm(sup, L) = sup / max|psi|, in closed form.
        for L in (1.0, 3.0):
            x = np.linspace(-L, L, 2_000_001)
            dense = float(np.max(np.abs(bump_profile(x, L))))
            assert 1.0 / amplitude_for_sup_norm(1.0, L) == pytest.approx(dense, rel=1e-10)

    def test_amplitude_for_sup_norm(self):
        # The peak of |psi| is attained at x* = L sqrt(2 - sqrt(3)).
        a = amplitude_for_sup_norm(0.1, 2.0)
        x_star = 2.0 * math.sqrt(2.0 - math.sqrt(3.0))
        assert a * bump_profile(x_star, 2.0) == pytest.approx(0.1, rel=1e-15)


class TestCalibrate:
    def setup_method(self):
        self.grid = Grid(-2.0, 2.0, 2048)

    def calibrated(self, F0, F1, grid=None):
        return calibrated_profile("odd_bump", 1.0, grid or self.grid, F0, F1)

    def test_zero_target_gives_zero_amplitude(self):
        prof = self.calibrated(0.0, 0.0)
        assert prof.a == 0.0 and prof.b == 0.0

    def test_linearity_in_target(self):
        a1 = self.calibrated(20.0, 0.0).a
        a2 = self.calibrated(40.0, 0.0).a
        assert a2 == 2.0 * a1

    def test_first_moment_against_quadrature_oracle(self):
        # Independent high-order quadrature of int x*psi dx vs the
        # trapezoidal value the calibration divides by.
        x = self.grid.nodes()
        m1_trapz = float(np.trapezoid(x * bump_profile(x, 1.0), dx=self.grid.dx))
        m1_quad, err = quad(
            lambda s: s * s * math.exp(1.0 / (s * s - 1.0)) if abs(s) < 1 else 0.0,
            -1.0, 1.0, limit=200, epsabs=1e-14,
        )
        assert err < 1e-8  # oracle itself far below the 1e-6 comparison level
        assert m1_trapz == pytest.approx(m1_quad, rel=1e-6)
        assert self.calibrated(40.0, 0.0).a == 40.0 / m1_trapz

    def test_coarse_grid_raises(self):
        # No interior node falls inside [-1, 1]: the first moment is 0.
        with pytest.raises(CalibrationError):
            self.calibrated(40.0, 200.0, Grid(-50.0, 50.0, 8))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_amplitude_rejected(self):
        # a = F0 / m1 past the largest double is a config fault, not a NaN state.
        with pytest.raises(ConfigError, match="ic numbers must be finite"):
            self.calibrated(1e308, 200.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family, L, error", [
        ("gaussian", 1.0, ConfigError),
        ("odd_bump", 0.0, ParameterError),
        ("odd_bump", float("nan"), ParameterError),
    ], ids=["gaussian-1.0", "odd_bump-0.0", "odd_bump-nan"])
    def test_bad_profile_rejected_before_calibration(self, family, L, error):
        # On a grid too coarse to calibrate, a bad family or L is still the
        # reported fault, and no moment is computed from it.
        with pytest.raises(error):
            calibrated_profile(family, L, Grid(-50.0, 50.0, 8), 40.0, 200.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="family"):
            ICConfig("gaussian", a=1.0, b=0.0)


class TestSampleInitialState:
    def test_zero_amplitudes_give_zero_state(self):
        params = validate_params(1, 1, 1)
        grid = Grid(-2.0, 2.0, 256)
        state = sample_initial_state(params, grid, ICConfig("odd_bump", a=0.0, b=0.0))
        assert state.t == 0.0
        assert np.all(state.v == 0.0) and np.all(state.w == 0.0)

    def test_support_containment_exact(self):
        params = validate_params(1, 1, 1)
        grid = Grid(-3.0, 3.0, 1024)
        prof = calibrated_profile("odd_bump", 1.0, grid, 40.0, 200.0)
        state = sample_initial_state(params, grid, prof)
        x = grid.nodes()
        assert np.max(np.abs(state.v[np.abs(x) >= 1.0])) == 0.0
        assert np.max(np.abs(state.w[np.abs(x) >= 1.0])) == 0.0

    def test_support_half_width_is_params_L(self):
        # An amplitude block carries no L of its own: the support is params.L.
        params = validate_params(1, 1, 1.5)
        grid = Grid(-3.0, 3.0, 1024)
        state = sample_initial_state(params, grid, ICConfig("odd_bump", a=1.0, b=0.5))
        x = np.abs(grid.nodes())
        for row in (state.v, state.w):
            assert np.any(row[(x > 1.0) & (x < 1.5)] != 0.0)
            assert not row[x >= 1.5].any()

    def test_moments_hit_targets_to_8_ulps(self):
        params = validate_params(1, 1, 1)
        grid = Grid(-2.0, 2.0, 2048)
        prof = calibrated_profile("odd_bump", 1.0, grid, 40.0, 200.0)
        state = sample_initial_state(params, grid, prof)
        rec = compute_record(state, params)
        assert abs(rec.F - 40.0) <= 8 * np.spacing(40.0)
        assert abs(rec.Fprime - 200.0) <= 8 * np.spacing(200.0)

    def test_grid_must_contain_support(self):
        params = validate_params(1, 1, 1)
        with pytest.raises(DomainError, match="support"):
            sample_initial_state(params, Grid(-0.5, 0.5, 64), ICConfig("odd_bump", a=1.0, b=0.0))
        # strict containment: grid ending exactly at the support edge fails
        with pytest.raises(DomainError):
            sample_initial_state(params, Grid(-1.0, 1.0, 64), ICConfig("odd_bump", a=1.0, b=0.0))

    def test_bump_computed_once_per_grid_with_the_same_bits(self):
        # Calibrating and sampling share one read-only bump support per
        # (grid, L), and rebuild the direct evaluation from it bit for bit.
        params = validate_params(1, 1, 1.5)
        grid = Grid(-8.0, 8.0, 513)
        x = grid.nodes()
        psi = bump_profile(x, 1.5)
        prof = calibrated_profile("odd_bump", 1.5, grid, 40.0, 200.0)
        m1 = float(np.trapezoid(x * psi, dx=grid.dx))
        assert (prof.a, prof.b) == (40.0 / m1, 200.0 / m1)
        state = sample_initial_state(params, grid, prof)
        want = np.stack((prof.a * psi, prof.b * psi))
        assert state.u.tobytes() == want.tobytes()
        lo, part = initial_data._bump_support(grid, 1.5)
        assert initial_data._bump_support(Grid(-8.0, 8.0, 513), 1.5)[1] is part
        assert part.tobytes() == psi[lo:lo + part.size].tobytes()
        assert not psi[:lo].any() and not psi[lo + part.size:].any()
        with pytest.raises(ValueError):
            part[0] = 1.0
        state.u[:] = 0.0  # writing a state leaves the cached bump as it was
        assert sample_initial_state(params, grid, prof).u.tobytes() == want.tobytes()
        # supports of many nodes, of the node x = 0 alone, and of no node
        for g, L in ((grid, 1.0), (grid, 7.99), (grid, 0.01), (Grid(-8.0, 8.0, 512), 0.01)):
            direct = bump_profile(g.nodes(), L)
            assert initial_data._grid_bump(g, L).tobytes() == direct.tobytes()
