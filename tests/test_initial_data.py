import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from hyperburg import (
    CalibrationError,
    DomainError,
    ParameterError,
    amplitude_for_sup_norm,
    bump_max_abs,
    bump_profile,
    calibrated_profile,
    sample_initial_state,
    validate_params,
)
from hyperburg.diagnostics import moment_F, moment_Fprime
from hyperburg.initial_data import ProfileSpec
from hyperburg.operators import trapezoid
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
        for L in (1.0, 3.0):
            x = np.linspace(-L, L, 2_000_001)
            dense = float(np.max(np.abs(bump_profile(x, L))))
            assert bump_max_abs(L) == pytest.approx(dense, rel=1e-10)

    def test_amplitude_for_sup_norm(self):
        a = amplitude_for_sup_norm(0.1, 2.0)
        assert a * bump_max_abs(2.0) == pytest.approx(0.1, rel=1e-15)


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
        m1_trapz = float(trapezoid(x * bump_profile(x, 1.0), dx=self.grid.dx))
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
    @pytest.mark.parametrize(
        "family, L", [("gaussian", 1.0), ("odd_bump", 0.0), ("odd_bump", float("nan"))]
    )
    def test_bad_profile_rejected_before_calibration(self, family, L):
        # On a grid too coarse to calibrate, a bad family or L is still the
        # reported fault, and no moment is computed from it.
        with pytest.raises(ParameterError):
            calibrated_profile(family, L, Grid(-50.0, 50.0, 8), 40.0, 200.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError, match="family"):
            ProfileSpec("gaussian", 1.0, 0.0, 1.0)


class TestSampleInitialState:
    def test_zero_amplitudes_give_zero_state(self):
        params = validate_params(1, 1, 1)
        grid = Grid(-2.0, 2.0, 256)
        state = sample_initial_state(params, grid, ProfileSpec("odd_bump", 0.0, 0.0, 1.0))
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

    def test_moments_hit_targets_to_8_ulps(self):
        params = validate_params(1, 1, 1)
        grid = Grid(-2.0, 2.0, 2048)
        prof = calibrated_profile("odd_bump", 1.0, grid, 40.0, 200.0)
        state = sample_initial_state(params, grid, prof)
        assert abs(moment_F(state) - 40.0) <= 8 * np.spacing(40.0)
        assert abs(moment_Fprime(state) - 200.0) <= 8 * np.spacing(200.0)

    def test_grid_must_contain_support(self):
        params = validate_params(1, 1, 1)
        with pytest.raises(DomainError, match="support"):
            sample_initial_state(
                params, Grid(-0.5, 0.5, 64), ProfileSpec("odd_bump", 1.0, 0.0, 1.0)
            )
        # strict containment: grid ending exactly at the support edge fails
        with pytest.raises(DomainError):
            sample_initial_state(
                params, Grid(-1.0, 1.0, 64), ProfileSpec("odd_bump", 1.0, 0.0, 1.0)
            )
