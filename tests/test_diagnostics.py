import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import hyperburg
from hyperburg import (
    ConeMax,
    DomainError,
    ParameterError,
    amplitude_for_sup_norm,
    calibrated_profile,
    gronwall_check_E1,
    identity_residual,
    integrate,
    sample_initial_state,
    validate_params,
)
from hyperburg.diagnostics import (DiagnosticsRecord, RecordWorkspace, _outermost,
                                   compute_record, sobolev_norms)
from hyperburg.config import ICConfig
from hyperburg.initial_data import bump_profile
from hyperburg.operators import d1_central, d2_central, pde_rhs, trapezoid_dot
from hyperburg.solver import Grid, GridState


def state_on(grid, v, w=None, t=0.0):
    if w is None:
        w = np.zeros_like(v)
    return GridState(grid, t, np.stack((v, w)))


def zero_state(n=64, dom=2.0):
    grid = Grid(-dom, dom, n)
    z = np.zeros(n)
    return state_on(grid, z, z.copy())


def linear_ramp_state():
    """v = x on a grid that ends exactly at the support edge (no sampled jump)."""
    grid = Grid(-1.0, 1.0, 4097)
    x = grid.nodes()
    return state_on(grid, x.copy())


PARAMS = validate_params(1, 1, 1)


def moments(state):
    """(F, F') of the state's record, the moments the certificate reads."""
    rec = compute_record(state, PARAMS)
    return rec.F, rec.Fprime


def support(state):
    """The support fields of the state's record."""
    rec = compute_record(state, PARAMS)
    return rec.support_left, rec.support_right


class TestMoments:
    def test_zero_state(self):
        assert moments(zero_state()) == (0.0, 0.0)

    def test_even_profile_has_zero_moment(self):
        grid = Grid(-2.0, 2.0, 1025)
        x = grid.nodes()
        u = np.clip(np.abs(x), 0.0, 0.999999)
        even = np.where(np.abs(x) < 1.0, np.exp(1.0 / (u * u - 1.0)), 0.0)
        st = state_on(grid, even)
        assert abs(moments(st)[0]) <= 1e-14

    def test_linear_ramp(self):
        st = linear_ramp_state()
        assert moments(st)[0] == pytest.approx(2.0 / 3.0, abs=1e-6)
        st_w = GridState(st.grid, 0.0, np.stack((np.zeros_like(st.v), st.v)))
        assert moments(st_w)[1] == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_calibrated_state_moment_exact(self):
        grid = Grid(-2.0, 2.0, 1024)
        prof = calibrated_profile("odd_bump", 1.0, grid, 7.0, 11.0)
        st = sample_initial_state(PARAMS, grid, prof)
        f, fp = moments(st)
        assert abs(f - 7.0) <= 8 * np.spacing(7.0)
        assert abs(fp - 11.0) <= 8 * np.spacing(11.0)


class TestEnergy:
    def test_zero_state_all_orders(self):
        rec = compute_record(zero_state(), PARAMS)
        assert (rec.E1, rec.E2, rec.E3) == (0.0, 0.0, 0.0)

    def test_e1_quadratic_scaling(self):
        grid = Grid(-2.0, 2.0, 512)
        x = grid.nodes()
        v = bump_profile(x, 1.0)
        w = 0.5 * v
        base = compute_record(state_on(grid, v, w), PARAMS).E1
        scaled = compute_record(state_on(grid, 3.0 * v, 3.0 * w), PARAMS).E1
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_e1_against_quadrature_oracle(self):
        # E1 of (v = a psi, w = 0) is (c^2/2) int (a psi')^2; the oracle
        # integrates the analytic derivative with adaptive quadrature.
        a = 3.0
        params = validate_params(1.0, 2.0, 1.0)  # c^2 = 2

        def psi_prime(s):
            if abs(s) >= 1.0:
                return 0.0
            g = math.exp(1.0 / (s * s - 1.0))
            return g * (1.0 - 2.0 * s * s / (s * s - 1.0) ** 2)

        exact, err = quad(lambda s: (a * psi_prime(s)) ** 2, -1, 1,
                          limit=200, epsabs=1e-14)
        assert err < 1e-9 * exact
        expected = 0.5 * 2.0 * exact
        grid = Grid(-1.25, 1.25, 16385)
        st = sample_initial_state(params, grid, ICConfig("odd_bump", a=a, b=0.0))
        assert compute_record(st, params).E1 == pytest.approx(expected, rel=1e-6)


class TestSupNormAndSupport:
    def test_zero(self):
        assert zero_state().sup_norm() == 0.0
        assert support(zero_state()) == (0.0, 0.0)

    def test_single_negative_node(self):
        grid = Grid(-2.0, 2.0, 64)
        v = np.zeros(64)
        v[10] = -3.0
        assert state_on(grid, v).sup_norm() == 3.0
        # w counts towards the support where it exceeds the threshold
        w = np.zeros(64)
        w[50] = 1e-3
        x = grid.nodes()
        assert support(state_on(grid, v, w)) == (x[10], x[50])
        assert _outermost(np.abs(state_on(grid, v, w).u), 1e-6, x) == (x[10], x[50])
        assert _outermost(np.abs(state_on(grid, v, w).u), 1e-2, x) == (x[10], x[10])
        # A NaN in one row leaves its column to the other row, as
        # (|u| > threshold).any(axis=0) does: columns 10 and 50 stay in the
        # support, and columns 5 and 60, zero in the other row, stay out.
        v_nan, w_nan = v.copy(), w.copy()
        v_nan[[50, 60]] = np.nan
        w_nan[[5, 10]] = np.nan
        for fields in ((v, w_nan), (v_nan, w), (v_nan, w_nan)):
            assert _outermost(np.abs(state_on(grid, *fields).u), 1e-6, x) == (x[10], x[50])

    def test_calibrated_state_peak_and_support(self):
        grid = Grid(-2.0, 2.0, 2048)
        a = amplitude_for_sup_norm(0.1, 1.0)
        st = sample_initial_state(PARAMS, grid, ICConfig("odd_bump", a=a, b=0.0))
        x = grid.nodes()
        assert st.sup_norm() == pytest.approx(
            a * np.max(np.abs(bump_profile(x, 1.0))), rel=1e-15
        )
        left, right = support(st)
        assert -1.0 <= left < right <= 1.0

    def test_threshold_validation(self):
        st = zero_state()
        with pytest.raises(ParameterError):
            _outermost(np.abs(st.u), 0.0, st.grid.nodes())


class TestRecordWorkspace:
    def test_workspace_record_equals_standalone_bitwise(self):
        # One workspace, dirtied with NaN and then reused across a whole
        # trajectory: every record is the standalone call's, bit for bit.
        a = amplitude_for_sup_norm(5.0, 1.0)
        grid = Grid(-3.0, 3.0, 512)
        state0 = sample_initial_state(PARAMS, grid, ICConfig("odd_bump", a=a, b=2.0))
        states = []
        integrate(state0, PARAMS, t_end=0.2, record_stride=1, observe=states.append)
        work = RecordWorkspace(grid.n)
        work.buffer.fill(np.nan)
        for state in states:
            alone = compute_record(state, PARAMS)
            got = compute_record(state, PARAMS, work=work)
            assert [float(x).hex() for x in vars(got).values()] == \
                [float(x).hex() for x in vars(alone).values()]
        assert len(states) > 10 and alone.sup_norm > 0.0

    def test_records_independent_of_blas_threads(self):
        # On 16385 nodes the record window spans the grid's middle column,
        # so its integrals split at DOT_SPLIT; whole-grid dots there would
        # be threaded by OpenBLAS and change bits with the thread count.
        probe = """
import hyperburg as hb
params = hb.validate_params(1.0, 1.0, 1.0)
grid = hb.Grid(-8.0, 8.0, 16385)
state0 = hb.sample_initial_state(
    params, grid, hb.calibrated_profile("odd_bump", 1.0, grid, 40.0, 200.0))
out = hb.integrate(state0, params, t_end=0.01, record_stride=1)
print(len(out.records), out.records[0].F.hex())
print(" ".join(float(x).hex() for r in out.records for x in vars(r).values()))
"""
        src = str(Path(hyperburg.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", probe], env=env,
                                  capture_output=True, text=True, check=True, timeout=120)
            outputs.append(done.stdout)
        head = outputs[0].split()
        assert int(head[0]) > 20
        assert outputs[0] == outputs[1]

    def test_record_equals_allocating_reference_bitwise(self):
        # The buffers of one record are reused within it; each derivative
        # must still be its own.  Reference: the allocating arithmetic,
        # one stencil call per field.
        a = amplitude_for_sup_norm(5.0, 1.0)
        grid = Grid(-3.0, 3.0, 512)
        st = sample_initial_state(PARAMS, grid, ICConfig("odd_bump", a=a, b=2.0))
        v, w, dx, mu, nu = st.v, st.w, grid.dx, PARAMS.mu, PARAMS.nu
        c2 = PARAMS.c ** 2
        _, v_tt = pde_rhs(v, w, dx, mu, nu)
        v_x, w_x = d1_central(v, dx), d1_central(w, dx)
        v_xx, w_xx = d2_central(v, dx), d2_central(w, dx)
        v_ttt = (nu * w_xx - d1_central(v * w, dx) - v_tt) / mu
        v_ttt[0] = v_ttt[-1] = 0.0
        v_xxx, v_xtt = d1_central(v_xx, dx), d1_central(v_tt, dx)
        rec = compute_record(st, PARAMS)
        assert rec.E1 == 0.5 * (trapezoid_dot(w, w, dx) + c2 * trapezoid_dot(v_x, v_x, dx))
        assert rec.E2 == 0.5 * (trapezoid_dot(v_tt, v_tt, dx)
                                + c2**2 * trapezoid_dot(v_xx, v_xx, dx))
        assert rec.E3 == 0.5 * (trapezoid_dot(v_ttt, v_ttt, dx)
                                + c2**3 * trapezoid_dot(v_xxx, v_xxx, dx))
        assert rec.int_vxt2 == trapezoid_dot(w_x, w_x, dx)
        assert rec.int_vxtt2 == trapezoid_dot(v_xtt, v_xtt, dx)
        assert rec.int_vxxt2 == trapezoid_dot(w_xx, w_xx, dx)
        assert rec.sup_norm == st.sup_norm()
        thr = 1e-12 * (1.0 + st.sup_norm())
        live = np.flatnonzero((np.abs(v) > thr) | (np.abs(w) > thr))
        assert (rec.support_left, rec.support_right) == (grid.nodes()[live[0]],
                                                         grid.nodes()[live[-1]])
        assert rec.E3 > 0.0 and rec.int_vxtt2 > 0.0


class TestSchwartzGap:
    def test_zero_state(self):
        assert compute_record(zero_state(), PARAMS).schwartz_gap == 0.0

    def test_equality_case_linear_ramp(self):
        # v proportional to x saturates the moment bound; the sampled gap
        # is quadrature-level small.
        st = linear_ramp_state()
        assert abs(compute_record(st, PARAMS).schwartz_gap) <= 1e-6

    def test_nonnegative_on_preset_records(self, all_preset_reports):
        for tag, report in all_preset_reports.items():
            for rec in report.outcome.records:
                assert rec.schwartz_gap >= -1e-10 * (1.0 + rec.F**2), tag


class TestIdentityResidual:
    def test_needs_three_records(self):
        with pytest.raises(ParameterError):
            identity_residual([], PARAMS)

    def test_zero_records(self):
        recs = [
            compute_record(zero_state(), PARAMS)
            for _ in range(4)
        ]
        recs = [
            DiagnosticsRecord(**{**r.__dict__, "t": 0.1 * i})
            for i, r in enumerate(recs)
        ]
        assert identity_residual(recs, PARAMS) == 0.0

    def test_no_uniform_triple_checks_nothing(self):
        # Three records, the last off the stride: no uniform triple, so
        # the residual is None (unchecked), not a vacuous 0.0.
        base = compute_record(zero_state(), PARAMS)
        recs = [
            DiagnosticsRecord(**{**base.__dict__, "t": t}) for t in (0.0, 0.1, 0.15)
        ]
        assert identity_residual(recs, PARAMS) is None

    def test_refinement_shrinks_residual(self, identity_reports):
        residuals = [r.worst["identity_residual_max"] for r in identity_reports]
        assert residuals[0] / residuals[1] >= 3.0
        assert residuals[1] / residuals[2] >= 3.0

    def test_small_amplitude_magnitude(self, identity_reports):
        fine = identity_reports[-1]
        rhs_scale = max(rec.half_int_v2 for rec in fine.outcome.records)
        assert fine.worst["identity_residual_max"] < 1e-4 * rhs_scale


class TestGronwall:
    def test_zero_run_margin_zero(self):
        recs = [compute_record(zero_state(), PARAMS)]
        assert gronwall_check_E1(recs, PARAMS) == 0.0

    def test_flags_violation_when_E1_starts_at_zero(self):
        base = compute_record(zero_state(), PARAMS)
        bad = DiagnosticsRecord(**{**base.__dict__, "t": 1.0, "E1": 0.5})
        assert gronwall_check_E1([base, bad], PARAMS) < 0.0

    def test_small_amplitude_margin(self, propagation_report, smalldata_report):
        for report in (propagation_report, smalldata_report):
            e1_0 = report.outcome.records[0].E1
            margin = gronwall_check_E1(report.outcome.records, report_params(report))
            assert margin >= -1e-8 * e1_0


def report_params(report):
    p = report.config["params"]
    return validate_params(p["mu"], p["nu"], p["L"])


class TestSobolevNorms:
    def test_zero_run(self):
        recs = [compute_record(state_on(zero_state().grid, np.zeros(64), t=t), PARAMS)
                for t in (0.0, 0.1, 0.2)]
        assert sobolev_norms(recs, PARAMS) == (0.0, 0.0)
        assert sobolev_norms(recs[:1], PARAMS) == (0.0, 0.0)

    def test_single_record_closed_form(self):
        # two records a gap dt apart: each squared norm is dt * S with S
        # assembled by hand from the second record's own fields; the first
        # record's fields do not enter
        mu, c = 2.0, 3.0
        params = validate_params(mu, mu * c * c, 1.0)
        grid = Grid(-2.0, 2.0, 512)
        v = bump_profile(grid.nodes(), 1.0)
        first = compute_record(state_on(grid, v, 0.5 * v, t=0.5), params)
        dt = 0.25
        rec = compute_record(state_on(grid, 0.9 * v, -0.3 * v, t=0.5 + dt), params)
        assert min(rec.E1, rec.E2, rec.E3, rec.int_vxt2, rec.int_vxtt2,
                   rec.int_vxxt2, rec.half_int_v2) > 0.0
        s2 = (mu**4 * (2 * rec.E2 + c * c * rec.int_vxt2)
              + mu**2 * (2 * rec.E1) + 2 * rec.half_int_v2)
        s3 = s2 + mu**6 * (2 * rec.E3 + c * c * rec.int_vxtt2 + c**4 * rec.int_vxxt2)
        h2, h3 = sobolev_norms([first, rec], params)
        assert h2 * h2 == pytest.approx(dt * s2, rel=1e-12)
        assert h3 * h3 == pytest.approx(dt * s3, rel=1e-12)

    def test_accumulators_monotone_and_bounded_growth(self, smalldata_report):
        # the squared norms of every prefix of the record series
        recs = smalldata_report.outcome.records
        params = report_params(smalldata_report)
        h2, h3 = zip(*(np.square(sobolev_norms(recs[:k + 1], params))
                       for k in range(len(recs))))
        assert all(np.isfinite(h2)) and all(np.isfinite(h3))
        assert smalldata_report.sobolev == dict(zip(("H2", "H3"), sobolev_norms(recs, params)))
        assert all(b >= a for a, b in zip(h2, h2[1:]))
        assert all(b >= a for a, b in zip(h3, h3[1:]))
        # decaying run: later windows accumulate no more than earlier ones
        mid = len(recs) // 2
        first_window = h2[mid] - h2[0]
        second_window = h2[-1] - h2[mid]
        assert second_window <= 10.0 * first_window


class TestConeMax:
    def test_zero_data_everywhere(self):
        params = validate_params(1, 1, 1)
        cone = ConeMax(0.0, 1.0, params)
        cone(zero_state(n=256, dom=8.0))
        assert cone.value == 0.0

    def test_base_outside_grid_rejected(self):
        params = validate_params(1, 1, 1)
        cone = ConeMax(0.0, 10.0, params)
        with pytest.raises(DomainError):
            cone(zero_state(n=64, dom=2.0))

    def test_apex_time_positive(self):
        with pytest.raises(ParameterError):
            ConeMax(0.0, 0.0, validate_params(1, 1, 1))

    def test_nothing_checked_is_an_error(self):
        # A cone maximum over no state at t <= t_c checked nothing; it must
        # not read as a vanishing cone.
        params = validate_params(1, 1, 1)
        cone = ConeMax(0.0, 1.0, params)
        with pytest.raises(DomainError, match="cone apex time"):
            cone.value
        cone(state_on(Grid(-8.0, 8.0, 256), np.zeros(256), t=1.5))
        with pytest.raises(DomainError, match="cone apex time"):
            cone.value

    def test_vanishes_on_data_free_cone(self, cone_bundle):
        _, report, cone = cone_bundle
        assert (cone.x_c, cone.t_c) == (5.0, 2.0)
        gsup = max(rec.sup_norm for rec in report.outcome.records)
        assert cone.value <= 1e-10 * (1.0 + gsup)

    def test_cone_containing_support_sees_global_sup(self):
        # base [-4, 4] contains the whole causal region for t <= 1, so the
        # cone maximum equals the running global sup norm.
        params = validate_params(1, 1, 1)
        grid = Grid(-8.0, 8.0, 1024)
        a = amplitude_for_sup_norm(0.1, 1.0)
        st0 = sample_initial_state(params, grid, ICConfig("odd_bump", a=a, b=0.0))
        cone = ConeMax(0.0, 4.0, params)
        out = integrate(st0, params, t_end=1.0, record_stride=1, observe=cone)
        assert cone.value == max(rec.sup_norm for rec in out.records)
