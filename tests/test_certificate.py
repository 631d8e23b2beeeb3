import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperburg
from hyperburg import (
    DomainError,
    ModelParams,
    ParameterError,
    build_certificate,
    moment_thresholds,
)
from hyperburg.certificate import (
    ORACLE_SAMPLES,
    _dopri5,
    aux_ode_oracle,
    comparison_check,
    epsilon_conditions_hold,
    epsilon_interval,
    g_closed_form,
    t_star,
)
from hyperburg.runner import json_text
from hyperburg.suite import _scan_grid, epsilon_scan_oracle

UNIT = ModelParams(1, 1, 1)


class TestMomentThresholdCheck:
    def test_certified_preset_passes(self):
        assert build_certificate(UNIT, 40.0, 200.0).thresholds_met

    def test_boundary_is_strict(self):
        f0_min, f1_min = moment_thresholds(UNIT)
        assert not build_certificate(UNIT, f0_min, 200.0).thresholds_met
        assert not build_certificate(UNIT, 40.0, f1_min).thresholds_met

    def test_second_condition_alone_fails(self):
        assert not build_certificate(UNIT, 1000.0, 0.0).thresholds_met


class TestEpsilonInterval:
    def test_certified_preset_interval(self):
        lo, hi = epsilon_interval(UNIT, 40.0, 200.0)
        assert lo == pytest.approx(0.6324555320336759, rel=1e-12)
        assert hi == pytest.approx(0.6563636185367, rel=1e-9)

    def test_threshold_passing_but_infeasible(self):
        # Large G0 pushes the blow-up condition above the slope cap even
        # though both standalone thresholds hold.
        assert build_certificate(UNIT, 100.0, 200.0).thresholds_met
        assert epsilon_interval(UNIT, 100.0, 200.0) is None

    def test_coinciding_bounds_empty(self):
        # F1 = 160 makes the slope cap equal the blow-up lower bound.
        assert epsilon_interval(UNIT, 40.0, 160.0) is None

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ParameterError):
            epsilon_interval(UNIT, 0.0, 200.0)
        with pytest.raises(ParameterError):
            epsilon_interval(UNIT, 40.0, -1.0)

    def test_boundary_padding(self):
        lo, hi = epsilon_interval(UNIT, 40.0, 200.0)
        pad = 1e-9
        assert epsilon_conditions_hold(lo + pad, UNIT, 40.0, 200.0)
        assert not epsilon_conditions_hold(lo - pad, UNIT, 40.0, 200.0)
        assert epsilon_conditions_hold(hi - pad, UNIT, 40.0, 200.0)
        assert not epsilon_conditions_hold(hi + pad, UNIT, 40.0, 200.0)

    def test_array_form_matches_scalar_calls(self):
        # Includes eps <= 0, both interval ends and the infeasible region.
        lo, hi = epsilon_interval(UNIT, 40.0, 200.0)
        eps = np.concatenate([[-1.0, -0.0, 0.0, 1e-300, lo, hi],
                              np.linspace(-0.5, 2.0, 251)])
        for g0, f1 in ((40.0, 200.0), (100.0, 200.0), (7.0, 900.0)):
            held = epsilon_conditions_hold(eps, UNIT, g0, f1)
            assert held.dtype == bool and held.shape == eps.shape
            scalar = [epsilon_conditions_hold(float(e), UNIT, g0, f1) for e in eps]
            assert all(type(s) is bool for s in scalar)
            assert held.tolist() == scalar
            assert not held[eps <= 0.0].any()
        assert epsilon_conditions_hold(eps, UNIT, 40.0, 200.0).any()

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.0, 400.0), st.floats(1.0, 1000.0))
    def test_midpoint_feasible_whenever_nonempty(self, g0, f1):
        interval = epsilon_interval(UNIT, g0, f1)
        if interval is not None:
            mid = 0.5 * (interval[0] + interval[1])
            assert epsilon_conditions_hold(mid, UNIT, g0, f1)

    def test_matches_dense_scan_on_seeded_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            g0 = float(rng.uniform(1.0, 400.0))
            f1 = float(rng.uniform(1.0, 1000.0))
            interval = epsilon_interval(UNIT, g0, f1)
            scanned = epsilon_scan_oracle(UNIT, g0, f1)
            if interval is None:
                assert scanned is None
            else:
                assert scanned is not None
                assert abs(scanned[0] - interval[0]) <= 1e-4 + 1e-9
                assert abs(scanned[1] - interval[1]) <= 1e-4 + 1e-9

    def test_scan_grid_cached_and_chunked_scan_exact(self):
        grid = _scan_grid()
        assert grid is _scan_grid()
        assert not grid.flags.writeable
        assert np.array_equal(grid, np.arange(1, 100001) * 1e-4)
        rng = np.random.default_rng(5)
        for _ in range(25):
            g0 = float(rng.uniform(1.0, 400.0))
            f1 = float(rng.uniform(1.0, 1000.0))
            whole = grid[epsilon_conditions_hold(grid, UNIT, g0, f1)]
            expected = (float(whole[0]), float(whole[-1])) if whole.size else None
            assert epsilon_scan_oracle(UNIT, g0, f1) == expected


class TestClosedForm:
    def test_identity_at_t0(self):
        assert g_closed_form(0.0, 1.0, 64.0, UNIT) == 64.0
        assert g_closed_form(0.0, 0.3, 17.5, UNIT) == 17.5

    def test_hand_evaluated_point(self):
        # c = L = 1, eps = 1, G0 = 64, t = 0.2:
        # G^(-1/2) = 1/8 + (1/4) (1.2^-2 - 1) ~ 0.0486111 -> G ~ 423.2
        expected = (0.125 + 0.25 * (1.2**-2 - 1.0)) ** -2
        assert g_closed_form(0.2, 1.0, 64.0, UNIT) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(423.18, abs=0.01)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            g_closed_form(-0.1, 1.0, 64.0, UNIT)
        ts = t_star(1.0, 64.0, UNIT)
        with pytest.raises(DomainError):
            g_closed_form(ts * 1.0001, 1.0, 64.0, UNIT)

    def test_nan_time_is_a_domain_error(self):
        with pytest.raises(DomainError, match="t=nan"):
            g_closed_form(math.nan, 1.0, 64.0, UNIT)

    def test_strictly_increasing_and_diverging(self):
        ts = t_star(1.0, 64.0, UNIT)
        samples = [g_closed_form(f * ts, 1.0, 64.0, UNIT) for f in np.linspace(0, 0.99, 40)]
        assert all(b > a for a, b in zip(samples, samples[1:]))
        assert samples[-1] > 100.0 * 64.0

    def test_divergence_for_certified_preset(self):
        cert = build_certificate(UNIT, 40.0, 200.0)
        g_late = g_closed_form(0.99 * cert.T_star, cert.eps_chosen, 40.0, UNIT)
        assert g_late > 100.0 * 40.0


class TestTStar:
    def test_sqrt2_minus_one(self):
        assert t_star(1.0, 64.0, UNIT) == pytest.approx(math.sqrt(2) - 1, rel=1e-14)

    def test_boundary_absent(self):
        # G0 exactly at 16 c^2 L^4 / eps^2: strictly-greater fails.
        assert t_star(2.0, 4.0, UNIT) is None
        assert t_star(2.0, 4.0 + 1e-12, UNIT) is not None

    def test_certified_preset_value(self):
        assert t_star(0.65, 40.0, UNIT) == pytest.approx(5.0868, abs=2e-4)

    def test_decreasing_in_eps(self):
        eps_grid = np.linspace(0.65, 3.0, 25)
        vals = [t_star(e, 40.0, UNIT) for e in eps_grid]
        assert all(v is not None for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_edge_of_the_bracket_never_raises(self):
        # eps at 4 c L^2 / sqrt(G0) and the next two doubles up: the bracket
        # that T* inverts is within an ulp of zero, on either side of it.
        rng = np.random.default_rng(35)
        params = [UNIT, ModelParams(0.25, 1.0, 1.0), ModelParams(0.7, 1.3, 2.0),
                  ModelParams(2.0, 0.5, 0.5)]
        for _ in range(500):
            p = params[rng.integers(len(params))]
            g0 = float(rng.uniform(1.0, 1e4))
            eps = 4.0 * p.c * p.L * p.L / math.sqrt(g0)
            for _ in range(3):
                T = t_star(eps, g0, p)
                assert T is None or (type(T) is float and math.isfinite(T) and T > 0.0)
                eps = math.nextafter(eps, math.inf)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            t_star(0.0, 40.0, UNIT)
        with pytest.raises(ParameterError):
            t_star(1.0, 0.0, UNIT)


class TestAuxOdeOracle:
    def test_zero_eps_constant(self):
        res = aux_ode_oracle(0.0, 64.0, UNIT, 1.0)
        assert not res.diverged
        assert np.all(res.G == 64.0)

    def test_initial_sample(self):
        res = aux_ode_oracle(1.0, 64.0, UNIT, 0.3)
        assert res.t[0] == 0.0
        assert res.G[0] == 64.0

    def test_agreement_with_closed_form(self):
        ts = t_star(1.0, 64.0, UNIT)
        res = aux_ode_oracle(1.0, 64.0, UNIT, 0.9 * ts)
        assert not res.diverged
        closed = np.array([g_closed_form(t, 1.0, 64.0, UNIT) for t in res.t])
        assert np.max(np.abs(res.G - closed) / closed) <= 1e-8

    def test_divergence_evidence_past_t_star(self):
        ts = t_star(1.0, 64.0, UNIT)
        res = aux_ode_oracle(1.0, 64.0, UNIT, 1.5 * ts)
        assert res.diverged
        assert res.t[-1] <= ts

    def test_cold_start_defers_scipy_integrate(self):
        """A fresh import loads bare scipy only, and so does an oracle call:
        the package integrates in-package and never loads a scipy
        subpackage.  Its horizon 0.3 lies below T* = sqrt(2) - 1."""
        probe = """
import json, sys
import hyperburg, hyperburg.cli
from hyperburg.certificate import aux_ode_oracle
heavy = ("scipy.integrate", "scipy.special", "scipy.linalg", "scipy.sparse", "scipy.optimize")
at_import = {"scipy": "scipy" in sys.modules, "heavy": [m for m in heavy if m in sys.modules]}
res = aux_ode_oracle(1.0, 64.0, hyperburg.ModelParams(1, 1, 1), 0.3)
print(json.dumps({**at_import, "scipy_after": "scipy" in sys.modules,
                  "heavy_after": [m for m in heavy if m in sys.modules],
                  "diverged": bool(res.diverged)}))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(hyperburg.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        seen = json.loads(done.stdout.strip().splitlines()[-1])
        assert seen["scipy"]
        assert seen["heavy"] == []
        assert seen["scipy_after"]
        assert seen["heavy_after"] == []
        assert seen["diverged"] is False

    def test_no_run_or_preset_loads_numpy_random(self):
        """The oracle preset draws its instances with ``random``, and a run
        samples its initial data without a generator: in a fresh process,
        the certificate-oracle preset and the coarsest blowup member leave
        ``numpy.random`` unloaded."""
        probe = """
import json, sys
import hyperburg.cli
from hyperburg.runner import execute_config
from hyperburg.suite import preset_configs, run_suite
checks = run_suite("certificate-oracle")
coarsest = min(preset_configs("blowup"), key=lambda c: c.grid.n)
execute_config(coarsest)
print(json.dumps({"passed": all(c.passed for c in checks), "n": coarsest.grid.n,
                  "numpy_random": "numpy.random" in sys.modules}))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(hyperburg.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        seen = json.loads(done.stdout.strip().splitlines()[-1])
        assert seen["passed"] and seen["n"] == 1025
        assert seen["numpy_random"] is False

    @pytest.mark.parametrize("eps, G0, t_end, match", [
        (1.0, 0.0, 0.3, "G0 must be finite and > 0, got 0.0"),
        (1.0, -1.0, 0.3, "G0 must be finite and > 0, got -1.0"),
        (1.0, math.nan, 0.3, "G0 must be finite and > 0, got nan"),
        (1.0, math.inf, 0.3, "G0 must be finite and > 0, got inf"),
        (math.nan, 64.0, 0.3, "eps must be finite and >= 0, got nan"),
        (-1.0, 64.0, 0.3, "eps must be finite and >= 0, got -1.0"),
        (math.inf, 64.0, 0.3, "eps must be finite and >= 0, got inf"),
        (True, 64.0, 0.3, "eps must be a number, got True"),
        ("1", 64.0, 0.3, "eps must be a number, got '1'"),
        (1.0, "64", 0.3, "G0 must be a number, got '64'"),
        (1.0, 64.0, math.inf, "t_end must be finite and >= 0, got inf"),
        (1.0, 64.0, -0.1, "t_end must be finite and >= 0, got -0.1"),
        (1.0, 64.0, None, "t_end must be a number, got None"),
    ])
    def test_bad_input_raises_parameter_error(self, eps, G0, t_end, match):
        with pytest.raises(ParameterError, match=re.escape(match)):
            aux_ode_oracle(eps, G0, UNIT, t_end)

    def test_zero_horizon_repeats_g0(self):
        res = aux_ode_oracle(1.0, 64.0, UNIT, 0.0)
        assert not res.diverged
        assert res.t.size == res.G.size == ORACLE_SAMPLES
        assert np.all(res.t == 0.0) and np.all(res.G == 64.0)

    def test_subnormal_g0_stays_put(self):
        res = aux_ode_oracle(1.0, 1e-320, UNIT, 0.3)
        assert not res.diverged and res.G.size == ORACLE_SAMPLES
        assert np.all(res.G == 1e-320)


AUX_CASES = [  # (eps, G0, mu, nu, L): c = sqrt(nu / mu)
    (1.0, 64.0, 1.0, 1.0, 1.0),
    (0.4, 250.0, 0.5, 2.0, 1.5),
    (2.5, 9.0, 2.0, 0.5, 0.7),
    (0.05, 3.0e4, 1.0, 3.0, 2.0),
    (1.2, 1.0e-3, 0.3, 0.3, 0.4),
]


class TestDopri5:
    """The in-package integrator against independent references."""

    TOL = dict(rtol=1e-10, atol=1e-12, escape=1e15)

    @pytest.mark.parametrize("eps, G0, mu, nu, L", AUX_CASES)
    def test_aux_ode_matches_closed_form_and_dop853(self, eps, G0, mu, nu, L):
        from scipy.integrate import solve_ivp

        params = ModelParams(mu, nu, L)
        c = params.c
        ts = t_star(eps, G0, params)
        res = aux_ode_oracle(eps, G0, params, 0.9 * ts if ts is not None else 5.0)
        assert not res.diverged and res.t.size == ORACLE_SAMPLES
        closed = np.array([g_closed_form(t, eps, G0, params) for t in res.t])
        assert np.max(np.abs(res.G - closed) / closed) <= 1e-8
        ref = solve_ivp(lambda t, y: eps * (c * t + L) ** -3.0 * y ** 1.5, (0.0, res.t[-1]), [G0],
                        method="DOP853", rtol=1e-10, atol=1e-12 * G0, t_eval=res.t)
        assert ref.status == 0
        assert np.max(np.abs(res.G - ref.y[0]) / ref.y[0]) <= 1e-8

    def test_exponential(self):
        samples, diverged = _dopri5(lambda t, y: y, 1.0, [0.0, 0.5, 1.0], **self.TOL)
        assert not diverged and type(samples[-1]) is float
        assert samples[-1] == pytest.approx(math.e, rel=1e-9)

    def test_rotation_as_an_array_state(self):
        ts = np.linspace(0.0, 2.0 * math.pi, 17).tolist()
        samples, diverged = _dopri5(lambda t, y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]),
                                    ts, **self.TOL)
        assert not diverged
        got = np.array(samples)
        want = np.stack([np.cos(ts), -np.sin(ts)], axis=1)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_blowup_diverges_before_it(self):
        ts = np.linspace(0.0, 2.0, 41).tolist()
        samples, diverged = _dopri5(lambda t, y: y * y, 1.0, ts, **self.TOL)
        assert diverged
        assert 1 < len(samples) < len(ts) and ts[len(samples) - 1] <= 1.0

    def test_non_finite_slope_collapses_the_step_and_diverges(self):
        ts = [0.0, 0.25, 0.5, 0.75, 1.0]
        samples, diverged = _dopri5(lambda t, y: math.nan if t > 0.6 else 1.0, 0.0, ts, **self.TOL)
        assert diverged and samples == pytest.approx([0.0, 0.25, 0.5], rel=1e-12)

    def test_zero_slope_returns_the_initial_value_exactly(self):
        ts = [0.0, 0.25, 1.0, 3.0]
        samples, diverged = _dopri5(lambda t, y: 0.0 * y, 0.7, ts, **self.TOL)
        assert not diverged and samples == [0.7] * 4
        samples, diverged = _dopri5(lambda t, y: np.zeros(3), np.array([1.0, -2.0, 3.5]), ts,
                                    **self.TOL)
        assert not diverged and all(np.array_equal(s, [1.0, -2.0, 3.5]) for s in samples)

    def test_two_calls_are_bitwise_equal(self):
        ts = t_star(1.0, 64.0, UNIT)
        first, second = (aux_ode_oracle(1.0, 64.0, UNIT, 1.2 * ts) for _ in range(2))
        assert first.diverged and second.diverged
        assert first.t.tobytes() == second.t.tobytes()
        assert first.G.tobytes() == second.G.tobytes()


class TestBuildCertificateAndComparison:
    def test_feasible_iff_t_star_present(self):
        feasible = build_certificate(UNIT, 40.0, 200.0)
        assert feasible.feasible and feasible.T_star is not None
        assert feasible.G0 == feasible.F0 == 40.0
        lo, hi = feasible.eps_interval
        assert lo < feasible.eps_chosen < hi

    def test_interval_a_few_ulps_wide(self):
        # F1 puts the slope cap 0 to 5 ulps above the blow-up lower bound:
        # the certificate is all set, at an eps the conditions accept, or
        # all None, and building it never raises.
        rng = np.random.default_rng(3535)
        params = [UNIT, ModelParams(0.25, 1.0, 1.0), ModelParams(0.7, 1.3, 2.0)]
        feasible = 0
        for _ in range(500):
            p = params[rng.integers(len(params))]
            g0 = float(rng.uniform(50.0, 5000.0))
            upper = 4.0 * p.c * p.L * p.L * (1.0 / math.sqrt(g0))
            for _ in range(6):
                f1 = upper * g0**1.5 / p.L**3
                cert = build_certificate(p, g0, f1)
                fields = (cert.eps_interval, cert.eps_chosen, cert.T_star, cert.T_star_tightest)
                assert all(f is None for f in fields) or all(f is not None for f in fields)
                if cert.feasible:
                    feasible += 1
                    assert epsilon_conditions_hold(cert.eps_chosen, p, g0, f1)
                    assert 0.0 < cert.T_star_tightest <= cert.T_star < math.inf
                upper = math.nextafter(upper, math.inf)
        assert feasible > 0

    def test_infeasible_certificate_fields(self):
        cert = build_certificate(UNIT, 100.0, 200.0)
        assert not cert.feasible
        assert cert.eps_interval is None
        assert cert.eps_chosen is None and cert.T_star is None
        assert cert.thresholds_met

    def test_nonpositive_moments_handled(self):
        cert = build_certificate(UNIT, -5.0, 0.0)
        assert not cert.feasible and not cert.thresholds_met

    def test_minorant_exists_only_before_t_star(self):
        cert = build_certificate(UNIT, 40.0, 200.0)
        below = cert.T_star * (1.0 - 1e-9)
        assert cert.minorant(0.0, UNIT) == cert.G0
        assert cert.minorant(below, UNIT) == g_closed_form(below, cert.eps_chosen, 40.0, UNIT)
        assert cert.minorant(below, UNIT) > 1e15 * cert.G0
        assert cert.minorant(cert.T_star, UNIT) is None
        assert cert.minorant(2.0 * cert.T_star, UNIT) is None
        # the closed form blows up a few ulps before T*; G does not exist there
        assert cert.minorant(math.nextafter(cert.T_star, 0.0), UNIT) is None
        assert build_certificate(UNIT, 100.0, 200.0).minorant(0.0, UNIT) is None

    @pytest.mark.parametrize("F0", [True, "40", np.float32(40.0)], ids=["bool", "str", "float32"])
    def test_moments_pass_the_real_number_rule(self, F0):
        if type(F0) is np.float32:
            cert = build_certificate(UNIT, F0, np.float32(200.0))
            assert (type(cert.F0), type(cert.F1), type(cert.G0)) == (float, float, float)
            assert cert == build_certificate(UNIT, 40.0, 200.0)
            assert json.loads(json_text(vars(cert)))["F0"] == 40.0
        else:
            with pytest.raises(ParameterError, match="^F0 must be a number, got"):
                build_certificate(UNIT, F0, 200.0)

    def test_comparison_requires_feasible_certificate(self, blowup_reports):
        records = blowup_reports[0].outcome.records
        empty = build_certificate(UNIT, 100.0, 200.0)
        assert comparison_check(records, empty, UNIT) is None

    def test_comparison_margin_zero_at_t0(self, blowup_reports):
        # G(0) = F(0) by construction, later records only gain margin.
        for report in blowup_reports:
            cert = build_certificate(UNIT, report.certificate["F0"],
                                     report.certificate["F1"])
            worst = comparison_check(report.outcome.records, cert, UNIT)
            assert worst == 0.0
