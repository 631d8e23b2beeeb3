import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hyperburg
from hyperburg import (
    ModelParams,
    ParameterError,
    moment_thresholds,
)


class TestValidateParams:
    def test_unit_parameters(self):
        p = ModelParams(1, 1, 1)
        assert (p.mu, p.nu, p.L) == (1.0, 1.0, 1.0)
        assert p.c == 1.0

    def test_zero_mu_rejected_with_name(self):
        with pytest.raises(ParameterError, match="mu must be positive"):
            ModelParams(0, 1, 1)

    def test_quarter_mu_gives_c_two(self):
        assert ModelParams(0.25, 1, 1).c == 2.0

    @pytest.mark.parametrize("name,args", [
        ("nu", (1, -3, 1)),
        ("L", (1, 1, 0)),
        ("mu", (float("nan"), 1, 1)),
        ("nu", (1, float("inf"), 1)),
        ("mu", (-1.0, 1.0, 1.0)),
        ("mu", (0.0, 1.0, 1.0)),
        ("nu", (1.0, float("nan"), 1.0)),
    ])
    def test_bad_inputs_name_the_parameter(self, name, args):
        # ModelParams holds the rules, so building it directly checks too.
        with pytest.raises(ParameterError, match=name):
            ModelParams(*args)
        with pytest.raises(ParameterError, match=name):
            ModelParams(*map(float, args))

    @pytest.mark.parametrize("build,args", [
        (ModelParams, (True, 1, 1)),
        (ModelParams, ("1.0", 1, 1)),
        (ModelParams, (10**400, 1, 1)),
    ], ids=["bool", "str", "int-past-double"])
    def test_non_numbers_and_huge_ints_name_the_parameter(self, build, args):
        with pytest.raises(ParameterError, match="mu"):
            build(*args)

    def test_fields_stored_as_float(self):
        p = ModelParams(1, 1, 1)
        assert (type(p.mu), type(p.nu), type(p.L)) == (float, float, float)


def test_one_home_for_the_real_number_rule():
    # The rule's one implementation catches the overflow of an int past the
    # largest double; a second catch would be a second copy of the rule.
    sources = sorted(Path(hyperburg.__file__).parent.glob("*.py"))
    homes = [(path.name, line) for path in sources
             for line in path.read_text(encoding="utf-8").splitlines()
             if re.search(r"except\s+OverflowError", line)]
    assert [name for name, _ in homes] == ["model.py"], homes
    assert "_real" not in hyperburg.__all__


class TestWaveSpeed:
    @pytest.mark.parametrize("mu,nu,c", [(1, 1, 1.0), (1, 4, 2.0), (4, 1, 0.5)])
    def test_examples(self, mu, nu, c):
        assert ModelParams(mu, nu, 1).c == c

    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    def test_scale_invariance(self, alpha, mu, nu):
        # c depends only on nu/mu; joint rescaling changes it by <= ~2 ulps.
        c0 = ModelParams(mu, nu, 1).c
        c1 = ModelParams(alpha * mu, alpha * nu, 1).c
        assert c1 == pytest.approx(c0, rel=5e-16)


class TestMomentThresholds:
    def test_unit_case(self):
        f0_min, f1_min = moment_thresholds(ModelParams(1, 1, 1))
        assert f0_min == pytest.approx(112.0 / 3.0, rel=1e-12)
        assert f1_min == pytest.approx(448.0 / 3.0, rel=1e-12)

    def test_substitution_case(self):
        f0_min, f1_min = moment_thresholds(ModelParams(1, 4, 2))
        assert f0_min == pytest.approx(896.0 / 3.0, rel=1e-12)
        assert f1_min == pytest.approx(3584.0 / 3.0, rel=1e-12)

    def test_small_support_limit(self):
        # L -> 0: first threshold vanishes, second tends to 128 c^3 mu.
        mu, nu = 2.0, 3.0
        c = math.sqrt(nu / mu)
        f0_min, f1_min = moment_thresholds(ModelParams(mu, nu, 1e-12))
        assert f0_min == pytest.approx(0.0, abs=1e-10)
        assert f1_min == pytest.approx(128.0 * c**3 * mu, rel=1e-10)

    def test_monotone_in_L_and_c(self):
        ls = [0.5, 1.0, 2.0, 4.0]
        nus = [0.5, 1.0, 2.0, 4.0]  # mu fixed -> c increases with nu
        for nu in nus:
            vals = [moment_thresholds(ModelParams(1.0, nu, L)) for L in ls]
            assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(vals, vals[1:]))
        for L in ls:
            vals = [moment_thresholds(ModelParams(1.0, nu, L)) for nu in nus]
            assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(vals, vals[1:]))
