import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbrate import ChannelParams, ParameterError, mgf, preset
from fbrate.model import channel_constants

from conftest import (FIG1, FIG1_ALPHA1, FIG1_BETA, FIG1_C1, FIG1_C2, FIG1_OMEGA,
                      cluster_model_mgf, fig1_params, random_valid_params,
                      unit_eta_shadowed_mgf)


class TestValidate:
    """Every field is checked when a ChannelParams is built or replaced."""

    def test_fig1_config_ok(self):
        assert replace(fig1_params()) == fig1_params()

    def test_mu_zero_rejected(self):
        message = r"^mu out of range: must be > 0, got 0\.0$"
        with pytest.raises(ParameterError, match=message):
            ChannelParams(mu=0.0, m=1.0, kappa=1.0, eta=1.0, rho2=1.0)

    def test_infinite_m_sentinel_accepted(self):
        ChannelParams(mu=2.0, m=math.inf, kappa=1.0, eta=1.0, rho2=1.0)

    @pytest.mark.parametrize("field,value", [
        ("mu", -1.0), ("mu", math.nan), ("m", 0.0), ("m", -2.0),
        ("kappa", -0.1), ("kappa", math.inf), ("eta", 0.0), ("eta", -1.0),
        ("rho2", -0.5), ("gamma_bar", 0.0), ("gamma_bar", math.nan),
    ])
    def test_out_of_range_names_field(self, field, value):
        with pytest.raises(ParameterError, match=field):
            ChannelParams(**{**FIG1, field: value})
        with pytest.raises(ParameterError, match=field):
            replace(fig1_params(), **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("kappa", 1e154), ("kappa", 1e200), ("kappa", 1e300), ("kappa", 1e308),
        ("mu", 1e154), ("eta", 1e300),
    ])
    def test_overflowing_constants_name_the_shape(self, field, value):
        # a float power overflows, or a constant leaves the double range
        fields = {"mu": 2.0, "m": 1.0, "kappa": 1.0, "eta": 1.0, "rho2": 1.0, field: value}
        shape = tuple(fields[k] for k in ("mu", "m", "kappa", "eta", "rho2"))
        with pytest.raises(ParameterError, match=re.escape(repr(shape))):
            ChannelParams(**fields)

    def test_repr_eq_and_hash_see_the_fields_only(self):
        p = fig1_params()
        assert repr(p) == ("ChannelParams(mu=2.0, m=1.0, kappa=1.0, eta=0.1, rho2=0.1, "
                           "gamma_bar=1.0)")
        assert hash(p) == hash((2.0, 1.0, 1.0, 0.1, 0.1, 1.0))
        assert p == ChannelParams(**FIG1) and p != replace(p, gamma_bar=2.0)

    def test_replace_recomputes_the_constants(self):
        p, q = replace(fig1_params(), eta=1.0), ChannelParams(**{**FIG1, "eta": 1.0})
        for field in ("omega_cap", "q2", "c1", "c2"):
            assert getattr(p, field) == getattr(q, field)
        assert p.omega_cap != fig1_params().omega_cap


def _alpha1_beta(params):
    """The quadratic's coefficients, intermediates of channel_constants."""
    return channel_constants(*params.shape)[4:6]


class TestDerive:
    """The MGF constants a ChannelParams computes at construction."""

    def test_fig1_derived_constants(self):
        d = fig1_params()
        alpha1, beta = _alpha1_beta(d)
        assert d.omega_cap == pytest.approx(FIG1_OMEGA, rel=1e-14)
        assert alpha1 == pytest.approx(FIG1_ALPHA1, rel=1e-14)
        assert beta == pytest.approx(FIG1_BETA, rel=1e-14)
        assert d.c1.real == pytest.approx(FIG1_C1, rel=1e-13)
        assert d.c2.real == pytest.approx(FIG1_C2, rel=1e-13)
        assert d.c1.imag == 0.0 and d.c2.imag == 0.0
        assert d.c1.real * d.c2.real == pytest.approx(1.0 / FIG1_ALPHA1, rel=1e-13)

    def test_rayleigh_double_root(self):
        d = ChannelParams(mu=1.0, m=3.7, kappa=0.0, eta=1.0, rho2=1.0)
        assert d.omega_cap == 1.0
        assert _alpha1_beta(d) == (1.0, -2.0)
        assert d.c1 == d.c2 == 1.0 + 0.0j

    def test_nakagami_style_double_root(self):
        d = ChannelParams(mu=2.0, m=1.0, kappa=0.0, eta=1.0, rho2=1.0)
        assert d.omega_cap == 2.0
        assert _alpha1_beta(d) == (0.25, -1.0)
        assert d.c1 == d.c2 == 2.0 + 0.0j

    def test_infinite_m_accepted(self):
        # every kappa/m term vanishes: the non-fluctuating limit is exact
        d = ChannelParams(mu=1.0, m=math.inf, kappa=1.0, eta=1.0, rho2=1.0)
        assert d.omega_cap == 2.0
        assert d.q2 == 1.0
        assert _alpha1_beta(d) == (0.25, -1.0)

    @pytest.mark.parametrize("mu", [1.0, 2.0, 3.7, 20.0, 40.0])
    @pytest.mark.parametrize("m", [0.3, 3.0, 40.0, math.inf])
    def test_double_root_discriminant_exactly_zero(self, mu, m):
        # kappa = 0, eta = 1 is a true double root; the sum-of-squares form
        # must not split it (the textbook beta^2 - 4 alpha1 goes negative)
        d = ChannelParams(mu=mu, m=m, kappa=0.0, eta=1.0, rho2=1.0)
        assert channel_constants(mu, m, 0.0, 1.0, 1.0)[6] == 0.0
        assert d.c1 == pytest.approx(d.c2, rel=1e-15, abs=0.0)

    def test_pure_function_bit_identical(self):
        params = random_valid_params(np.random.default_rng(7))
        a, b = replace(params), replace(params)
        for field in ("omega_cap", "q2", "c1", "c2"):
            assert getattr(a, field) == getattr(b, field)
            assert math.copysign(1.0, getattr(a, field)) == math.copysign(
                1.0, getattr(b, field))

    def test_vieta_identities_random_sweep(self):
        # 10^4 randomized draws: product of roots = 1/alpha1, sum = -beta/alpha1
        rng = np.random.default_rng(1234)
        for _ in range(10_000):
            p = random_valid_params(rng)
            alpha1, beta = _alpha1_beta(p)
            assert p.omega_cap > 0 and alpha1 > 0 and beta < 0
            prod = p.c1 * p.c2
            total = p.c1 + p.c2
            assert abs(prod - 1.0 / alpha1) <= 1e-12 * abs(prod)
            assert abs(total - (-beta / alpha1)) <= 1e-12 * abs(total)
            if channel_constants(p.mu, p.m, p.kappa, p.eta, p.rho2)[6] >= 0:
                assert p.c1.imag == 0 and p.c2.imag == 0
                assert p.c1.real > 0 and p.c2.real > 0
                assert abs(p.c1) >= abs(p.c2)

    @settings(max_examples=200, deadline=None)
    @given(mu=st.floats(0.05, 20), m=st.floats(0.05, 50), kappa=st.floats(0, 10),
           eta=st.floats(0.01, 100), rho2=st.floats(0, 10))
    def test_roots_real_positive_property(self, mu, m, kappa, eta, rho2):
        # the discriminant is provably nonnegative over the valid domain
        d = ChannelParams(mu=mu, m=m, kappa=kappa, eta=eta, rho2=rho2)
        assert channel_constants(mu, m, kappa, eta, rho2)[6] >= 0
        assert d.c1.real > 0 and d.c2.real > 0


class TestPresets:
    def test_rayleigh(self):
        p = preset("rayleigh", gamma_bar=1.0)
        assert (p.mu, p.eta, p.kappa) == (1.0, 1.0, 0.0)
        assert p.m == math.inf and p.gamma_bar == 1.0

    def test_kappa_mu_shadowed_pins_eta(self):
        p = preset("kappa-mu-shadowed", kappa=2.0, mu=3.0, m=2.0)
        assert p.eta == 1.0
        with pytest.raises(ParameterError, match="eta"):
            preset("kappa-mu-shadowed", kappa=2.0, eta=0.5)

    def test_beckmann_sentinel(self):
        p = preset("beckmann", eta=1.0, rho2=1.0)
        assert p.m == math.inf and p.mu == 1.0

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown preset"):
            preset("weibull")

    def test_unknown_override(self):
        with pytest.raises(ParameterError, match="unknown parameter"):
            preset("rayleigh", shape=2.0)

    # one MGF reduction per preset (the table in the README)
    def _mgf(self, params, s):
        return np.array([mgf(params, float(x)) for x in s])

    S_GRID = np.array([0.0, 0.1, 0.7, 2.0, 11.0])

    def test_reduction_rayleigh(self):
        p = preset("rayleigh", gamma_bar=1.3)
        expected = 1.0 / (1.0 + 1.3 * self.S_GRID)
        np.testing.assert_allclose(self._mgf(p, self.S_GRID), expected, rtol=1e-9)

    def test_reduction_nakagami(self):
        p = preset("nakagami-m", mu=3.0, gamma_bar=0.8)
        expected = (1.0 + 0.8 * self.S_GRID / 3.0) ** -3.0
        np.testing.assert_allclose(self._mgf(p, self.S_GRID), expected, rtol=1e-9)

    def test_reduction_eta_mu(self):
        p = preset("eta-mu", eta=0.25, mu=3.0, gamma_bar=2.0)
        omega = 3.0 * 1.25 / 2.0
        expected = ((1.0 + 0.25 * 2.0 * self.S_GRID / omega)
                    * (1.0 + 2.0 * self.S_GRID / omega)) ** -1.5
        np.testing.assert_allclose(self._mgf(p, self.S_GRID), expected, rtol=1e-9)

    def test_reduction_kappa_mu_shadowed(self):
        p = preset("kappa-mu-shadowed", kappa=2.0, mu=3.0, m=2.0, gamma_bar=1.7)
        expected = unit_eta_shadowed_mgf(2.0, 3.0, 2.0, 1.7, self.S_GRID)
        np.testing.assert_allclose(self._mgf(p, self.S_GRID), expected, rtol=1e-12)

    def test_reduction_rician(self):
        # m -> inf limit: (1+x)^-1 exp(-kappa x / (1+x)), evaluated exactly
        kappa = 3.0
        p = preset("rician", kappa=kappa, gamma_bar=1.0)
        x = self.S_GRID / (1.0 + kappa)
        expected = np.exp(-kappa * x / (1.0 + x)) / (1.0 + x)
        np.testing.assert_allclose(self._mgf(p, self.S_GRID), expected, rtol=1e-12)

    def test_reduction_kappa_mu(self):
        kappa, mu = 1.5, 2.0
        p = preset("kappa-mu", kappa=kappa, mu=mu, gamma_bar=0.6)
        x = 0.6 * self.S_GRID / (mu * (1.0 + kappa))
        expected = np.exp(-kappa * mu * x / (1.0 + x)) * (1.0 + x) ** -mu
        np.testing.assert_allclose(self._mgf(p, self.S_GRID), expected, rtol=1e-12)

    def test_reduction_beckmann(self):
        # classical Beckmann: the m -> inf limit of the physical cluster MGF
        p = preset("beckmann", kappa=1.0, eta=0.5, rho2=2.0, gamma_bar=1.0)
        np.testing.assert_allclose(self._mgf(p, self.S_GRID),
                                   cluster_model_mgf(p, self.S_GRID), rtol=1e-12)
