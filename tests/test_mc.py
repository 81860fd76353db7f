import math

import numpy as np
import pytest

from fbrate import (ChannelParams, McConfig, ParameterError, decompose, derive,
                    estimate_er, expectation_quadrature, geometry_from_params,
                    mgf, preset)
from fbrate.mc import _chunk_rng, _sample_block

from conftest import J_RAYLEIGH, expansion_cdf, fig1_params, ks_distance, sample_snr

KS_CRIT_1PCT = 1.6276  # asymptotic two-sided 1% critical coefficient / sqrt(n)


class TestGeometry:
    def test_rayleigh_geometry(self):
        g = geometry_from_params(ChannelParams(mu=1.0, m=1.0, kappa=0.0, eta=1.0,
                                               rho2=0.0))
        assert g.p_components == (0.0,) and g.q_components == (0.0,)
        assert g.sigma_x2 == g.sigma_y2 == 1.0
        assert g.normalization == 2.0

    def test_fig1_style_geometry(self):
        g = geometry_from_params(ChannelParams(mu=2.0, m=1.0, kappa=1.0, eta=0.1,
                                               rho2=0.1))
        q2 = sum(q * q for q in g.q_components)
        p2 = sum(p * p for p in g.p_components)
        assert q2 == pytest.approx(2.0, rel=1e-12)
        assert p2 == pytest.approx(0.2, rel=1e-12)
        assert g.normalization == pytest.approx(4.4, rel=1e-12)

    def test_symmetric_los(self):
        g = geometry_from_params(ChannelParams(mu=1.0, m=1.0, kappa=1.0, eta=1.0,
                                               rho2=1.0))
        assert sum(p * p for p in g.p_components) == pytest.approx(1.0, rel=1e-12)
        assert sum(q * q for q in g.q_components) == pytest.approx(1.0, rel=1e-12)
        assert g.normalization == 4.0

    def test_round_trip_shape_parameters(self, rng):
        for _ in range(25):
            params = ChannelParams(mu=float(rng.integers(1, 9)),
                                   m=float(rng.uniform(0.2, 8.0)),
                                   kappa=float(rng.uniform(0.0, 6.0)),
                                   eta=float(10.0 ** rng.uniform(-1.5, 1.5)),
                                   rho2=float(rng.uniform(0.0, 6.0)))
            g = geometry_from_params(params)
            mu = len(g.p_components)
            p2 = sum(p * p for p in g.p_components)
            q2 = sum(q * q for q in g.q_components)
            kappa = (p2 + q2) / (mu * (g.sigma_x2 + g.sigma_y2))
            assert kappa == pytest.approx(params.kappa, abs=1e-12, rel=1e-12)
            assert g.sigma_x2 / g.sigma_y2 == pytest.approx(params.eta, rel=1e-12)
            if q2 > 0:
                assert p2 / q2 == pytest.approx(params.rho2, rel=1e-12, abs=1e-12)
            assert g.normalization == pytest.approx(
                (1.0 + params.kappa) * mu * (g.sigma_x2 + g.sigma_y2), rel=1e-12)

    def test_non_integer_mu_rejected(self):
        with pytest.raises(ParameterError, match="integer"):
            geometry_from_params(ChannelParams(mu=1.5, m=1.0, kappa=1.0, eta=0.1,
                                               rho2=0.1))


class TestSampling:
    def test_sample_snr_scalar(self):
        p = fig1_params()
        g = geometry_from_params(p)
        value = sample_snr(g, p, _chunk_rng(1, 0))
        assert isinstance(value, float) and value >= 0.0

    def test_mean_snr(self):
        p = fig1_params(gamma_bar=2.5)
        g = geometry_from_params(p)
        n = 1_000_000
        gamma = _sample_block(g, p, _chunk_rng(7, 0), n)
        stderr = gamma.std() / math.sqrt(n)
        assert abs(gamma.mean() - 2.5) <= 4.0 * stderr

    def test_empirical_mgf_matches_analytic(self):
        p = fig1_params()
        g = geometry_from_params(p)
        gamma = _sample_block(g, p, _chunk_rng(11, 0), 1_000_000)
        values = np.exp(-gamma)
        stderr = values.std() / math.sqrt(values.size)
        analytic = mgf(p, derive(p), 1.0).value
        assert abs(values.mean() - analytic) <= 3.0 * stderr

    def test_beckmann_proxy_exponential_ks(self):
        # kappa=0, eta=1, mu=1 with a huge shadowing index is exponential SNR
        p = ChannelParams(mu=1.0, m=1.0e4, kappa=0.0, eta=1.0, rho2=0.0,
                          gamma_bar=1.0)
        g = geometry_from_params(p)
        gamma = _sample_block(g, p, _chunk_rng(13, 0), 1_000_000)
        d = ks_distance(gamma, lambda x: 1.0 - np.exp(-x))
        assert d < KS_CRIT_1PCT / math.sqrt(gamma.size)

    def test_closed_form_density_ks(self):
        p = fig1_params()
        expansion = decompose(p, derive(p))
        cdf = expansion_cdf(expansion, p.gamma_bar)
        gamma = _sample_block(geometry_from_params(p), p, _chunk_rng(17, 0), 1_000_000)
        d = ks_distance(gamma, cdf)
        assert d < KS_CRIT_1PCT / math.sqrt(gamma.size)

    def test_small_shape_gamma_ok(self):
        # shadowing index below one must still sample correctly
        p = ChannelParams(mu=1.0, m=0.4, kappa=2.0, eta=1.0, rho2=1.0, gamma_bar=1.0)
        g = geometry_from_params(p)
        gamma = _sample_block(g, p, _chunk_rng(19, 0), 500_000)
        stderr = gamma.std() / math.sqrt(gamma.size)
        assert abs(gamma.mean() - 1.0) <= 4.0 * stderr


class TestEstimateEr:
    def test_rayleigh_concordance(self):
        p = preset("rayleigh")
        est = estimate_er(p, 2.0, McConfig(n_samples=1_000_000, seed=42))
        assert abs(est.j_hat - J_RAYLEIGH) <= 3.0 * est.j_stderr
        assert est.rate_hat == pytest.approx(-math.log2(est.j_hat) / 2.0)

    def test_fig1_concordance(self):
        p = fig1_params()
        est = estimate_er(p, 2.0, McConfig(n_samples=1_000_000, seed=42))
        j_quad, _ = expectation_quadrature(p, derive(p), 2.0)
        assert abs(est.j_hat - j_quad) <= 3.0 * est.j_stderr

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParameterError, match="A"):
            estimate_er(fig1_params(), 0.0, McConfig(n_samples=1000, seed=1))

    def test_non_integer_mu_rejected(self):
        p = ChannelParams(mu=1.5, m=1.0, kappa=1.0, eta=0.1, rho2=0.1)
        with pytest.raises(ParameterError, match="integer"):
            estimate_er(p, 2.0, McConfig(n_samples=1000, seed=1))

    def test_infinite_m_concordance(self):
        # m = inf samples a non-fluctuating LoS (xi = 1) and must agree with
        # quadrature of the exact m -> inf MGF
        p = preset("beckmann", kappa=1.0, eta=0.5, rho2=2.0, gamma_bar=10.0)
        est = estimate_er(p, 2.0, McConfig(n_samples=1_000_000, seed=42))
        j_quad, _ = expectation_quadrature(p, derive(p), 2.0)
        assert abs(est.j_hat - j_quad) <= 4.0 * est.j_stderr

    def test_deterministic_across_runs_and_workers(self):
        p = fig1_params()
        config = McConfig(n_samples=300_000, seed=123, chunk_size=1 << 14)
        first = estimate_er(p, 2.0, config, n_workers=1)
        again = estimate_er(p, 2.0, config, n_workers=1)
        threaded = estimate_er(p, 2.0, config, n_workers=4)
        assert first == again == threaded  # bit-identical dataclasses

    def test_chunk_layout_does_not_change_distribution(self):
        # different chunk sizes give different (but consistent) estimates
        p = fig1_params()
        a = estimate_er(p, 2.0, McConfig(n_samples=200_000, seed=5, chunk_size=1 << 12))
        b = estimate_er(p, 2.0, McConfig(n_samples=200_000, seed=5, chunk_size=1 << 15))
        assert abs(a.j_hat - b.j_hat) <= 6.0 * max(a.j_stderr, b.j_stderr)

    def test_small_sample_warning(self):
        with pytest.warns(UserWarning, match="standard errors"):
            McConfig(n_samples=100, seed=1)
