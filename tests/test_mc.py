import math

import numpy as np
import pytest

import fbrate.mc
from fbrate import (ChannelParams, ConvergenceError, McConfig, ParameterError,
                    decompose, estimate_er, expectation_quadrature, mgf,
                    preset)
from fbrate.crosscheck import McCheckReport, McCheckResult, mc_grid, run_mc_check
from fbrate.mc import _chunk_rng, _sample_block

from conftest import (FIG2_J_BY_M, J_RAYLEIGH, cluster_model_mgf, expansion_cdf,
                      fig1_params, ks_distance, sample_snr)

KS_CRIT_1PCT = 1.6276  # asymptotic two-sided 1% critical coefficient / sqrt(n)

#: Shape parameters the sampler must reproduce at the distribution level:
#: no LoS, symmetric LoS, all LoS on one branch, a dominant in-phase scatter,
#: strong LoS, fractional cluster counts, and fewer than one cluster.
MGF_CASES = {
    "kappa0": dict(mu=2.0, m=1.0, kappa=0.0, eta=0.5, rho2=1.0),
    "symmetric-los": dict(mu=1.0, m=1.0, kappa=1.0, eta=1.0, rho2=1.0),
    "rho2-0": dict(mu=2.0, m=1.0, kappa=1.0, eta=0.1, rho2=0.0),
    "eta10": dict(mu=2.0, m=2.0, kappa=1.0, eta=10.0, rho2=0.1),
    "kappa3": dict(mu=3.0, m=2.0, kappa=3.0, eta=0.5, rho2=2.0),
    "mu1.5": dict(mu=1.5, m=1.0, kappa=1.0, eta=0.1, rho2=0.1),
    "mu2.7": dict(mu=2.7, m=0.5, kappa=2.0, eta=3.0, rho2=0.5),
    "mu0.5-nlos": dict(mu=0.5, m=1.0, kappa=0.0, eta=0.3, rho2=1.0),
}


class TestSampling:
    def test_sample_snr_scalar(self):
        value = sample_snr(fig1_params(), _chunk_rng(1, 0))
        assert isinstance(value, float) and value >= 0.0

    def test_mean_snr(self):
        p = fig1_params(gamma_bar=2.5)
        n = 1_000_000
        gamma = _sample_block(p, _chunk_rng(7, 0), n)
        stderr = gamma.std() / math.sqrt(n)
        assert abs(gamma.mean() - 2.5) <= 4.0 * stderr

    def test_empirical_mgf_matches_analytic(self):
        p = fig1_params()
        gamma = _sample_block(p, _chunk_rng(11, 0), 1_000_000)
        values = np.exp(-gamma)
        stderr = values.std() / math.sqrt(values.size)
        analytic = mgf(p, 1.0).value
        assert abs(values.mean() - analytic) <= 3.0 * stderr

    @pytest.mark.parametrize("case", MGF_CASES)
    def test_empirical_mgf_matches_cluster_model(self, case):
        # E[exp(-s gamma)] at two transform arguments against the MGF chained
        # from the cluster model: checks kappa, eta, rho2 and real mu together
        p = ChannelParams(gamma_bar=2.0, **MGF_CASES[case])
        gamma = _sample_block(p, _chunk_rng(23, 0), 1_000_000)
        for s_arg in (0.5, 2.0):
            values = np.exp(-s_arg * gamma)
            stderr = values.std() / math.sqrt(values.size)
            analytic = float(cluster_model_mgf(p, s_arg))
            assert abs(values.mean() - analytic) <= 4.0 * stderr

    def test_beckmann_proxy_exponential_ks(self):
        # kappa=0, eta=1, mu=1 with a huge shadowing index is exponential SNR
        p = ChannelParams(mu=1.0, m=1.0e4, kappa=0.0, eta=1.0, rho2=0.0,
                          gamma_bar=1.0)
        gamma = _sample_block(p, _chunk_rng(13, 0), 1_000_000)
        d = ks_distance(gamma, lambda x: 1.0 - np.exp(-x))
        assert d < KS_CRIT_1PCT / math.sqrt(gamma.size)

    def test_closed_form_density_ks(self):
        p = fig1_params()
        expansion = decompose(p)
        cdf = expansion_cdf(expansion, p.gamma_bar)
        gamma = _sample_block(p, _chunk_rng(17, 0), 1_000_000)
        d = ks_distance(gamma, cdf)
        assert d < KS_CRIT_1PCT / math.sqrt(gamma.size)

    def test_small_shape_gamma_ok(self):
        # shadowing index below one must still sample correctly
        p = ChannelParams(mu=1.0, m=0.4, kappa=2.0, eta=1.0, rho2=1.0, gamma_bar=1.0)
        gamma = _sample_block(p, _chunk_rng(19, 0), 500_000)
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
        j_quad, _ = expectation_quadrature(p, 2.0)
        assert abs(est.j_hat - j_quad) <= 3.0 * est.j_stderr

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParameterError, match="A"):
            estimate_er(fig1_params(), 0.0, McConfig(n_samples=1000, seed=1))

    def test_real_mu_concordance(self):
        # fig-2 base: a fractional cluster count adds chi-square scatter
        p = fig1_params(mu=1.5)
        est = estimate_er(p, 2.0, McConfig(n_samples=1_000_000, seed=42))
        j_quad, _ = expectation_quadrature(p, 2.0)
        assert j_quad == pytest.approx(FIG2_J_BY_M[1.0], rel=1e-8)
        assert abs(est.j_hat - j_quad) <= 4.0 * est.j_stderr

    def test_sub_unit_mu_with_los_rejected(self):
        # below one cluster there is no Gaussian to carry the LoS mean
        p = ChannelParams(mu=0.5, m=1.0, kappa=1.0, eta=0.1, rho2=0.1)
        with pytest.raises(ParameterError, match="mu"):
            estimate_er(p, 2.0, McConfig(n_samples=1000, seed=1))

    def test_underflow_raises_convergence_error(self):
        # every (1+gamma)^-1000 at 30 dB underflows; J = 4.0e-12 by quadrature
        p = ChannelParams(mu=2.0, m=1.0, kappa=0.0, eta=1.0, rho2=1.0,
                          gamma_bar=1000.0)
        with pytest.raises(ConvergenceError, match="underflowed"):
            estimate_er(p, 1000.0, McConfig(n_samples=2000, seed=42))

    def test_infinite_m_concordance(self):
        # m = inf samples a non-fluctuating LoS (xi = 1) and must agree with
        # quadrature of the exact m -> inf MGF
        p = preset("beckmann", kappa=1.0, eta=0.5, rho2=2.0, gamma_bar=10.0)
        est = estimate_er(p, 2.0, McConfig(n_samples=1_000_000, seed=42))
        j_quad, _ = expectation_quadrature(p, 2.0)
        assert abs(est.j_hat - j_quad) <= 4.0 * est.j_stderr

    def test_deterministic_across_runs_and_workers(self, monkeypatch):
        config = McConfig(n_samples=300_000, seed=123, chunk_size=1 << 14)
        shapes = (fig1_params(), fig1_params(mu=1.5))
        defaults = [estimate_er(p, 2.0, config) for p in shapes]  # this host's CPUs
        # serial twice, then pools of 4 and 3 threads for the 19 chunks
        for cpus in (1, 1, 4, 3):
            monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: cpus)
            # bit-identical dataclasses
            assert [estimate_er(p, 2.0, config) for p in shapes] == defaults

    def test_chunk_layout_does_not_change_distribution(self):
        # different chunk sizes give different (but consistent) estimates
        p = fig1_params()
        a = estimate_er(p, 2.0, McConfig(n_samples=200_000, seed=5, chunk_size=1 << 12))
        b = estimate_er(p, 2.0, McConfig(n_samples=200_000, seed=5, chunk_size=1 << 15))
        assert abs(a.j_hat - b.j_hat) <= 6.0 * max(a.j_stderr, b.j_stderr)

    def test_small_sample_warning(self):
        with pytest.warns(UserWarning, match="standard errors"):
            McConfig(n_samples=100, seed=1)


#: float.hex of (j_hat, j_stderr) at seed 42, frozen from the allocating
#: sampler that preceded the in-place one: any change to the draw order or to
#: the floating-point order of the kernel shows up here.
#: name: (params, A, n_samples, chunk_size, j_hat, j_stderr)
MC_GOLDEN = {
    "mu6-m3-kappa2-A5": (
        ChannelParams(mu=6.0, m=3.0, kappa=2.0, eta=0.1, rho2=0.1, gamma_bar=100.0),
        5.0, 1 << 17, 1 << 16, "0x1.a26e9efa1eec9p-25", "0x1.6ff42c0448e7cp-28"),
    "beckmann": (
        preset("beckmann", kappa=1.0, eta=0.5, rho2=2.0, gamma_bar=10.0),
        2.0, 1 << 17, 1 << 16, "0x1.e7b8d1b604a62p-5", "0x1.7cb2c58d3981dp-12"),
    "mu1.5": (
        ChannelParams(mu=1.5, m=1.0, kappa=1.0, eta=0.1, rho2=0.1, gamma_bar=1.0),
        2.0, 1 << 17, 1 << 16, "0x1.a0b749ce39c2bp-2", "0x1.7c325a8668fc7p-11"),
    "mu2.7-m0.5": (
        ChannelParams(mu=2.7, m=0.5, kappa=2.0, eta=3.0, rho2=0.5, gamma_bar=2.0),
        2.0, 1 << 17, 1 << 16, "0x1.e4a50cd499a46p-3", "0x1.15448337a9b9cp-11"),
    "mu0.5-nlos": (
        ChannelParams(mu=0.5, m=1.0, kappa=0.0, eta=0.3, rho2=1.0, gamma_bar=2.0),
        2.0, 1 << 17, 1 << 16, "0x1.a263becc2b1dfp-2", "0x1.f15d7f14a8426p-11"),
    "A0.5": (
        ChannelParams(mu=4.0, m=2.0, kappa=0.5, eta=0.5, rho2=1.0, gamma_bar=10.0),
        0.5, 1 << 17, 1 << 16, "0x1.51734c588b7a6p-2", "0x1.e7678f2fad91ap-13"),
    "A1": (
        preset("nakagami-m", mu=3, gamma_bar=10.0),
        1.0, 1 << 17, 1 << 16, "0x1.f136c72862640p-4", "0x1.b5cd20994896ep-13"),
    "ragged-chunks": (
        fig1_params(gamma_bar=10.0),
        2.0, 100_003, 1 << 14, "0x1.b15798359e52fp-5", "0x1.47c1815342a3bp-12"),
}


class TestGolden:
    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("case", MC_GOLDEN)
    def test_estimate_bits(self, monkeypatch, case, cpus):
        params, a, n, chunk, j_hex, stderr_hex = MC_GOLDEN[case]
        config = McConfig(n_samples=n, seed=42, chunk_size=chunk)
        monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: cpus)
        est = estimate_er(params, a, config)
        assert (est.j_hat.hex(), est.j_stderr.hex()) == (j_hex, stderr_hex)


class TestWorkers:
    CONFIG = McConfig(n_samples=300_000, seed=7, chunk_size=1 << 15)  # 10 chunks

    def test_default_pool_size(self, monkeypatch):
        sizes = []
        real_pool = fbrate.mc.ThreadPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(fbrate.mc, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: 64)
        estimate_er(fig1_params(), 2.0, self.CONFIG)  # capped by the 10 chunks
        monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: 3)
        estimate_er(fig1_params(), 2.0, self.CONFIG)
        monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: 16)
        estimate_er(fig1_params(), 2.0, self.CONFIG)
        assert sizes == [10, 3, 10]

    @pytest.mark.parametrize("cpus", [1, 4, 8])
    def test_single_chunk_runs_inline(self, monkeypatch, cpus):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk request started a thread pool")

        monkeypatch.setattr(fbrate.mc, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: cpus)
        for n in (1 << 16, 1000):
            config = McConfig(n_samples=n, seed=3)  # n <= chunk_size
            estimate_er(fig1_params(), 2.0, config)

    @pytest.mark.parametrize("cpus", [1, 3, 4])
    def test_caller_error_state_reaches_every_chunk(self, monkeypatch, cpus):
        # every (1+gamma)^-1000 at 30 dB underflows, in every chunk
        monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: cpus)
        p = ChannelParams(mu=2.0, m=1.0, kappa=0.0, eta=1.0, rho2=1.0,
                          gamma_bar=1000.0)
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            estimate_er(p, 1000.0, self.CONFIG)

    def test_run_mc_check_equals_serial_report(self, monkeypatch):
        grid = mc_grid()[::10]  # two fig-1 points, kappa-mu shadowed, beckmann
        report = run_mc_check(grid, n_samples=200_000, seed=42)
        config = McConfig(n_samples=200_000, seed=42)
        monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: 1)
        serial = []
        for params, a in grid:
            est = estimate_er(params, a, config)
            serial.append(McCheckResult(
                params=params, a_exponent=a,
                j_quad=expectation_quadrature(params, a)[0],
                j_hat=est.j_hat, j_stderr=est.j_stderr))
        assert report == McCheckReport(results=tuple(serial))
