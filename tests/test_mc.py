import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbrate.mc
from fbrate import (ChannelParams, ConvergenceError, FbrateError, McConfig,
                    ParameterError, decompose, estimate_er, mgf, preset)
from fbrate.crosscheck import McCheckReport, McCheckResult, mc_grid, run_mc_check
from fbrate.mc import _chunk_rng

from conftest import (FIG2_J_BY_M, J_RAYLEIGH, cluster_model_mgf, expansion_cdf,
                      fig1_params, ks_distance, quadrature_j, sample_block, sample_snr)

KS_CRIT_1PCT = 1.6276  # asymptotic two-sided 1% critical coefficient / sqrt(n)

#: Shape parameters the sampler must reproduce at the distribution level:
#: no LoS, symmetric LoS, all LoS on one branch, a dominant in-phase scatter,
#: strong LoS, fractional cluster counts, and fewer than one cluster, without
#: and with LoS (the Poisson mixture, for two branches and for the merged
#: eta = 1 branch).
MGF_CASES = {
    "kappa0": dict(mu=2.0, m=1.0, kappa=0.0, eta=0.5, rho2=1.0),
    "symmetric-los": dict(mu=1.0, m=1.0, kappa=1.0, eta=1.0, rho2=1.0),
    "rho2-0": dict(mu=2.0, m=1.0, kappa=1.0, eta=0.1, rho2=0.0),
    "eta10": dict(mu=2.0, m=2.0, kappa=1.0, eta=10.0, rho2=0.1),
    "kappa3": dict(mu=3.0, m=2.0, kappa=3.0, eta=0.5, rho2=2.0),
    "mu1.5": dict(mu=1.5, m=1.0, kappa=1.0, eta=0.1, rho2=0.1),
    "mu2.7": dict(mu=2.7, m=0.5, kappa=2.0, eta=3.0, rho2=0.5),
    "mu0.5-nlos": dict(mu=0.5, m=1.0, kappa=0.0, eta=0.3, rho2=1.0),
    "mu0.5-los": dict(mu=0.5, m=1.0, kappa=1.0, eta=0.3, rho2=1.0),
    "mu0.3-eta1": dict(mu=0.3, m=2.0, kappa=2.0, eta=1.0, rho2=0.5),
}


class _RecordingGenerator:
    """Generator proxy that records each call as (method, shape of its draw)."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            result = method(*args, **kwargs)
            self.calls.append((name, np.shape(result)))
            return result

        return record


class TestSampling:
    def test_sample_snr_scalar(self):
        value = sample_snr(fig1_params(), _chunk_rng(1, 0))
        assert isinstance(value, float) and value >= 0.0

    def test_mean_snr(self):
        p = fig1_params(gamma_bar=2.5)
        n = 1_000_000
        gamma = sample_block(p, _chunk_rng(7, 0), n)
        stderr = gamma.std() / math.sqrt(n)
        assert abs(gamma.mean() - 2.5) <= 4.0 * stderr

    def test_empirical_mgf_matches_analytic(self):
        p = fig1_params()
        gamma = sample_block(p, _chunk_rng(11, 0), 1_000_000)
        values = np.exp(-gamma)
        stderr = values.std() / math.sqrt(values.size)
        analytic = mgf(p, 1.0)
        assert abs(values.mean() - analytic) <= 3.0 * stderr

    @pytest.mark.parametrize("case", MGF_CASES)
    def test_empirical_mgf_matches_cluster_model(self, case):
        # E[exp(-s gamma)] at two transform arguments against the MGF chained
        # from the cluster model: checks kappa, eta, rho2 and real mu together
        p = ChannelParams(gamma_bar=2.0, **MGF_CASES[case])
        gamma = sample_block(p, _chunk_rng(23, 0), 1_000_000)
        for s_arg in (0.5, 2.0):
            values = np.exp(-s_arg * gamma)
            stderr = values.std() / math.sqrt(values.size)
            analytic = float(cluster_model_mgf(p, s_arg))
            assert abs(values.mean() - analytic) <= 4.0 * stderr

    def test_beckmann_proxy_exponential_ks(self):
        # kappa=0, eta=1, mu=1 with a huge shadowing index is exponential SNR
        p = ChannelParams(mu=1.0, m=1.0e4, kappa=0.0, eta=1.0, rho2=0.0,
                          gamma_bar=1.0)
        gamma = sample_block(p, _chunk_rng(13, 0), 1_000_000)
        d = ks_distance(gamma, lambda x: 1.0 - np.exp(-x))
        assert d < KS_CRIT_1PCT / math.sqrt(gamma.size)

    def test_closed_form_density_ks(self):
        p = fig1_params()
        expansion = decompose(p)
        cdf = expansion_cdf(expansion, p.gamma_bar)
        gamma = sample_block(p, _chunk_rng(17, 0), 1_000_000)
        d = ks_distance(gamma, cdf)
        assert d < KS_CRIT_1PCT / math.sqrt(gamma.size)

    @pytest.mark.parametrize("shape", [dict(m=10.0, kappa=3.0, eta=0.2),
                                       dict(m=2.0, kappa=1.0, eta=1.0),
                                       dict(m=math.inf, kappa=0.0, eta=0.5)])
    def test_draws_do_not_grow_with_mu(self, shape):
        # one chunk at mu = 4 and mu = 37.3 makes the same generator calls,
        # each drawing the whole chunk at once: a cost that does not grow with mu
        calls = {}
        for mu in (4.0, 37.3):
            rng = _RecordingGenerator(_chunk_rng(3, 0))
            sample_block(ChannelParams(mu=mu, rho2=1.0, **shape), rng, 1000)
            calls[mu] = rng.calls
        assert calls[4.0] == calls[37.3]
        assert len(calls[4.0]) <= 5
        assert all(size == (1000,) for _, size in calls[4.0])

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(mu=st.floats(0.2, 50.0),
           m=st.one_of(st.floats(0.2, 100.0), st.just(math.inf)),
           kappa=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
           eta=st.one_of(st.just(1.0), st.floats(0.01, 100.0)),
           rho2=st.floats(0.0, 10.0))
    def test_sample_mean_is_gamma_bar(self, mu, m, kappa, eta, rho2):
        p = ChannelParams(mu=mu, m=m, kappa=kappa, eta=eta, rho2=rho2, gamma_bar=3.0)
        gamma = sample_block(p, _chunk_rng(29, 0), 100_000)
        stderr = gamma.std() / math.sqrt(gamma.size)
        assert abs(gamma.mean() - 3.0) <= 5.0 * stderr

    def test_poisson_beyond_numpy_range_is_typed(self):
        # below one degree of freedom lam/2 = 3.75e19 is past numpy's Poisson
        # limit (~9.2e18): a typed error, not numpy's bare ValueError
        p = ChannelParams(mu=0.5, m=math.inf, kappa=1e20, eta=0.5, rho2=1.0)
        with pytest.raises(FbrateError, match="noncentrality"):
            estimate_er(p, 2.0, McConfig(n_samples=1000, seed=1))

    def test_small_shape_gamma_ok(self):
        # shadowing index below one must still sample correctly
        p = ChannelParams(mu=1.0, m=0.4, kappa=2.0, eta=1.0, rho2=1.0, gamma_bar=1.0)
        gamma = sample_block(p, _chunk_rng(19, 0), 500_000)
        stderr = gamma.std() / math.sqrt(gamma.size)
        assert abs(gamma.mean() - 1.0) <= 4.0 * stderr


class TestEstimateEr:
    def test_rayleigh_concordance(self):
        p = preset("rayleigh")
        est = estimate_er(p, 2.0, McConfig(n_samples=1_000_000, seed=42))
        assert abs(est.j_hat - J_RAYLEIGH) <= 3.0 * est.j_stderr

    def test_fig1_concordance(self):
        p = fig1_params()
        est = estimate_er(p, 2.0, McConfig(n_samples=1_000_000, seed=42))
        j_quad, _ = quadrature_j(p, 2.0)
        assert abs(est.j_hat - j_quad) <= 3.0 * est.j_stderr

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParameterError, match="A"):
            estimate_er(fig1_params(), 0.0, McConfig(n_samples=1000, seed=1))

    def test_real_mu_concordance(self):
        # fig-2 base: a fractional cluster count adds chi-square scatter
        p = fig1_params(mu=1.5)
        est = estimate_er(p, 2.0, McConfig(n_samples=1_000_000, seed=42))
        j_quad, _ = quadrature_j(p, 2.0)
        assert j_quad == pytest.approx(FIG2_J_BY_M[1.0], rel=1e-8)
        assert abs(est.j_hat - j_quad) <= 4.0 * est.j_stderr

    def test_sub_unit_mu_with_los_concordance(self):
        # below one degree of freedom each branch is a Poisson mixture of
        # central chi-squares, so LoS is sampled at any mu > 0
        p = ChannelParams(mu=0.5, m=1.0, kappa=1.0, eta=0.1, rho2=0.1)
        est = estimate_er(p, 2.0, McConfig(n_samples=1_000_000, seed=42))
        j_quad, _ = quadrature_j(p, 2.0)
        assert abs(est.j_hat - j_quad) <= 4.0 * est.j_stderr

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
        j_quad, _ = quadrature_j(p, 2.0)
        assert abs(est.j_hat - j_quad) <= 4.0 * est.j_stderr

    def test_deterministic_across_runs_and_workers(self, monkeypatch):
        monkeypatch.setattr(fbrate.mc, "CHUNK_SIZE", 1 << 14)
        config = McConfig(n_samples=300_000, seed=123)
        shapes = (fig1_params(), fig1_params(mu=1.5))
        defaults = [estimate_er(p, 2.0, config) for p in shapes]  # this host's CPUs
        # serial twice, then pools of 4 and 3 threads for the 19 chunks
        for cpus in (1, 1, 4, 3):
            monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: cpus)
            # bit-identical dataclasses
            assert [estimate_er(p, 2.0, config) for p in shapes] == defaults

    def test_chunk_layout_does_not_change_distribution(self, monkeypatch):
        # different chunk sizes give different (but consistent) estimates
        p = fig1_params()
        config = McConfig(n_samples=200_000, seed=5)
        monkeypatch.setattr(fbrate.mc, "CHUNK_SIZE", 1 << 12)
        a = estimate_er(p, 2.0, config)
        monkeypatch.setattr(fbrate.mc, "CHUNK_SIZE", 1 << 15)
        b = estimate_er(p, 2.0, config)
        assert abs(a.j_hat - b.j_hat) <= 6.0 * max(a.j_stderr, b.j_stderr)

    def test_small_sample_warning(self):
        with pytest.warns(UserWarning, match="standard errors"):
            McConfig(n_samples=100, seed=1)


#: float.hex of (j_hat, j_stderr) at seed 42: any change to the draw order or
#: to the floating-point order of the kernel shows up here.  beckmann and mu1.5
#: (mu in [1, 2), kappa > 0, eta != 1) are frozen from the per-cluster sampler
#: that the whole-branch draws replaced; the others from the whole-branch draws.
#: name: (params, A, n_samples, CHUNK_SIZE, j_hat, j_stderr)
MC_GOLDEN = {
    "mu6-m3-kappa2-A5": (
        ChannelParams(mu=6.0, m=3.0, kappa=2.0, eta=0.1, rho2=0.1, gamma_bar=100.0),
        5.0, 1 << 17, 1 << 16, "0x1.b0fcdd9f83aeep-25", "0x1.c21f770f729e3p-28"),
    "beckmann": (
        preset("beckmann", kappa=1.0, eta=0.5, rho2=2.0, gamma_bar=10.0),
        2.0, 1 << 17, 1 << 16, "0x1.e7b8d1b604a62p-5", "0x1.7cb2c58d3981dp-12"),
    "mu1.5": (
        ChannelParams(mu=1.5, m=1.0, kappa=1.0, eta=0.1, rho2=0.1, gamma_bar=1.0),
        2.0, 1 << 17, 1 << 16, "0x1.a0b749ce39c2bp-2", "0x1.7c325a8668fc7p-11"),
    "mu2.7-m0.5": (
        ChannelParams(mu=2.7, m=0.5, kappa=2.0, eta=3.0, rho2=0.5, gamma_bar=2.0),
        2.0, 1 << 17, 1 << 16, "0x1.e495e8e7e5f50p-3", "0x1.153932fc40cf8p-11"),
    "mu0.5-nlos": (
        ChannelParams(mu=0.5, m=1.0, kappa=0.0, eta=0.3, rho2=1.0, gamma_bar=2.0),
        2.0, 1 << 17, 1 << 16, "0x1.a1c8be293ed21p-2", "0x1.f063cb481faeep-11"),
    "A0.5": (
        ChannelParams(mu=4.0, m=2.0, kappa=0.5, eta=0.5, rho2=1.0, gamma_bar=10.0),
        0.5, 1 << 17, 1 << 16, "0x1.517a69df8c52dp-2", "0x1.e747ec855b018p-13"),
    "A1": (
        preset("nakagami-m", mu=3, gamma_bar=10.0),
        1.0, 1 << 17, 1 << 16, "0x1.f1697b8bd28c7p-4", "0x1.b8242f5d39434p-13"),
    "ragged-chunks": (
        fig1_params(gamma_bar=10.0),
        2.0, 100_003, 1 << 14, "0x1.b3e6795c29658p-5", "0x1.49de6572fcf9cp-12"),
}


class TestGolden:
    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("case", MC_GOLDEN)
    def test_estimate_bits(self, monkeypatch, case, cpus):
        params, a, n, chunk, j_hex, stderr_hex = MC_GOLDEN[case]
        monkeypatch.setattr(fbrate.mc, "CHUNK_SIZE", chunk)
        monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: cpus)
        est = estimate_er(params, a, McConfig(n_samples=n, seed=42))
        assert (est.j_hat.hex(), est.j_stderr.hex()) == (j_hex, stderr_hex)


class TestWorkers:
    CONFIG = McConfig(n_samples=300_000, seed=7)  # 10 chunks at CHUNK_SIZE 2^15

    @pytest.fixture
    def ten_chunks(self, monkeypatch):
        monkeypatch.setattr(fbrate.mc, "CHUNK_SIZE", 1 << 15)

    @pytest.mark.usefixtures("ten_chunks")
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
            config = McConfig(n_samples=n, seed=3)  # n <= CHUNK_SIZE
            estimate_er(fig1_params(), 2.0, config)

    @pytest.mark.usefixtures("ten_chunks")
    @pytest.mark.parametrize("cpus", [1, 3, 4])
    def test_caller_error_state_reaches_every_chunk(self, monkeypatch, cpus):
        # every (1+gamma)^-1000 at 30 dB underflows, in every chunk
        monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: cpus)
        p = ChannelParams(mu=2.0, m=1.0, kappa=0.0, eta=1.0, rho2=1.0,
                          gamma_bar=1000.0)
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            estimate_er(p, 1000.0, self.CONFIG)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_peak_memory_is_three_rows_per_worker(self, monkeypatch, cpus):
        # config 38 of mc_grid over 8 chunks: each worker draws every chunk
        # into the same three CHUNK_SIZE rows and allocates no chunk-sized
        # temporary (five chunk arrays per worker before the rows)
        monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: cpus)
        p = ChannelParams(mu=6.0, m=3.0, kappa=2.0, eta=0.1, rho2=0.1, gamma_bar=100.0)
        config = McConfig(n_samples=8 * fbrate.mc.CHUNK_SIZE, seed=42)
        estimate_er(p, 5.0, config)  # first-call allocations are not the kernel's
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            estimate_er(p, 5.0, config)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        chunk_arrays = peak / (fbrate.mc.CHUNK_SIZE * 8)  # float64 bytes
        assert chunk_arrays <= 3.5 * cpus

    def test_run_mc_check_equals_serial_report(self, monkeypatch):
        monkeypatch.setattr(fbrate.mc, "CHUNK_SIZE", 1 << 12)  # 5 chunks per estimate
        monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: 4)
        report = run_mc_check(n_samples=20_000, seed=42)
        config = McConfig(n_samples=20_000, seed=42)
        monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: 1)
        serial = []
        for params, a in mc_grid():
            est = estimate_er(params, a, config)
            serial.append(McCheckResult(
                params=params, a_exponent=a,
                j_quad=quadrature_j(params, a)[0],
                j_hat=est.j_hat, j_stderr=est.j_stderr))
        assert report == McCheckReport(results=tuple(serial))
