import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbrate import ChannelParams, ParameterError, log_mgf, mgf, preset

from conftest import (FIG1_MGF_AT_1, cluster_model_log_mgf_mp, cluster_model_mgf, fig1_params,
                      mgf_mean_check, random_valid_params, unit_eta_shadowed_mgf)


def test_value_one_at_zero():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = random_valid_params(rng)
        assert mgf(p, 0.0) == 1.0
        assert log_mgf(p, 0.0) == 0.0


def test_rayleigh_half_at_one():
    p = preset("rayleigh", gamma_bar=1.0)
    assert mgf(p, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_fig1_value_at_one():
    p = fig1_params()
    value = mgf(p, 1.0)
    assert value == pytest.approx(FIG1_MGF_AT_1, rel=1e-13)
    assert value == math.exp(log_mgf(p, 1.0))


@pytest.mark.parametrize("s", [-0.5, math.nan])
def test_negative_or_nan_argument_rejected(s):
    with pytest.raises(ParameterError, match="must be >= 0"):
        mgf(fig1_params(), s)


@pytest.mark.parametrize("params", [
    fig1_params(), preset("rician", kappa=1.0), preset("eta-mu", eta=0.5, mu=1.5, m=2.0)],
    ids=["finite-m", "rician", "no-los"])
def test_infinite_argument_is_the_limit(params):
    assert mgf(params, math.inf) == 0.0
    assert log_mgf(params, math.inf) == -math.inf
    lv = log_mgf(params, np.array([0.0, 1.0, math.inf]))
    assert lv[0] == 0.0 and lv[1] == log_mgf(params, 1.0) and lv[2] == -math.inf


def test_monotone_decreasing_and_log_convex():
    rng = np.random.default_rng(11)
    s = np.linspace(0.0, 20.0, 200)
    for _ in range(20):
        p = random_valid_params(rng)
        lv = log_mgf(p, s)
        values = np.exp(lv)
        assert np.all(values > 0) and np.all(values <= 1.0)
        assert np.all(np.diff(values) < 0)
        # log-convexity: second differences of log M are nonnegative
        assert np.all(np.diff(lv, 2) > -1e-12)


class TestMeanCheck:
    def test_fig1_exact(self):
        p = fig1_params()
        assert mgf_mean_check(p) == pytest.approx(1.0, rel=1e-14)

    def test_rayleigh_gbar3(self):
        p = preset("rayleigh", gamma_bar=3.0)
        assert mgf_mean_check(p) == pytest.approx(3.0, rel=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = random_valid_params(rng, gamma_bar=0.5)
            analytic = mgf_mean_check(p)
            assert analytic == pytest.approx(p.gamma_bar, rel=1e-12)
            h = 1e-6 / p.gamma_bar  # scale-aware central step
            fd = -(math.exp(log_mgf(p, h)) - math.exp(log_mgf(p, -h))) / (2 * h)
            assert fd == pytest.approx(analytic, rel=1e-6)


def test_unit_eta_matches_shadowed_oracle():
    # eta = 1 collapses to the LoS-shadowed model; independent-oracle identity
    s = np.geomspace(1e-3, 50.0, 40)
    for kappa, mu, m, gbar in [(2.0, 3.0, 2.0, 1.7), (0.5, 1.0, 4.0, 0.2),
                               (4.0, 2.5, 0.7, 10.0)]:
        p = ChannelParams(mu=mu, m=m, kappa=kappa, eta=1.0, rho2=1.0, gamma_bar=gbar)
        mine = np.exp(log_mgf(p, s))
        oracle = unit_eta_shadowed_mgf(kappa, mu, m, gbar, s)
        np.testing.assert_allclose(mine, oracle, rtol=1e-10)


def test_matches_cluster_model_mgf():
    # log_mgf must equal the MGF chained directly from the physical cluster
    # geometry (integer cluster counts)
    s = np.geomspace(1e-2, 30.0, 25)
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = ChannelParams(mu=float(rng.integers(1, 7)),
                          m=float(rng.uniform(0.3, 8.0)),
                          kappa=float(rng.uniform(0.0, 4.0)),
                          eta=float(10.0 ** rng.uniform(-1.0, 1.0)),
                          rho2=float(rng.uniform(0.0, 4.0)),
                          gamma_bar=float(10.0 ** rng.uniform(-1.0, 2.0)))
        mine = np.exp(log_mgf(p, s))
        oracle = cluster_model_mgf(p, s)
        np.testing.assert_allclose(mine, oracle, rtol=1e-11)


@settings(max_examples=50, deadline=None)
@given(mu=st.floats(0.3, 8.0), log_m=st.one_of(st.floats(2.0, 300.0), st.just(math.inf)),
       kappa=st.floats(0.0, 10.0), log_eta=st.floats(-1.5, 1.5), rho2=st.floats(0.0, 5.0),
       log_gamma_bar=st.floats(-1.0, 3.0))
def test_large_m_matches_mp_cluster_model(mu, log_m, kappa, log_eta, rho2, log_gamma_bar):
    # nothing of size m may cancel: m up to 1e300 keeps every digit of log M
    p = ChannelParams(mu=mu, m=10.0 ** log_m, kappa=kappa, eta=10.0 ** log_eta, rho2=rho2,
                      gamma_bar=10.0 ** log_gamma_bar)
    s = np.geomspace(1e-3, 1e3, 13) / p.gamma_bar
    for s_k, mine in zip(s.tolist(), log_mgf(p, s).tolist()):
        ref = cluster_model_log_mgf_mp(p, s_k)
        assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref))
