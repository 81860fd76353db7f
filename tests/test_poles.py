import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from fbrate import (ChannelParams, ClosedFormUnavailableError, ConvergenceError, ErRequest,
                    ParameterError, decompose, er_auto, mgf, pdf, preset)
from fbrate import poles
from fbrate.poles import _taylor_coefficients, mgf_factors, pole_exponents

from conftest import (FIG1_A11, FIG1_A21, cluster_model_j, expansion_cdf, fig1_params,
                      reconstruct, reconstruction_error)


def _poles(factors):
    """(location, order) of the poles among merged MGF factors."""
    return [(t, e) for t, e in factors if e > 0]


def _numerator(factors):
    """(location, exponent) of the numerator factors among merged MGF factors."""
    return [(t, -e) for t, e in factors if e < 0]


def _min_pole_separation(factors):
    """Smallest relative gap between the merged pole/numerator points.

    Exact coincidences are merged by ``mgf_factors``, so every gap left is
    above the merge tolerance.
    """
    points = [t for t, _ in factors]
    sep = math.inf
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            sep = min(sep, abs(a - b) / max(abs(a), abs(b)))
    return sep


def _expansion_conditioning(expansion, gamma_bar, s):
    """sum_ij |A_ij (1+g*s/theta)^-j| / |sum ...|: noise amplification of the sum."""
    s = np.asarray(s, dtype=float)
    absolute = np.zeros(s.shape)
    for theta, _, coeffs in expansion.terms:
        base = 1.0 / np.abs(1.0 + gamma_bar * s / theta)
        powered = np.ones_like(absolute)
        for a_ij in coeffs:
            powered = powered * base
            absolute += abs(a_ij) * powered
    return absolute / np.abs(reconstruct(expansion, gamma_bar, s))


def closed_params(rng):
    """Random closed-form-eligible parameters (integer m, even mu).

    Residue conditioning scales like one over the pole separation, so the
    closed form is only meaningful when poles are exactly degenerate (merged)
    or well separated; draws inside the ill-conditioned sliver between the
    merge tolerance and ~1e-4 relative separation are rejected, mirroring the
    supported domain (see the near-cliff test below for what happens inside).
    """
    while True:
        p = ChannelParams(mu=float(2 * rng.integers(1, 4)),
                          m=float(rng.integers(1, 4)),
                          kappa=float(rng.uniform(0.05, 4.0)),
                          eta=float(10.0 ** rng.uniform(-1.0, 1.0)),
                          rho2=float(rng.uniform(0.0, 4.0)),
                          gamma_bar=float(10.0 ** rng.uniform(-1.0, 2.0)))
        sep = _min_pole_separation(mgf_factors(p))
        if sep > 0.05 or sep == math.inf:
            return p


class TestBuildPoleSet:
    """The poles and numerator factors that ``mgf_factors`` builds and merges."""

    def test_simple_two_group(self):
        p = fig1_params()  # m=1, mu=2 -> exponents vanish
        fs = mgf_factors(p)
        mu_half, m_eff = pole_exponents(p)
        assert not mu_half > m_eff  # two groups: the omega points are no poles
        assert sorted(m for _, m in _poles(fs)) == [1, 1]
        assert _numerator(fs) == []

    def test_four_group_when_half_mu_exceeds_m(self):
        p = ChannelParams(mu=4.0, m=1.0, kappa=1.0, eta=0.1, rho2=0.1)
        fs = mgf_factors(p)
        mu_half, m_eff = pole_exponents(p)
        assert mu_half > m_eff  # four groups: the omega points are poles
        assert sorted(m for _, m in _poles(fs)) == [1, 1, 1, 1]
        locations = sorted(t.real for t, _ in _poles(fs))
        expected = sorted([p.c1.real, p.c2.real, p.omega_cap, p.omega_cap / p.eta])
        np.testing.assert_allclose(locations, expected, rtol=1e-12)

    def test_numerator_when_half_mu_below_m(self):
        p = ChannelParams(mu=2.0, m=3.0, kappa=1.0, eta=0.1, rho2=0.1)
        fs = mgf_factors(p)
        mu_half, m_eff = pole_exponents(p)
        assert not mu_half > m_eff
        assert sorted(m for _, m in _poles(fs)) == [3, 3]
        assert sorted(e for _, e in _numerator(fs)) == [2, 2]

    def test_coincident_roots_merge(self):
        # kappa=0, eta=1 piles everything onto one point
        p = ChannelParams(mu=2.0, m=2.0, kappa=0.0, eta=1.0, rho2=1.0)
        fs = mgf_factors(p)
        mu_half, m_eff = pole_exponents(p)
        assert not mu_half > m_eff
        assert len(_poles(fs)) == 1
        theta, mult = _poles(fs)[0]
        assert theta.real == pytest.approx(2.0, rel=1e-12)
        # zero-LoS shortcut: m cancels, effective multiplicity is mu/2 per root
        assert mult == 2

    @pytest.mark.parametrize("mu", [2.0, 4.0])
    def test_shadowed_at_m_equal_mu_is_one_factor(self, mu):
        # kappa-mu shadowed with m = mu is Nakagami-m: at eta = 1 the omega
        # numerators cancel the c1 pole exactly, leaving Gamma(mu) alone
        p = preset("kappa-mu-shadowed", kappa=1.5, mu=mu, m=mu, gamma_bar=2.0)
        assert mgf_factors(p) == [(mu, int(mu))]
        assert len(decompose(p).terms) == 1
        j = er_auto(ErRequest(p, 2.0, method="closed_form")).expectation_j
        assert j == pytest.approx(cluster_model_j(p, 2.0), rel=1e-12)

    def test_numerator_on_a_pole_merges(self):
        # eta = 1 puts c1 on both omega points: order m + 2*(mu/2 - m) = -1
        p = ChannelParams(mu=2.0, m=3.0, kappa=1.0, eta=1.0, rho2=0.5, gamma_bar=2.0)
        (theta, e), pole = mgf_factors(p)
        assert theta == pytest.approx(p.omega_cap, rel=1e-12) and e == -1
        assert pole == (p.c2, 3)
        j = er_auto(ErRequest(p, 2.0, method="closed_form")).expectation_j
        assert j == pytest.approx(cluster_model_j(p, 2.0), rel=1e-12)

    def test_unit_eta_kappa_mu_shadowed_merging(self):
        # c1 coincides with the omega point: mult m there plus mu/2 - m twice
        p = ChannelParams(mu=6.0, m=1.0, kappa=2.0, eta=1.0, rho2=1.0)
        fs = mgf_factors(p)
        mu_half, m_eff = pole_exponents(p)
        assert mu_half > m_eff
        mults = sorted(m for _, m in _poles(fs))
        assert mults == [1, 5]  # c2: m=1; omega: m + 2*(mu/2 - m) = 5

    def test_non_integer_m_rejected(self):
        p = ChannelParams(mu=2.0, m=1.7, kappa=1.0, eta=0.5, rho2=1.0)
        with pytest.raises(ClosedFormUnavailableError, match="m"):
            mgf_factors(p)

    def test_odd_mu_rejected(self):
        p = ChannelParams(mu=1.5, m=1.0, kappa=1.0, eta=0.5, rho2=1.0)
        with pytest.raises(ClosedFormUnavailableError, match="mu"):
            mgf_factors(p)

    def test_huge_multiplicity_rejected(self):
        p = ChannelParams(mu=2.0, m=300.0, kappa=1.0, eta=0.5, rho2=1.0)
        with pytest.raises(ClosedFormUnavailableError, match="multiplicity"):
            mgf_factors(p)

    def test_zero_los_shortcut_ignores_m(self):
        # kappa = 0 cancels every m-dependent factor, whatever m is
        p = ChannelParams(mu=4.0, m=2.75, kappa=0.0, eta=0.4, rho2=1.0)
        fs = mgf_factors(p)
        assert sorted(m for _, m in _poles(fs)) == [2, 2]


class TestTaylorHelper:
    def test_textbook_cover_up(self):
        # [(1+s/2)(1+s/3)]^-1 = 3/(1+s/2) - 2/(1+s/3); coefficients sum to 1
        coeff_at_2 = _taylor_coefficients([(1.0 - 2.0 / 3.0, 2.0 / 3.0, -1)], 1)[0][0]
        coeff_at_3 = _taylor_coefficients([(1.0 - 3.0 / 2.0, 3.0 / 2.0, -1)], 1)[0][0]
        assert coeff_at_2 == pytest.approx(3.0)
        assert coeff_at_3 == pytest.approx(-2.0)
        assert coeff_at_2 + coeff_at_3 == pytest.approx(1.0)

    def test_repeated_pole_derivative(self):
        # (1+s/2)^-2 (1+s)^-1: at the double pole the coefficients are -2 and -1
        taylor, _ = _taylor_coefficients([(1.0 - 2.0, 2.0, -1)], 2)
        assert taylor[0] == pytest.approx(-1.0)   # A_{i2}
        assert taylor[1] == pytest.approx(-2.0)   # A_{i1}

    def test_matches_the_loop_recursion(self):
        # the recursion written as plain Python sums; the dot products add in
        # another order, so the two agree to rounding of the envelope
        factors = [(0.3, 0.7, -3), (-0.5, 1.5, 2), (2.0, -1.0, -1), (0.9, 0.1, 4)]
        n_terms = 40
        t0, ratios = 1.0, []
        for a, b, e in factors:
            t0 *= a**e
            ratios.append((b / a, e))
        c = [0.0] + [(1.0 if r % 2 else -1.0) * sum(e * q**r for q, e in ratios)
                     for r in range(1, n_terms)]
        loop = [t0]
        for n in range(1, n_terms):
            loop.append(sum(c[r] * loop[n - r] for r in range(1, n + 1)) / n)
        taylor, envelope = _taylor_coefficients(factors, n_terms)
        for n in range(n_terms):
            assert abs(envelope[n]) >= abs(loop[n])
            assert abs(taylor[n] - loop[n]) <= 4 * n_terms * 2.0**-52 * envelope[n], n

    def test_power_sum_overflow_is_refused_before_the_powers(self):
        # |b/a| = 1e3: c_r reaches ~e^(6.9 r), past the double range at r ~ 103
        # (the suite turns numpy's overflow warning into an error)
        factors = [(1e-3, 1.0, -1)]
        assert len(_taylor_coefficients(factors, 100)[0]) == 100
        with pytest.raises(ConvergenceError, match="power sum") as info:
            _taylor_coefficients(factors, 104)
        assert info.value.achieved == math.inf


class TestResidues:
    def test_fig1_cover_up_values(self):
        p = fig1_params()
        ex = decompose(p)
        coeffs = {round(t.real, 3): c[0].real for t, _, c in ex.terms}
        assert coeffs[15.062] == pytest.approx(FIG1_A11, rel=1e-12)
        assert coeffs[1.071] == pytest.approx(FIG1_A21, rel=1e-12)
        assert sum(c[0].real for _, _, c in ex.terms) == pytest.approx(1.0, rel=1e-12)

    def test_coefficients_sum_to_one(self):
        # sum_ij A_ij = M(0) = 1 for every eligible configuration
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = closed_params(rng)
            ex = decompose(p)
            total = sum(sum(c) for _, _, c in ex.terms)
            assert total.real == pytest.approx(1.0, rel=1e-10)
            assert abs(total.imag) < 1e-12

    def test_reconstruction_random_configs(self):
        # the expansion is exact arithmetic; the evaluated sum carries the
        # intrinsic cancellation noise eps * conditioning, so assert both an
        # absolute bound and a conditioning-normalized one (the latter is
        # what catches genuine residue bugs regardless of conditioning)
        rng = np.random.default_rng(31)
        eps = np.finfo(float).eps
        for _ in range(60):
            p = closed_params(rng)
            ex = decompose(p)
            seed = int(rng.integers(1 << 31))
            err = reconstruction_error(p, ex, n_points=32, seed=seed)
            s = np.random.default_rng(seed).uniform(0, 10, 32) / p.gamma_bar
            conditioning = float(np.max(_expansion_conditioning(ex, p.gamma_bar, s)))
            assert err <= max(1e-10, 100.0 * eps * conditioning)
            assert err <= 1e-9

    def test_reconstruction_merged_configs(self):
        for p in (ChannelParams(mu=6.0, m=1.0, kappa=2.0, eta=1.0, rho2=1.0, gamma_bar=2.0),
                  ChannelParams(mu=2.0, m=3.0, kappa=0.7, eta=1.0, rho2=0.3, gamma_bar=0.5),
                  ChannelParams(mu=4.0, m=2.0, kappa=0.0, eta=1.0, rho2=1.0, gamma_bar=1.0),
                  ChannelParams(mu=6.0, m=3.0, kappa=0.0, eta=0.2, rho2=1.0, gamma_bar=5.0)):
            assert reconstruction_error(p, decompose(p)) <= 1e-10

    def test_near_cliff_conditioning_documented(self):
        # poles separated by ~delta (just above the merge tolerance) carry
        # residues of size ~1/delta, so reconstruction degrades to ~eps/delta;
        # the merge tolerance keeps exact degeneracies out of this regime
        p = ChannelParams(mu=2.0, m=1.0, kappa=1e-6, eta=1.0, rho2=1.0, gamma_bar=1.0)
        sep = _min_pole_separation(mgf_factors(p))
        assert 1e-9 < sep < 1e-5
        err = reconstruction_error(p, decompose(p))
        assert err < 1e-16 / sep * 100.0  # conditioning-model bound, with slack

    def test_one_expansion_per_shape(self):
        # g cancels from the residues: an SNR sweep reuses one expansion
        p = fig1_params()
        assert decompose(p) is decompose(replace(p, gamma_bar=1e3))

    def test_closed_form_unchanged_after_cache_clear(self):
        p = fig1_params(gamma_bar=10.0)
        j = er_auto(ErRequest(p, 2.0, method="closed_form")).expectation_j
        poles._shape_expansion.cache_clear()
        assert er_auto(ErRequest(p, 2.0, method="closed_form")).expectation_j == j


@st.composite
def closed_form_shapes(draw):
    """(params, A) in the closed-form regime, exact coincidences included.

    eta = 1, kappa = 0 and m = mu are drawn as exact values, since those are
    the merges; the ill-conditioned sliver is rejected as in ``closed_params``.
    """
    mu = draw(st.sampled_from([2.0, 4.0, 6.0]))
    p = ChannelParams(mu=mu, m=draw(st.sampled_from([1.0, 2.0, 3.0, mu])),
                      kappa=draw(st.just(0.0) | st.floats(0.05, 4.0)),
                      eta=draw(st.just(1.0) | st.floats(-1.0, 1.0).map(lambda x: 10.0**x)),
                      rho2=draw(st.floats(0.0, 4.0)),
                      gamma_bar=10.0 ** draw(st.floats(-1.0, 2.0)))
    assume(_min_pole_separation(mgf_factors(p)) > 0.05)
    return p, draw(st.floats(0.5, 5.0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=closed_form_shapes())
def test_closed_form_matches_the_cluster_model(case):
    # differential test of the whole residue pipeline against the physical MGF
    p, a = case
    j = er_auto(ErRequest(p, a, method="closed_form")).expectation_j
    assert j == pytest.approx(cluster_model_j(p, a), rel=1e-8, abs=0.0)


class TestPdf:
    def test_gamma_density_degeneration(self):
        # mu=2, m=1, eta=1, kappa=0: density 4 g e^{-2g} at unit mean SNR
        p = ChannelParams(mu=2.0, m=1.0, kappa=0.0, eta=1.0, rho2=1.0, gamma_bar=1.0)
        g = np.linspace(0.0, 6.0, 200)
        np.testing.assert_allclose(pdf(p, g), 4.0 * g * np.exp(-2.0 * g),
                                   rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("mu", [10.0, 20.0, 40.0])
    def test_nakagami_gamma_density(self, mu):
        # nakagami-m (kappa = 0, eta = 1, m = inf) has a Gamma(mu, gbar/mu)
        # SNR: one merged pole of order mu, no split double root
        gbar = 2.0
        p = preset("nakagami-m", mu=mu, gamma_bar=gbar)
        g = np.linspace(0.0, 4.0 * gbar, 81)
        rate = mu / gbar
        expected = np.exp(mu * np.log(rate) + (mu - 1.0) * np.log(g[1:])
                          - rate * g[1:] - math.lgamma(mu))
        values = pdf(p, g)
        assert values[0] == 0.0
        np.testing.assert_allclose(values[1:], expected, rtol=1e-12, atol=0.0)

    def test_normalization_and_mean(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            p = closed_params(rng)
            gbar = p.gamma_bar
            # scaled variable keeps the mass at order one for any mean SNR
            mass = quad(lambda u: gbar * pdf(p, gbar * u), 0.0, np.inf,
                        epsabs=1e-12, epsrel=1e-10, limit=300)[0]
            mean = quad(lambda u: gbar**2 * u * pdf(p, gbar * u), 0.0, np.inf,
                        epsabs=1e-12, epsrel=1e-10, limit=300)[0]
            assert mass == pytest.approx(1.0, rel=1e-8)
            assert mean == pytest.approx(gbar, rel=1e-8)

    def test_laplace_transform_matches_mgf(self):
        rng = np.random.default_rng(51)
        for _ in range(6):
            p = closed_params(rng)
            for s in (0.1, 1.0, 10.0):
                transform = quad(
                    lambda u: p.gamma_bar * math.exp(-s * p.gamma_bar * u)
                    * pdf(p, p.gamma_bar * u),
                    0.0, np.inf, epsabs=1e-13, epsrel=1e-10, limit=300)[0]
                assert transform == pytest.approx(mgf(p, s), rel=1e-6)

    def test_nonnegative_on_grid(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            p = closed_params(rng)
            values = pdf(p, np.linspace(0, 20 * p.gamma_bar, 400))
            assert np.all(values >= 0.0)

    @pytest.mark.parametrize("gamma", [-1.0, math.nan, [1.0, math.nan]])
    def test_negative_or_nan_gamma_rejected(self, gamma):
        with pytest.raises(ParameterError, match="gamma must be >= 0"):
            pdf(fig1_params(), gamma)

    def test_infinite_gamma_is_the_limit(self):
        # exactly 0, with no numpy warning (the suite turns warnings into errors)
        p = fig1_params()
        assert pdf(p, math.inf) == 0.0
        values = pdf(p, [0.5, math.inf])
        assert values.tolist() == [pdf(p, 0.5), 0.0]

    @pytest.mark.parametrize("rho2", [0.1, 1.0])
    def test_zero_is_the_exact_limit(self, rho2):
        # f ~ g^(mu-1): the sum's rounding dips below 0 near g = 0, within
        # its own bound, where a flat -1e-12 raised at 523 of these points
        p = ChannelParams(mu=6.0, m=2.0, kappa=0.5, eta=0.5, rho2=rho2, gamma_bar=0.1)
        g = np.concatenate(([0.0], p.gamma_bar * np.exp(np.arange(-40.0, 6.0, 1 / 16))))
        values = pdf(p, g)
        assert pdf(p, 0.0) == values[0] == 0.0
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)

    def test_negative_beyond_rounding_raises(self, monkeypatch):
        # 4 g e^-2g with A_11 = -1e-13 in place of 0: f dips to -2e-13 near
        # g = 0, inside the old flat clip but far beyond the sum's rounding
        p = ChannelParams(mu=2.0, m=1.0, kappa=0.0, eta=1.0, rho2=1.0, gamma_bar=1.0)
        (theta, order, (_, a12)), = decompose(p).terms
        table = poles.PartialFractionExpansion(terms=((theta, order, (-1e-13, a12)),),
                                               majorants=decompose(p).majorants)
        monkeypatch.setattr(poles, "decompose", lambda params: table)
        assert pdf(p, 0.0) == 0.0
        with pytest.raises(ConvergenceError, match="density went negative"):
            pdf(p, [1e-20, 1.0])

    def test_cdf_helper_consistency(self):
        # the test-side CDF matches numeric integration of the density
        p = fig1_params()
        ex = decompose(p)
        cdf = expansion_cdf(ex, p.gamma_bar)
        for x in (0.2, 1.0, 3.0):
            numeric = quad(lambda t: pdf(p, t), 0.0, x,
                           epsabs=1e-13, epsrel=1e-11)[0]
            assert cdf(x) == pytest.approx(numeric, rel=1e-9)
