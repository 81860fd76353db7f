import math
import re
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbrate.rate
from fbrate import _extended
from fbrate.poles import pole_exponents
from fbrate.rate import _METHODS, DE_LEVELS, U_SUM_TOL
from fbrate import (ChannelParams, ClosedFormUnavailableError, ConvergenceError,
                    ErRequest, FbrateError, McConfig, ParameterError, closed_form_applies,
                    decompose, effective_rate, er_auto, er_sweep, estimate_er, preset,
                    quadrature_sweep)
from fbrate.crosscheck import (GRID_A, GRID_SNR_DB, CrossCheckReport, closed_form_grid,
                               db_to_linear, run_cross_check)

from conftest import (FIG1_J_A2, FIG1_J_MU1, FIG1_J_MU4, FIG1_R_A2, FIG1_R_MU1,
                      FIG1_R_MU4, FIG2_J_BY_M, HIGH_MULT, HIGH_MULT_J,
                      J_MERGED_G3_A05, J_NAKAGAMI_MU2, J_RAYLEIGH,
                      J_RAYLEIGH_G2_A1, R_RAYLEIGH, closed_form_j, cluster_model_j,
                      fig1_params, quadrature_j, rayleigh_j, unit_eta_shadowed_j)


class TestEffectiveRate:
    @pytest.mark.parametrize("a", [0.5, 2.0, 1e300])
    def test_unit_expectation_is_zero_rate(self, a):
        assert math.copysign(1.0, effective_rate(1.0, a)) == 1.0  # +0.0, not -0.0
        assert effective_rate(1.0, a) == 0.0

    def test_quarter_at_a2(self):
        assert effective_rate(0.25, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_rayleigh_golden(self):
        assert effective_rate(J_RAYLEIGH, 2.0) == pytest.approx(R_RAYLEIGH, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            effective_rate(0.0, 2.0)
        with pytest.raises(ValueError):
            effective_rate(1.2, 2.0)
        with pytest.raises(ValueError):
            effective_rate(0.5, 0.0)

    @pytest.mark.parametrize("j", [0.0, -1.0, 1.5, math.inf, math.nan])
    def test_expectation_outside_unit_interval_is_a_parameter_error(self, j):
        with pytest.raises(ParameterError, match="expectation must lie in"):
            effective_rate(j, 2.0)

    @settings(max_examples=100, deadline=None)
    @given(j=st.floats(1e-300, 1.0, exclude_max=True), a=st.floats(1e-6, 1e3))
    def test_positive_rate_property(self, j, a):
        assert effective_rate(j, a) > 0.0


def _level(params, a, rel_tol):
    """The level the quadrature of one point reaches."""
    return int(quadrature_sweep(params, [params.gamma_bar], a, rel_tol)[2][0])


@pytest.mark.parametrize("a", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("entry", [
    lambda a: quadrature_sweep(fig1_params(), [1.0], a),
    lambda a: er_sweep(ErRequest(fig1_params(), 2.0, "quadrature"), [1.0], a_exponents=[a]),
    lambda a: er_sweep(ErRequest(fig1_params(), 2.0, "closed_form"), [1.0], a_exponents=[a]),
    lambda a: effective_rate(0.5, a),
    lambda a: ErRequest(params=fig1_params(), a_exponent=a),
    lambda a: estimate_er(fig1_params(), a, McConfig(n_samples=1000, seed=1)),
], ids=["quadrature_sweep", "er_sweep-quadrature", "er_sweep-closed_form",
        "effective_rate", "ErRequest", "estimate_er"])
def test_invalid_exponent_is_a_parameter_error(entry, a):
    with pytest.raises(ParameterError, match="A must be finite and > 0"):
        entry(a)


def _count_sweeps(monkeypatch) -> list:
    """Record the arguments of every ``quadrature_sweep`` call the dispatch makes."""
    calls = []
    sweep = fbrate.rate.quadrature_sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(fbrate.rate, "quadrature_sweep", counted)
    return calls


class TestQuadrature:
    def test_rayleigh_golden(self):
        p = preset("rayleigh")
        j, err = quadrature_j(p, 2.0)
        assert j == pytest.approx(J_RAYLEIGH, abs=1e-5)
        assert j == pytest.approx(J_RAYLEIGH, rel=1e-8)
        assert effective_rate(j, 2.0) == pytest.approx(R_RAYLEIGH, abs=1e-3)

    def test_fig1_golden(self):
        p = fig1_params()
        j, err = quadrature_j(p, 2.0)
        assert j == pytest.approx(FIG1_J_A2, rel=1e-8)
        assert effective_rate(j, 2.0) == pytest.approx(FIG1_R_A2, abs=1e-3)

    def test_small_exponent_limit(self):
        p = fig1_params()
        j, _ = quadrature_j(p, 1e-6)
        assert abs(j - 1.0) < 1e-4

    def test_fallback_engages_at_high_snr(self):
        p = fig1_params(gamma_bar=1000.0)
        j, err = quadrature_j(p, 2.0, 1e-8)
        assert 1 <= _level(p, 2.0, 1e-8) <= DE_LEVELS
        # cross-check against the closed form, which is fully independent here
        j_closed = closed_form_j(p, 2.0)
        assert j == pytest.approx(j_closed, rel=1e-8)

    def test_rejects_nonpositive_exponent(self):
        p = fig1_params()
        with pytest.raises(ValueError):
            quadrature_j(p, 0.0)

    @pytest.mark.parametrize("mu", [1.5, 2.0, 6.0])
    def test_fallback_matches_mpmath_cluster_model(self, mu):
        # 20-50 dB, where the ladder stalls: the double-exponential rule must
        # meet rel_tol against an independent quadrature of the physical MGF
        for snr_db in (20.0, 35.0, 50.0):
            for a in (0.5, 2.0, 5.0):
                p = ChannelParams(mu=mu, m=1.0, kappa=1.0, eta=0.1, rho2=0.1,
                                  gamma_bar=10.0 ** (snr_db / 10.0))
                j, err = quadrature_j(p, a, 1e-10)
                assert 1 <= _level(p, a, 1e-10) <= DE_LEVELS
                assert err <= 1e-10
                assert j == pytest.approx(cluster_model_j(p, a), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("mu", [20.0, 40.0])
    def test_fallback_window_follows_snr(self, mu):
        # A=20 at 42 dB with mu > A: the mass sits near s ~ 1/gamma_bar, far
        # below where a window fixed by A alone would start
        p = ChannelParams(mu=mu, m=40.0, gamma_bar=10.0 ** 4.2, **HIGH_MULT)
        j, _ = quadrature_j(p, 20.0, 1e-10)
        assert 1 <= _level(p, 20.0, 1e-10) <= DE_LEVELS
        assert j == pytest.approx(cluster_model_j(p, 20.0), rel=1e-10, abs=0.0)

    def test_fallback_honours_rel_tol(self):
        # a loose tolerance stops at a shallower level, still within its bound
        p = fig1_params(gamma_bar=1e4)
        loose = [x[0] for x in fbrate.rate.quadrature_sweep(p, [p.gamma_bar], 2.0, 1e-4)]
        tight = [x[0] for x in fbrate.rate.quadrature_sweep(p, [p.gamma_bar], 2.0, 1e-12)]
        assert loose[2] < tight[2]
        assert loose[1] <= 1e-4 and tight[1] <= 1e-12
        assert loose[0] == pytest.approx(tight[0], rel=1e-4, abs=0.0)

    @pytest.mark.parametrize("a", [1e-6, 0.05, 2.0, 20.0, 1000.0, 1e5])
    @pytest.mark.parametrize("gamma_bar", [1e-3, 1.0, 1e4, 1e8])
    def test_exact_rayleigh(self, a, gamma_bar):
        # mu=1, eta=1, kappa=0 with m=mu/2 is exactly M(s) = 1/(1+gamma_bar s);
        # the peak-centred map and the Stirling form of K carry A up to 1e5
        p = ChannelParams(mu=1.0, m=0.5, kappa=0.0, eta=1.0, rho2=1.0,
                          gamma_bar=gamma_bar)
        j, err = quadrature_j(p, a, 1e-12)
        assert err <= 1e-12
        assert j == pytest.approx(rayleigh_j(gamma_bar, a), rel=1e-12, abs=0.0)

    def test_large_m_tends_to_the_infinite_m_limit(self):
        # J(m) - J(inf) falls as 1/m, with no cancellation of size m in log M:
        # no warning, no ConvergenceError, and m*(J(m) - J(inf)) holds still
        shape = dict(mu=2.5, kappa=1.0, eta=0.5, rho2=1.0, gamma_bar=100.0)
        j_inf, _ = quadrature_j(ChannelParams(m=math.inf, **shape), 2.0)
        rel = {m: quadrature_j(ChannelParams(m=m, **shape), 2.0)[0] / j_inf - 1.0
               for m in [1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e20, 1e300]}
        for m in [1e6, 1e8, 1e10, 1e12]:
            assert m * rel[m] == pytest.approx(1e4 * rel[1e4], rel=0.01)
        assert abs(rel[1e20]) <= 1e-14 and abs(rel[1e300]) <= 1e-14

    def test_fallback_nan_integrand_raises(self, monkeypatch):
        monkeypatch.setattr(fbrate.rate, "log_mgf",
                            lambda params, s: np.full(np.shape(s), np.nan))
        p = fig1_params(gamma_bar=1000.0)
        with pytest.raises(ConvergenceError) as info:
            quadrature_j(p, 2.0)
        assert info.value.achieved is not None


def _per_point(shape, gamma_bars, a, rel_tol=1e-8):
    """(J, error, level) of each mean SNR through the quadrature route, one at a time."""
    rows = []
    for g in gamma_bars:
        params = ChannelParams(*shape.shape, gamma_bar=g)
        j, err = quadrature_j(params, a, rel_tol)
        rows.append((j, err, _level(params, a, rel_tol)))
    return rows


class TestQuadratureSweep:
    @pytest.mark.parametrize("offset", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize("shape", [
        ChannelParams(mu=1.0, m=1.0, kappa=1.0, eta=0.1, rho2=0.1),  # fig-1, mu = 1
        ChannelParams(mu=1.5, m=0.5, kappa=1.0, eta=0.1, rho2=0.1),  # fig-2, m = 0.5
    ], ids=["fig-1", "fig-2"])
    def test_figure_row_is_bit_identical_to_per_point(self, shape, offset):
        # the README sweeps' 41-point rows, with the SNRs `fbrate er` forms
        snr_db = -10.0 + offset + 1.0 * np.arange(41)
        gamma_bars = [db_to_linear(float(db)) for db in snr_db]
        values, errors, levels = quadrature_sweep(shape, gamma_bars, 2.0, 1e-8)
        assert list(zip(values.tolist(), errors.tolist(), levels.tolist())) == \
            _per_point(shape, gamma_bars, 2.0)

    @pytest.mark.parametrize("a", GRID_A)
    def test_validate_grid_shape_is_bit_identical_to_per_point(self, a):
        # the shape's own gamma_bar (here 10 dB) takes no part in the sweep
        shape = ChannelParams(mu=6.0, m=3.0, kappa=2.0, eta=0.1, rho2=0.1, gamma_bar=10.0)
        gamma_bars = [db_to_linear(db) for db in GRID_SNR_DB]
        values, errors, levels = quadrature_sweep(shape, gamma_bars, a, 1e-8)
        assert list(zip(values.tolist(), errors.tolist(), levels.tolist())) == \
            _per_point(shape, gamma_bars, a)

    def test_validate_grid_block_is_bit_identical_to_per_point(self):
        # the shape's 5 SNR x 4 A block as one sweep, one A per row: each row
        # keeps its own window, which depends on A
        shape = ChannelParams(mu=6.0, m=3.0, kappa=2.0, eta=0.1, rho2=0.1, gamma_bar=10.0)
        block = [(db_to_linear(db), a) for db in GRID_SNR_DB for a in GRID_A]
        gamma_bars, exponents = zip(*block)
        values, errors, levels = quadrature_sweep(shape, gamma_bars, exponents, 1e-8)
        assert list(zip(values.tolist(), errors.tolist(), levels.tolist())) == \
            [row for g, a in block for row in _per_point(shape, [g], a)]

    def test_rows_leave_at_their_own_level(self):
        shape = fig1_params()
        gamma_bars = [1e8, 0.1, 1e6]
        values, errors, levels = quadrature_sweep(shape, gamma_bars, 0.5, 1e-8)
        assert levels.tolist() == [5, 3, 4]
        assert np.all(errors <= 1e-8)
        assert list(zip(values.tolist(), errors.tolist(), levels.tolist())) == \
            _per_point(shape, gamma_bars, 0.5)

    def test_single_and_duplicate_rows(self):
        shape = fig1_params()
        single = quadrature_sweep(shape, [1e3], 2.0)
        double = quadrature_sweep(shape, [1e3, 1e3], 2.0)
        assert [x.tolist() for x in single] == [x.tolist()[:1] for x in double]
        assert [x.tolist() for x in single] == [x.tolist()[1:] for x in double]
        assert [x.size for x in quadrature_sweep(shape, [], 2.0)] == [0, 0, 0]

    def test_unconverged_row_raises_naming_its_snr(self, monkeypatch):
        # 80 dB needs level 5 at A = 0.5; the 0 dB row converges at level 3
        monkeypatch.setattr(fbrate.rate, "DE_LEVELS", 4)
        with pytest.raises(ConvergenceError, match=r"gamma_bar=100000000\.0\)") as info:
            quadrature_sweep(fig1_params(), [1.0, 1e8], 0.5, 1e-8)
        assert info.value.achieved > 1e-8

    def test_rejects_bad_mean_snr(self):
        # the first offending mean SNR alone is named, not the whole sweep
        with pytest.raises(ParameterError, match=r"got 0\.0$"):
            quadrature_sweep(fig1_params(), [1.0, 0.0, math.nan], 2.0)

    def test_rejects_one_exponent_per_other_row(self):
        with pytest.raises(ParameterError, match="one A or one per mean SNR"):
            quadrature_sweep(fig1_params(), [1.0, 10.0, 100.0], [2.0, 5.0])
        with pytest.raises(ParameterError, match="A must be finite and > 0"):
            quadrature_sweep(fig1_params(), [1.0, 10.0], [2.0, 0.0])

    @pytest.mark.parametrize("gamma_bar", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("method", _METHODS)
    def test_sweep_rejects_bad_mean_snr(self, method, gamma_bar):
        request = ErRequest(params=fig1_params(), a_exponent=2.0, method=method)
        with pytest.raises(ParameterError, match="gamma_bars must be finite and > 0"):
            er_sweep(request, [1.0, gamma_bar], McConfig(n_samples=1000, seed=1))

    def test_window_out_of_range_is_typed(self):
        # -45/A overflows for a subnormal A, and the rule has no window
        with pytest.raises(ConvergenceError, match="window bound -inf is not finite"):
            quadrature_sweep(fig1_params(), [1.0], 1e-310)

    @pytest.mark.parametrize("method", _METHODS)
    def test_empty_sweep(self, method):
        assert er_sweep(ErRequest(params=fig1_params(), a_exponent=2.0, method=method), []) == []

    @pytest.mark.parametrize("method", _METHODS)
    def test_sweep_matches_per_point_requests(self, method):
        # the request's own mean SNR (3.0) is not among the sweep's, and is ignored
        request = ErRequest(params=fig1_params(gamma_bar=3.0), a_exponent=2.0, method=method)
        gamma_bars = [1e3, 0.1, 10.0, 0.1]
        config = McConfig(n_samples=20_000, seed=7)
        assert er_sweep(request, gamma_bars, config) == [
            er_auto(replace(request, params=replace(request.params, gamma_bar=g)), config)
            for g in gamma_bars]

    @pytest.mark.parametrize("method, n_sweeps", [
        ("auto", 1), ("quadrature", 1), ("closed_form", 0)])
    def test_one_quadrature_sweep_per_sweep(self, monkeypatch, method, n_sweeps):
        calls = _count_sweeps(monkeypatch)
        gamma_bars = [0.1, 10.0, 1e3]
        er_sweep(ErRequest(params=fig1_params(), a_exponent=2.0, method=method), gamma_bars)
        assert [list(args[1]) for args in calls] == [gamma_bars] * n_sweeps

    def test_cross_check_batches_each_shape(self, monkeypatch):
        grid = closed_form_grid()[:40]  # two shapes x 5 mean SNRs x 4 exponents
        calls = _count_sweeps(monkeypatch)
        report = run_cross_check(grid)
        assert len(calls) == len({p.shape for p, _ in grid}) == 2
        assert [len(args[2]) for args in calls] == [20, 20]
        worst, max_diff = None, 0.0
        for params, a in grid:
            j_closed = closed_form_j(params, a)
            diff = abs(quadrature_j(params, a)[0] - j_closed) / j_closed
            if diff > max_diff:
                worst, max_diff = (params, a), diff
        assert report == CrossCheckReport(n_configs=40, max_rel_diff=max_diff, worst=worst)

    def test_one_exponent_per_mean_snr(self):
        # one sweep over (mean SNR, A) rows gives each row its own request's result
        request = ErRequest(params=fig1_params(gamma_bar=3.0), a_exponent=7.0)
        rows = [(1e3, 2.0), (0.1, 0.5), (10.0, 5.0), (0.1, 2.0)]
        assert er_sweep(request, [g for g, _ in rows], a_exponents=[a for _, a in rows]) == [
            er_auto(ErRequest(params=fig1_params(gamma_bar=g), a_exponent=a))
            for g, a in rows]
        with pytest.raises(ParameterError, match="one A or one per mean SNR"):
            er_sweep(request, [1.0, 10.0, 100.0], a_exponents=[2.0, 5.0])


class TestCrossCheck:
    """``run_cross_check`` checks the route ``auto`` users get, not the engines alone."""

    GRID = closed_form_grid()[:40]

    def test_a_dispatch_that_rejects_the_closed_form_fails(self, monkeypatch):
        # the engines still agree, but auto no longer keeps the closed form
        assert run_cross_check(self.GRID).passed
        monkeypatch.setattr(fbrate.rate, "CROSS_REL_TOL", 0.0)
        report = run_cross_check(self.GRID)
        assert not report.passed
        assert report.max_rel_diff == math.inf and report.worst in self.GRID

    def test_a_failing_closed_form_is_a_failing_report(self, monkeypatch):
        def fail(*args):
            raise ConvergenceError("forced")

        monkeypatch.setattr(fbrate.rate, "_closed_form", fail)
        report = run_cross_check(self.GRID)
        assert not report.passed
        assert report.max_rel_diff == math.inf and report.worst == self.GRID[0]


class TestClosedForm:
    def test_fig1_golden(self):
        p = fig1_params()
        j = closed_form_j(p, 2.0)
        assert j == pytest.approx(FIG1_J_A2, rel=1e-10)

    def test_nakagami_degeneration_vs_direct_integral(self):
        p = ChannelParams(mu=2.0, m=1.0, kappa=0.0, eta=1.0, rho2=1.0, gamma_bar=1.0)
        j = closed_form_j(p, 2.0)
        assert j == pytest.approx(J_NAKAGAMI_MU2, rel=1e-10)

    def test_merged_pole_golden(self):
        p = ChannelParams(mu=2.0, m=2.0, kappa=0.0, eta=1.0, rho2=1.0, gamma_bar=3.0)
        j = closed_form_j(p, 0.5)
        assert j == pytest.approx(J_MERGED_G3_A05, rel=1e-10)

    def test_unit_exponent_identity(self):
        # A = 1 reduces every simple-pole term to A_i * z_i e^{z_i} E1(z_i);
        # checked against the exponential-integral oracle directly
        from conftest import exp1 as _exp1

        p = ChannelParams(mu=2.0, m=1.0, kappa=0.0, eta=0.4, rho2=1.0, gamma_bar=2.0)
        ex = decompose(p)
        j = closed_form_j(p, 1.0)
        oracle = sum(c[0].real * (t.real / 2.0) * math.exp(t.real / 2.0)
                     * _exp1(t.real / 2.0) for t, _, c in ex.terms)
        assert j == pytest.approx(oracle, rel=1e-10)

    def test_unit_exponent_identity_quadrature_route(self):
        # exponential SNR (single cluster) at gamma_bar = 2: J(A=1) = z e^z E1(z)
        p = preset("rayleigh", gamma_bar=2.0)
        j, _ = quadrature_j(p, 1.0)
        assert j == pytest.approx(J_RAYLEIGH_G2_A1, rel=1e-8)

    def test_split_double_root_near_zero_los(self):
        # kappa = 1e-12, eta = 1: the roots sit 1e-12 apart and must merge
        # into one pole instead of splitting into a complex pair
        p = ChannelParams(mu=2.0, m=3.0, kappa=1e-12, eta=1.0, rho2=1.0)
        result = er_auto(ErRequest(params=p, a_exponent=2.0, method="closed_form"))
        assert result.expectation_j == pytest.approx(cluster_model_j(p, 2.0),
                                                     rel=1e-9, abs=0.0)

    def test_u_error_share_tightens_the_terms(self):
        # 20 dB, A = 5: the terms cancel ~5e5-fold, under the residue-majorant
        # limit; a U term certified only to 1e-10 (true error 1.1e-11) would
        # put J 3.4e-9 off, so the U share sends J to the series
        p = ChannelParams(mu=6.0, m=3.0, kappa=2.0, eta=0.1, rho2=1.0, gamma_bar=100.0)
        result = er_auto(ErRequest(params=p, a_exponent=5.0, method="closed_form"))
        assert result.series[0].startswith("U share ")
        assert (result.quadrature_level, result.cross_check_rel_diff,
                result.closed_form_error) == (None, None, None)
        assert result.expectation_j == closed_form_j(p, 5.0)
        assert result.expectation_j == pytest.approx(cluster_model_j(p, 5.0), rel=5e-10, abs=0.0)

    def test_extreme_cancellation_switches_to_extended_precision(self):
        # high mean SNR with large A: term cancellation ~1e12 forces the
        # gamma-mixture series, which must still match the quadrature route
        p = ChannelParams(mu=6.0, m=1.0, kappa=1.0, eta=1.0, rho2=0.1,
                          gamma_bar=1000.0)
        result = er_auto(ErRequest(params=p, a_exponent=5.0, method="closed_form"))
        assert result.series is not None
        j_closed = closed_form_j(p, 5.0)
        assert j_closed == result.expectation_j
        j_quad, _ = quadrature_j(p, 5.0, 1e-10)
        assert j_closed == pytest.approx(j_quad, rel=1e-8, abs=0.0)
        assert j_closed < 1e-11  # deep in the cancellation regime


class TestDispatch:
    def test_auto_prefers_closed_form_and_cross_checks(self):
        result = er_auto(ErRequest(params=fig1_params(), a_exponent=2.0))
        assert result.method_used == "closed_form"
        assert result.cross_check_rel_diff < 1e-6
        assert result.expectation_j == pytest.approx(FIG1_J_A2, rel=1e-9)
        assert result.rate == pytest.approx(-math.log2(result.expectation_j) / 2.0)

    def test_non_integer_m_goes_to_quadrature(self):
        p = ChannelParams(mu=2.0, m=1.7, kappa=1.0, eta=0.5, rho2=1.0)
        result = er_auto(ErRequest(params=p, a_exponent=2.0))
        assert result.method_used == "quadrature"

    def test_fractional_mu_goes_to_quadrature(self):
        p = ChannelParams(mu=1.5, m=1.0, kappa=1.0, eta=0.1, rho2=0.1)
        result = er_auto(ErRequest(params=p, a_exponent=2.0))
        assert result.method_used == "quadrature"
        assert result.expectation_j == pytest.approx(FIG2_J_BY_M[1.0], rel=1e-7)

    def test_explicit_closed_form_raises_outside_regime(self):
        p = ChannelParams(mu=1.5, m=1.0, kappa=1.0, eta=0.1, rho2=0.1)
        with pytest.raises(ClosedFormUnavailableError, match="mu"):
            er_auto(ErRequest(params=p, a_exponent=2.0, method="closed_form"))

    def test_beckmann_exact_limit(self):
        # m = inf is evaluated as its exact limit, not a large-m stand-in
        p = preset("beckmann", kappa=1.0, eta=0.5, rho2=2.0)
        result = er_auto(ErRequest(params=p, a_exponent=2.0))
        assert result.method_used == "quadrature"
        assert result.expectation_j == pytest.approx(cluster_model_j(p, 2.0),
                                                     rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("mu", [10.0, 20.0, 40.0])
    def test_nakagami_auto_exact(self, mu):
        # Gamma(mu, 1/mu) SNR: J = (mu/gbar)^mu U(mu; mu-A+1; mu/gbar)
        p = preset("nakagami-m", mu=mu)
        result = er_auto(ErRequest(params=p, a_exponent=2.0))
        with mp.workdps(30):
            exact = float(mp.mpf(mu) ** mu * mp.hyperu(mu, mu - 1, mu))
        assert result.method_used == "closed_form"
        assert result.expectation_j == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mu, m, snr_db, a, reason", [
        (20.0, 200.0, 20.0, 5.0, "closed_form_error"),
    ])
    def test_auto_falls_back_to_quadrature_at_high_multiplicity(
            self, mu, m, snr_db, a, reason, monkeypatch, fresh_series):
        # an uncertified closed form: auto must return the quadrature value.
        # This row's series certifies at 512 terms
        # (test_multiplicity_400_certifies); cut to 256, its tail is 4e-5 of J
        monkeypatch.setattr(_extended, "_MAX_TERMS", 256)
        p = ChannelParams(mu=mu, m=m, gamma_bar=10.0 ** (snr_db / 10.0), **HIGH_MULT)
        assert closed_form_applies(p)
        result = er_auto(ErRequest(params=p, a_exponent=a))
        assert result.method_used == "quadrature"
        assert getattr(result, reason) is not None
        assert result.expectation_j == pytest.approx(HIGH_MULT_J[mu, m, snr_db, a],
                                                     rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("method", ["auto", "closed_form"])
    @pytest.mark.parametrize("snr_db, a", [(20.0, 5.0), (30.0, 2.0)])
    def test_high_multiplicity_escalates(self, snr_db, a, method):
        # m = 40: the double-precision residue table is 0.5% off, and its
        # majorant (~1e24) sends both methods to the gamma-mixture series
        p = ChannelParams(mu=2.0, m=40.0, gamma_bar=10.0 ** (snr_db / 10.0), **HIGH_MULT)
        result = er_auto(ErRequest(params=p, a_exponent=a, method=method))
        assert result.method_used == "closed_form"
        assert result.series is not None
        assert result.expectation_j == pytest.approx(HIGH_MULT_J[2.0, 40.0, snr_db, a],
                                                     rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("method", ["auto", "closed_form"])
    def test_error_estimate_is_the_series_bound(self, method):
        # m = 40, 30 dB, A = 2: the series proves 8.8e-13 of J, and that bound,
        # not the partial-fraction sum's U_SUM_TOL, is the error estimate (auto
        # raises it to the cross-check difference where that is larger)
        p = ChannelParams(mu=2.0, m=40.0, gamma_bar=1000.0, **HIGH_MULT)
        result = er_auto(ErRequest(params=p, a_exponent=2.0, method=method))
        assert result.error_estimate == result.series[2]
        assert result.error_estimate < U_SUM_TOL
        assert result.error_estimate >= (result.cross_check_rel_diff or 0.0)
        # the partial-fraction sum reports U_SUM_TOL
        result = er_auto(ErRequest(params=fig1_params(), a_exponent=2.0, method=method))
        assert result.series is None
        assert result.error_estimate == U_SUM_TOL

    def test_multiplicity_400_certifies(self):
        # mu = 20, m = 200: a residue majorant of 1e75 of J; the series
        # certifies it and auto keeps the closed form
        p = ChannelParams(mu=20.0, m=200.0, gamma_bar=100.0, **HIGH_MULT)
        result = er_auto(ErRequest(params=p, a_exponent=5.0))
        assert result.method_used == "closed_form"
        reason, n_terms, bound = result.series
        assert re.fullmatch(r"residue majorant \S+", reason)
        assert isinstance(n_terms, int) and n_terms > 0 and bound > 0.0
        assert result.expectation_j == pytest.approx(HIGH_MULT_J[20.0, 200.0, 20.0, 5.0],
                                                     rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("method", ["auto", "closed_form"])
    @pytest.mark.parametrize("mu", [20.0, 40.0])
    @pytest.mark.parametrize("m", [10.0, 20.0, 40.0])
    def test_high_multiplicity_rows_at_30_db(self, m, mu, method):
        p = ChannelParams(mu=mu, m=m, gamma_bar=1000.0, **HIGH_MULT)
        result = er_auto(ErRequest(params=p, a_exponent=5.0, method=method))
        assert result.method_used == "closed_form"
        assert result.expectation_j == pytest.approx(HIGH_MULT_J[mu, m, 30.0, 5.0],
                                                     rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("params, a, j_quad", [
        (ChannelParams(mu=6, m=5, kappa=0.0022068275643294466, eta=1734.221669092768,
                       rho2=27.82277147330203, gamma_bar=0.15444758274885909),
         2.706991924825241, 0.6963491712266396),
        (ChannelParams(mu=4, m=100, kappa=2.884455505814487, eta=1769.780162811736,
                       rho2=2162.136092766108, gamma_bar=11140281.96285564),
         5.840987076264172, 3.5573073873892693e-25),
        # the README repro of a bare numpy overflow warning
        (ChannelParams(mu=2, m=100, kappa=0.00021991277831343153, eta=545.1312826605314,
                       rho2=14.652083516706965, gamma_bar=db_to_linear(74.27)),
         2.2271527586935216, 2.446251914242614e-12),
    ], ids=["series-not-finite", "residue-overflow", "power-sum-overflow"])
    def test_closed_form_failures_are_typed(self, params, a, j_quad):
        # the gamma-mixture series sums to inf, prod a_k**e_k overflows in
        # the residue recursion, and a power sum c_r would: each ends in a
        # ConvergenceError, and auto returns the quadrature value
        with pytest.raises(ConvergenceError):
            er_auto(ErRequest(params=params, a_exponent=a, method="closed_form"))
        result = er_auto(ErRequest(params=params, a_exponent=a))
        assert result.method_used == "quadrature"
        assert result.closed_form_error.startswith("ConvergenceError")
        assert result.expectation_j == quadrature_j(params, a)[0]
        assert result.expectation_j == pytest.approx(j_quad, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("method", ["auto", "quadrature", "closed_form"])
    @pytest.mark.parametrize("snr_db", [1000.0, 2000.0, 3050.0, 3080.0])
    def test_extreme_mean_snr_returns_or_raises_typed(self, snr_db, method):
        # at 2000 dB the U seeds' peak overflows, at 3050 dB the series sums to
        # 0, and at 3080 dB the quadrature's gamma_bar s overflows to inf
        params = fig1_params(gamma_bar=db_to_linear(snr_db))
        for a in (0.5, 2.0, 5.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = er_auto(ErRequest(params=params, a_exponent=a, method=method))
                except FbrateError:
                    continue
            assert 0.0 < result.expectation_j <= 1.0

    @pytest.mark.parametrize("a", [0.01, 0.1, 5.0])
    def test_quadrature_rounding_above_one_is_one(self, a):
        # far below 0 dB the quadrature rule rounds J up to ~1 + 1e-15; the
        # dispatch returns 1 exactly, as it does for the closed form
        p = ChannelParams(mu=1.5, m=1.0, kappa=1.0, eta=0.1, rho2=0.1)
        gamma_bars = [db_to_linear(db) for db in range(-300, -59, 5)]
        values = quadrature_sweep(p, gamma_bars, a)[0]
        assert np.any(values > 1.0) and np.all(values < 1.0 + 1e-12)
        for method in ("auto", "quadrature"):
            results = er_sweep(ErRequest(params=p, a_exponent=a, method=method), gamma_bars)
            assert [r.expectation_j for r in results] == np.minimum(values, 1.0).tolist()

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    @pytest.mark.parametrize("j", [1.0 + 1e-9, 0.0, -1e-300])
    def test_quadrature_value_outside_unit_interval_raises(self, monkeypatch, method, j):
        monkeypatch.setattr(fbrate.rate, "quadrature_sweep",
                            lambda *args: (np.array([j]), np.zeros(1), np.ones(1, dtype=int)))
        with pytest.raises(ConvergenceError, match="quadrature expectation out of"):
            er_auto(ErRequest(params=fig1_params(), a_exponent=2.0, method=method))

    def test_closed_form_applies_predicate(self):
        assert closed_form_applies(fig1_params())
        assert closed_form_applies(ChannelParams(mu=4.0, m=math.inf, kappa=0.0,
                                                 eta=0.3, rho2=1.0))
        assert not closed_form_applies(ChannelParams(mu=3.0, m=1.0, kappa=1.0,
                                                     eta=0.3, rho2=1.0))
        assert not closed_form_applies(ChannelParams(mu=2.0, m=400.0, kappa=1.0,
                                                     eta=0.3, rho2=1.0))

    def test_closed_form_rejects_infinite_m_with_los(self):
        # with LoS power, m = inf leaves the MGF irrational in s
        p = ChannelParams(mu=2.0, m=math.inf, kappa=1.0, eta=0.5, rho2=1.0)
        with pytest.raises(ClosedFormUnavailableError, match="m"):
            pole_exponents(p)
        assert not closed_form_applies(p)

    def test_closed_form_rejects_m_rounding_below_one(self):
        # m = 1e-10 is within the integer tolerance of 0, which has no poles
        p = ChannelParams(mu=2.0, m=1e-10, kappa=1.0, eta=0.5, rho2=1.0)
        assert not closed_form_applies(p)
        with pytest.raises(ClosedFormUnavailableError, match="m"):
            er_auto(ErRequest(params=p, a_exponent=2.0, method="closed_form"))

    def test_request_validation(self):
        with pytest.raises(ParameterError):
            ErRequest(params=fig1_params(), a_exponent=0.0)
        with pytest.raises(ParameterError):
            ErRequest(params=fig1_params(), a_exponent=2.0, method="bogus")
        with pytest.raises(ParameterError):
            ErRequest(params=fig1_params(), a_exponent=2.0, rel_tol=0.5)


class TestSweepProperties:
    def test_rate_monotone_in_snr_and_mu(self):
        snr_db = np.arange(-10.0, 31.0, 5.0)
        rates = {}
        for mu in (1.0, 2.0, 4.0):
            rates[mu] = [
                er_auto(ErRequest(params=fig1_params(gamma_bar=10 ** (db / 10.0), mu=mu),
                                  a_exponent=2.0)).rate
                for db in snr_db]
            assert np.all(np.diff(rates[mu]) > 0)
        assert np.all(np.array(rates[2.0]) >= np.array(rates[1.0]))
        assert np.all(np.array(rates[4.0]) >= np.array(rates[2.0]))

    def test_rate_monotone_in_m(self):
        snr_db = np.arange(-10.0, 31.0, 5.0)
        prev = None
        for m in (0.5, 1.0, 3.0):
            rates = []
            for db in snr_db:
                p = ChannelParams(mu=1.5, m=m, kappa=1.0, eta=0.1, rho2=0.1,
                                  gamma_bar=10 ** (db / 10.0))
                rates.append(er_auto(ErRequest(params=p, a_exponent=2.0)).rate)
            rates = np.array(rates)
            assert np.all(np.diff(rates) > 0)
            if prev is not None:
                assert np.all(rates >= prev)
            prev = rates

    def test_jensen_bound_small_exponent(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            gbar = float(10.0 ** rng.uniform(-1, 2))
            p = fig1_params(gamma_bar=gbar)
            result = er_auto(ErRequest(params=p, a_exponent=0.05))
            assert result.rate <= math.log2(1.0 + gbar) * (1.0 + 1e-6)

    def test_expectation_in_unit_interval(self):
        rng = np.random.default_rng(81)
        for _ in range(15):
            p = ChannelParams(mu=float(rng.uniform(0.5, 6.0)),
                              m=float(rng.uniform(0.5, 6.0)),
                              kappa=float(rng.uniform(0, 3)),
                              eta=float(10 ** rng.uniform(-1, 1)),
                              rho2=float(rng.uniform(0, 3)),
                              gamma_bar=float(10 ** rng.uniform(-1, 3)))
            a = float(10 ** rng.uniform(-1, 0.7))
            result = er_auto(ErRequest(params=p, a_exponent=a))
            assert 0.0 < result.expectation_j < 1.0
            assert result.rate > 0.0


class TestUnitEtaReduction:
    def test_rate_matches_shadowed_oracle(self):
        # 20 (gamma_bar, A) points across shadowed parameter sets; even cluster
        # counts exercise the closed form, the odd one the quadrature engine
        cases = [(2.0, 2.0, 2.0), (0.5, 2.0, 1.0), (4.0, 4.0, 3.0), (1.0, 3.0, 2.0)]
        points = 0
        for kappa, mu, m in cases:
            for gbar in (0.1, 1.0, 10.0, 100.0):
                for a in (0.5, 2.0):
                    if points >= 20:
                        break
                    p = ChannelParams(mu=mu, m=m, kappa=kappa, eta=1.0, rho2=1.0,
                                      gamma_bar=gbar)
                    if mu == round(mu) and round(mu) % 2 == 0:
                        mine = closed_form_j(p, a)
                    else:
                        mine = quadrature_j(p, a, 1e-10)[0]
                    oracle = unit_eta_shadowed_j(kappa, mu, m, gbar, a)
                    assert mine == pytest.approx(oracle, rel=1e-8)
                    points += 1
        assert points == 20

    def test_fig1_mu_sweep_goldens(self):
        for mu, j_expected, r_expected in ((1.0, FIG1_J_MU1, FIG1_R_MU1),
                                           (4.0, FIG1_J_MU4, FIG1_R_MU4)):
            result = er_auto(ErRequest(params=fig1_params(mu=mu), a_exponent=2.0))
            assert result.expectation_j == pytest.approx(j_expected, rel=1e-8)
            assert result.rate == pytest.approx(r_expected, rel=1e-8)

    def test_fig2_m_sweep_goldens(self):
        for m, j_expected in FIG2_J_BY_M.items():
            p = ChannelParams(mu=1.5, m=m, kappa=1.0, eta=0.1, rho2=0.1, gamma_bar=1.0)
            result = er_auto(ErRequest(params=p, a_exponent=2.0))
            assert result.expectation_j == pytest.approx(j_expected, rel=1e-8)
