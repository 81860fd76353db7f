"""The gamma-mixture series: its U families, the certified sum, typed failures."""

import dataclasses
import math
import subprocess
import sys
import threading

import mpmath as mp
import pytest

from fbrate import ChannelParams, ConvergenceError, ErRequest, er_auto
from fbrate import _extended, specfun
from fbrate._extended import mixture_series
from fbrate.rate import U_SUM_TOL
from fbrate.specfun import _U_TOL

from conftest import (HIGH_MULT, HIGH_MULT_J, cluster_model_j, fresh_env,
                      tricomi_u_integral_mp, u_family)


def series_j(params, a):
    """J from the gamma-mixture series at the closed form's target."""
    return mixture_series(params, a)[0]

#: (j, b, z) triples the extended path evaluates on the cross-engine grid
#: (A = 5 there, so b = j - 4 is an integer), plus non-integer b from other
#: exponents and the m = 40 row's deepest term.
U_TRIPLES = (
    (1, -3.0, 0.0016066687844135978),  # mu=4, m=1, kappa=0.5, eta=0.1, 30 dB
    (2, -2.0, 0.0495),                 # mu=6, m=1, kappa=0.5, eta=0.1, 30 dB
    (3, -1.0, 0.013337608080936323),   # mu=4, m=3, kappa=0.5, eta=0.1, 30 dB
    (4, 0.0, 0.012),                   # mu=6, m=1, kappa=1, eta=1, 30 dB
    (5, 1.0, 0.012),
    (1, -1.5, 0.05),                   # A = 3.5
    (2, 0.5, 1.0),                     # A = 2.5
    (3, 3.3, 10.0),                    # A = 0.7
    (40, 36.0, 0.004),                 # m = 40 row at 20 dB
)


@pytest.mark.parametrize("j,b,z", U_TRIPLES)
def test_extended_u_matches_integral_oracle(j, b, z):
    # W_j = z^j U(j; b; z), the last term of the double family the series
    # and the term sums use, against the defining integral
    family = u_family(j + 1 - b, z, j)
    with mp.workdps(30):
        z_mp = mp.mpf(z)
        oracle = z_mp**j * tricomi_u_integral_mp(j, mp.mpf(b), z_mp)
        error = float(abs(mp.mpf(family.values[-1]) - oracle))
    assert error <= _U_TOL * float(oracle)
    assert family.bounds[-1] >= error


#: Grid configurations whose term sum cancels past the double-precision limit.
EXTENDED_GRID = (
    (ChannelParams(mu=4.0, m=1.0, kappa=0.5, eta=0.1, rho2=0.1, gamma_bar=1000.0), 5.0),
    (ChannelParams(mu=6.0, m=1.0, kappa=1.0, eta=1.0, rho2=1.0, gamma_bar=1000.0), 5.0),
    (ChannelParams(mu=6.0, m=3.0, kappa=2.0, eta=0.1, rho2=0.1, gamma_bar=1000.0), 5.0),
)


@pytest.mark.parametrize("params,a", EXTENDED_GRID)
def test_extended_sum_matches_cluster_model(params, a):
    assert series_j(params, a) == pytest.approx(
        cluster_model_j(params, a), rel=1e-9, abs=0.0)


#: The m = 40 row whose double-precision residue table is 0.5% off; its
#: residue majorant is ~1e25 of J.
M40 = ChannelParams(mu=2.0, m=40.0, gamma_bar=100.0, **HIGH_MULT)


def test_extended_sum_at_high_multiplicity():
    assert series_j(M40, 5.0) == pytest.approx(
        HIGH_MULT_J[2.0, 40.0, 20.0, 5.0], rel=1e-9, abs=0.0)


def test_cross_check_runs_without_mpmath():
    # a fresh interpreter: the grid points whose U terms the forward
    # recurrence leaves uncertified, and the m = 40 row, run through the
    # seeds and never import mpmath
    grid = [*EXTENDED_GRID, (M40, 5.0)]
    probe = f"""
import sys
from fbrate import ChannelParams, specfun
from fbrate.crosscheck import run_cross_check
seeds = specfun._seeds
calls = []
def counted(*args):
    calls.append(args)
    return seeds(*args)
specfun._seeds = counted
report = run_cross_check({grid!r})
assert report.passed and calls, (report, calls)
print('mpmath' in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=fresh_env())
    assert proc.stdout.strip() == "False"


def test_extended_sum_climbs_to_the_oracle_at_multiplicity_400():
    # mu = 20, m = 200: the partial-fraction terms cancel ~1e75-fold; the
    # series of positive terms needs no extra digits
    p = ChannelParams(mu=20.0, m=200.0, gamma_bar=100.0, **HIGH_MULT)
    assert series_j(p, 5.0) == pytest.approx(HIGH_MULT_J[20.0, 200.0, 20.0, 5.0],
                                             rel=1e-9, abs=0.0)


@pytest.mark.parametrize("params,a", [
    # a grid shape at 40 dB with A = 20, and mu = 20 at -10 dB (z up to ~1e3)
    (ChannelParams(mu=6.0, m=3.0, kappa=0.5, eta=0.1, rho2=0.1, gamma_bar=1e4), 20.0),
    (ChannelParams(mu=20.0, m=3.0, kappa=1.0, eta=1.0, rho2=1.0, gamma_bar=0.1), 5.0),
])
def test_u_share_needs_the_seeds(params, a):
    # the forward recurrence loses digits below k = A + z, so the low terms
    # come from the seeds at the turning point
    assert series_j(params, a) == pytest.approx(cluster_model_j(params, a),
                                                rel=1e-9, abs=0.0)


def _no_convergence(*args):
    raise mp.libmp.NoConvergence("forced")


@pytest.mark.parametrize("params,a", EXTENDED_GRID)
def test_extended_sum_needs_no_hyperu(monkeypatch, params, a):
    monkeypatch.setattr(mp, "hyperu", _no_convergence)
    assert series_j(params, a) == pytest.approx(
        cluster_model_j(params, a), rel=1e-9, abs=0.0)


def _uncertified_terms(a, z, n, rel_tol):
    # what u_terms raises when a term stays uncertified
    raise ConvergenceError(f"U(j; j-A+1; z) with A={a}, z={z} uncertified",
                           achieved=1e-3)


def test_no_convergence_is_typed(monkeypatch, fresh_series):
    # the series' U terms fail: the typed error reaches the caller
    monkeypatch.setattr(_extended, "u_terms", _uncertified_terms)
    with pytest.raises(ConvergenceError, match="uncertified") as info:
        series_j(M40, 5.0)
    assert info.value.achieved > 1e-9


def test_auto_falls_back_when_extended_u_fails(monkeypatch, fresh_series):
    monkeypatch.setattr(_extended, "u_terms", _uncertified_terms)
    result = er_auto(ErRequest(params=M40, a_exponent=5.0))
    assert result.method_used == "quadrature"
    diagnostics = dict(result.diagnostics)
    assert diagnostics["closed_form_failed"].startswith("ConvergenceError: U(j; j-A+1; z)")
    assert result.expectation_j == pytest.approx(cluster_model_j(M40, 5.0),
                                                 rel=1e-8, abs=0.0)


@pytest.mark.parametrize("key", sorted(HIGH_MULT_J))
def test_series_bound_covers_the_oracle(key):
    mu, m, snr_db, a = key
    p = ChannelParams(mu=mu, m=m, gamma_bar=10.0 ** (snr_db / 10.0), **HIGH_MULT)
    value, bound, _ = mixture_series(p, a)
    exact = HIGH_MULT_J[key]
    assert value == pytest.approx(exact, rel=1e-9, abs=0.0)
    assert bound >= abs(value - exact)
    assert bound <= U_SUM_TOL * value


#: J on ``EXTENDED_GRID`` by 35-digit quadrature of the physical cluster-model
#: MGF, tanh-sinh and Gauss-Legendre agreeing to 3e-30: ``cluster_model_j``
#: evaluates the MGF in double, which leaves it ~4e-14 off, above the bound.
EXTENDED_GRID_J = (1.386717367666344564595e-10, 3.038589795248719623299e-13,
                   1.646598245672973042306e-12)


@pytest.mark.parametrize("params,a,exact", [
    (params, a, exact) for (params, a), exact in zip(EXTENDED_GRID, EXTENDED_GRID_J)],
    ids=[f"params{i}-5.0" for i in range(len(EXTENDED_GRID))])
def test_series_bound_covers_the_cluster_model(params, a, exact):
    value, bound, _ = mixture_series(params, a)
    assert value == pytest.approx(exact, rel=1e-9, abs=0.0)
    assert bound >= abs(value - exact)
    assert bound <= U_SUM_TOL * value


def test_negative_power_sum_is_refused(monkeypatch, fresh_series):
    # (1 + g s)^-2 (1 + 2 g s): the numerator factor sits below the top pole,
    # so c_r = -(1/2)^r < 0 and the weights would alternate
    monkeypatch.setattr(_extended, "mgf_factors",
                        lambda params: [(1.0, 2), (0.5, -1)])
    with pytest.raises(ConvergenceError, match="power sum c_r is -5"):
        series_j(M40, 5.0)


def _overflowed_terms(a, z, n, rel_tol):
    # W_j that overflowed to inf, bound inf
    return iter([(math.inf, math.inf, "recurrence")] * n)


def test_non_finite_sum_is_refused(monkeypatch, fresh_series):
    # the residue majorant sends this shape to the series, whose sum
    # overflows with its U family: it must raise rather than return
    # (inf, inf, L).  The family here once overflowed for real, when
    # u_family passed inf terms through inf <= inf
    p = ChannelParams(mu=6, m=5, kappa=0.0022068275643294466, eta=1734.221669092768,
                      rho2=27.82277147330203, gamma_bar=0.15444758274885909)
    monkeypatch.setattr(_extended, "u_terms", _overflowed_terms)
    with pytest.raises(ConvergenceError, match="value inf"):
        mixture_series(p, 2.706991924825241)


#: An A = 5 validate-grid point whose U terms come from the seeds, and the
#: m = 40 row, whose U terms all come from the forward run.
ONCE_GRID = (EXTENDED_GRID[2], (M40, 5.0))


@pytest.mark.parametrize("params,a", ONCE_GRID)
def test_series_evaluates_each_u_term_once(monkeypatch, params, a):
    # one W_1, at most one pair of seeds, and no term past the last one the
    # sum and its tail read, W_(mu+L) (W_(mu+L+1) allowed)
    w1, seeds, forward = specfun._w1, specfun._seeds, specfun._forward
    w1_calls, seed_calls, reached = [], [], []

    def counted_w1(*args):
        w1_calls.append(args)
        return w1(*args)

    def counted_seeds(a, z, k, tol):
        seed_calls.append(k)
        return seeds(a, z, k, tol)

    def counted_forward(a, z, k, *state):
        for j, term in enumerate(forward(a, z, k, *state), start=k):
            reached.append(j)
            yield term

    monkeypatch.setattr(specfun, "_w1", counted_w1)
    monkeypatch.setattr(specfun, "_seeds", counted_seeds)
    monkeypatch.setattr(specfun, "_forward", counted_forward)
    _, _, n_terms = mixture_series(params, a)
    assert len(w1_calls) == 1
    assert len(seed_calls) <= 1
    assert max(reached + seed_calls) <= round(params.mu) + n_terms + 1


def _bits(result):
    value, bound, n_terms = result
    return value.hex(), bound.hex(), n_terms


def test_warm_call_returns_the_cold_bits(fresh_series):
    # 30 dB reads fewer weights than 20 dB on this shape, so the 20 dB call
    # after it extends the memo's prefix, and the last call reads it whole
    shorter, longer = (dataclasses.replace(EXTENDED_GRID[2][0], gamma_bar=g)
                       for g in (1000.0, 100.0))
    cold = _bits(mixture_series(longer, 5.0))
    _extended._shape_series.cache_clear()
    assert _bits(mixture_series(shorter, 5.0))[2] < cold[2]
    assert _bits(mixture_series(longer, 5.0)) == cold
    assert _bits(mixture_series(longer, 5.0)) == cold


def test_concurrent_calls_share_the_memo(fresh_series):
    # threads extending one shape's weights at once, switching often, get
    # the bits of serial calls: a lost or torn prefix would move them
    shape = EXTENDED_GRID[2][0]
    points = [dataclasses.replace(shape, gamma_bar=g) for g in (1000.0, 100.0, 300.0, 30.0)]
    serial = [_bits(mixture_series(p, 5.0)) for p in points]
    results, errors = {}, []

    def run(i):
        try:
            for p in points[i % 4:] + points[:i % 4]:
                results.setdefault(i, []).append((p.gamma_bar, _bits(mixture_series(p, 5.0))))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _extended._shape_series.cache_clear()
            results.clear()
            threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            expected = dict(zip((p.gamma_bar for p in points), serial))
            assert all(bits == expected[g] for runs in results.values() for g, bits in runs)
            assert len(results) == 6
    finally:
        sys.setswitchinterval(interval)
