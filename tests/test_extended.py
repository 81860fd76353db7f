"""Extended-precision closed form: U values, the 30-digit sum, typed failures."""

import mpmath as mp
import pytest

from fbrate import ChannelParams, ConvergenceError, ErRequest, er_auto
from fbrate._extended import _DPS, expectation_closed_form_mp

from conftest import HIGH_MULT, HIGH_MULT_J, cluster_model_j, tricomi_u_integral_mp

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
    with mp.workdps(_DPS):
        u = mp.hyperu(j, b, z)
    with mp.workdps(_DPS + 10):
        oracle = tricomi_u_integral_mp(j, mp.mpf(b), mp.mpf(z))
    assert abs(u - oracle) <= 1e-25 * abs(oracle)


#: Grid configurations whose term sum cancels past the double-precision limit.
EXTENDED_GRID = (
    (ChannelParams(mu=4.0, m=1.0, kappa=0.5, eta=0.1, rho2=0.1, gamma_bar=1000.0), 5.0),
    (ChannelParams(mu=6.0, m=1.0, kappa=1.0, eta=1.0, rho2=1.0, gamma_bar=1000.0), 5.0),
    (ChannelParams(mu=6.0, m=3.0, kappa=2.0, eta=0.1, rho2=0.1, gamma_bar=1000.0), 5.0),
)


@pytest.mark.parametrize("params,a", EXTENDED_GRID)
def test_extended_sum_matches_cluster_model(params, a):
    assert expectation_closed_form_mp(params, a) == pytest.approx(
        cluster_model_j(params, a), rel=1e-9, abs=0.0)


def test_extended_sum_at_high_multiplicity():
    # the m = 40 row whose double-precision residue table is 0.5% off
    p = ChannelParams(mu=2.0, m=40.0, gamma_bar=100.0, **HIGH_MULT)
    assert expectation_closed_form_mp(p, 5.0) == pytest.approx(
        HIGH_MULT_J[2.0, 40.0, 20.0, 5.0], rel=1e-9, abs=0.0)


def _no_convergence(*args):
    raise mp.libmp.NoConvergence("forced")


def test_no_convergence_is_typed(monkeypatch):
    monkeypatch.setattr(mp, "hyperu", _no_convergence)
    params, a = EXTENDED_GRID[0]
    with pytest.raises(ConvergenceError, match="extended-precision U"):
        expectation_closed_form_mp(params, a)


def test_auto_falls_back_when_extended_u_fails(monkeypatch):
    monkeypatch.setattr(mp, "hyperu", _no_convergence)
    params, a = EXTENDED_GRID[0]
    result = er_auto(ErRequest(params=params, a_exponent=a))
    assert result.method_used == "quadrature"
    diagnostics = dict(result.diagnostics)
    assert diagnostics["closed_form_failed"].startswith("ConvergenceError")
    assert result.expectation_j == pytest.approx(cluster_model_j(params, a),
                                                 rel=1e-8, abs=0.0)
