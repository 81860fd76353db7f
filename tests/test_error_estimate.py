"""Every returned error estimate bounds the error against an independent oracle.

``J_REF`` holds high-multiplicity points (kappa = 3, eta = rho2 = 0.3, the
benchmark's high-mult shapes at sub-dB SNR offsets) with J from the 30-digit
mpmath quadrature of the physical cluster-model MGF in ``bench/oracle.json``.
The first 20 take the gamma-mixture series, the rest the double-precision
partial-fraction sum; the last row is that sum's largest error on the
benchmark's 550 points (3.6e-11 of J).
"""

import pytest

from fbrate import ChannelParams, ErRequest, er_auto

from conftest import HIGH_MULT

#: (mu, m, snr_db, A, J, takes the series)
J_REF = (
    (2.0, 10.0, 20.0, 5.0, 7.4534009034574500583e-6, True),
    (2.0, 10.0, 30.7, 2.0, 5.2675185240552718543e-6, True),
    (20.0, 10.0, 10.4, 5.0, 0.000012611586087087470285, True),
    (20.0, 10.0, 30.5, 5.0, 2.3646203178878194822e-15, True),
    (40.0, 10.0, 20.2, 5.0, 2.2738613902580103761e-10, True),
    (40.0, 10.0, 30.9, 5.0, 1.0883616804460031495e-15, True),
    (2.0, 20.0, 10.6, 5.0, 0.00056590709592315080680, True),
    (2.0, 20.0, 20.3, 5.0, 3.8985225655735607727e-6, True),
    (2.0, 20.0, 30.0, 5.0, 4.0102205530413276222e-8, True),
    (20.0, 20.0, 20.7, 5.0, 1.0839970343508861618e-10, True),
    (40.0, 20.0, 10.4, 5.0, 7.0703332307014963968e-6, True),
    (40.0, 20.0, 30.1, 5.0, 1.7403388518544629811e-15, True),
    (2.0, 40.0, 10.8, 2.0, 0.014735835293236540916, True),
    (2.0, 40.0, 20.5, 2.0, 0.00030434658511927693159, True),
    (2.0, 40.0, 30.2, 2.0, 4.4389739302528716242e-6, True),
    (2.0, 40.0, 30.9, 5.0, 1.8799294471698718763e-8, True),
    (20.0, 40.0, 10.6, 5.0, 5.8499352260913493639e-6, True),
    (20.0, 40.0, 20.3, 5.0, 1.3398772930942847978e-10, True),
    (20.0, 40.0, 30.0, 5.0, 2.0010357510803371249e-15, True),
    (40.0, 40.0, 20.7, 5.0, 6.6357823465311094271e-11, True),
    (2.0, 10.0, 10.0, 2.0, 0.022280134058879064904, False),
    (2.0, 10.0, 10.0, 5.0, 0.0010480320842370651662, False),
    (2.0, 10.0, 20.0, 2.0, 0.00049281963208582120396, False),
    (20.0, 10.0, 10.0, 2.0, 0.010232200283064541987, False),
    (20.0, 10.0, 10.6, 5.0, 0.000010324743119719563667, False),
    (20.0, 10.0, 20.6, 2.0, 0.000096858516838431795410, False),
    (20.0, 10.0, 30.6, 2.0, 9.8873410620518580825e-7, False),
    (40.0, 10.0, 10.6, 2.0, 0.0076781314350909953474, False),
    (40.0, 10.0, 20.6, 2.0, 0.000092164833748336193149, False),
    (40.0, 10.0, 30.6, 2.0, 9.3974002207851382934e-7, False),
    (20.0, 20.0, 10.6, 2.0, 0.0074373243737966730032, False),
    (20.0, 20.0, 10.6, 5.0, 7.1061136445534907761e-6, False),
    (20.0, 20.0, 20.6, 2.0, 0.000088744610474237849942, False),
    (20.0, 20.0, 30.6, 2.0, 9.0423364534976356984e-7, False),
    (40.0, 20.0, 10.6, 2.0, 0.0071551924690075526501, False),
    (40.0, 20.0, 20.6, 2.0, 0.000084707614737370459232, False),
    (40.0, 20.0, 30.6, 2.0, 8.6229141657269115868e-7, False),
    (40.0, 40.0, 10.6, 2.0, 0.0069021587996222828376, False),
    (40.0, 40.0, 10.6, 5.0, 4.7808830651670807865e-6, False),
    (20.0, 10.0, 10.9, 5.0, 7.6323176324357187607e-6, False),
)


@pytest.mark.parametrize("method", ["auto", "closed_form"])
@pytest.mark.parametrize("mu, m, snr_db, a, exact, series", J_REF)
def test_error_estimate_bounds_the_oracle_error(mu, m, snr_db, a, exact, series, method):
    p = ChannelParams(mu=mu, m=m, gamma_bar=10.0 ** (snr_db / 10.0), **HIGH_MULT)
    result = er_auto(ErRequest(params=p, a_exponent=a, method=method))
    assert result.method_used == "closed_form"
    assert (result.series is not None) == series
    j = result.expectation_j
    assert abs(j - exact) <= result.error_estimate * j
