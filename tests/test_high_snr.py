"""At high mean SNR, J approaches its leading term for real channel shapes.

For large s the MGF tends to K (gamma_bar s)^-mu with
K = omega^mu eta^(-mu/2) (1 + u_inf/m)^(-m) (e^(-u_inf) at m = inf) and
u_inf = (q^2/2)(rho2/eta + 1), so for A > mu

    J ~ J_lead = K gamma_bar^-mu Gamma(A - mu) / Gamma(A).

From A >= mu + 1 the first correction is a term in 1/gamma_bar, so J/J_lead - 1
falls 100-fold from 60 dB to 80 dB; for mu < A < mu + 1 it falls only as
gamma_bar^-(A - mu), which is why every shape here has A >= mu + 1.5.  The
shapes are ones the partial fractions cannot do: non-integer mu or m, and
m = inf, with LoS moderate enough that 60 dB is deep in the asymptotic regime.

For A < mu the limit is a Mellin integral of the unit-mean-SNR MGF M_1:
J = Gamma(A)^-1 int t^(A-1) e^(-t/gamma_bar) M_1(t) dt, so

    gamma_bar^A J -> E[X^-A] = Gamma(A)^-1 int_0^inf s^(A-1) M_1(s) ds,

computed here by mpmath from the cluster-model MGF, apart from the package.
With A <= mu - 1.5 the first correction is again a term in 1/gamma_bar (the
next, in gamma_bar^-(mu-A), is under 1% of it at 60 dB), so the residual
falls 100-fold from 60 dB to 80 dB.  A = mu, where a log term enters, is left
out.
"""

import itertools
import math
from dataclasses import replace

import mpmath as mp
import pytest

from conftest import cluster_model_log_mgf_mp
from fbrate import ChannelParams
from fbrate.rate import quadrature_sweep

#: (mu, m) of each shape: non-integer mu over four m, then integer mu with
#: non-integer or infinite m
MU_M = (list(itertools.product([0.6, 1.3, 2.5, 3.7], [0.7, 2.0, 4.5, math.inf]))
        + list(itertools.product([2.0, 4.0], [0.7, 2.5, math.inf])))

#: (mu, m, kappa, eta, rho2, A - mu), the other fields cycling over the grid
SHAPES = [(mu, m, (0.0, 0.5, 1.0, 2.0)[i % 4], (0.3, 0.5, 1.0, 2.0, 4.0)[i % 5],
           (0.0, 0.3, 1.0)[i % 3], (1.5, 2.0, 2.5, 3.0)[(i // 4 + i) % 4])
          for i, (mu, m) in enumerate(MU_M)]


def leading_term(params: ChannelParams, a_exponent: float, gamma_bar: float) -> float:
    """K gamma_bar^-mu Gamma(A - mu) / Gamma(A)."""
    u_inf = params.q2 / 2.0 * (params.rho2 / params.eta + 1.0)
    los = math.exp(-u_inf) if math.isinf(params.m) else (1.0 + u_inf / params.m) ** -params.m
    k = params.omega_cap**params.mu * params.eta ** (-params.mu / 2.0) * los
    return (k * gamma_bar**-params.mu
            * math.exp(math.lgamma(a_exponent - params.mu) - math.lgamma(a_exponent)))


@pytest.mark.parametrize("mu, m, kappa, eta, rho2, gap", SHAPES)
def test_residual_falls_as_one_over_gamma_bar(mu, m, kappa, eta, rho2, gap):
    p = ChannelParams(mu=mu, m=m, kappa=kappa, eta=eta, rho2=rho2)
    a = mu + gap
    gamma_bars = [1e6, 1e8]  # 60 and 80 dB
    values, _, _ = quadrature_sweep(p, gamma_bars, a, 1e-12)
    residual = [j / leading_term(p, a, g) - 1.0 for j, g in zip(values.tolist(), gamma_bars)]
    assert residual[0] / residual[1] == pytest.approx(100.0, rel=0.01)


#: (mu, m, kappa, eta, rho2, mu - A): non-integer mu over four m, A from 0.2 up
MELLIN_SHAPES = [(mu, m, (0.0, 0.5, 1.0, 2.0)[i % 4], (0.3, 0.5, 1.0, 2.0, 4.0)[i % 5],
                  (0.0, 0.3, 1.0)[i % 3], min((1.5, 2.0, 2.5)[(i // 4 + i) % 3], mu - 0.2))
                 for i, (mu, m) in enumerate(itertools.product([1.7, 2.5, 3.7, 5.5],
                                                               [0.7, 2.0, 4.5, math.inf]))]


def mellin_limit(params: ChannelParams, a_exponent: float) -> float:
    """Gamma(A)^-1 int_0^inf s^(A-1) M_1(s) ds, by mpmath tanh-sinh in x = ln s."""
    unit = replace(params, gamma_bar=1.0)

    def integrand(x):
        return mp.exp(a_exponent * x + cluster_model_log_mgf_mp(unit, mp.exp(x)))

    return float(mp.quad(integrand, [-mp.inf, -3, 0, 3, mp.inf]) / mp.gamma(a_exponent))


@pytest.mark.parametrize("mu, m, kappa, eta, rho2, gap", MELLIN_SHAPES)
def test_scaled_j_tends_to_the_mellin_integral(mu, m, kappa, eta, rho2, gap):
    p = ChannelParams(mu=mu, m=m, kappa=kappa, eta=eta, rho2=rho2)
    a = mu - gap
    limit = mellin_limit(p, a)
    gamma_bars = [1e6, 1e8]  # 60 and 80 dB
    values, _, _ = quadrature_sweep(p, gamma_bars, a, 1e-12)
    residual = [j * g**a / limit - 1.0 for j, g in zip(values.tolist(), gamma_bars)]
    assert residual[0] / residual[1] == pytest.approx(100.0, rel=0.01)
