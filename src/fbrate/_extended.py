"""The gamma-mixture series: J where the partial-fraction sum cancels.

Over its merged first-order factors (``poles.mgf_factors``) the MGF is
M(s) = prod_k (1 + g*s/theta_k)^(-e_k), sum_k e_k = mu, numerator factors
with e_k < 0.  With z = max theta_k/g, rho_k = 1 - theta_k/(g z) and
u = z/(z+s), M = u^mu w_0 prod_k (1 - rho_k u)^(-e_k) = sum_n w_n u^(mu+n),
and u^(mu+n) is the MGF of Gamma(mu+n, rate z), so J = sum_n w_n W_(mu+n)(z)
with sum_n w_n = 1 and W_j from :func:`specfun.u_family`.  This is
Moschopoulos's series for a sum of gammas (Ann. Inst. Statist. Math. 37
(1985) 541-544), the Poisson-Gamma form of the cluster model.  The weights
obey n w_n = sum_r c_r w_(n-r) with c_r = sum_k e_k rho_k^r; when every
c_r >= 0 every w_n >= 0, so J is a convex combination that cannot cancel
(unlike the partial-fraction terms, by up to ~1e76) and its bound is a proof.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .model import ChannelParams
from .poles import mgf_factors, power_series
from .specfun import u_family

_MAX_TERMS = 1 << 14  # longest series tried
_EPS = 2.0**-52

#: Largest share of J that the certified U errors of the partial-fraction
#: sum, sum_ij |A_ij| err(W_ij), may reach before J is handed to the series
#: (each U term is certified to ``specfun._U_TOL`` = 1e-10).  Also the bound
#: the series meets, and the error estimate reported for a closed-form value.
U_SUM_TOL = 1e-9


def mixture_series(params: ChannelParams, a_exponent: float) -> tuple[float, float, int]:
    """(J, error bound, terms used) from the gamma-mixture series.

    Sums w_n W_(mu+n) until the tail, at most (1 - sum w_n) W_(mu+L) after L
    terms as W_j decreases in j, is under 1e-3 ``U_SUM_TOL`` of J.  One U
    family, certified to ``U_SUM_TOL``/2, is long enough by the Chernoff bound
    sum_(n>=L) w_n <= G(u) u^-L, 1 < u < 1/max rho_k, on the weights'
    generating function G.  The bound adds sum w_n err(W_(mu+n)), the tail
    and (2L+4) eps of J for rounding, which sums of positive terms average
    instead of amplifying.  Raises :class:`ConvergenceError` if some c_r < 0,
    the tail stays too large within ``_MAX_TERMS`` terms, or the value or its
    bound is not finite.
    """
    theta, e = np.array(mgf_factors(params), dtype=float).T
    mu = int(round(e.sum()))
    theta_max = float(theta.max())
    rho = (theta_max - theta) / theta_max  # no 1 - ratio cancellation
    log_w0 = float(e @ np.log(theta / theta_max))
    n_terms = 1
    if rho.max() > 0.0:
        # weights past L under 5e-4 U_SUM_TOL keep the tail under 1e-3 U_SUM_TOL of J
        u = 1.0 + (1.0 / rho.max() - 1.0) * np.linspace(0.05, 0.95, 19)
        log_g = log_w0 - e @ np.log1p(-np.outer(rho, u))
        n_terms = int(min(np.ceil((log_g - math.log(5e-4 * U_SUM_TOL)) / np.log(u)).min(),
                          _MAX_TERMS))
    c = e @ rho[:, None] ** np.arange(n_terms)
    c[0] = 0.0
    if c.min() < 0.0:
        raise ConvergenceError(
            f"gamma-mixture series for A={a_exponent}, params={params}: a power "
            f"sum c_r is {c.min():.3e} < 0, so the weights may cancel", achieved=math.inf)
    family = u_family(a_exponent, theta_max / params.gamma_bar, mu + n_terms, U_SUM_TOL / 2)
    values, bounds = family.values[mu - 1:], family.bounds[mu - 1:]
    value = u_error = mass = 0.0
    for n, w in enumerate(power_series(math.exp(log_w0), c)):
        value += w * values[n]
        u_error += w * bounds[n]
        mass += w
        tail = max(0.0, 1.0 - mass) * values[n + 1]
        if tail <= 1e-3 * U_SUM_TOL * value:
            bound = u_error + tail + (2 * n + 6) * _EPS * value
            if not math.isfinite(value + bound):
                raise ConvergenceError(
                    f"gamma-mixture series for A={a_exponent}, params={params}: "
                    f"value {value!r}, bound {bound!r} after {n + 1} terms",
                    achieved=math.inf)
            return value, bound, n + 1
    achieved = tail / value if value > 0 else math.inf
    raise ConvergenceError(
        f"gamma-mixture series for A={a_exponent}, params={params}: tail "
        f"{achieved:.1e} of J after {n_terms} terms", achieved=achieved)
