"""The gamma-mixture series: J where the partial-fraction sum cancels.

Over its merged first-order factors (``poles.mgf_factors``) the MGF is
M(s) = prod_k (1 + g*s/theta_k)^(-e_k), sum_k e_k = mu, numerator factors
with e_k < 0.  With z = max theta_k/g, rho_k = 1 - theta_k/(g z) and
u = z/(z+s), M = u^mu w_0 prod_k (1 - rho_k u)^(-e_k) = sum_n w_n u^(mu+n),
and u^(mu+n) is the MGF of Gamma(mu+n, rate z), so J = sum_n w_n W_(mu+n)(z)
with sum_n w_n = 1 and W_j from :func:`specfun.u_terms`.  This is
Moschopoulos's series for a sum of gammas (Ann. Inst. Statist. Math. 37
(1985) 541-544), the Poisson-Gamma form of the cluster model.  The weights
obey n w_n = sum_r c_r w_(n-r) with c_r = sum_k e_k rho_k^r; when every
c_r >= 0 every w_n >= 0, so J is a convex combination that cannot cancel
(unlike the partial-fraction terms, by up to ~1e76) and its bound is a proof.
Only z depends on g: theta_max, mu, the length L, the c_r and the weights
are memoised per channel shape, like ``poles.decompose``'s expansion, the
weights only as far as some call has summed them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import ConvergenceError
from .model import ChannelParams
from .poles import mgf_factors
from .specfun import u_terms

_MAX_TERMS = 1 << 14  # longest series tried
_EPS = 2.0**-52

#: Largest share of J that the certified U errors of the partial-fraction
#: sum, sum_ij |A_ij| err(W_ij), may reach before J is handed to the series
#: (each U term is certified to ``specfun._U_TOL`` = 1e-10).  Also the bound
#: the series meets, and the error estimate reported for a partial-fraction value.
U_SUM_TOL = 1e-9


@dataclass
class _ShapeSeries:
    """The series' setup for one channel shape, memoised by :func:`_shape_series`.

    ``c_rev`` is c_(L-1)..c_0 for n w_n = sum_r c_r w_(n-r); ``prefix`` is
    (buffer, count), w_0..w_(count-1) in ``buffer[:count]``, replaced in one
    step so that concurrent calls at worst compute a weight twice.
    """

    theta_max: float
    mu: int
    n_terms: int
    c_min: float
    c_rev: np.ndarray
    prefix: tuple[np.ndarray, int]


@lru_cache(maxsize=256)
def _shape_series(mu, m, kappa, eta, rho2) -> _ShapeSeries:
    theta, e = np.array(mgf_factors(ChannelParams(mu, m, kappa, eta, rho2)), dtype=float).T
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
    return _ShapeSeries(theta_max=theta_max, mu=int(round(e.sum())), n_terms=n_terms,
                        c_min=float(c.min()), c_rev=c[::-1].copy(),
                        prefix=(np.array([math.exp(log_w0)]), 1))


def mixture_series(params: ChannelParams, a_exponent: float) -> tuple[float, float, int]:
    """(J, error bound, terms used) from the gamma-mixture series.

    Sums w_n W_(mu+n) until the tail, at most (1 - sum w_n) W_(mu+L) after L
    terms as W_j decreases in j, is under 1e-3 ``U_SUM_TOL`` of J, reading
    U terms certified to ``U_SUM_TOL``/2 from :func:`specfun.u_terms` only
    that far.  They are placed for as many terms as the Chernoff bound
    sum_(n>=L) w_n <= G(u) u^-L, 1 < u < 1/max rho_k, on the weights'
    generating function G asks for.  The bound adds sum w_n err(W_(mu+n)),
    the tail and (2L+4) eps of J for rounding, which sums of positive terms
    average instead of amplifying.  Raises :class:`ConvergenceError` if some
    c_r < 0, the tail stays too large within ``_MAX_TERMS`` terms, the value
    is not > 0 (every term underflowed) or its bound is not finite.
    """
    series = _shape_series(*params.shape)
    if series.c_min < 0.0:
        raise ConvergenceError(
            f"gamma-mixture series for A={a_exponent}, params={params}: a power "
            f"sum c_r is {series.c_min:.3e} < 0, so the weights may cancel", achieved=math.inf)
    n_terms, c_rev = series.n_terms, series.c_rev
    buffer, count = series.prefix
    weights = buffer[:count].tolist()
    terms = islice(u_terms(a_exponent, series.theta_max / params.gamma_bar,
                           series.mu + n_terms, U_SUM_TOL / 2), series.mu - 1, None)
    term, term_err, _ = next(terms)  # W_(mu+n) and its bound
    value = u_error = mass = 0.0
    for n in range(n_terms):
        if n == len(weights):
            if n == len(buffer):
                buffer = np.concatenate((buffer, np.empty(min(n, n_terms - n))))
            buffer[n] = np.dot(buffer[:n], c_rev[n_terms - 1 - n:n_terms - 1]) / n
            weights.append(buffer[n].item())
            series.prefix = (buffer, n + 1)
        w = weights[n]
        value += w * term
        u_error += w * term_err
        mass += w
        term, term_err, _ = next(terms)
        tail = max(0.0, 1.0 - mass) * term
        if tail <= 1e-3 * U_SUM_TOL * value:
            bound = u_error + tail + (2 * n + 6) * _EPS * value
            if not (value > 0.0 and math.isfinite(value + bound)):
                raise ConvergenceError(
                    f"gamma-mixture series for A={a_exponent}, params={params}: "
                    f"value {value!r}, bound {bound!r} after {n + 1} terms",
                    achieved=math.inf)
            return value, bound, n + 1
    achieved = tail / value if value > 0 else math.inf
    raise ConvergenceError(
        f"gamma-mixture series for A={a_exponent}, params={params}: tail "
        f"{achieved:.1e} of J after {n_terms} terms", achieved=achieved)
