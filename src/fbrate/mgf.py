"""MGF of the instantaneous SNR, Laplace convention M(s) = E[exp(-s*gamma)].

One physical formula for every m, evaluated in log space and kept purely
real: a Beckmann MGF whose LoS power fluctuates as a gamma variate,

    log M(s) = -(mu/2)[log1p(eta*x) + log1p(x)] - m*log1p(u/m),

with x = gamma_bar*s/omega and the bounded LoS term
u = (q^2/2) x (rho2/(1 + eta*x) + 1/(1 + x)), q^2 = kappa mu (1+eta)/(1+rho2).
Nothing of size m cancels, so large m loses no digits, and the non-fluctuating
limit m = inf is the LoS factor's exact limit -u.  The quadratic coefficients
``alpha1``/``beta`` and roots ``c1``/``c2`` of :class:`ChannelParams` serve
the partial fractions, not this formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import ChannelParams


@dataclass(frozen=True)
class MgfPoint:
    """MGF sample at one transform argument: value = exp(log_value) in (0, 1]."""

    s: float
    value: float
    log_value: float


def log_mgf(params: ChannelParams, s):
    """log M(s) for finite scalar or ndarray s >= 0, by the formula above."""
    mu, m, kappa, eta, rho2 = params.shape
    x = params.gamma_bar / params.omega_cap * np.asarray(s, dtype=float)
    ex = eta * x
    xw = x * (rho2 / (1.0 + ex) + 1.0 / (1.0 + x))  # u = (q^2/2) xw
    half_q2 = kappa * mu * (1.0 + eta) / (2.0 * (1.0 + rho2))
    scatter = -0.5 * mu * (np.log1p(ex) + np.log1p(x))
    if math.isinf(m):
        return scatter - half_q2 * xw
    return scatter - m * np.log1p(half_q2 / m * xw)


def mgf(params: ChannelParams, s: float) -> MgfPoint:
    """Evaluate the SNR MGF at a single real argument s >= 0 (M(inf) = 0)."""
    if not s >= 0:  # also rejects NaN
        raise ParameterError(f"transform argument must be >= 0, got {s!r}")
    if s == math.inf:  # the scatter factors vanish there and u stays bounded
        return MgfPoint(s=math.inf, value=0.0, log_value=-math.inf)
    lv = float(log_mgf(params, s))
    return MgfPoint(s=float(s), value=math.exp(lv), log_value=lv)
