"""MGF of the instantaneous SNR, Laplace convention M(s) = E[exp(-s*gamma)].

Evaluation is done in log space and kept purely real: the two root factors
combine into the quadratic ``1 - beta*g*s + alpha1*(g*s)**2`` (Vieta), whose
value is >= 1 for s >= 0.  The non-fluctuating limit m = inf is evaluated
exactly, as the limit of the physical form of the LoS factor.
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
    """log M(s) for scalar or ndarray s >= 0.

    log M(s) = e*[log1p(eta*g*s/O) + log1p(g*s/O)] - m*log1p(-beta*g*s + alpha1*(g*s)^2)
    with e = m - mu/2; the e = 0 degeneracy (common for the even-cluster,
    unit-shadowing grid) skips the first bracket entirely so 0*log stays 0.
    At m = inf the LoS factor -m*log1p(u/m) of the physical form tends to -u:
    log M(s) = -(mu/2)[log1p(eta*g*s/O) + log1p(g*s/O)] - u, with
    u = kappa*g*s*(rho2/(1 + eta*g*s/O) + 1/(1 + g*s/O)) / ((1+kappa)(1+rho2)).
    """
    g = params.gamma_bar
    gs = g * np.asarray(s, dtype=float)
    if math.isinf(params.m):
        x = gs / params.omega_cap
        u = (params.kappa * gs * (params.rho2 / (1.0 + params.eta * x) + 1.0 / (1.0 + x))
             / ((1.0 + params.kappa) * (1.0 + params.rho2)))
        return -0.5 * params.mu * (np.log1p(params.eta * x) + np.log1p(x)) - u
    out = -params.m * np.log1p(-params.beta * gs + params.alpha1 * gs * gs)
    e = params.m - params.mu / 2.0
    if e != 0.0:
        omega = params.omega_cap
        out = out + e * (np.log1p(params.eta * gs / omega) + np.log1p(gs / omega))
    return out


def mgf(params: ChannelParams, s: float) -> MgfPoint:
    """Evaluate the SNR MGF at a single real argument s >= 0 (M(inf) = 0)."""
    if not s >= 0:  # also rejects NaN
        raise ParameterError(f"transform argument must be >= 0, got {s!r}")
    lv = float(log_mgf(params, s))
    return MgfPoint(s=float(s), value=math.exp(lv), log_value=lv)
