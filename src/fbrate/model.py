"""The channel: its parameters, the constants they fix, and its MGF.

The fading model is parameterized by five shape parameters plus the mean SNR:

* ``mu``      -- number of multipath clusters (real-valued extension allowed),
* ``m``       -- severity of the gamma fluctuation of the LoS power
  (``math.inf`` is the exact non-fluctuating limit),
* ``kappa``   -- total LoS power over total scattered power,
* ``eta``     -- in-phase over quadrature scattered variance ratio,
* ``rho2``    -- in-phase over quadrature LoS power ratio,
* ``gamma_bar`` -- mean SNR on a linear scale.

Constructing a :class:`ChannelParams` (directly, through :func:`preset` or
through ``dataclasses.replace``) validates every field and computes, once, by
:func:`channel_constants`, in real arithmetic: the power normalization
``omega_cap``, the LoS power ``q2`` of the quadrature branch, and the poles
``c1``/``c2`` of the LoS factor, which the partial fractions expand about.

The MGF of the instantaneous SNR, Laplace convention M(s) = E[exp(-s*gamma)],
is one physical formula for every m, evaluated in log space and kept purely
real: a Beckmann MGF whose LoS power fluctuates as a gamma variate,

    log M(s) = -(mu/2)[log1p(eta*x) + log1p(x)] - m*log1p(u/m),

with x = gamma_bar*s/omega and the bounded LoS term
u = (q^2/2) x (rho2/(1 + eta*x) + 1/(1 + x)), q^2 = kappa mu (1+eta)/(1+rho2).
Nothing of size m cancels, so large m loses no digits, and the non-fluctuating
limit m = inf is the LoS factor's exact limit -u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class ChannelParams:
    """The five fading shape parameters plus the average SNR (linear).

    Construction raises :class:`ParameterError` naming the first offending
    field, or the shape if its MGF constants leave the double range.
    ``m = math.inf`` is the exact no-fluctuation limit; every other field
    must be finite and inside its range.

    ``omega_cap`` is half the mean received power, ``q2`` the LoS power q^2
    of the quadrature branch (p^2 = rho2 q^2 in phase), and ``c1 >= c2 > 0``
    locate the poles of the LoS factor: both are real and positive for every
    valid parameter set (see :func:`channel_constants`), and they are pole
    locations of the partial fractions (:func:`poles.mgf_factors`).  These
    constants follow from the fields, so they take no part in repr, == or hash.
    """

    mu: float
    m: float
    kappa: float
    eta: float
    rho2: float
    gamma_bar: float = 1.0
    omega_cap: float = field(init=False, repr=False, compare=False)
    q2: float = field(init=False, repr=False, compare=False)
    c1: float = field(init=False, repr=False, compare=False)
    c2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, floor in (("mu", "> 0"), ("m", "> 0"), ("kappa", ">= 0"), ("eta", "> 0"),
                            ("rho2", ">= 0"), ("gamma_bar", "> 0")):
            value = getattr(self, name)
            if not (math.isfinite(value) or name == "m" and value == math.inf):
                finite = "finite or +inf" if name == "m" else "finite"
                raise ParameterError(f"{name} must be {finite}, got {value!r}")
            if value < 0 or value == 0 and floor == "> 0":
                raise ParameterError(f"{name} out of range: must be {floor}, got {value!r}")
        try:
            constants = channel_constants(*self.shape)
        except ArithmeticError:  # a float power overflows, or a root divides by 0
            constants = (math.nan,)
        if not all(map(math.isfinite, constants)):
            raise ParameterError(f"shape {self.shape} takes its MGF constants out of range")
        for name, value in zip(("omega_cap", "q2", "c1", "c2"), constants):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[float, float, float, float, float]:
        """(mu, m, kappa, eta, rho2): the channel shape, every field but gamma_bar."""
        return (self.mu, self.m, self.kappa, self.eta, self.rho2)


def _check_a_exponent(a_exponent: float) -> None:
    if not (math.isfinite(a_exponent) and a_exponent > 0):
        raise ParameterError(f"A must be finite and > 0, got {a_exponent!r}")


def channel_constants(mu, m, kappa, eta, rho2):
    """(omega, q^2, c1, c2, alpha1, beta, sqrt(beta**2 - 4*alpha1)).

    c1 and c2 are the roots of alpha1 z^2 + beta z + 1.  :class:`ChannelParams`
    keeps the first four; alpha1, beta and the root of the discriminant are
    intermediates.  With the physical LoS powers q^2 = kappa mu (1+eta)/(1+rho2)
    and p^2 = rho2 q^2 the discriminant is the sum of squares
    [(2(eta-1) + (p^2-q^2)/m)^2 + 4 p^2 q^2/m^2] / (2 omega)^2: it never goes
    negative and is exactly 0 at the double root kappa = 0, eta = 1.  The
    larger root comes from the non-cancelling branch
    (beta < 0 always), the other from the product of roots, 1/alpha1.  Every
    kappa/m term vanishes at m = inf, which is the exact no-fluctuation limit.
    """
    omega = mu * (1 + eta) * (1 + kappa) / 2
    alpha1 = eta / omega**2
    if kappa > 0:
        # kappa = 0 makes this term vanish, leaving rho2 irrelevant (0/0 in
        # its physical definition); any rho2 >= 0 is accepted for that case.
        alpha1 += kappa * (rho2 + eta) / (m * omega * (1 + rho2) * (1 + kappa))
    beta = -(2 / mu + kappa / m) / (1 + kappa)
    q2 = kappa * mu * (1 + eta) / (1 + rho2)
    root_disc = math.hypot(2 * (eta - 1) + (rho2 - 1) * q2 / m,
                           2 * math.sqrt(rho2) * q2 / m) / (2 * omega)
    root_q = (root_disc - beta) / 2
    return omega, q2, root_q / alpha1, 1 / root_q, alpha1, beta, root_disc


@dataclass(frozen=True)
class MgfPoint:
    """MGF sample at one transform argument: value = exp(log_value) in [0, 1]."""

    s: float
    value: float
    log_value: float


def log_mgf(params: ChannelParams, s):
    """log M(s) for scalar or ndarray s >= 0, by the formula above; -inf at s = inf."""
    m, eta, rho2 = params.m, params.eta, params.rho2
    x = params.gamma_bar / params.omega_cap * np.asarray(s, dtype=float)
    scatter = -0.5 * params.mu * (np.log1p(eta * x) + np.log1p(x))
    # u = (q^2/2) xw; the cap leaves every x below it as it is and keeps
    # xw finite at x = inf, where the scatter term alone gives log M = -inf
    x_los = np.minimum(x, 2.0**500)
    xw = x_los * (rho2 / (1.0 + eta * x_los) + 1.0 / (1.0 + x_los))
    if math.isinf(m):
        return scatter - 0.5 * params.q2 * xw
    return scatter - m * np.log1p(0.5 * params.q2 / m * xw)


def mgf(params: ChannelParams, s: float) -> MgfPoint:
    """Evaluate the SNR MGF at a single real argument s >= 0 (M(inf) = 0)."""
    if not s >= 0:  # also rejects NaN
        raise ParameterError(f"transform argument must be >= 0, got {s!r}")
    lv = float(log_mgf(params, s))
    return MgfPoint(s=float(s), value=math.exp(lv), log_value=lv)


# --- named special cases ----------------------------------------------------
#
# Each preset pins the parameters that define the named model; the remaining
# fields are free (with defaults) and may be overridden.  Pinned fields raise
# on conflicting overrides.  Where the LoS power is zero (kappa = 0) both m
# and rho2 drop out of the MGF, and where eta = 1 only the total LoS power
# matters, so rho2 is a don't-care; such fields default to 1/inf but stay
# overridable.  The README records the full table together with the MGF
# reduction each mapping is tested against.

_PRESETS: dict[str, dict] = {
    "rayleigh": {"pinned": {"mu": 1.0, "eta": 1.0, "kappa": 0.0},
                 "free": {"m": math.inf, "rho2": 1.0}},
    "nakagami-m": {"pinned": {"eta": 1.0, "kappa": 0.0},
                   "free": {"mu": 1.0, "m": math.inf, "rho2": 1.0}},
    "rician": {"pinned": {"mu": 1.0, "eta": 1.0, "m": math.inf},
               "free": {"kappa": 1.0, "rho2": 1.0}},
    "kappa-mu": {"pinned": {"eta": 1.0, "m": math.inf},
                 "free": {"kappa": 1.0, "mu": 1.0, "rho2": 1.0}},
    "eta-mu": {"pinned": {"kappa": 0.0},
               "free": {"eta": 0.5, "mu": 1.0, "m": math.inf, "rho2": 1.0}},
    "kappa-mu-shadowed": {"pinned": {"eta": 1.0},
                          "free": {"kappa": 1.0, "mu": 1.0, "m": 1.0, "rho2": 1.0}},
    "beckmann": {"pinned": {"m": math.inf, "mu": 1.0},
                 "free": {"kappa": 1.0, "eta": 1.0, "rho2": 1.0}},
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str, **overrides: float) -> ChannelParams:
    """Build a :class:`ChannelParams` realizing a named special-case model.

    ``overrides`` may set any field that the preset does not pin (always
    including ``gamma_bar``); overriding a pinned field raises
    :class:`ParameterError`.
    """
    try:
        entry = _PRESETS[name]
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}") from None

    fields = dict(entry["pinned"])
    fields.update(entry["free"])
    fields["gamma_bar"] = 1.0
    for key, value in overrides.items():
        if key not in fields:
            raise ParameterError(f"unknown parameter {key!r} for preset {name!r}")
        if key in entry["pinned"] and value != entry["pinned"][key]:
            raise ParameterError(
                f"preset {name!r} pins {key} = {entry['pinned'][key]!r}; "
                f"override {value!r} conflicts with its defining constraint")
        fields[key] = float(value)

    return ChannelParams(**fields)
