"""Channel parameters, derived constants, and named special-case presets.

The fading model is parameterized by five shape parameters plus the mean SNR:

* ``mu``      -- number of multipath clusters (real-valued extension allowed),
* ``m``       -- severity of the gamma fluctuation of the LoS power
  (``math.inf`` is the exact non-fluctuating limit),
* ``kappa``   -- total LoS power over total scattered power,
* ``eta``     -- in-phase over quadrature scattered variance ratio,
* ``rho2``    -- in-phase over quadrature LoS power ratio,
* ``gamma_bar`` -- mean SNR on a linear scale.

Everything the MGF needs beyond the raw parameters (the power normalization
``omega_cap``, the quadratic coefficients ``alpha1``/``beta`` and its roots
``c1``/``c2``) is computed once by :func:`channel_constants`, in real
arithmetic, and carried around in an immutable :class:`DerivedParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

@dataclass(frozen=True)
class ChannelParams:
    """The five fading shape parameters plus the average SNR (linear)."""

    mu: float
    m: float
    kappa: float
    eta: float
    rho2: float
    gamma_bar: float = 1.0


@dataclass(frozen=True)
class DerivedParams:
    """Constants derived from :class:`ChannelParams` for MGF evaluation.

    ``c1`` and ``c2`` are the roots of ``alpha1 * z**2 + beta * z + 1``,
    ordered so that ``c1 >= c2 > 0``.  The discriminant ``beta**2 - 4*alpha1``
    is a sum of squares (see :func:`channel_constants`), so both roots are
    real and positive for every valid parameter set.
    """

    omega_cap: float
    alpha1: float
    beta: float
    c1: float
    c2: float
    exponent_e: float  # m - mu/2, shared exponent of the two omega factors


def validate(params: ChannelParams) -> None:
    """Raise :class:`ParameterError` naming the first offending field.

    ``m = math.inf`` is accepted as the exact no-fluctuation limit; every
    other field must be finite and inside its range.
    """
    def _finite(name, value):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")

    _finite("mu", params.mu)
    if params.mu <= 0:
        raise ParameterError(f"mu out of range: must be > 0, got {params.mu!r}")
    if not (params.m == math.inf or math.isfinite(params.m)):
        raise ParameterError(f"m must be finite or +inf, got {params.m!r}")
    if params.m <= 0:
        raise ParameterError(f"m out of range: must be > 0, got {params.m!r}")
    _finite("kappa", params.kappa)
    if params.kappa < 0:
        raise ParameterError(f"kappa out of range: must be >= 0, got {params.kappa!r}")
    _finite("eta", params.eta)
    if params.eta <= 0:
        raise ParameterError(f"eta out of range: must be > 0, got {params.eta!r}")
    _finite("rho2", params.rho2)
    if params.rho2 < 0:
        raise ParameterError(f"rho2 out of range: must be >= 0, got {params.rho2!r}")
    _finite("gamma_bar", params.gamma_bar)
    if params.gamma_bar <= 0:
        raise ParameterError(
            f"gamma_bar out of range: must be > 0, got {params.gamma_bar!r}")


def channel_constants(mu, m, kappa, eta, rho2):
    """(omega, alpha1, beta, sqrt(beta**2 - 4*alpha1), c1, c2).

    With the physical LoS powers q^2 = kappa mu (1+eta)/(1+rho2) and
    p^2 = rho2 q^2 the discriminant is the sum of squares
    [(2(eta-1) + (p^2-q^2)/m)^2 + 4 p^2 q^2/m^2] / (2 omega)^2: it never goes
    negative and is exactly 0 at the double root kappa = 0, eta = 1.  The larger root comes from the non-cancelling branch
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
    return omega, alpha1, beta, root_disc, root_q / alpha1, 1 / root_q


def derive(params: ChannelParams) -> DerivedParams:
    """Validate the parameters and compute the MGF constants (m = inf included)."""
    validate(params)
    omega, alpha1, beta, _, c1, c2 = channel_constants(
        params.mu, params.m, params.kappa, params.eta, params.rho2)
    return DerivedParams(
        omega_cap=omega,
        alpha1=alpha1,
        beta=beta,
        c1=c1,
        c2=c2,
        exponent_e=params.m - params.mu / 2.0,
    )


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

    params = ChannelParams(**fields)
    validate(params)
    return params
