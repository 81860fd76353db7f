"""Effective rate of the fluctuating Beckmann fading channel.

Three mutually cross-validating routes to J = E[(1+gamma)^-A] and the
normalized rate R = -log2(J)/A: MGF quadrature, an exact partial-fraction
closed form via the Tricomi U function, and Monte-Carlo simulation of the
physical cluster channel.
"""

from .errors import (ClosedFormUnavailableError, ConvergenceError, FbrateError,
                     ParameterError)
from .mc import McConfig, McEstimate, estimate_er
from .mgf import MgfPoint, log_mgf, mgf
from .model import ChannelParams, DerivedParams, PRESET_NAMES, derive, preset, validate
from .poles import PartialFractionExpansion, decompose, pdf
from .rate import (ErRequest, ErResult, closed_form_applies, effective_rate,
                   er_auto, expectation_closed_form, expectation_quadrature)
from .specfun import ln_gamma

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "DerivedParams", "MgfPoint",
    "PartialFractionExpansion", "ErRequest", "ErResult",
    "McConfig", "McEstimate",
    "validate", "derive", "preset", "PRESET_NAMES", "mgf", "log_mgf",
    "decompose", "pdf", "ln_gamma",
    "effective_rate", "expectation_quadrature", "expectation_closed_form",
    "er_auto", "closed_form_applies",
    "estimate_er",
    "FbrateError", "ParameterError", "ClosedFormUnavailableError",
    "ConvergenceError",
]
