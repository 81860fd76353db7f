"""Effective rate of the fluctuating Beckmann fading channel.

Three mutually cross-validating routes to J = E[(1+gamma)^-A] and the
normalized rate R = -log2(J)/A: MGF quadrature, an exact partial-fraction
closed form via the Tricomi U function, and Monte-Carlo simulation of the
physical cluster channel.
"""

from .errors import (ClosedFormUnavailableError, ConvergenceError, FbrateError,
                     ParameterError)
from .mc import McConfig, McEstimate, estimate_er
from .model import ChannelParams, PRESET_NAMES, log_mgf, mgf, preset
from .poles import PartialFractionExpansion, decompose, pdf
from .rate import (ErRequest, ErResult, closed_form_applies, effective_rate,
                   er_auto, er_sweep, quadrature_sweep)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "PartialFractionExpansion", "ErRequest", "ErResult",
    "McConfig", "McEstimate",
    "preset", "PRESET_NAMES", "mgf", "log_mgf",
    "decompose", "pdf",
    "effective_rate", "quadrature_sweep", "er_auto", "er_sweep", "closed_form_applies",
    "estimate_er",
    "FbrateError", "ParameterError", "ClosedFormUnavailableError",
    "ConvergenceError",
]
