"""Extended-precision closed-form evaluation for ill-conditioned corners.

At high mean SNR with a large QoS exponent the partial-fraction terms of the
expectation sum cancel down by many orders of magnitude (the residues encode
the vanishing of the density and its derivatives at zero), so no double
precision evaluation of the sum can reach the cross-engine target no matter
how accurately each Tricomi-U value is computed.  This module recomputes the
derived constants in mpmath and runs them through the same constant, pole and
residue code as the double-precision path (it is written over any scalar
type), and sums the terms with U from ``mpmath.hyperu``, all at 30 digits.
"""

from __future__ import annotations

import mpmath as mp

from .errors import ConvergenceError
from .model import ChannelParams, channel_constants
from .poles import partial_fractions, pole_exponents, pole_structure

#: Working precision: enough to absorb the worst observed conditioning
#: (~1e12 on the validation grids) with double-target digits to spare.
_DPS = 30


def expectation_closed_form_mp(params: ChannelParams, a_exponent: float) -> float:
    """J = E[(1+gamma)^-A] through the residue route, in working precision.

    Shares the pole merging (same tolerance, same zero-LoS shortcut) and the
    residue recursion with the double-precision pipeline; callers are
    expected to have checked the closed-form regime already.  Raises
    :class:`ConvergenceError` when an mpmath U evaluation does not converge.
    """
    with mp.workdps(_DPS):
        eta = mp.mpf(params.eta)
        omega, _, _, _, c1, c2 = channel_constants(
            mp.mpf(params.mu), mp.mpf(params.m), mp.mpf(params.kappa), eta,
            mp.mpf(params.rho2), lib=mp)
        expansion = partial_fractions(pole_structure(
            c1, c2, omega, eta, *pole_exponents(params)))

        gbar = mp.mpf(params.gamma_bar)
        a_exp = mp.mpf(a_exponent)
        total = mp.mpf(0)
        try:
            for theta, _, coeffs in expansion.terms:
                z = theta / gbar
                for j, a_ij in enumerate(coeffs, start=1):
                    if a_ij:
                        total += a_ij * z**j * mp.hyperu(j, j - a_exp + 1, z)
        except mp.libmp.NoConvergence as exc:
            raise ConvergenceError(
                f"extended-precision U did not converge for A={a_exponent}, "
                f"params={params}: {exc}") from exc
        return float(total)
