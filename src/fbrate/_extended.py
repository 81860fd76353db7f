"""Extended-precision closed form for ill-conditioned corners.

At high mean SNR with a large QoS exponent, or at high pole multiplicity, the
partial-fraction terms of the expectation sum cancel down by many orders of
magnitude (the residues encode the vanishing of the density and its
derivatives at zero), so no double-precision evaluation of the sum can reach
the cross-engine target no matter how accurately each Tricomi-U value is
computed.  This module reruns the whole route over ``mpmath.mpf``: the derived
constants, the pole and residue code of the double-precision path (written
over any scalar type) and, per pole, one U family from the certified
recurrence :func:`specfun._forward`.  The working precision climbs the
``specfun._EXTENDED_DPS`` ladder until the sum's error estimate certifies it.
"""

from __future__ import annotations

import mpmath as mp

from . import specfun
from .errors import ConvergenceError
from .model import ChannelParams, channel_constants
from .poles import partial_fractions, pole_exponents, pole_structure
from .rate import U_SUM_TOL


def _term_sum(params: ChannelParams, a_exponent: float):
    """(sum A_ij W_ij, its error estimate) at the current mpmath precision.

    The estimate adds the U share, sum |A_ij| err(W_ij) from the bounds
    :func:`specfun._forward` reports, and the residue share,
    n eps sum E_ij W_ij, where E_ij >= |A_ij| is the residue recursion's
    envelope and n the total pole multiplicity.
    """
    eps = mp.eps
    eta = mp.mpf(params.eta)
    omega, _, _, _, c1, c2 = channel_constants(
        mp.mpf(params.mu), mp.mpf(params.m), mp.mpf(params.kappa), eta,
        mp.mpf(params.rho2), lib=mp)
    expansion = partial_fractions(pole_structure(
        c1, c2, omega, eta, *pole_exponents(params)))

    gbar = mp.mpf(params.gamma_bar)
    a_exp = mp.mpf(a_exponent)
    total = u_share = envelope = mp.mpf(0)
    n_total = 0
    for (theta, mult, coeffs), majorants in zip(expansion.terms, expansion.majorants):
        n_total += mult
        n = max((j for j, a_ij in enumerate(coeffs, start=1) if a_ij), default=0)
        if n == 0:
            continue
        values, bounds, _ = specfun._forward(a_exp, theta / gbar, n, eps / 2, mp)
        for a_ij, e_ij, w_j, err_j in zip(coeffs, majorants, values, bounds):
            total += a_ij * w_j
            u_share += abs(a_ij) * err_j
            envelope += e_ij * w_j
    return total, u_share + n_total * eps * envelope


def expectation_closed_form_mp(params: ChannelParams,
                               a_exponent: float) -> tuple[float, int]:
    """(J, digits used): J = E[(1+gamma)^-A] by the residue route over mpf.

    Shares the pole merging (same tolerance, same zero-LoS shortcut) and the
    residue recursion with the double-precision pipeline; callers are
    expected to have checked the closed-form regime already.  Each rung of
    ``specfun._EXTENDED_DPS`` reruns the sum from the parameters, and the
    first whose J is positive with an error estimate within ``U_SUM_TOL`` of
    J is returned.  The U share of that estimate is a bound; the residue
    share is a calibrated gate, not a proof: it charges the envelope one unit
    roundoff per unit of pole multiplicity.  Raises
    :class:`ConvergenceError` past the last rung.
    """
    for dps in specfun._EXTENDED_DPS:
        with mp.workdps(dps):
            value, error = _term_sum(params, a_exponent)
            if value > 0 and error <= U_SUM_TOL * value:
                return float(value), dps
    achieved = float(error / value) if value > 0 else float("inf")
    raise ConvergenceError(
        f"extended-precision U sum for A={a_exponent}, params={params} "
        f"uncertified after {dps} digits: error estimate {achieved:.1e} of J "
        f"(target {U_SUM_TOL:.0e})", achieved=achieved)
