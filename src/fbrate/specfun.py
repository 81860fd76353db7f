"""Special functions backing the rate computation.

Provides log-gamma and the Tricomi confluent hypergeometric function
U(a; b; z) for positive integer a.
"""

from __future__ import annotations

import math
import warnings

from scipy.integrate import quad

from .errors import ConvergenceError

ln_gamma = math.lgamma  # C library lgamma: relative error well under 1e-14 for x > 0


# --- Tricomi U for positive integer first argument ---------------------------

_U_TOL = 1e-10  # one order tighter than the 1e-8 rate-pipeline budget... see tests
_EXP_UNDERFLOW = 700.0


def _u_asymptotic(a: int, b: float, z: float, tol: float):
    """Large-z expansion U ~ z**-a * sum_k (-1)^k (a)_k (a-b+1)_k / (k! z^k).

    Returns None unless the (divergent) series reaches ``tol`` before its
    terms start growing; the truncation error is bounded by the first
    omitted term for these real parameter ranges.
    """
    term = 1.0
    total = 1.0
    prev = 1.0
    for k in range(60):
        term *= -(a + k) * (a - b + 1.0 + k) / ((k + 1.0) * z)
        if abs(term) >= prev:
            return None
        total += term
        prev = abs(term)
        if abs(term) <= tol * abs(total):
            return total * z**-a
    return None


def tricomi_u_int_a(a: int, b: float, z: float, rel_tol: float = _U_TOL) -> float:
    """U(a; b; z) for integer a >= 1, real b, z > 0.

    Uses the defining Laplace-type integral
        U(a; b; z) = (1/Gamma(a)) * int_0^inf t**(a-1) (1+t)**(b-a-1) e**(-z t) dt
    split at t = 1 with the tail mapped onto (0, 1] by t -> 1/u, each half
    handled by adaptive quadrature; for large z an asymptotic expansion is
    used instead when it reaches the target first.  Raises
    :class:`ConvergenceError` carrying the achieved error estimate if the
    target accuracy cannot be certified.
    """
    if a < 1 or a != int(a):
        raise ValueError(f"first argument must be a positive integer, got {a!r}")
    if z <= 0:
        raise ValueError(f"z must be > 0, got {z!r}")
    a = int(a)

    approx = _u_asymptotic(a, b, z, min(rel_tol * 1e-2, 1e-14))
    if approx is not None:
        return approx

    c = b - a - 1.0  # power of (1+t); <= -1 in the rate pipeline's usage

    def head(t):
        return t ** (a - 1) * (1.0 + t) ** c * math.exp(-z * t)

    def tail(u):
        # t = 1/u:  u**-b happens first only when e^{-z/u} cannot underflow it
        zu = z / u
        if zu > _EXP_UNDERFLOW:
            return 0.0
        return u ** (-b) * (1.0 + u) ** c * math.exp(-zu)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v1, e1 = quad(head, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=250)
        v2, e2 = quad(tail, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=250)
    total = v1 + v2
    err = e1 + e2
    if not (err <= rel_tol * abs(total)) or not math.isfinite(total):
        raise ConvergenceError(
            f"U({a}; {b}; {z}) quadrature achieved {err:.2e} (abs) on value {total:.6e}, "
            f"target {rel_tol:.1e} relative", achieved=err)
    return total / math.gamma(a)
