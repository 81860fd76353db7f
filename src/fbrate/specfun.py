"""Special functions and quadrature rules backing the rate computation.

Provides log-gamma, the Tricomi confluent hypergeometric function U(a; b; z)
for positive integer a, and generalized Gauss-Laguerre rules (weight
``s**alpha * exp(-s)`` on [0, inf)).
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError

ln_gamma = math.lgamma  # C library lgamma: relative error well under 1e-14 for x > 0


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for integrating f(s) * s**alpha * exp(-s) over [0, inf).

    ``weights`` carry the full weight-function mass (they sum to
    Gamma(alpha + 1)); ``normalized_weights`` sum to one and are what the
    rate pipeline uses so that large alpha never overflows.
    """

    order: int
    alpha_exponent: float
    nodes: np.ndarray
    weights: np.ndarray
    normalized_weights: np.ndarray

    def integrate(self, f) -> float:
        """Integral of f against the full weight s**alpha * exp(-s)."""
        return float(np.sum(self.weights * f(self.nodes)))


_RULE_CACHE: dict[tuple[int, float], QuadratureRule] = {}
_RULE_LOCK = threading.Lock()


def gauss_laguerre(order: int, alpha: float) -> QuadratureRule:
    """Generalized Gauss-Laguerre rule (Golub-Welsch with Newton refinement).

    For moderate alpha the nodes and weights come from the classical
    Jacobi-matrix eigenproblem with Newton polishing (scipy's generalized
    Laguerre roots); for alpha large enough that Gamma(alpha + 1) is not
    representable, the symmetric tridiagonal eigen-decomposition is used
    directly and only unit-mass weights are kept finite.  Rules are cached
    (thread-safe) since the rate engine requests the same (order, alpha)
    ladder repeatedly.
    """
    if not 1 <= order <= 512:
        raise ValueError(f"order must be in [1, 512], got {order!r}")
    if not alpha > -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha!r}")

    key = (int(order), float(alpha))
    with _RULE_LOCK:
        rule = _RULE_CACHE.get(key)
    if rule is not None:
        return rule

    log_mass = ln_gamma(alpha + 1.0)
    if alpha <= 150.0:
        from scipy.special import roots_genlaguerre

        nodes, weights = roots_genlaguerre(order, alpha)
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        normalized = weights / weights.sum()
    else:
        # weights would overflow; build unit-mass weights from the squared
        # first eigenvector components of the Jacobi matrix
        k = np.arange(order, dtype=float)
        diag = 2.0 * k + alpha + 1.0
        off = np.sqrt(k[1:] * (k[1:] + alpha))
        try:
            nodes, vecs = eigh_tridiagonal(diag, off)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise ConvergenceError(
                f"node finding failed for order={order}, alpha={alpha}") from exc
        normalized = vecs[0] ** 2
        normalized = normalized / normalized.sum()
        weights = normalized * (math.exp(log_mass) if log_mass < 709.0 else math.inf)

    nodes.setflags(write=False)
    weights.setflags(write=False)
    normalized.setflags(write=False)
    rule = QuadratureRule(order=int(order), alpha_exponent=float(alpha),
                          nodes=nodes, weights=weights, normalized_weights=normalized)
    with _RULE_LOCK:
        _RULE_CACHE.setdefault(key, rule)
    return rule


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
