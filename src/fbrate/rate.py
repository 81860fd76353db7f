"""Effective rate: J = E[(1+gamma)^-A] and R = -log2(J)/A, by two exact routes.

The quadrature route integrates the MGF against the weight s**(A-1) e**(-s)
with one nested double-exponential rule in log s, centred on the weight's
peak; it resolves the second scale the integrand gains at s ~ 1/gamma_bar at
high SNR and stops at the caller's ``rel_tol``.
The closed-form route expands the rational MGF into partial fractions and
evaluates each distinct pole's Tricomi-U family at once: one exponential
integral and a recurrence, certified term by term.  Both compute the identical
scalar; ``er_auto`` dispatches and cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ClosedFormUnavailableError, ConvergenceError, ParameterError
from .mgf import log_mgf
from .model import ChannelParams, DerivedParams, derive, validate
from .poles import PartialFractionExpansion, decompose, pole_exponents
from .specfun import _U_TOL, ln_gamma, u_family


#: Deepest level of the double-exponential rule (step 2**-(DE_LEVELS+1)).
DE_LEVELS = 10
_HALF_PI = 0.5 * math.pi

#: Largest relative disagreement between the quadrature and closed-form
#: engines that ``auto`` (and the cross-engine validation grid) accepts.
CROSS_REL_TOL = 1e-6

_METHODS = ("auto", "quadrature", "closed_form", "monte_carlo")


@dataclass(frozen=True)
class ErRequest:
    """One effective-rate evaluation: channel, QoS exponent, method, accuracy."""

    params: ChannelParams
    a_exponent: float
    method: str = "auto"
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.a_exponent) and self.a_exponent > 0):
            raise ParameterError(
                f"a_exponent must be finite and > 0, got {self.a_exponent!r}")
        if self.method not in _METHODS:
            raise ParameterError(
                f"method must be one of {_METHODS}, got {self.method!r}")
        if not 1e-12 <= self.rel_tol <= 1e-2:
            raise ParameterError(
                f"rel_tol must lie in [1e-12, 1e-2], got {self.rel_tol!r}")


@dataclass(frozen=True)
class ErResult:
    """Computed expectation and rate, plus how they were obtained."""

    expectation_j: float
    rate: float
    method_used: str
    error_estimate: float
    diagnostics: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def effective_rate(j: float, a_exponent: float) -> float:
    """R = -log2(j) / A for j in (0, 1]."""
    if not 0.0 < j <= 1.0:
        raise ValueError(f"expectation must lie in (0, 1], got {j!r}")
    if a_exponent <= 0:
        raise ValueError(f"A must be > 0, got {a_exponent!r}")
    return -math.log2(j) / a_exponent


def _log_peak(a: float) -> float:
    """K = A ln A - A - ln Gamma(A), the log of the weight's peak s^A e^-s / Gamma(A).

    Past A = 30 the two terms cancel to ~0.5 ln A, so K comes from the
    Stirling remainder, whose first omitted term is under 1e-16 there.
    """
    if a < 30.0:
        return a * math.log(a) - a - ln_gamma(a)
    r = 1.0 / (a * a)
    return (0.5 * math.log(a / (2.0 * math.pi))
            - (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / a)


def _adaptive_quadrature(params: ChannelParams, derived: DerivedParams,
                         a_exponent: float, rel_tol: float) -> tuple[float, float, int]:
    """Nested exp-sinh trapezoid rule for s^(A-1) e^-s M(s) / Gamma(A).

    With x = ln s = c + w (pi/2) sinh t the integrand decays double-
    exponentially in t at both ends, and the two scales s ~ 1/gamma_bar and
    s ~ A become smooth bumps that the trapezoid rule resolves at geometric
    speed.  For A > 1 the map is centred on the weight's peak, c = ln A, and
    narrowed to its width, w = min(1, 2/sqrt(A)); for A <= 1, c = 0 and
    w = 1.  The log integrand is written about the peak,
    A (y - expm1 y) + K with y = x - ln A (see :func:`_log_peak`), so that
    nothing of size A ln A cancels at large A.  Each level halves the step
    from h = 1/2, reuses the previous sum and samples the log integrand with
    one vectorized ``log_mgf`` call.  The x-window drops under 1e-19 of J:
    the mass below x_lo is at most e^(-45-5A)/Gamma(A+1) of J by the Jensen
    bound J >= (1+gamma_bar)^-A, and the mass above s = 60 + 2A at most
    Q(A, s)/P(A, A) of J, since M(s) decreases.

    Returns (value, relative difference of the last two levels, level) once
    that difference is within ``rel_tol``; raises :class:`ConvergenceError`
    otherwise.
    """
    a = a_exponent
    log_a = math.log(a)
    c = max(log_a, 0.0)
    scale = min(1.0, 2.0 / math.sqrt(a)) * _HALF_PI
    log_peak = _log_peak(a)
    x_lo = -45.0 / a - 5.0 - math.log1p(params.gamma_bar)
    x_hi = math.log(60.0 + 2.0 * a)
    t_lo = math.asinh((x_lo - c) / scale)
    t_hi = math.asinh((x_hi - c) / scale)

    def node_sum(h: float, step: int) -> float:
        # integrand summed over t = k*h in the window; step 2 keeps the odd k,
        # the nodes the previous level lacks
        k0 = math.ceil(t_lo / h)
        if step == 2:
            k0 |= 1
        t = h * np.arange(k0, math.floor(t_hi / h) + 1, step)
        u = scale * np.sinh(t)
        y = u + (c - log_a)
        log_f = (a * (y - np.expm1(y)) + log_peak
                 + log_mgf(params, derived, np.exp(c + u))
                 + np.log(scale * np.cosh(t)))
        return float(np.sum(np.exp(log_f)))

    h = 0.5
    total = h * node_sum(h, 1)
    diff = math.inf
    for level in range(1, DE_LEVELS + 1):
        h /= 2.0
        prev, total = total, 0.5 * total + h * node_sum(h, 2)
        if not (math.isfinite(total) and total > 0.0):
            break
        diff = abs(total - prev) / total
        if diff <= rel_tol:
            return total, diff, level
    raise ConvergenceError(
        f"double-exponential quadrature reached rel diff {diff:.2e} on value "
        f"{total!r} at level {level} (target {rel_tol:.1e}) for A={a_exponent}, "
        f"params={params}",
        achieved=diff)


def expectation_quadrature(params: ChannelParams, derived: DerivedParams,
                           a_exponent: float, rel_tol: float = 1e-8,
                           diagnostics: list | None = None) -> tuple[float, float]:
    """J by the MGF integral; returns (value, relative error estimate).

    Runs the nested double-exponential rule in log s
    (:func:`_adaptive_quadrature`), which stops once two levels agree within
    ``rel_tol`` and raises :class:`ConvergenceError` if none do.  The error
    estimate is that last difference; the level reached is recorded in
    diagnostics as ``quadrature_level``.
    """
    if a_exponent <= 0:
        raise ValueError(f"A must be > 0, got {a_exponent!r}")
    value, err, level = _adaptive_quadrature(params, derived, a_exponent, rel_tol)
    if diagnostics is not None:
        diagnostics.append(("quadrature_level", str(level)))
    return value, err


#: Switch to extended precision when the residue majorant exceeds J by more
#: than this.  The majorant sum_ij E_ij W_ij, with E_ij >= |A_ij| the running
#: envelope of the residue recursion (``poles._taylor_coefficients``), is what
#: the rounding of the residue table is amplified by; at this limit that
#: rounding is of order 1e-10 of J per unit of pole multiplicity.  The gate is
#: a conditioning limit, not a certified bound on J.
CLOSED_FORM_COND_LIMIT = 1e6

#: Largest share of J that the certified U errors, sum_ij |A_ij| err(W_ij),
#: may reach before every term is recomputed to the accuracy that share asks
#: for.  Each U term is first certified to ``specfun._U_TOL`` = 1e-10, which
#: would allow 1e-4 of J at ``CLOSED_FORM_COND_LIMIT``.  Also the share of J
#: the extended-precision sum's error estimate must reach, and the error
#: estimate reported for a closed-form value.
U_SUM_TOL = 1e-9


def _term_sums(expansion: PartialFractionExpansion, a_exponent: float,
               gamma_bar: float, rel_tol: float) -> tuple[float, float, float, float]:
    """sum A_ij W_ij, sum E_ij W_ij, sum |A_ij| W_ij and sum |A_ij| err(W_ij).

    One :func:`specfun.u_family` per pole, every term certified to ``rel_tol``.
    """
    contributions, envelope, magnitude, u_error = [], [], [], []
    for (theta, _, coeffs), majorants in zip(expansion.terms, expansion.majorants):
        n = max((j for j, a_ij in enumerate(coeffs, start=1) if a_ij), default=0)
        if n == 0:
            continue
        family = u_family(a_exponent, theta / gamma_bar, n, rel_tol)
        for a_ij, e_ij, w_j, err_j in zip(coeffs, majorants, family.values, family.bounds):
            contributions.append(a_ij * w_j)
            envelope.append(e_ij * w_j)
            magnitude.append(abs(a_ij) * w_j)
            u_error.append(abs(a_ij) * err_j)
    return (math.fsum(contributions), math.fsum(envelope), math.fsum(magnitude),
            math.fsum(u_error))


def expectation_closed_form(params: ChannelParams, derived: DerivedParams,
                            expansion: PartialFractionExpansion,
                            a_exponent: float,
                            diagnostics: list | None = None) -> float:
    """J from the partial fractions: sum_ij A_ij (theta_i/g)^j U(j; j-A+1; theta_i/g).

    Each basis term's expectation is exactly Gamma(j) U(j; j-A+1; theta/g)
    times the density normalization (theta/g)^j / Gamma(j), so the gammas
    cancel and only W_j = z^j U(j; j-A+1; z) remains, one
    :func:`specfun.u_family` per pole.  The terms encode the vanishing
    density derivatives at zero through cancellation; when the residue
    majorant exceeds J by more than ``CLOSED_FORM_COND_LIMIT`` (high mean SNR
    with large A, or high pole multiplicity) or J comes out <= 0, the sum is
    re-evaluated in extended precision, and the
    ``closed_form_extended_precision`` diagnostic records that ratio and the
    digits used.  Otherwise, when the certified U errors exceed ``U_SUM_TOL``
    of J, the terms are recomputed to the relative accuracy that brings them
    under it.
    """
    if a_exponent <= 0:
        raise ValueError(f"A must be > 0, got {a_exponent!r}")
    gbar = params.gamma_bar
    value, majorant, magnitude, u_error = _term_sums(expansion, a_exponent, gbar, _U_TOL)
    if value <= 0.0 or majorant > CLOSED_FORM_COND_LIMIT * value:
        from ._extended import expectation_closed_form_mp

        cond = majorant / value if value > 0.0 else math.inf
        value, digits = expectation_closed_form_mp(params, a_exponent)
        if diagnostics is not None:
            diagnostics.append(("closed_form_extended_precision",
                                f"residue majorant {cond:.1e}; {digits} digits"))
    elif u_error > U_SUM_TOL * value:
        # magnitude <= majorant keeps this tolerance above 1e-15
        value = _term_sums(expansion, a_exponent, gbar, U_SUM_TOL * value / magnitude)[0]
    if not 0.0 < value < 1.0 + 1e-12:
        raise ArithmeticError(f"closed-form expectation out of (0, 1): {value!r}")
    return min(value, 1.0)


def _closed_form(params: ChannelParams, derived: DerivedParams, a_exponent: float,
                 diagnostics: list) -> float:
    """J by the partial-fraction route: build the expansion, then sum it."""
    return expectation_closed_form(params, derived, decompose(params, derived),
                                   a_exponent, diagnostics)


def closed_form_applies(params: ChannelParams) -> bool:
    """True when the pole/residue route exists for these parameters."""
    try:
        pole_exponents(params)
    except ClosedFormUnavailableError:
        return False
    return True


def er_auto(request: ErRequest, mc_config=None) -> ErResult:
    """Dispatching front end: closed form when available, else quadrature.

    ``method="auto"`` runs the closed form whenever the parameters admit it
    and cross-evaluates the quadrature route, recording the relative
    discrepancy under the ``cross_check_rel_diff`` diagnostic.  It returns
    the quadrature value instead when the closed form raises (recorded as
    ``closed_form_failed``) or when the engines differ by more than
    ``CROSS_REL_TOL`` (recorded as ``engines_disagree``, with the difference
    folded into the error estimate).  The explicit methods run exactly what
    was asked for (raising if unavailable); ``monte_carlo`` delegates to the
    sampling engine.
    """
    params = request.params
    validate(params)
    a = request.a_exponent
    diagnostics: list[tuple[str, str]] = []

    if request.method == "monte_carlo":
        from .mc import McConfig, estimate_er  # local import to avoid cycles

        estimate = estimate_er(params, a, mc_config or McConfig())
        diagnostics.extend([("n_samples", str(estimate.n_samples)),
                            ("seed", str(estimate.seed))])
        return ErResult(expectation_j=estimate.j_hat, rate=estimate.rate_hat,
                        method_used="monte_carlo",
                        error_estimate=estimate.j_stderr,
                        diagnostics=tuple(diagnostics))

    def result(j: float, method: str, err: float) -> ErResult:
        return ErResult(expectation_j=j, rate=effective_rate(j, a), method_used=method,
                        error_estimate=err, diagnostics=tuple(diagnostics))

    derived = derive(params)
    if request.method == "closed_form":
        return result(_closed_form(params, derived, a, diagnostics), "closed_form",
                      U_SUM_TOL)

    j_closed = None
    if request.method == "auto" and closed_form_applies(params):
        try:
            j_closed = _closed_form(params, derived, a, diagnostics)
        except (ConvergenceError, ClosedFormUnavailableError, ArithmeticError) as exc:
            diagnostics.append(("closed_form_failed", f"{type(exc).__name__}: {exc}"))

    j_quad, err = expectation_quadrature(params, derived, a,
                                         request.rel_tol, diagnostics)
    if j_closed is not None:
        diff = abs(j_quad - j_closed) / j_closed
        # unrounded, so that the error estimate below bounds the reported value
        diagnostics.append(("cross_check_rel_diff", repr(diff)))
        if diff <= CROSS_REL_TOL:
            return result(j_closed, "closed_form", max(U_SUM_TOL, diff))
        diagnostics.append(("engines_disagree",
                            f"closed form {j_closed:.9e} rejected "
                            f"(limit {CROSS_REL_TOL:.0e})"))
        err = max(err, diff)
    return result(j_quad, "quadrature", err)
