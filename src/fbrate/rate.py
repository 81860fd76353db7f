"""Effective rate: J = E[(1+gamma)^-A] and R = -log2(J)/A, by two exact routes.

The quadrature route integrates the MGF against the weight s**(A-1) e**(-s)
with one nested double-exponential rule in log s, centred on the weight's
peak; it resolves the second scale the integrand gains at s ~ 1/gamma_bar at
high SNR and stops at the caller's ``rel_tol``.
The closed-form route expands the rational MGF into partial fractions and
evaluates each distinct pole's Tricomi-U family at once: one exponential
integral and a recurrence, certified term by term; where its terms cancel
the gamma-mixture series (``_extended``) replaces it.  Both compute the
identical scalar; ``er_auto`` dispatches and cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._extended import mixture_series
from .errors import ClosedFormUnavailableError, ConvergenceError, ParameterError
from .mgf import log_mgf
from .model import ChannelParams, DerivedParams, derive, validate
from .poles import PartialFractionExpansion, decompose, pole_exponents
from .specfun import ln_gamma, u_family


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


#: Hand J to the gamma-mixture series when the residue majorant
#: sum_ij E_ij W_ij (E_ij >= |A_ij| the envelope of the residue recursion,
#: ``poles._taylor_coefficients``) exceeds it by more than this.  The majorant
#: amplifies the rounding of the residue table, to ~1e-10 of J per unit of
#: pole multiplicity at this limit: a conditioning limit, not a bound on J.
CLOSED_FORM_COND_LIMIT = 1e6

#: Largest share of J that the certified U errors, sum_ij |A_ij| err(W_ij),
#: may reach before J is handed to the series (each U term is certified to
#: ``specfun._U_TOL`` = 1e-10).  Also the bound the series meets, and the
#: error estimate reported for a closed-form value.
U_SUM_TOL = 1e-9


def _term_sums(expansion: PartialFractionExpansion, a_exponent: float,
               gamma_bar: float) -> tuple[float, float, float]:
    """sum A_ij W_ij, sum E_ij W_ij and sum |A_ij| err(W_ij).

    One :func:`specfun.u_family` per pole, every term certified to ``_U_TOL``.
    """
    contributions, envelope, u_error = [], [], []
    for (theta, w, coeffs), majorants in zip(expansion.terms, expansion.majorants):
        family = u_family(a_exponent, theta / gamma_bar, w)
        for a_ij, e_ij, w_j, err_j in zip(coeffs, majorants, family.values, family.bounds):
            contributions.append(a_ij * w_j)
            envelope.append(e_ij * w_j)
            u_error.append(abs(a_ij) * err_j)
    return math.fsum(contributions), math.fsum(envelope), math.fsum(u_error)


def expectation_closed_form(params: ChannelParams, derived: DerivedParams,
                            expansion: PartialFractionExpansion,
                            a_exponent: float,
                            diagnostics: list | None = None) -> float:
    """J from the partial fractions: sum_ij A_ij (theta_i/g)^j U(j; j-A+1; theta_i/g).

    Each basis term's expectation is exactly Gamma(j) U(j; j-A+1; theta/g)
    times the density normalization (theta/g)^j / Gamma(j), so the gammas
    cancel and only W_j = z^j U(j; j-A+1; z) remains, one
    :func:`specfun.u_family` per pole.  The terms encode the vanishing
    density derivatives at zero through cancellation, so the sum is kept
    only if certified: J > 0, the residue majorant within
    ``CLOSED_FORM_COND_LIMIT`` J and the U errors within ``U_SUM_TOL`` J.
    Otherwise J comes from :func:`_extended.mixture_series`, and the
    ``closed_form_series`` diagnostic records why, its length and its
    relative bound.
    """
    if a_exponent <= 0:
        raise ValueError(f"A must be > 0, got {a_exponent!r}")
    value, majorant, u_error = _term_sums(expansion, a_exponent, params.gamma_bar)
    reason = None
    if value <= 0.0:
        reason = f"partial-fraction sum {value:.1e}"
    elif majorant > CLOSED_FORM_COND_LIMIT * value:
        reason = f"residue majorant {majorant / value:.1e}"
    elif u_error > U_SUM_TOL * value:
        reason = f"U share {u_error / value:.1e}"
    if reason is not None:
        value, bound, n_terms = mixture_series(params, derived, a_exponent, U_SUM_TOL)
        if diagnostics is not None:
            diagnostics.append(("closed_form_series",
                                f"{reason}; {n_terms} terms; bound {bound / value:.1e}"))
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
